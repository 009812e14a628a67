(* An in-memory relation: a schema plus an immutable sequence of row
   chunks.  Operators produce fresh relations; storage-level tables and
   rendered views hold stored ones, whose chunks also carry zones.

   Every chunk holds between 1 and [chunk_size] rows.  A chunk array of
   at most 256 words is a small block, allocated on the minor heap
   (Max_young_wosize), so building, copying or replacing one never
   touches the major heap, and an edit that changes one row copies one
   chunk, not the relation.  Nothing writes into a chunk, or into the
   chunk array of a relation, once it is built: relations, the versions
   that captured them and their derived relations share chunks
   freely.  The one exception is a stored chunk's key summaries
   ([keys] below), a memo that only [edit] reads and fills. *)

let chunk_size = 256

(* A chunk's zone, for a stored relation: for each column j,
   [zone.(2j)] and [zone.(2j+1)] bound its Int values when every
   non-NULL value of column j in the chunk is an Int (an all-NULL
   column gives the empty zone [max_int, min_int]).  The full range
   [min_int, max_int] means "unknown": a non-Int column, or an Int
   column holding some other value.  An unzoned chunk has [zone = [||]].

   [keys] memoizes key summaries for [edit]: [keys.(j)], once built, is
   the sorted Int values of column j (NULLs left out), for a column
   whose zone is known.  [[||]] is "not built": a summary is built only
   for a zone that spans two distinct values, so it is never empty.
   The field is written by the one writer that edits the relation, and
   only ever to a fresh, complete array holding one summary more than
   the last; no array it has pointed to is written again.  Readers of
   other domains share the chunk but never read [keys]. *)
type chunk = {
  rows : Row.t array;
  zone : int array;
  mutable keys : int array array;
}

type t = {
  schema : Schema.t;
  chunks : chunk array;
  starts : int array; (* starts.(c): rows before chunk c; one extra entry, the cardinality *)
}

(* the fill value of chunk arrays, built at start-up and so never young
   once the first minor collection has run (see [Row.array_init]) *)
let empty_chunk = { rows = [||]; zone = [||]; keys = [||] }
let unzoned rows = { rows; zone = [||]; keys = [||] }

let zone_of (schema : Schema.t) (rows : Row.t array) =
  let ncols = Array.length schema in
  let zone = Array.make (2 * ncols) 0 in
  for j = 0 to ncols - 1 do
    let lo = ref max_int and hi = ref min_int and known = ref true in
    if schema.(j).Schema.ty <> Dtype.Int then known := false
    else
      Array.iter
        (fun (row : Row.t) ->
          if !known then
            if j >= Array.length row then known := false
            else
              match row.(j) with
              | Value.Int v ->
                if v < !lo then lo := v;
                if v > !hi then hi := v
              | Value.Null -> ()
              | _ -> known := false)
        rows;
    zone.(2 * j) <- (if !known then !lo else min_int);
    zone.((2 * j) + 1) <- (if !known then !hi else max_int)
  done;
  zone

let zoned schema rows = { rows; zone = zone_of schema rows; keys = [||] }

let of_chunks schema chunks =
  let n = Array.length chunks in
  let starts = Array.make (n + 1) 0 in
  for c = 0 to n - 1 do
    starts.(c + 1) <- starts.(c) + Array.length chunks.(c).rows
  done;
  { schema; chunks; starts }

(* [chunks] reversed into a fresh array, filled from a constant *)
let chunks_of_rev_list rev =
  let n = List.length rev in
  let chunks = Array.make n empty_chunk in
  List.iteri (fun k c -> chunks.(n - 1 - k) <- c) rev;
  chunks

let empty schema = { schema; chunks = [||]; starts = [| 0 |] }

(* [n] rows [f 0 .. f (n-1)], evaluated in index order, cut into full
   chunks *)
let init schema n (f : int -> Row.t) =
  let nchunks = (n + chunk_size - 1) / chunk_size in
  let chunks = Array.make nchunks empty_chunk in
  for c = 0 to nchunks - 1 do
    let base = c * chunk_size in
    let rows = Array.make (min chunk_size (n - base)) [||] in
    for i = 0 to Array.length rows - 1 do
      rows.(i) <- f (base + i)
    done;
    chunks.(c) <- unzoned rows
  done;
  of_chunks schema chunks

(* A short array becomes the one chunk as it is; a longer one is cut. *)
let of_array schema (rows : Row.t array) =
  let n = Array.length rows in
  if n = 0 then empty schema
  else if n <= chunk_size then of_chunks schema [| unzoned rows |]
  else init schema n (fun i -> rows.(i))

(* [make schema (List.rev rev)] without the reversed copy, and filled
   from a constant rather than by [Array.of_list]: see [Row.array_init]. *)
let of_rev_list schema rev =
  let n = List.length rev in
  let nchunks = (n + chunk_size - 1) / chunk_size in
  let chunks = Array.make nchunks empty_chunk in
  for c = 0 to nchunks - 1 do
    chunks.(c) <- unzoned (Array.make (min chunk_size (n - (c * chunk_size))) [||])
  done;
  List.iteri
    (fun k row ->
      let i = n - 1 - k in
      chunks.(i / chunk_size).rows.(i mod chunk_size) <- row)
    rev;
  of_chunks schema chunks

let make schema rows = of_rev_list schema (List.rev rows)
let schema r = r.schema
let cardinality r = r.starts.(Array.length r.chunks)
let is_empty r = cardinality r = 0

let rows r =
  match r.chunks with
  | [||] -> [||]
  | [| c |] -> c.rows
  | chunks ->
    let out = Array.make (cardinality r) [||] in
    Array.iteri
      (fun k c -> Array.blit c.rows 0 out r.starts.(k) (Array.length c.rows))
      chunks;
    out

let to_list r = Array.fold_right (fun c acc -> Array.fold_right List.cons c.rows acc) r.chunks []
let iter f r = Array.iter (fun c -> Array.iter f c.rows) r.chunks

let iteri f r =
  Array.iteri
    (fun k c ->
      let base = r.starts.(k) in
      Array.iteri (fun i row -> f (base + i) row) c.rows)
    r.chunks

(* The chunk holding row [i]: its index is [i / chunk_size] while every
   chunk before it is full, and a binary search over [starts] once
   edits have shortened some. *)
let locate r i =
  let n = Array.length r.chunks in
  if i < 0 || i >= r.starts.(n) then invalid_arg "Relation.get";
  let guess = i / chunk_size in
  if guess < n && r.starts.(guess) <= i && i < r.starts.(guess + 1) then guess
  else
    (* the last chunk [c] with starts.(c) <= i *)
    let rec go lo hi = if hi - lo <= 1 then lo else
        let mid = (lo + hi) / 2 in
        if r.starts.(mid) <= i then go mid hi else go lo mid
    in
    go 0 n

let get r i =
  let c = locate r i in
  r.chunks.(c).rows.(i - r.starts.(c))

(* [Array.map f chunks], filled from a constant *)
let map_chunks f chunks =
  let out = Array.make (Array.length chunks) empty_chunk in
  Array.iteri (fun k c -> out.(k) <- f c) chunks;
  out

(* Row-for-row images keep the chunk boundaries; the zones no longer
   describe the rows, so they are dropped. *)
let map_chunk (f : Row.t -> Row.t) c =
  let rows = c.rows in
  let out = Array.make (Array.length rows) [||] in
  for i = 0 to Array.length rows - 1 do
    out.(i) <- f rows.(i)
  done;
  unzoned out

let map schema (f : Row.t -> Row.t) r =
  { r with schema; chunks = map_chunks (map_chunk f) r.chunks }

let column_values r i =
  let out = Array.make (cardinality r) Value.Null in
  iteri (fun k row -> out.(k) <- Row.get row i) r;
  out

(* UNION ALL: the chunks of both, shared. *)
let concat a b =
  if is_empty b then a
  else if is_empty a then { b with schema = a.schema }
  else of_chunks a.schema (Array.append a.chunks b.chunks)

(* ---- Zones ---- *)

(* Whether a chunk may hold a row whose column c is an Int in [lo, hi]
   for each (c, lo, hi) of [ranges]. *)
(* No closure is built, so a scan or an edit allocates nothing per
   chunk to test its zone. *)
let rec admits_all zone = function
  | [] -> true
  | (c, lo, hi) :: ranges ->
    let zlo = zone.(2 * c) and zhi = zone.((2 * c) + 1) in
    ((zlo = min_int && zhi = max_int) || (lo <= hi && lo <= zhi && zlo <= hi))
    && admits_all zone ranges

let admits zone ranges = Array.length zone = 0 || admits_all zone ranges

(* ---- Key summaries ----

   Rows appended in no particular key order give zones that span most
   keys, so a zone alone admits a point range into every such chunk.
   Once a zone has admitted [(j, lo, hi)], the chunk holds a row in it
   for certain when the range reaches either bound of the zone, as both
   bounds are values of the chunk.  Otherwise the chunk's sorted column
   (its summary) decides, built on first use, when the zone spans more
   values than the chunk has rows, so that a miss is likely.  A denser
   column is taken to hold the range, as by its zone alone. *)

(* column [j]'s Int values, sorted: its zone is known, so every non-NULL
   value is an Int *)
let summary c j =
  let n = ref 0 in
  Array.iter (fun (row : Row.t) -> match row.(j) with Value.Int _ -> incr n | _ -> ()) c.rows;
  let keys = Array.make !n 0 and k = ref 0 and sorted = ref true in
  Array.iter
    (fun (row : Row.t) ->
      match row.(j) with
      | Value.Int v ->
        if !k > 0 && keys.(!k - 1) > v then sorted := false;
        keys.(!k) <- v;
        incr k
      | _ -> ())
    c.rows;
  if not !sorted then Array.stable_sort Int.compare keys;
  keys

(* the summary of column [j], built and memoized on first use *)
let keys_of c j =
  if Array.length c.keys > 0 && Array.length c.keys.(j) > 0 then c.keys.(j)
  else begin
    let keys = summary c j in
    let memo =
      if Array.length c.keys = 0 then Array.make (Array.length c.zone / 2) [||]
      else Array.copy c.keys
    in
    memo.(j) <- keys;
    c.keys <- memo;
    keys
  end

(* whether some value of the sorted [keys] lies in [[lo, hi]] *)
let any_within (keys : int array) lo hi =
  (* the first index whose key is >= lo *)
  let rec first a b =
    if a >= b then a
    else
      let mid = (a + b) / 2 in
      if keys.(mid) < lo then first (mid + 1) b else first a mid
  in
  let i = first 0 (Array.length keys) in
  i < Array.length keys && keys.(i) <= hi

(* whether some row's column [j] is an Int in [[lo, hi]], row by row *)
let any_row_within c j lo hi =
  let rec from i =
    i < Array.length c.rows
    && ((match c.rows.(i).(j) with Value.Int v -> lo <= v && v <= hi | _ -> false)
       || from (i + 1))
  in
  from 0

(* Whether a zoned chunk, whose zone admits [ranges], holds a row in
   each of them.  An [open_tail] chunk, the last one with room, is
   read row by row instead: the next append replaces it, so a summary
   of it would serve one edit. *)
let rec holds_each ~open_tail c = function
  | [] -> true
  | (j, lo, hi) :: ranges ->
    let zlo = c.zone.(2 * j) and zhi = c.zone.((2 * j) + 1) in
    let span = zhi - zlo in
    ((zlo = min_int && zhi = max_int)
    || lo <= zlo || hi >= zhi
    || (span >= 0 && span < Array.length c.rows)
    || if open_tail then any_row_within c j lo hi else any_within (keys_of c j) lo hi)
    && holds_each ~open_tail c ranges

(* The chunks [edit] visits: those that may hold a row in every range of
   one of the lists. *)
let rec visits ~open_tail c = function
  | [] -> false
  | ranges :: rest ->
    Array.length c.zone = 0
    || (admits_all c.zone ranges && holds_each ~open_tail c ranges)
    || visits ~open_tail c rest

(* [sieve keep c]: the rows of [c] for which [keep] holds, in order:
   [c] itself when all of them do, [None] when none does.  Each row's
   outcome is marked in a byte buffer the sieve keeps, so a partly
   passing chunk costs its new rows and not an index array. *)
let sieve (keep : Row.t -> bool) =
  let marks = Bytes.create chunk_size in
  fun c ->
    let rows = c.rows in
    let m = ref 0 in
    for i = 0 to Array.length rows - 1 do
      if keep rows.(i) then begin
        Bytes.set marks i '\001';
        incr m
      end
      else Bytes.set marks i '\000'
    done;
    if !m = Array.length rows then Some c
    else if !m = 0 then None
    else begin
      let out = Array.make !m [||] and k = ref 0 in
      for i = 0 to Array.length rows - 1 do
        if Bytes.get marks i <> '\000' then begin
          out.(!k) <- rows.(i);
          incr k
        end
      done;
      Some (unzoned out)
    end

let filter ranges (keep : Row.t -> bool) r =
  let sieve = sieve keep in
  let out = ref [] and changed = ref false in
  Array.iter
    (fun c ->
      match if admits c.zone ranges then sieve c else None with
      | Some kept ->
        if kept != c then changed := true;
        out := kept :: !out
      | None -> changed := true)
    r.chunks;
  if not !changed then r else of_chunks r.schema (chunks_of_rev_list !out)

let store r =
  if Array.for_all (fun c -> Array.length c.zone > 0) r.chunks then r
  else
    {
      r with
      chunks =
        map_chunks (fun c -> if Array.length c.zone > 0 then c else zoned r.schema c.rows) r.chunks;
    }

let append_rows r (rows : Row.t array) =
  if Array.length rows = 0 then r
  else begin
    let n = Array.length r.chunks in
    (* the tail chunk is copied with as many new rows as it has room for *)
    let tail, kept =
      if n > 0 && Array.length r.chunks.(n - 1).rows < chunk_size then
        (r.chunks.(n - 1).rows, n - 1)
      else ([||], n)
    in
    let fresh = Array.append tail rows in
    let extra = (Array.length fresh + chunk_size - 1) / chunk_size in
    let chunks = Array.make (kept + extra) empty_chunk in
    Array.blit r.chunks 0 chunks 0 kept;
    for c = 0 to extra - 1 do
      let base = c * chunk_size in
      chunks.(kept + c) <-
        zoned r.schema (Array.sub fresh base (min chunk_size (Array.length fresh - base)))
    done;
    of_chunks r.schema chunks
  end

let edit r ~admit f =
  let n = Array.length r.chunks in
  let out = Array.make n empty_chunk and len = ref 0 and changed = ref false in
  (* while every replaced chunk keeps its length, so do the offsets *)
  let same_starts = ref true in
  for i = 0 to n - 1 do
    let c = r.chunks.(i) in
    let open_tail = i = n - 1 && Array.length c.rows < chunk_size in
    match if visits ~open_tail c admit then f c.rows else None with
    | None ->
      out.(!len) <- c;
      incr len
    | Some rows ->
      changed := true;
      if Array.length rows <> Array.length c.rows then same_starts := false;
      if Array.length rows > 0 then
        (* a shortened chunk folds into its predecessor if both fit *)
        if !len > 0 && Array.length out.(!len - 1).rows + Array.length rows <= chunk_size then
          out.(!len - 1) <- zoned r.schema (Array.append out.(!len - 1).rows rows)
        else begin
          out.(!len) <- zoned r.schema rows;
          incr len
        end
  done;
  if not !changed then r
  else if !same_starts && !len = n then { r with chunks = out }
  else of_chunks r.schema (if !len = n then out else Array.sub out 0 !len)

let chunk = zoned
let chunk_rows c = c.rows

(* ---- Streams of chunks ---- *)

let chunks r = r.chunks
let chunk_length c = Array.length c.rows
let admits_chunk ranges c = admits c.zone ranges
let of_rev_chunks schema rev = of_chunks schema (chunks_of_rev_list rev)

(* Rows gathered into full chunks.  A chunk array that has been handed
   on is never written again: the next row starts a fresh one. *)
type builder = {
  emit : chunk -> unit;
  mutable buf : Row.t array;
  mutable fill : int;
}

let builder emit = { emit; buf = [||]; fill = 0 }

let push b row =
  if b.fill = 0 then b.buf <- Array.make chunk_size [||];
  b.buf.(b.fill) <- row;
  b.fill <- b.fill + 1;
  if b.fill = chunk_size then begin
    b.fill <- 0;
    b.emit (unzoned b.buf)
  end

let flush b =
  if b.fill > 0 then begin
    let rows = Array.sub b.buf 0 b.fill in
    b.fill <- 0;
    b.emit (unzoned rows)
  end

let of_chunks_at schema chunks ~starts = { schema; chunks; starts }

(* Order-insensitive multiset equality, used heavily in tests: two query
   results are the same if they contain the same rows the same number of
   times. *)
(* [rows r], never the relation's own chunk *)
let fresh_rows r = match r.chunks with [| c |] -> Array.copy c.rows | _ -> rows r

let equal_bag a b =
  cardinality a = cardinality b
  &&
  let sort r =
    let copy = fresh_rows r in
    Array.sort Row.compare copy;
    copy
  in
  let sa = sort a and sb = sort b in
  Array.for_all2 Row.equal sa sb

let equal_ordered a b =
  cardinality a = cardinality b && Array.for_all2 Row.equal (rows a) (rows b)

let sorted_by_all r =
  let copy = fresh_rows r in
  Array.sort Row.compare copy;
  of_array r.schema copy

(* ---- Tables: the ASCII rendering and its JSON form ----

   A table is laid out in two passes over its shown rows.  The first
   measures: each column's width, from its cells' text lengths, and,
   for the JSON form, the bytes escaping adds, so the table's length is
   exact before a byte is written.  The second writes the lines in
   order: a rule, the header row, a rule, one line per row, a rule,
   then the trailer line when rows are cut.  Column j's cell is a
   space, the text, its padding to [widths.(j)] and a space, then the
   column's right border.

   The JSON form is the same table escaped as the contents of a JSON
   string: each newline is written "\n", and header and string cells
   go through [Escape]; the other cells' text (digits, signs, '.',
   'e', "inf", "nan", dates, NULL, TRUE, FALSE) never needs an escape.
   [render] is the plain form: one layout code, not two. *)

type table = {
  json : bool;
  rel : t;
  shown : int;
  headers : string array;
  widths : int array;
  kept : string array;  (* see [table] *)
  trailer : string;  (* without its newline; [""] when every row is shown *)
  length : int;
}

let table ?(max_rows = 40) ~json r =
  let headers = Array.map (fun c -> Schema.qualified_name c) r.schema in
  let ncols = Array.length headers in
  let shown = min max_rows (cardinality r) in
  (* the rows of chunk [c] that are shown: [0 .. visible c - 1] *)
  let visible c = Int.max 0 (Int.min (Array.length r.chunks.(c).rows) (shown - r.starts.(c))) in
  (* the bytes the JSON escape adds to the header and string cells *)
  let escape s = if json then Escape.escaped_length s - String.length s else 0 in
  let escapes = ref (Array.fold_left (fun n h -> n + escape h) 0 headers) in
  (* The text of a [Value.printed] cell is formatted once, here, and
     kept for the second pass at [row * ncols + column] of [kept],
     which holds [""] for every other cell (a printed text is never
     empty).  [kept] is made when the first such cell is met, so an
     answer without one keeps nothing. *)
  let widths = Array.map String.length headers in
  let kept = ref [||] in
  for c = 0 to Array.length r.chunks - 1 do
    let rows = r.chunks.(c).rows in
    for i = 0 to visible c - 1 do
      let row = rows.(i) in
      for j = 0 to ncols - 1 do
        let w =
          match row.(j) with
          | Value.String s ->
            escapes := !escapes + escape s;
            String.length s
          | (Value.Int _ | Value.Null | Value.Bool _) as v -> Value.text_length v
          | v when Value.printed v ->
            let s = Value.to_string v in
            if Array.length !kept = 0 then kept := Array.make (shown * ncols) "";
            !kept.(((r.starts.(c) + i) * ncols) + j) <- s;
            String.length s
          | v -> Value.text_length v
        in
        if w > widths.(j) then widths.(j) <- w
      done
    done
  done;
  let newline = if json then 2 else 1 in
  (* a line: the left border, then per column a space, the cell, a
     space and the border *)
  let line = Array.fold_left (fun n w -> n + w + 3) 1 widths + newline in
  let trailer =
    if shown < cardinality r then Printf.sprintf "... (%d of %d rows shown)" shown (cardinality r)
    else ""
  in
  let length =
    ((shown + 4) * line) + !escapes
    + if trailer = "" then 0 else String.length trailer + newline
  in
  { json; rel = r; shown; headers; widths; kept = !kept; trailer; length }

let table_length t = t.length

let blit_newline t b at =
  if t.json then begin
    Bytes.set b at '\\';
    Bytes.set b (at + 1) 'n';
    at + 2
  end
  else begin
    Bytes.set b at '\n';
    at + 1
  end

let blit_rule t b at =
  Bytes.set b at '+';
  let at = ref (at + 1) in
  for j = 0 to Array.length t.widths - 1 do
    let w = t.widths.(j) + 2 in
    Bytes.fill b !at w '-';
    Bytes.set b (!at + w) '+';
    at := !at + w + 1
  done;
  blit_newline t b !at

(* a header or string cell's text, escaped in the JSON form *)
let blit_string t s b at =
  if t.json then Escape.blit_escaped s b at
  else begin
    Bytes.blit_string s 0 b at (String.length s);
    at + String.length s
  end

(* The end of column [j]'s cell, whose text of [len] bytes (before
   any escape) ends at [at]: the padding, a space and the border. *)
let close_cell t j len b at =
  let stop = at + t.widths.(j) - len + 1 in
  for k = at to stop - 1 do
    Bytes.set b k ' '
  done;
  Bytes.set b stop '|';
  stop + 1

let blit_table t b at =
  let at = ref (blit_rule t b at) in
  Bytes.set b !at '|';
  incr at;
  for j = 0 to Array.length t.headers - 1 do
    let h = t.headers.(j) in
    Bytes.set b !at ' ';
    at := close_cell t j (String.length h) b (blit_string t h b (!at + 1))
  done;
  at := blit_rule t b (blit_newline t b !at);
  let r = t.rel and ncols = Array.length t.headers in
  for c = 0 to Array.length r.chunks - 1 do
    let rows = r.chunks.(c).rows in
    for i = 0 to Int.min (Array.length rows) (t.shown - r.starts.(c)) - 1 do
      let row = rows.(i) and k = (r.starts.(c) + i) * ncols in
      Bytes.set b !at '|';
      incr at;
      for j = 0 to ncols - 1 do
        Bytes.set b !at ' ';
        let start = !at + 1 in
        at :=
          match row.(j) with
          | Value.String s -> close_cell t j (String.length s) b (blit_string t s b start)
          | v ->
            let stop =
              if Array.length t.kept = 0 || String.length t.kept.(k + j) = 0 then
                Value.blit_text v b start
              else begin
                let s = t.kept.(k + j) in
                Bytes.blit_string s 0 b start (String.length s);
                start + String.length s
              end
            in
            close_cell t j (stop - start) b stop
      done;
      at := blit_newline t b !at
    done
  done;
  at := blit_rule t b !at;
  if t.trailer = "" then !at
  else begin
    Bytes.blit_string t.trailer 0 b !at (String.length t.trailer);
    blit_newline t b (!at + String.length t.trailer)
  end

let render ?max_rows r =
  let t = table ?max_rows ~json:false r in
  let b = Bytes.create t.length in
  ignore (blit_table t b 0);
  Bytes.unsafe_to_string b

let print ?max_rows r = print_string (render ?max_rows r)
