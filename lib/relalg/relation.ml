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
   freely. *)

let chunk_size = 256

(* A chunk's zone, for a stored relation: for each column j,
   [zone.(2j)] and [zone.(2j+1)] bound its Int values when every
   non-NULL value of column j in the chunk is an Int (an all-NULL
   column gives the empty zone [max_int, min_int]).  The full range
   [min_int, max_int] means "unknown": a non-Int column, or an Int
   column holding some other value.  An unzoned chunk has [zone = [||]]. *)
type chunk = {
  rows : Row.t array;
  zone : int array;
}

type t = {
  schema : Schema.t;
  chunks : chunk array;
  starts : int array; (* starts.(c): rows before chunk c; one extra entry, the cardinality *)
}

(* a static constant, never young: the fill value of chunk arrays (see
   [Row.array_init]) *)
let empty_chunk = { rows = [||]; zone = [||] }
let unzoned rows = { rows; zone = [||] }

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

let zoned schema rows = { rows; zone = zone_of schema rows }

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
let map schema (f : Row.t -> Row.t) r =
  {
    r with
    schema;
    chunks =
      map_chunks
        (fun c -> unzoned (Row.array_init (Array.length c.rows) (fun i -> f c.rows.(i))))
        r.chunks;
  }

let with_schema schema r = { r with schema }

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

let rec admits_any zone = function
  | [] -> false
  | ranges :: rest -> admits zone ranges || admits_any zone rest

let prune ranges r =
  if ranges = [] then r
  else
    let kept = Array.fold_left (fun n c -> if admits c.zone ranges then n + 1 else n) 0 r.chunks in
    if kept = Array.length r.chunks then r
    else begin
      let chunks = Array.make kept empty_chunk in
      let next = ref 0 in
      Array.iter
        (fun c ->
          if admits c.zone ranges then begin
            chunks.(!next) <- c;
            incr next
          end)
        r.chunks;
      of_chunks r.schema chunks
    end

let filter ranges (keep : Row.t -> bool) r =
  let r = prune ranges r in
  let out = ref [] and changed = ref false in
  let hits = Array.make chunk_size 0 in
  Array.iter
    (fun c ->
      let m = ref 0 in
      Array.iteri
        (fun i row ->
          if keep row then begin
            hits.(!m) <- i;
            incr m
          end)
        c.rows;
      if !m = Array.length c.rows then out := c :: !out
      else begin
        changed := true;
        if !m > 0 then
          out := unzoned (Row.array_init !m (fun k -> c.rows.(hits.(k)))) :: !out
      end)
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
    match if admits_any c.zone admit then f c.rows else None with
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

(* ---- ASCII table rendering ---- *)

let render ?(max_rows = 40) r =
  let headers =
    Array.map (fun c -> Schema.qualified_name c) r.schema
  in
  let ncols = Array.length headers in
  let shown = min max_rows (cardinality r) in
  (* cell (i, j) at i * ncols + j: one flat array filled from a constant *)
  let cells = Array.make (shown * ncols) "" in
  let widths = Array.map String.length headers in
  for i = 0 to shown - 1 do
    let row = get r i in
    for j = 0 to ncols - 1 do
      let c = Value.to_string row.(j) in
      cells.((i * ncols) + j) <- c;
      widths.(j) <- max widths.(j) (String.length c)
    done
  done;
  (* column j spans [starts.(j), starts.(j) + widths.(j) + 2]: a space,
     the cell, its padding and a space, then its right border *)
  let starts = Array.make ncols 0 in
  let at = ref 1 in
  for j = 0 to ncols - 1 do
    starts.(j) <- !at;
    at := !at + widths.(j) + 3
  done;
  let width = !at + 1 (* every line, newline included *) in
  let trailer =
    if shown < cardinality r then
      Printf.sprintf "... (%d of %d rows shown)\n" shown (cardinality r)
    else ""
  in
  (* sized exactly, and blank: the padding is already in place *)
  let out = Bytes.make (((shown + 4) * width) + String.length trailer) ' ' in
  let borders k c =
    let o = k * width in
    Bytes.set out o c;
    for j = 0 to ncols - 1 do
      Bytes.set out (o + starts.(j) + widths.(j) + 2) c
    done;
    Bytes.set out (o + width - 1) '\n'
  in
  let rule k =
    Bytes.fill out (k * width) (width - 1) '-';
    borders k '+'
  in
  let text k src base =
    borders k '|';
    for j = 0 to ncols - 1 do
      let c = src.(base + j) in
      Bytes.blit_string c 0 out ((k * width) + starts.(j) + 1) (String.length c)
    done
  in
  rule 0;
  text 1 headers 0;
  rule 2;
  for i = 0 to shown - 1 do
    text (i + 3) cells (i * ncols)
  done;
  rule (shown + 3);
  Bytes.blit_string trailer 0 out ((shown + 4) * width) (String.length trailer);
  Bytes.unsafe_to_string out

let print ?max_rows r = print_string (render ?max_rows r)
