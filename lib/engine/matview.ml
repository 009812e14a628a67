(* Materialized sequence views: recognition, state, incremental
   maintenance (paper §2.3) and rendering.

   A view qualifies as a *sequence view* when its definition has the shape

     SELECT col..., agg(value_col) OVER
            ([PARTITION BY pcols] ORDER BY order_col [ROWS frame]) [AS a]
     FROM base_table

   with simple column references, a single ordering column and a
   cumulative or sliding ROWS frame.  For such views the engine keeps a
   per-partition core representation (base rows + complete sequence) and
   maintains it incrementally under base-table DML; other views are
   refreshed by full recomputation.

   The value column must be numeric and NULL-free for the incremental
   path — checked when the state is initialized; otherwise the engine
   falls back to full refresh. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast
module Core = Rfview_core

type seq_spec = {
  source : string;                 (* base table name *)
  partition : string list;         (* partition column names *)
  order_col : string;
  value_col : string;
  agg : Aggregate.kind;
  frame : Core.Frame.t;
  (* output layout: base column name per item, None = the window column *)
  items : (string option * string) list; (* (source column, output name) *)
}

(* ---- Recognition ---- *)

let simple_col = function
  | Ast.Column (_, name) -> Some name
  | _ -> None

let core_frame (w : Ast.window_fn) : Core.Frame.t option =
  match w.Ast.w_frame with
  | None -> if w.Ast.w_order <> [] then Some Core.Frame.Cumulative else None
  | Some { Ast.frame_mode = Ast.Frame_range; _ } -> None
  | Some { Ast.frame_mode = Ast.Frame_rows; frame_lo; frame_hi } ->
    let lo_off = function
      | Ast.Unbounded_preceding -> Some None (* unbounded *)
      | Ast.Preceding n -> Some (Some n)
      | Ast.Current_row -> Some (Some 0)
      | Ast.Following _ | Ast.Unbounded_following -> None
    in
    let hi_off = function
      | Ast.Following n -> Some (Some n)
      | Ast.Current_row -> Some (Some 0)
      | Ast.Preceding _ | Ast.Unbounded_preceding | Ast.Unbounded_following -> None
    in
    (match lo_off frame_lo, hi_off frame_hi with
     | Some None, Some (Some 0) -> Some Core.Frame.Cumulative
     | Some (Some l), Some (Some h) -> Some (Core.Frame.sliding ~l ~h)
     | _ -> None)

let recognize (q : Ast.query) : seq_spec option =
  match q.Ast.body with
  | Ast.Select
      {
        distinct = false;
        items;
        from = [ Ast.Table { name = source; alias = _ } ];
        where = None;
        group_by = [];
        having = None;
      }
    -> begin
      (* a definition's ORDER BY is ignored: the physical order is partition order *)
      (* collect items: simple columns plus exactly one window function *)
      let win = ref None in
      let layout = ref [] in
      let ok =
        List.for_all
          (fun item ->
            match item with
            | Ast.Sel_expr (Ast.Column (_, c), alias) ->
              layout := (Some c, Option.value ~default:c alias) :: !layout;
              true
            | Ast.Sel_expr (Ast.Window w, alias) when !win = None ->
              win := Some (w, alias);
              layout := (None, Option.value ~default:"seq_val" alias) :: !layout;
              true
            | _ -> false)
          items
      in
      if not ok then None
      else
        match !win with
        | None -> None
        | Some (w, _) ->
          let open Ast in
          (match
             ( Aggregate.kind_of_name w.w_func,
               (match w.w_args with [ a ] -> simple_col a | _ -> None),
               w.w_order,
               core_frame w )
           with
           | Some agg, Some value_col, [ { o_expr; o_asc = true } ], Some frame ->
             (match simple_col o_expr with
              | Some order_col ->
                let partition =
                  List.map
                    (fun p -> simple_col p)
                    w.w_partition
                in
                if List.for_all Option.is_some partition then
                  Some
                    {
                      source;
                      partition = List.map Option.get partition;
                      order_col;
                      value_col;
                      agg;
                      frame;
                      items = List.rev !layout;
                    }
                else None
              | None -> None)
           | _ -> None)
    end
  | _ -> None

(* ---- Maintenance state ----

   Each partition is cut into segments of 1 to [Relation.chunk_size]
   rows, and of at least [min_seg] when it has more than one.  A
   segment holds its base rows in order, the sequence values at their
   positions and its rendered output chunk (raw values are read off the
   rows when a recompute needs them, so no array of them stays live);
   the header (positions 1-h..0) and trailer (n+1..n+l) of a sliding
   sequence are kept per partition.  Nothing in a segment, and no array
   of a partition, is written once built: an edit builds fresh segments
   where it reaches and shares every other one, rendered chunk
   included, with the state it came from, the undo copies and the
   versions that captured the view. *)

type segment = {
  rows : Row.t array;    (* base rows, ordered *)
  vals : float array;    (* the sequence values at their positions *)
  out : Relation.chunk;  (* their output rows *)
}

type partition_state = {
  pkey : Value.t list;
  segs : segment array;
  outs : Relation.chunk array; (* each segment's [out], for [render] *)
  starts : int array; (* starts.(j): rows before segment j; one extra entry, n *)
  header : float array;  (* sequence positions 1-h .. 0 *)
  trailer : float array; (* sequence positions n+1 .. n+l *)
}

let compare_pkey a b =
  let rec go = function
    | [], [] -> 0
    | x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c <> 0 then c else go (xs, ys)
    | _ -> assert false
  in
  go (a, b)

module Pmap = Map.Make (struct
  type t = Value.t list

  let compare = compare_pkey
end)

type partitions = partition_state Pmap.t

module Imap = Map.Make (Int)

type layout = {
  cols : int array; (* base column of each output item, -1 for the window column *)
  wcol : int;       (* the window column's output position *)
  int_window : bool; (* an INT window column renders integral floats as Int *)
}

type state = {
  spec : seq_spec;
  base_schema : Schema.t;
  out_schema : Schema.t;
  pcols : int list;   (* partition column indices in the base schema *)
  ocol : int;         (* order column index *)
  vcol : int;         (* value column index *)
  layout : layout;
  mutable parts : partitions;
}

exception Not_maintainable of string

(* Fault-injection sites (see Fault): state construction and the one
   incremental maintenance step ([apply_shared], below). *)
let site_init = Fault.define "matview.init_state"
let site_apply_shared = Fault.define "matview.apply_shared"

let core_agg = function
  | Aggregate.Sum | Aggregate.Count | Aggregate.Avg -> Core.Agg.Sum
  | Aggregate.Min -> Core.Agg.Min
  | Aggregate.Max -> Core.Agg.Max

let value_of vcol row =
  match Row.get row vcol with
  | Value.Null -> raise (Not_maintainable "NULL in the value column")
  | v ->
    (try Value.to_float v
     with Value.Type_error _ -> raise (Not_maintainable "non-numeric value column"))

(* ---- Rendering ---- *)

let count_at st ~n ~k = Core.Agg.count_at st.spec.frame ~n ~k

let float_cell st v =
  if Float.is_nan v then Value.Null
  else if st.layout.int_window && Float.is_integer v then Value.Int (int_of_float v)
  else Value.Float v

(* The window cell at rank [k] of [n], from its sequence value [v]. *)
let window_value st v ~n ~k : Value.t =
  match st.spec.agg with
  | Aggregate.Sum | Aggregate.Min | Aggregate.Max -> float_cell st v
  | Aggregate.Count -> Value.Int (count_at st ~n ~k)
  | Aggregate.Avg ->
    let c = count_at st ~n ~k in
    if c = 0 then Value.Null else float_cell st (v /. float_of_int c)

(* Whether [float_cell st x] is [old], bit for bit (-0.0 is not 0.0),
   without building it.  Inlined, so the float is not boxed. *)
let[@inline] same_float st x (old : Value.t) =
  if Float.is_nan x then old == Value.Null
  else if st.layout.int_window && Float.is_integer x then
    match old with Value.Int i -> i = int_of_float x | _ -> false
  else
    match old with
    | Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
    | _ -> false

(* Whether [window_value st v ~n ~k] is [old]; allocates nothing. *)
let[@inline] same_cell st v ~n ~k (old : Value.t) =
  match st.spec.agg with
  | Aggregate.Sum | Aggregate.Min | Aggregate.Max -> same_float st v old
  | Aggregate.Count -> (match old with Value.Int i -> i = count_at st ~n ~k | _ -> false)
  | Aggregate.Avg ->
    let c = count_at st ~n ~k in
    if c = 0 then old == Value.Null else same_float st (v /. float_of_int c) old

let fresh_row st (base : Row.t) v ~n ~k : Row.t =
  let cols = st.layout.cols in
  let row = Array.make (Array.length cols) Value.Null in
  for j = 0 to Array.length cols - 1 do
    let c = cols.(j) in
    row.(j) <- (if c >= 0 then Row.get base c else window_value st v ~n ~k)
  done;
  row

(* The output rows of segment rows [rows] at ranks [start+1 ..] of [n],
   with sequence values [vals].  [prev i], unless [[||]], is the row
   last rendered for [rows.(i)]: it stays when its window cell is
   bit-identical, since its base row is the same. *)
let render_rows st ~n ~start rows vals ~prev =
  Row.array_init (Array.length rows) (fun i ->
      let k = start + i + 1 in
      let p = prev i in
      if Array.length p > 0 && same_cell st vals.(i) ~n ~k p.(st.layout.wcol) then p
      else fresh_row st rows.(i) vals.(i) ~n ~k)

let no_prev _ = [||]

let segment st ~n ~start rows vals =
  { rows; vals;
    out = Relation.chunk st.out_schema (render_rows st ~n ~start rows vals ~prev:no_prev) }

(* The view is the partitions' output chunks in key order: no row is
   rendered and no row array copied here, since every segment carries
   its chunk, and the row offsets come from the partitions' own, so no
   chunk is visited.  Chunks and rows are shared with earlier results
   and never written, which keeps MVCC pointer-capture publication
   valid. *)
let render (st : state) : Relation.t =
  let parts = List.rev (Pmap.fold (fun _ p acc -> p :: acc) st.parts []) in
  let chunks = Array.concat (List.map (fun p -> p.outs) parts) in
  let starts = Array.make (Array.length chunks + 1) 0 in
  let c = ref 0 and rows = ref 0 in
  List.iter
    (fun p ->
      let k = Array.length p.outs in
      for j = 1 to k do
        starts.(!c + j) <- !rows + p.starts.(j)
      done;
      c := !c + k;
      rows := !rows + p.starts.(k))
    parts;
  Relation.of_chunks_at st.out_schema chunks ~starts

(* ---- Building partitions ---- *)

let max_seg = Relation.chunk_size
let min_seg = Relation.chunk_size / 4

(* [len] rows in [ceil (len / max_seg)] pieces of near-equal length
   (each over [max_seg / 2] when there are several): the pieces'
   offsets, then [len]. *)
let cuts len =
  let k = Int.max 1 ((len + max_seg - 1) / max_seg) in
  Array.init (k + 1) (fun i -> len * i / k)

let n_of p = p.starts.(Array.length p.segs)

(* A partition over its ordered base rows, computed from scratch. *)
let make_partition st pkey (rows : Row.t array) : partition_state =
  let n = Array.length rows in
  let raw = Array.map (value_of st.vcol) rows in
  let seq =
    Core.Compute.sequence ~agg:(core_agg st.spec.agg) st.spec.frame
      (Core.Seqdata.raw_of_array raw)
  in
  let values src len =
    let a = Array.create_float len in
    Core.Seqdata.blit seq ~src a ~pos:0 ~len;
    a
  in
  let lo, hi = Core.Seqdata.complete_range st.spec.frame ~n in
  let starts = cuts n in
  let segs =
    Array.init (Array.length starts - 1) (fun j ->
        let s = starts.(j) and len = starts.(j + 1) - starts.(j) in
        segment st ~n ~start:s (Array.sub rows s len) (values (s + 1) len))
  in
  { pkey; segs; outs = Array.map (fun s -> s.out) segs; starts; header = values lo (1 - lo);
    trailer = values (n + 1) (hi - n) }

(* Build the state from the current base-table contents.  Raises
   [Not_maintainable] when the value column contains NULLs or
   non-numerics. *)
let init_state (spec : seq_spec) ~(base : Relation.t) ~(out_schema : Schema.t) : state =
  Fault.hit site_init;
  let base_schema = Relation.schema base in
  let find c =
    match Schema.find_opt base_schema c with
    | Some i -> i
    | None -> raise (Not_maintainable (Printf.sprintf "base column %s missing" c))
  in
  let pcols = List.map find spec.partition in
  let ocol = find spec.order_col in
  let vcol = find spec.value_col in
  let cols =
    Array.of_list (List.map (function Some c, _ -> find c | None, _ -> -1) spec.items)
  in
  let wcol = Option.get (Array.find_index (fun c -> c < 0) cols) in
  let layout =
    { cols; wcol; int_window = (Schema.col out_schema wcol).Schema.ty = Dtype.Int }
  in
  let st =
    { spec; base_schema; out_schema; pcols; ocol; vcol; layout; parts = Pmap.empty }
  in
  (* partition rows *)
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Relation.iter
    (fun row ->
      let k = List.map (fun i -> Row.get row i) pcols in
      match Hashtbl.find_opt tbl k with
      | Some rows -> rows := row :: !rows
      | None ->
        Hashtbl.add tbl k (ref [ row ]);
        order := k :: !order)
    base;
  st.parts <-
    List.fold_left
      (fun parts k ->
        let arr = Array.of_list (List.rev !(Hashtbl.find tbl k)) in
        (* stable sort by the order column *)
        let idx = Array.init (Array.length arr) Fun.id in
        Array.sort
          (fun i j ->
            let c = Value.compare (Row.get arr.(i) ocol) (Row.get arr.(j) ocol) in
            if c <> 0 then c else Int.compare i j)
          idx;
        Pmap.add k (make_partition st k (Array.map (fun i -> arr.(i)) idx)) parts)
      Pmap.empty !order;
  st

(* Copy for undo-log snapshots: partitions are immutable and live in a
   persistent map, so the copy is the state record. *)
let copy_state (st : state) : state = { st with parts = st.parts }

(* ---- Reading a partition ---- *)

let partitions st = List.rev (Pmap.fold (fun _ p acc -> p :: acc) st.parts [])
let partition_key p = p.pkey
let flatten f p = Array.concat (Array.to_list (Array.map f p.segs))
let partition_rows p = flatten (fun s -> s.rows) p
let partition_raw st p =
  Core.Seqdata.raw_of_array (Array.map (value_of st.vcol) (partition_rows p))

let partition_seq st p =
  let n = n_of p in
  Core.Seqdata.make st.spec.frame (core_agg st.spec.agg) ~n
    ~lo:(fst (Core.Seqdata.complete_range st.spec.frame ~n))
    (Array.concat
       ((p.header :: Array.to_list (Array.map (fun s -> s.vals) p.segs)) @ [ p.trailer ]))

let partition_chunks p = Array.copy p.outs

(* ---- Incremental maintenance under base DML (multi-row §2.3) ----

   Every change — one statement's rows or a whole batch's consolidated
   delta — takes one path.  Per partition, the edits become events
   against the ordered rows: each delete or in-place update claims a
   row, each insert a slot.  Each segment an event lands in is rebuilt
   with its rows merged, and re-cut: one over [max_seg] rows splits,
   one under [min_seg] absorbs a neighbour.  Each event dirties the
   window span it touches — [k-h, k+l] for an insert/update landing at
   new rank k, [g-h, g+l-1] for a deletion gap at g — and the dirty
   positions are recomputed with one kernel scan per contiguous run
   (Compute.fill).  A clean position keeps its old sequence value: its
   window contains no edit, so every raw value in it moved by the same
   offset.  A segment the dirty runs miss is shared as it is.

   The structural half depends only on the ordered base rows and the
   order column, so it is computed once per scan-share class
   ([shared_plan]) and replayed into each member ([apply_shared]); a
   lone view is a class of one. *)

let pkey_of st row = List.map (fun i -> Row.get row i) st.pcols

(* The segment holding the 0-based row index [k]: the last [j] with
   [starts.(j) <= k]. *)
let seg_index (starts : int array) k =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if starts.(mid) <= k then go mid hi else go lo mid
  in
  go 0 (Array.length starts - 1)

let row_at p k =
  let j = seg_index p.starts k in
  p.segs.(j).rows.(k - p.starts.(j))

(* Index of the first row whose order value is greater than [v]
   ([~past_equal:true]) or not less than [v] ([false]): binary search
   over rows ordered by the order column. *)
let search ~ocol (rows : Row.t array) v ~past_equal =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let c = Value.compare (Row.get rows.(mid) ocol) v in
      if c < 0 || (past_equal && c = 0) then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length rows)

(* The same over a whole partition: first the segment, by its last
   row, then the row within it. *)
let search_part ~ocol p v ~past_equal =
  let segs = p.segs in
  let before (s : segment) =
    let c = Value.compare (Row.get s.rows.(Array.length s.rows - 1) ocol) v in
    c < 0 || (past_equal && c = 0)
  in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if before segs.(mid) then go (mid + 1) hi else go lo mid
  in
  let j = go 0 (Array.length segs) in
  if j = Array.length segs then n_of p
  else p.starts.(j) + search ~ocol segs.(j).rows v ~past_equal

(* Rank (1-based) at which [row] inserts into the ordered partition:
   after all existing rows with order value <= its own. *)
let insert_rank st (p : partition_state) row =
  search_part ~ocol:st.ocol p (Row.get row st.ocol) ~past_equal:true + 1

(* Stable by arrival on equal order values: a new row lands after the
   existing rows with order <= it, and after earlier arrivals. *)
let sort_inserts ~ocol inserts =
  List.stable_sort
    (fun a b -> Value.compare (Row.get a ocol) (Row.get b ocol))
    inserts

(* One partition's edit events.  Each delete, then each in-place
   update, claims the first unclaimed row equal to it; equal rows share
   their order value, so the claim searches only that run.  [claims]
   are (0-based index, effect), ascending; [inserts] are (slot, row) —
   the row lands before the old row at [slot] — ascending and stable,
   so after earlier inserts with the same slot. *)
let events ~ocol p ~sorted_inserts ~deletes ~updates =
  let n = n_of p in
  let claimed = Hashtbl.create 8 in
  let claim row f =
    let v = Row.get row ocol in
    let rec go k =
      if k >= n || Value.compare (Row.get (row_at p k) ocol) v <> 0 then
        raise (Not_maintainable "edited row not found in view state")
      else if (not (Hashtbl.mem claimed k)) && Row.equal (row_at p k) row then
        Hashtbl.replace claimed k f
      else go (k + 1)
    in
    go (search_part ~ocol p v ~past_equal:false)
  in
  List.iter (fun r -> claim r `Drop) deletes;
  List.iter (fun (o, nw) -> claim o (`Set nw)) updates;
  let claims =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun k f acc -> (k, f) :: acc) claimed [])
  in
  let inserts =
    List.map (fun r -> (search_part ~ocol p (Row.get r ocol) ~past_equal:true, r)) sorted_inserts
  in
  (claims, inserts)

(* Merge one segment's events into its rows.  Between the event points
   the old rows are kept; [origin] gives each new row's old 1-based
   rank in the partition ([start] rows precede the segment), 0 for an
   inserted or updated row.  [touches] are the local new ranks of
   inserted and updated rows, [gaps] the local new rank following each
   deleted one. *)
let merge_segment (rows : Row.t array) ~start ~claims ~inserts =
  let len = Array.length rows in
  let drops = List.length (List.filter (fun (_, f) -> f = `Drop) claims) in
  let len' = len - drops + List.length inserts in
  let rows' = Array.make len' [||] and origin = Array.make len' 0 in
  let touches = ref [] and gaps = ref [] in
  let src = ref 0 and dst = ref 0 in
  let keep_upto k =
    for i = !src to k - 1 do
      rows'.(!dst) <- rows.(i);
      origin.(!dst) <- start + i + 1;
      incr dst
    done;
    src := k
  in
  let put row =
    rows'.(!dst) <- row;
    incr dst;
    touches := !dst :: !touches
  in
  (* an insert goes before the old row at its slot *)
  let next_claim = function (k, _) :: _ -> k | [] -> max_int in
  let rec merge inserts claims =
    match (inserts, claims) with
    | (slot, r) :: ins, _ when slot <= next_claim claims ->
      keep_upto slot;
      put r;
      merge ins claims
    | _, (k, f) :: rest ->
      keep_upto k;
      (match f with
       | `Drop -> gaps := (!dst + 1) :: !gaps
       | `Set nr -> put nr);
      src := k + 1;
      merge inserts rest
    | _, [] -> keep_upto len
  in
  merge inserts claims;
  (rows', origin, !touches, !gaps)

(* A run of old segments [j0 .. j1] and the rows that replace them. *)
type region = { j0 : int; j1 : int; r_rows : Row.t array; origin : int array }

(* The structural half of one partition's merge, against the
   segmentation whose [starts] is [basis]: each region's new segments
   (rows, origins), the new ranks of inserted and updated rows, the new
   rank following each deleted row, and the new row count.  Depends
   only on the order column and the ordered base rows — not on the
   view's value column, aggregate or frame. *)
type structure = {
  basis : int array;
  regions : (int * int * (Row.t array * int array) list) list;
  touches : int list;
  gaps : int list;
  n' : int;
}

let restructure (p : partition_state) ~claims ~inserts ~n' : structure =
  let segs = p.segs and starts = p.starts in
  let nseg = Array.length segs in
  (* a claim falls in its row's segment, an insert in the segment of
     the row before its slot (the first one for slot 0) *)
  let add j f m = Imap.update j (fun e -> Some (f (Option.value e ~default:([], [])))) m in
  let touched =
    List.fold_left
      (fun m (k, f) ->
        let j = seg_index starts k in
        add j (fun (c, i) -> ((k - starts.(j), f) :: c, i)) m)
      Imap.empty claims
  in
  let touched =
    List.fold_left
      (fun m (s, r) ->
        let j = seg_index starts (Int.max 0 (s - 1)) in
        add j (fun (c, i) -> (c, (s - starts.(j), r) :: i)) m)
      touched inserts
  in
  let shift = ref 0 and touches = ref [] and gaps = ref [] in
  let regions =
    List.map
      (fun (j, (c, i)) ->
        let rows, origin, lt, lg =
          merge_segment segs.(j).rows ~start:starts.(j) ~claims:(List.rev c)
            ~inserts:(List.rev i)
        in
        let off = starts.(j) + !shift in
        touches := List.rev_map (( + ) off) lt @ !touches;
        gaps := List.rev_map (( + ) off) lg @ !gaps;
        shift := !shift + Array.length rows - Array.length segs.(j).rows;
        { j0 = j; j1 = j; r_rows = rows; origin })
      (Imap.bindings touched)
  in
  let whole j =
    let s = segs.(j) in
    { j0 = j; j1 = j; r_rows = s.rows;
      origin = Array.init (Array.length s.rows) (fun i -> starts.(j) + i + 1) }
  in
  let join a b =
    { j0 = a.j0; j1 = b.j1; r_rows = Array.append a.r_rows b.r_rows;
      origin = Array.append a.origin b.origin }
  in
  (* a region under [min_seg] rows absorbs its right neighbour (the
     left one at the end), unless it is the whole partition *)
  let rec settle settled = function
    | [] -> List.rev settled
    | r :: rest when Array.length r.r_rows >= min_seg || (r.j0 = 0 && r.j1 = nseg - 1) ->
      settle (r :: settled) rest
    | r :: rest when r.j1 + 1 < nseg ->
      (match rest with
       | r' :: rest' when r'.j0 = r.j1 + 1 -> settle settled (join r r' :: rest')
       | _ -> settle settled (join r (whole (r.j1 + 1)) :: rest))
    | r :: rest ->
      (match settled with
       | d :: settled' when d.j1 = r.j0 - 1 -> settle settled' (join d r :: rest)
       | _ -> settle settled (join (whole (r.j0 - 1)) r :: rest))
  in
  let pieces r =
    let c = cuts (Array.length r.r_rows) in
    if Array.length c = 2 then [ (r.r_rows, r.origin) ]
    else
      List.init (Array.length c - 1) (fun i ->
          let lo = c.(i) and len = c.(i + 1) - c.(i) in
          (Array.sub r.r_rows lo len, Array.sub r.origin lo len))
  in
  {
    basis = starts;
    regions = List.map (fun r -> (r.j0, r.j1, pieces r)) (settle [] regions);
    touches = !touches;
    gaps = !gaps;
    n';
  }

(* A segment being rebuilt: [prev i] is the row last rendered for
   [rows.(i)] ([[||]] for none); [old] is the kept segment these rows
   are, when they are one. *)
type work = {
  w_rows : Row.t array;
  w_vals : float array;
  w_prev : int -> Row.t;
  w_old : segment option;
}

let finish st ~n ~start w =
  let rows = render_rows st ~n ~start w.w_rows w.w_vals ~prev:w.w_prev in
  match w.w_old with
  | Some o when Array.for_all2 ( == ) rows (Relation.chunk_rows o.out) ->
    { o with vals = w.w_vals }
  | _ ->
    { rows = w.w_rows; vals = w.w_vals; out = Relation.chunk st.out_schema rows }

(* Per-view half: replay a structure into one member's partition.
   Kept rows copy their sequence values and their rendered rows from
   the old segments; inserted and updated rows have their values
   checked.  The dirty spans merge into maximal runs, each recomputed
   by one [Compute.fill] — over a gathered raw slice covering
   [first-l .. last+h] for a sliding frame; segment by segment, each
   folding on from the last, for a cumulative one, whose run starts
   from its clean left neighbour.  A kept segment a run reaches is
   rebuilt with new values; every other one is shared.  Every
   aggregate costs O(1) per dirty position. *)
let apply_edit st (p : partition_state) (s : structure) : partition_state =
  let frame = st.spec.frame and agg = core_agg st.spec.agg in
  let n' = s.n' in
  (* cursors over the old segments: [at cursor r] moves [cursor] to
     the segment holding old rank [r] and gives its index there.  Kept
     rows ascend, once to copy values and once to render. *)
  let at cursor r =
    while p.starts.(!cursor + 1) < r do
      incr cursor
    done;
    r - p.starts.(!cursor) - 1
  in
  let copying = ref 0 and rendering = ref 0 in
  let fresh (rows, origin) =
    let len = Array.length rows in
    let vals = Array.create_float len in
    for i = 0 to len - 1 do
      if origin.(i) = 0 then ignore (value_of st.vcol rows.(i))
      else vals.(i) <- p.segs.(!copying).vals.(at copying origin.(i))
    done;
    let prev i =
      if origin.(i) = 0 then [||]
      else
        let i0 = at rendering origin.(i) in
        (Relation.chunk_rows p.segs.(!rendering).out).(i0)
    in
    { w_rows = rows; w_vals = vals; w_prev = prev; w_old = None }
  in
  (* the new segments: old ones outside the regions, fresh ones inside
     (a placeholder in [segs'] until they are finished).  When every
     region keeps its segment count, [segs'] is a copy of the old
     array.  Nothing here visits the segments outside the regions. *)
  let nseg = Array.length p.segs in
  let nseg' =
    List.fold_left
      (fun n (j0, j1, pieces) -> n + List.length pieces - (j1 - j0 + 1))
      nseg s.regions
  in
  (* the new index of each rebuilt segment *)
  let built = ref [] and shift = ref 0 in
  List.iter
    (fun (j0, j1, pieces) ->
      List.iteri (fun i piece -> built := (j0 + !shift + i, fresh piece) :: !built) pieces;
      shift := !shift + List.length pieces - (j1 - j0 + 1))
    s.regions;
  (* [old] with each region's segments in place (as [fill] for now) *)
  let same_layout =
    List.for_all (fun (j0, j1, pieces) -> List.length pieces = j1 - j0 + 1) s.regions
  in
  let splice old fill =
    if same_layout then Array.copy old
    else begin
      let slices = ref [] and next = ref 0 in
      List.iter
        (fun (j0, j1, pieces) ->
          slices :=
            Array.make (List.length pieces) fill :: Array.sub old !next (j0 - !next) :: !slices;
          next := j1 + 1)
        s.regions;
      Array.concat (List.rev (Array.sub old !next (nseg - !next) :: !slices))
    end
  in
  let segs' = splice p.segs p.segs.(0) and outs' = splice p.outs p.outs.(0) in
  let works = Array.make nseg' None in
  List.iter (fun (j, w) -> works.(j) <- Some w) !built;
  (* the offsets: the old segments' lengths outside the regions, the
     pieces' inside; the old offsets when no length changed *)
  let starts' =
    if
      same_layout
      && List.for_all
           (fun (j, w) -> Array.length w.w_rows = p.starts.(j + 1) - p.starts.(j))
           !built
    then p.starts
    else begin
      let starts' = Array.make (nseg' + 1) 0 and j' = ref 0 and next = ref 0 in
      let put len =
        starts'.(!j' + 1) <- starts'.(!j') + len;
        incr j'
      in
      let keep_upto j1 =
        for j = !next to j1 - 1 do
          put (p.starts.(j + 1) - p.starts.(j))
        done
      in
      List.iter
        (fun (j0, j1, pieces) ->
          keep_upto j0;
          List.iter (fun (rows, _) -> put (Array.length rows)) pieces;
          next := j1 + 1)
        s.regions;
      keep_upto nseg;
      starts'
    end
  in
  assert (starts'.(nseg') = n');
  (* the dirty runs *)
  let lo', hi' = Core.Seqdata.complete_range frame ~n:n' in
  let l, h =
    match frame with
    | Core.Frame.Sliding { l; h } -> (l, h)
    | Core.Frame.Cumulative -> (n', 0)
  in
  let rec merge_spans = function
    | (a, b) :: (c, d) :: rest when c <= b + 1 -> merge_spans ((a, max b d) :: rest)
    | span :: rest -> span :: merge_spans rest
    | [] -> []
  in
  let dirty =
    List.map (fun k -> (k - h, k + l)) s.touches
    @ List.map (fun g -> (g - h, g + l - 1)) s.gaps
    |> List.filter_map (fun (lo, hi) ->
           let lo = max lo' lo and hi = min hi' hi in
           if lo <= hi then Some (lo, hi) else None)
    |> List.sort compare |> merge_spans
  in
  (* the segments holding body positions [a..b], as (index, first, last) in local positions *)
  let each_seg a b f =
    let a = Int.max a 1 and b = Int.min b n' in
    if a <= b then
      for j = seg_index starts' (a - 1) to seg_index starts' (b - 1) do
        let s = starts'.(j) in
        f j (Int.max a (s + 1) - s) (Int.min b starts'.(j + 1) - s)
      done
  in
  (* a kept segment a run reaches is rebuilt *)
  List.iter
    (fun (a, b) ->
      each_seg a b (fun j _ _ ->
          if Option.is_none works.(j) then
            let o = segs'.(j) in
            works.(j) <-
              let prev = Relation.chunk_rows o.out in
              Some
                { w_rows = o.rows; w_vals = Array.copy o.vals;
                  w_prev = Array.get prev; w_old = Some o }))
    dirty;
  let work j = Option.get works.(j) in
  let header =
    if List.exists (fun (a, _) -> a <= 0) dirty then Array.copy p.header else p.header
  and trailer =
    if List.exists (fun (_, b) -> b > n') dirty then Array.copy p.trailer else p.trailer
  in
  List.iter
    (fun (rlo, rhi) ->
      match frame with
      | Core.Frame.Cumulative ->
        let seed =
          ref
            (if rlo > 1 then
               let j = seg_index starts' (rlo - 2) in
               let v = match works.(j) with Some w -> w.w_vals | None -> segs'.(j).vals in
               Some v.(rlo - 2 - starts'.(j))
             else None)
        in
        each_seg rlo rhi (fun j first last ->
            let w = work j in
            let raw =
              Array.init (last - first + 1) (fun i -> value_of st.vcol w.w_rows.(first - 1 + i))
            in
            Core.Compute.fill ?seed:!seed ~agg frame (Core.Seqdata.raw_of_array raw) ~first:1
              ~last:(last - first + 1) w.w_vals ~pos:(first - 1);
            seed := Some w.w_vals.(last - 1))
      | Core.Frame.Sliding _ ->
        let a = Int.max 1 (rlo - l) and b = Int.min n' (rhi + h) in
        let slice = Array.create_float (b - a + 1) in
        each_seg a b (fun j first last ->
            let rows = match works.(j) with Some w -> w.w_rows | None -> segs'.(j).rows in
            for i = first to last do
              slice.(starts'.(j) + i - a) <- value_of st.vcol rows.(i - 1)
            done);
        let tmp = Array.create_float (rhi - rlo + 1) in
        Core.Compute.fill ~agg frame (Core.Seqdata.raw_of_array slice) ~first:(rlo - a + 1)
          ~last:(rhi - a + 1) tmp ~pos:0;
        for k = rlo to Int.min rhi 0 do
          header.(k + h - 1) <- tmp.(k - rlo)
        done;
        for k = Int.max rlo (n' + 1) to rhi do
          trailer.(k - n' - 1) <- tmp.(k - rlo)
        done;
        each_seg rlo rhi (fun j first last ->
            Array.blit tmp (starts'.(j) + first - rlo) (work j).w_vals (first - 1)
              (last - first + 1)))
    dirty;
  for j = 0 to nseg' - 1 do
    match works.(j) with
    | Some w ->
      segs'.(j) <- finish st ~n:n' ~start:starts'.(j) w;
      outs'.(j) <- segs'.(j).out
    | None -> ()
  done;
  { p with segs = segs'; outs = outs'; starts = starts'; header; trailer }

(* Group one consolidated delta by partition key (first-seen order),
   normalizing updates that move a row (order or partition changed) to
   delete + insert; their inserts sort after same-order arrivals. *)
let group_edits st ~inserts ~deletes ~updates =
  let in_place, moved =
    List.partition
      (fun (o, nw) ->
        compare_pkey (pkey_of st o) (pkey_of st nw) = 0
        && Value.equal (Row.get o st.ocol) (Row.get nw st.ocol))
      updates
  in
  let deletes = deletes @ List.map fst moved in
  let inserts = inserts @ List.map snd moved in
  let groups = ref [] in
  let group_of pkey =
    match List.find_opt (fun (k, _) -> compare_pkey k pkey = 0) !groups with
    | Some (_, g) -> g
    | None ->
      let g = (ref [], ref [], ref []) in
      groups := !groups @ [ (pkey, g) ];
      g
  in
  List.iter
    (fun r ->
      let ins, _, _ = group_of (pkey_of st r) in
      ins := r :: !ins)
    inserts;
  List.iter
    (fun r ->
      let _, del, _ = group_of (pkey_of st r) in
      del := r :: !del)
    deletes;
  List.iter
    (fun ((o, _) as pr) ->
      let _, _, upd = group_of (pkey_of st o) in
      upd := pr :: !upd)
    in_place;
  List.map
    (fun (pkey, (ins, del, upd)) ->
      (pkey, (List.rev !ins, List.rev !del, List.rev !upd)))
    !groups

(* A class's merge, computed once against its representative. *)
type partition_plan =
  | P_new of Row.t array  (* no partition under this key: fresh sorted rows *)
  | P_drop                (* the partition empties *)
  | P_edit of {
      claims : (int * [ `Drop | `Set of Row.t ]) list;
      inserts : (int * Row.t) list;
      old_len : int;  (* every member's partition must have this length *)
      structure : structure;  (* against the representative's segmentation *)
    }

type shared_plan = {
  shp_pcols : int list;
  shp_ocol : int;
  shp_parts : (Value.t list * partition_plan) list;
}

let shared_plan states ~inserts ~deletes ~updates : shared_plan =
  match states with
  | [] -> invalid_arg "Matview.shared_plan: empty class"
  | rep :: rest ->
    List.iter
      (fun st ->
        if
          st.pcols <> rep.pcols || st.ocol <> rep.ocol
          || String.lowercase_ascii st.spec.source
             <> String.lowercase_ascii rep.spec.source
        then invalid_arg "Matview.shared_plan: states disagree on the scan key")
      rest;
    let parts =
      List.map
        (fun (pkey, (ins, del, upd)) ->
          let sorted_inserts = sort_inserts ~ocol:rep.ocol ins in
          match Pmap.find_opt pkey rep.parts with
          | None ->
            if del <> [] || upd <> [] then
              raise (Not_maintainable "edited row not found in view state");
            (pkey, P_new (Array.of_list sorted_inserts))
          | Some p ->
            let claims, inserts =
              events ~ocol:rep.ocol p ~sorted_inserts ~deletes:del ~updates:upd
            in
            let n' =
              n_of p + List.length inserts
              - List.length (List.filter (fun (_, f) -> f = `Drop) claims)
            in
            if n' = 0 then (pkey, P_drop)
            else
              ( pkey,
                P_edit
                  { claims; inserts; old_len = n_of p;
                    structure = restructure p ~claims ~inserts ~n' } ))
        (group_edits rep ~inserts ~deletes ~updates)
    in
    { shp_pcols = rep.pcols; shp_ocol = rep.ocol; shp_parts = parts }

let apply_shared (plan : shared_plan) st =
  Fault.hit site_apply_shared;
  if st.pcols <> plan.shp_pcols || st.ocol <> plan.shp_ocol then
    invalid_arg "Matview.apply_shared: state disagrees with the plan's scan key";
  let diverged () =
    (* the member's partitions differ structurally from the
       representative's: the class invariant is broken, fall back *)
    raise (Not_maintainable "shared-scan state divergence")
  in
  st.parts <-
    List.fold_left
      (fun parts (pkey, pplan) ->
        match (pplan, Pmap.find_opt pkey parts) with
        | P_new rows, None -> Pmap.add pkey (make_partition st pkey rows) parts
        | P_drop, Some _ -> Pmap.remove pkey parts
        | P_edit { claims; inserts; old_len; structure }, Some p ->
          if n_of p <> old_len then diverged ();
          (* a member cut differently (refreshed since) replays the
             same events against its own segments *)
          let s =
            if p.starts = structure.basis then structure
            else restructure p ~claims ~inserts ~n':structure.n'
          in
          Pmap.add pkey (apply_edit st p s) parts
        | P_new _, Some _ | P_drop, None | P_edit _, None -> diverged ())
      st.parts plan.shp_parts

(* A lone view's maintenance: a share class of one. *)
let apply_batch st ~inserts ~deletes ~updates =
  apply_shared (shared_plan [ st ] ~inserts ~deletes ~updates) st

(* Batches of one, for callers outside the library. *)
let apply_insert st row = apply_batch st ~inserts:[ row ] ~deletes:[] ~updates:[]
let apply_delete st row = apply_batch st ~inserts:[] ~deletes:[ row ] ~updates:[]

let apply_update st ~old_row ~new_row =
  apply_batch st ~inserts:[] ~deletes:[] ~updates:[ (old_row, new_row) ]

(* ---- Derived views (generalized IVM) ----

   Views beyond the sequence shape — joins, GROUP BY, partition-local
   window sets — maintain through the algebraic delta plans of
   Planner.Deriv.  The engine derives the rules once at refresh time
   (gated on a valid Ivmcert incrementality certificate) and replays
   them here at each batch commit; the state is immutable (rules plus
   source tables), so undo snapshots are just the binding. *)

module Derived = struct
  module Deriv = Rfview_planner.Deriv

  type t = {
    rules : Deriv.t;
    sources : string list; (* lowercased base tables the rules read *)
  }

  let site_apply = Fault.define "matview.apply_derived"

  let make rules = { rules; sources = Deriv.sources rules }
  let sources t = t.sources
  let shape_name t = Deriv.shape_name t.rules
  let has_window t = Deriv.has_window t.rules

  (* Apply one consolidated batch delta to the view's contents.
     @raise Deriv.Divergence when an exact removal finds no row (the
     engine falls back to a full refresh). *)
  let apply_batch t ~(env : Deriv.env) ~(contents : Relation.t) : Relation.t =
    Fault.hit site_apply;
    Deriv.splice contents (Deriv.apply env t.rules)
end
