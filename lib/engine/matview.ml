(* Materialized sequence views: recognition, state, incremental
   maintenance (paper §2.3) and rendering.

   A view qualifies as a *sequence view* when its definition has the shape

     SELECT col..., agg(value_col) OVER
            ([PARTITION BY pcols] ORDER BY order_col [ROWS frame]) [AS a]
     FROM base_table

   with simple column references, a single ordering column and a
   cumulative or sliding ROWS frame.  For such views the engine keeps a
   per-partition core representation (raw data + complete sequence) and
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

(* ---- Maintenance state ---- *)

(* The render cache of one partition (see [render]): the output rows
   last rendered, cut into full chunks, the [seq] they were rendered
   from, and the rank map from the partition's current rows back to
   those rows, valid while [current] is physically the partition's
   [seq]. *)
type render_cache = {
  from : Core.Seqdata.t;
  chunks : Relation.chunk array;
  ranks : (int * int * int) list; (* (current rank, rendered rank, length) *)
  current : Core.Seqdata.t;
}

type partition_state = {
  pkey : Value.t list;
  mutable base_rows : Row.t array; (* base rows of this partition, ordered *)
  mutable raw : Core.Seqdata.raw;
  mutable seq : Core.Seqdata.t;
  mutable rendered : render_cache option;
}

type state = {
  spec : seq_spec;
  base_schema : Schema.t;
  out_schema : Schema.t;
  pcols : int list;   (* partition column indices in the base schema *)
  ocol : int;         (* order column index *)
  vcol : int;         (* value column index *)
  mutable parts : partition_state list; (* sorted by pkey *)
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

let compare_pkey a b =
  let rec go = function
    | [], [] -> 0
    | x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c <> 0 then c else go (xs, ys)
    | _ -> assert false
  in
  go (a, b)

let value_of vcol row =
  match Row.get row vcol with
  | Value.Null -> raise (Not_maintainable "NULL in the value column")
  | v ->
    (try Value.to_float v
     with Value.Type_error _ -> raise (Not_maintainable "non-numeric value column"))

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
  let parts =
    List.map
      (fun k ->
        let rows = List.rev !(Hashtbl.find tbl k) in
        let arr = Array.of_list rows in
        (* stable sort by the order column *)
        let idx = Array.init (Array.length arr) Fun.id in
        Array.sort
          (fun i j ->
            let c = Value.compare (Row.get arr.(i) ocol) (Row.get arr.(j) ocol) in
            if c <> 0 then c else Int.compare i j)
          idx;
        let sorted = Array.map (fun i -> arr.(i)) idx in
        let raw = Core.Seqdata.raw_of_array (Array.map (value_of vcol) sorted) in
        let seq = Core.Compute.sequence ~agg:(core_agg spec.agg) spec.frame raw in
        { pkey = k; base_rows = sorted; raw; seq; rendered = None })
      (List.rev !order)
    |> List.sort (fun a b -> compare_pkey a.pkey b.pkey)
  in
  { spec; base_schema; out_schema; pcols; ocol; vcol; parts }

(* Copy of the mutable layers, for undo-log snapshots: the state and
   partition records.  Row arrays, [Seqdata.raw] and [Seqdata.t] values
   are never written in place (maintenance installs fresh ones), so the
   copy shares them.  The render cache is shared too: a cache record is
   never written in place either — maintenance and [render] install
   fresh ones. *)
let copy_state (st : state) : state =
  { st with parts = List.map (fun p -> { p with rendered = p.rendered }) st.parts }

(* ---- Rendering ---- *)

let count_at frame seq k = Core.Agg.count_at frame ~n:(Core.Seqdata.length seq) ~k

let window_value (st : state) seq ~k : Value.t =
  let float_value v = if Float.is_nan v then Value.Null else Value.Float v in
  match st.spec.agg with
  | Aggregate.Sum | Aggregate.Min | Aggregate.Max ->
    float_value (Core.Seqdata.get seq k)
  | Aggregate.Count -> Value.Int (count_at st.spec.frame seq k)
  | Aggregate.Avg ->
    let c = count_at st.spec.frame seq k in
    if c = 0 then Value.Null
    else Value.Float (Core.Seqdata.get seq k /. float_of_int c)

(* Whether the window cell at rank [k] of [seq] renders as the one at
   rank [k0] of [seq0]: bit for bit, so -0.0 differs from 0.0, with any
   two NaNs alike where [window_value] maps NaN to NULL.  Allocates
   nothing. *)
let same_window_cell (st : state) seq ~k seq0 ~k0 =
  match st.spec.agg with
  | Aggregate.Sum | Aggregate.Min | Aggregate.Max ->
    Core.Seqdata.same_quotient seq k ~by:1 seq0 k0 ~by0:1
  | Aggregate.Count -> count_at st.spec.frame seq k = count_at st.spec.frame seq0 k0
  | Aggregate.Avg ->
    let c = count_at st.spec.frame seq k and c0 = count_at st.spec.frame seq0 k0 in
    if c = 0 || c0 = 0 then c = c0
    else Core.Seqdata.same_quotient seq k ~by:c seq0 k0 ~by0:c0

let coerce_to ty (v : Value.t) : Value.t =
  match ty, v with
  | Dtype.Int, Value.Float f when Float.is_integer f -> Value.Int (int_of_float f)
  | _ -> v

(* One output row: [cols] holds the base column of each output item, -1
   for the window column. *)
let fresh_row st ~cols ~window_ty seq (base_row : Row.t) ~k : Row.t =
  let row = Array.make (Array.length cols) Value.Null in
  for j = 0 to Array.length cols - 1 do
    let c = cols.(j) in
    row.(j) <-
      (if c >= 0 then Row.get base_row c
       else coerce_to window_ty (window_value st seq ~k))
  done;
  row

(* Compose two rank maps given as blocks (rank, earlier rank, length):
   [outer] maps the current ranks to a middle sequence's, [inner] the
   middle ranks to the rendered ones.  Kept rows keep their relative
   order, so both lists ascend in both coordinates. *)
let compose_ranks outer inner =
  let rec go outer inner acc =
    match (outer, inner) with
    | (d, m, len) :: outer', (m', s, len') :: inner' ->
      let lo = max m m' and hi = min (m + len) (m' + len') in
      let acc = if lo < hi then (d + lo - m, s + lo - m', hi - lo) :: acc else acc in
      if m + len <= m' + len' then go outer' inner acc else go outer inner' acc
    | _ -> List.rev acc
  in
  go outer inner []

(* Rendering is incremental per partition and, within a partition, per
   row.  A partition's output rows are a function of its [base_rows]
   and [seq] (plus the state's fixed spec and schemas), and maintenance
   that changes [base_rows] installs a fresh [seq] — [Compute.sequence]
   and [Seqdata.make] always allocate, and nothing here mutates a [seq]
   in place.  So a cached rendering is current exactly while its [from]
   is still physically the partition's [seq].

   Otherwise each merge since that render ([apply_merge]) has composed
   its rank map of kept rows into the cache's [ranks], keyed by the
   [seq] it leads to.  A kept row's base row is the same row (the merge
   blits it), so its output row is unchanged exactly when its window
   cell is, and it keeps its previously rendered row; every other row
   is rendered fresh.  A partition with no current map (first render, a
   new partition, a dropped cache) is the same loop with every row
   fresh.  A single in-place edit under a sliding (l, h) frame so
   re-renders at most l+h+1 rows.

   A partition's rows are cut into full chunks of [Relation.chunk_size]
   rows (the last one shorter); a chunk whose rows all come out
   physically the same as the cached chunk at its place is that chunk,
   zone included.  The view is the partitions' chunks in order, with no
   row array copied, so a render costs the chunks it replaces; cached
   chunks and rows are never mutated, which keeps MVCC pointer-capture
   publication valid. *)
let render (st : state) : Relation.t =
  let cols =
    Array.of_list
      (List.map
         (function
           | Some c, _ -> Schema.find st.base_schema c
           | None, _ -> -1)
         st.spec.items)
  in
  let window_ty =
    (Schema.col st.out_schema (Option.get (Array.find_index (fun c -> c < 0) cols)))
      .Schema.ty
  in
  let size = Relation.chunk_size in
  let chunks_of p =
    let seq = p.seq in
    match p.rendered with
    | Some c when c.from == seq -> c.chunks
    | cache ->
      let cache = match cache with Some c when c.current == seq -> Some c | _ -> None in
      (* the cached rendering's row at 0-based position [j] *)
      let cached c j = (Relation.chunk_rows c.chunks.(j / size)).(j mod size) in
      let runs = ref (match cache with Some c -> c.ranks | None -> []) in
      let row_at i =
        let k = i + 1 in
        (* drop the blocks that end before rank k *)
        while match !runs with (dst, _, len) :: _ -> dst + len <= k | [] -> false do
          runs := List.tl !runs
        done;
        match (cache, !runs) with
        | Some c, (dst, src, _) :: _
          when dst <= k && same_window_cell st seq ~k c.from ~k0:(src + k - dst) ->
          cached c (src + k - dst - 1)
        | _ -> fresh_row st ~cols ~window_ty seq p.base_rows.(i) ~k
      in
      let n = Array.length p.base_rows in
      let chunks =
        Relation.chunks_init ((n + size - 1) / size) (fun j ->
            let base = j * size in
            let rows = Array.make (min size (n - base)) [||] in
            (* the cached chunk at this place, if it is as long *)
            let old =
              match cache with
              | Some c
                when j < Array.length c.chunks
                     && Array.length (Relation.chunk_rows c.chunks.(j)) = Array.length rows ->
                Some c.chunks.(j)
              | _ -> None
            in
            let same = ref (old <> None) in
            for i = 0 to Array.length rows - 1 do
              rows.(i) <- row_at (base + i);
              same :=
                !same && match old with Some o -> rows.(i) == (Relation.chunk_rows o).(i) | None -> false
            done;
            match old with
            | Some o when !same -> o
            | _ -> Relation.chunk st.out_schema rows)
      in
      p.rendered <- Some { from = seq; chunks; ranks = [ (1, 1, n) ]; current = seq };
      chunks
  in
  Relation.of_chunks st.out_schema (Array.concat (List.map chunks_of st.parts))

let drop_render_cache (st : state) =
  List.iter (fun p -> p.rendered <- None) st.parts

(* ---- Incremental maintenance under base DML (multi-row §2.3) ----

   Every change — one statement's rows or a whole batch's consolidated
   delta — takes one path.  Per partition, the edits are merged into
   the ordered row array; the merge records the blocks of kept rows
   (the rank map) plus the edit events.  Each event dirties the window
   span it touches — [k-h, k+l] for an insert/update landing at new
   rank k, [g-h, g+l-1] for a deletion gap at g — and the dirty
   positions are recomputed with one kernel scan per contiguous run
   (Compute.fill).  Clean positions copy the old sequence value under
   their block's rank shift: a clean position's window contains no
   edit, so every raw value in it moved by the same offset.

   The structural half of the merge depends only on the ordered base
   rows and the order column, so it is computed once per scan-share
   class ([shared_plan]) and replayed into each member ([apply_shared]);
   a lone view is a class of one.  Row arrays are never written in
   place: a merge builds fresh arrays, so states, their undo copies and
   the members of a class may share them. *)

let pkey_of st row = List.map (fun i -> Row.get row i) st.pcols

let find_partition st pkey = List.find_opt (fun p -> compare_pkey p.pkey pkey = 0) st.parts

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

(* Rank (1-based) at which [row] inserts into the ordered partition:
   after all existing rows with order value <= its own. *)
let insert_rank st (p : partition_state) row =
  search ~ocol:st.ocol p.base_rows (Row.get row st.ocol) ~past_equal:true + 1

(* Stable by arrival on equal order values: a new row lands after the
   existing rows with order <= it, and after earlier arrivals. *)
let sort_inserts ~ocol inserts =
  List.stable_sort
    (fun a b -> Value.compare (Row.get a ocol) (Row.get b ocol))
    inserts

(* Structural half of one partition's merge.  Each delete, then each
   in-place update, claims the first unclaimed row equal to it; equal
   rows share their order value, so the claim searches only that run.
   Each insert lands at its [insert_rank] slot, after earlier inserts
   with the same slot.  Between those event points the old rows are
   blitted: [runs] lists each such block as (new rank, old rank,
   length) — the rank map of every kept row.  [touches] are the new
   ranks of inserted and updated rows, [gaps] the new rank following
   each deleted one.  Depends only on the order column and the ordered
   base rows — not on the view's value column, aggregate or frame — so
   every view of a scan-share class can replay one merge. *)
let merge_structure ~ocol (base_rows : Row.t array) ~sorted_inserts ~deletes
    ~updates =
  let n = Array.length base_rows in
  let claimed = Hashtbl.create 8 in
  let claim row f =
    let v = Row.get row ocol in
    let rec go k =
      if k >= n || Value.compare (Row.get base_rows.(k) ocol) v <> 0 then
        raise (Not_maintainable "edited row not found in view state")
      else if (not (Hashtbl.mem claimed k)) && Row.equal base_rows.(k) row then
        Hashtbl.replace claimed k f
      else go (k + 1)
    in
    go (search ~ocol base_rows v ~past_equal:false)
  in
  List.iter (fun r -> claim r `Drop) deletes;
  List.iter (fun (o, nw) -> claim o (`Set nw)) updates;
  let claims =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun k f acc -> (k, f) :: acc) claimed [])
  in
  let inserts =
    List.map
      (fun r -> (search ~ocol base_rows (Row.get r ocol) ~past_equal:true, r))
      sorted_inserts
  in
  let drops = List.length (List.filter (fun (_, f) -> f = `Drop) claims) in
  let n' = n - drops + List.length inserts in
  if n' = 0 then `Drop
  else begin
    let rows' = Array.make n' [||] in
    let runs = ref [] and touches = ref [] and gaps = ref [] in
    let src = ref 0 and dst = ref 0 in
    (* keep the old rows [src, k) *)
    let keep_upto k =
      let len = k - !src in
      if len > 0 then begin
        Array.blit base_rows !src rows' !dst len;
        runs := (!dst + 1, !src + 1, len) :: !runs
      end;
      src := k;
      dst := !dst + len
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
      | _, [] -> keep_upto n
    in
    merge inserts claims;
    `Edit (rows', List.rev !runs, !touches, !gaps)
  end

(* Per-view half.  Kept rows copy their raw values under the rank map;
   only inserted and updated rows extract theirs.  Each event dirties
   the window span it touches; the spans merge into maximal dirty runs,
   each recomputed by [Compute.fill] on the window kernel, while every
   clean position copies its old value under its block's rank shift.
   Every aggregate costs O(1) per dirty position, so recomputing the
   dirty runs never costs more than recomputing the partition. *)
let apply_merge st (p : partition_state) ~rows' ~runs ~touches ~gaps =
  let agg = core_agg st.spec.agg in
  let frame = st.spec.frame in
  let n = Array.length p.base_rows in
  let n' = Array.length rows' in
  let raw' =
    let values = Array.create_float n' in
    List.iter
      (fun (dst, src, len) -> Core.Seqdata.raw_blit p.raw ~src values ~pos:(dst - 1) ~len)
      runs;
    List.iter (fun k -> values.(k - 1) <- value_of st.vcol rows'.(k - 1)) touches;
    Core.Seqdata.raw_of_array values
  in
  let lo', hi' = Core.Seqdata.complete_range frame ~n:n' in
  let l, h =
    match frame with
    | Core.Frame.Sliding { l; h } -> (l, h)
    | Core.Frame.Cumulative -> (max n' n, 0)
  in
  let rec merge_spans = function
    | (a, b) :: (c, d) :: rest when c <= b + 1 -> merge_spans ((a, max b d) :: rest)
    | span :: rest -> span :: merge_spans rest
    | [] -> []
  in
  let dirty =
    List.map (fun k -> (k - h, k + l)) touches
    @ List.map (fun g -> (g - h, g + l - 1)) gaps
    |> List.filter_map (fun (lo, hi) ->
           let lo = max lo' lo and hi = min hi' hi in
           if lo <= hi then Some (lo, hi) else None)
    |> List.sort compare |> merge_spans
  in
  (* copy every position under its rank shift; the dirty ones are
     overwritten below *)
  let out = Array.create_float (hi' - lo' + 1) in
  List.iter
    (fun (dst, src, len) ->
      Core.Seqdata.blit p.seq ~src out ~pos:(dst - lo') ~len;
      (* the header and trailer shift with the first and last rank *)
      if dst = 1 then
        for i = lo' to 0 do
          out.(i - lo') <- Core.Seqdata.get p.seq (i + src - dst)
        done;
      if dst + len - 1 = n' then
        for i = n' + 1 to hi' do
          out.(i - lo') <- Core.Seqdata.get p.seq (i + src - dst)
        done)
    runs;
  (* a cumulative run folds on from its clean left neighbour *)
  List.iter
    (fun (rlo, rhi) ->
      let seed =
        if Core.Frame.is_cumulative frame && rlo > 1 then Some out.(rlo - 2) else None
      in
      Core.Compute.fill ?seed ~agg frame raw' ~first:rlo ~last:rhi out ~pos:(rlo - lo'))
    dirty;
  let seq' = Core.Seqdata.make frame agg ~n:n' ~lo:lo' out in
  (* carry the render cache across the merge (see [render]) *)
  p.rendered <-
    (match p.rendered with
     | Some c when c.current == p.seq ->
       Some { c with ranks = compose_ranks runs c.ranks; current = seq' }
     | _ -> None);
  p.base_rows <- rows';
  p.raw <- raw';
  p.seq <- seq'

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
      rows' : Row.t array;
      runs : (int * int * int) list;
      touches : int list;
      gaps : int list;
      old_len : int;  (* every member's partition must have this length *)
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
          match find_partition rep pkey with
          | None ->
            if del <> [] || upd <> [] then
              raise (Not_maintainable "edited row not found in view state");
            (pkey, P_new (Array.of_list sorted_inserts))
          | Some p ->
            (match
               merge_structure ~ocol:rep.ocol p.base_rows ~sorted_inserts
                 ~deletes:del ~updates:upd
             with
             | `Drop -> (pkey, P_drop)
             | `Edit (rows', runs, touches, gaps) ->
               ( pkey,
                 P_edit
                   {
                     rows';
                     runs;
                     touches;
                     gaps;
                     old_len = Array.length p.base_rows;
                   } )))
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
  List.iter
    (fun (pkey, pplan) ->
      match (pplan, find_partition st pkey) with
      | P_new rows, None ->
        let raw = Core.Seqdata.raw_of_array (Array.map (value_of st.vcol) rows) in
        let seq =
          Core.Compute.sequence ~agg:(core_agg st.spec.agg) st.spec.frame raw
        in
        st.parts <-
          List.sort
            (fun a b -> compare_pkey a.pkey b.pkey)
            ({ pkey; base_rows = rows; raw; seq; rendered = None } :: st.parts)
      | P_drop, Some p -> st.parts <- List.filter (fun q -> q != p) st.parts
      | P_edit { rows'; runs; touches; gaps; old_len }, Some p ->
        if Array.length p.base_rows <> old_len then diverged ();
        (* members share [rows']: no path writes into a row array *)
        apply_merge st p ~rows' ~runs ~touches ~gaps
      | P_new _, Some _ | P_drop, None | P_edit _, None -> diverged ())
    plan.shp_parts

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
