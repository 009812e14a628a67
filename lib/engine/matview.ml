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
    when q.Ast.order_by = [] || true -> begin
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

type partition_state = {
  pkey : Value.t list;
  mutable base_rows : Row.t array; (* base rows of this partition, ordered *)
  mutable raw : Core.Seqdata.raw;
  mutable seq : Core.Seqdata.t;
  mutable rendered : (Core.Seqdata.t * Row.t array) option;
      (* render cache: the output rows last rendered, keyed by the [seq]
         they were rendered from (see [render]) *)
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

(* Fault-injection sites (see Fault): state construction and the three
   incremental maintenance entry points. *)
let site_init = Fault.define "matview.init_state"
let site_apply_insert = Fault.define "matview.apply_insert"
let site_apply_delete = Fault.define "matview.apply_delete"
let site_apply_update = Fault.define "matview.apply_update"

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
  let value_of row =
    match Row.get row vcol with
    | Value.Null -> raise (Not_maintainable "NULL in the value column")
    | v ->
      (try Value.to_float v
       with Value.Type_error _ -> raise (Not_maintainable "non-numeric value column"))
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
        let raw = Core.Seqdata.raw_of_array (Array.map value_of sorted) in
        let seq = Core.Compute.sequence ~agg:(core_agg spec.agg) spec.frame raw in
        { pkey = k; base_rows = sorted; raw; seq; rendered = None })
      (List.rev !order)
    |> List.sort (fun a b -> compare_pkey a.pkey b.pkey)
  in
  { spec; base_schema; out_schema; pcols; ocol; vcol; parts }

(* Deep copy of the mutable layers, for undo-log snapshots.  Rows,
   [Seqdata.raw] and [Seqdata.t] values are never mutated in place by the
   maintenance path ([Maintain.apply] is functional), so sharing them is
   safe; the partition records and their [base_rows] arrays are.  The
   render cache is shared too: its arrays are never mutated, and the
   copy keeps the [seq] they are keyed by. *)
let copy_state (st : state) : state =
  {
    st with
    parts =
      List.map (fun p -> { p with base_rows = Array.copy p.base_rows }) st.parts;
  }

(* ---- Rendering ---- *)

let window_value (st : state) (p : partition_state) ~k : Value.t =
  let n = Core.Seqdata.raw_length p.raw in
  let float_value v = if Float.is_nan v then Value.Null else Value.Float v in
  match st.spec.agg with
  | Aggregate.Sum | Aggregate.Min | Aggregate.Max ->
    float_value (Core.Seqdata.get p.seq k)
  | Aggregate.Count -> Value.Int (Core.Agg.count_at st.spec.frame ~n ~k)
  | Aggregate.Avg ->
    let c = Core.Agg.count_at st.spec.frame ~n ~k in
    if c = 0 then Value.Null
    else Value.Float (Core.Seqdata.get p.seq k /. float_of_int c)

let coerce_to ty (v : Value.t) : Value.t =
  match ty, v with
  | Dtype.Int, Value.Float f when Float.is_integer f -> Value.Int (int_of_float f)
  | _ -> v

(* Rendering is incremental per partition.  A partition's output rows
   are a function of its [base_rows] and [seq] (plus the state's fixed
   spec and schemas), and every maintenance path that changes
   [base_rows] installs a fresh [seq] — [Maintain.apply],
   [Compute.sequence] and [Seqdata.make] always allocate, and nothing
   here mutates a [seq] in place.  So a cached rendering is current
   exactly while its key is still physically the partition's [seq]; no
   write site invalidates anything.  The concatenation is a fresh
   top-level array per render, so MVCC pointer-capture publication
   stays valid; cached arrays are never mutated. *)
let render (st : state) : Relation.t =
  let item_cols =
    List.map
      (fun (src, _) ->
        match src with
        | Some c -> Some (Schema.find st.base_schema c)
        | None -> None)
      st.spec.items
  in
  let out_tys =
    List.mapi (fun i _ -> (Schema.col st.out_schema i).Schema.ty) st.spec.items
  in
  let render_partition p =
    Array.mapi
      (fun i row ->
        let k = i + 1 in
        Array.of_list
          (List.map2
             (fun src ty ->
               match src with
               | Some c -> Row.get row c
               | None -> coerce_to ty (window_value st p ~k))
             item_cols out_tys))
      p.base_rows
  in
  let rows_of p =
    match p.rendered with
    | Some (from, rows) when from == p.seq -> rows
    | _ ->
      let rows = render_partition p in
      p.rendered <- Some (p.seq, rows);
      rows
  in
  Relation.of_array st.out_schema (Array.concat (List.map rows_of st.parts))

let drop_render_cache (st : state) =
  List.iter (fun p -> p.rendered <- None) st.parts

(* ---- Incremental maintenance under base DML ---- *)

let value_of st row =
  match Row.get row st.vcol with
  | Value.Null -> raise (Not_maintainable "NULL in the value column")
  | v ->
    (try Value.to_float v
     with Value.Type_error _ -> raise (Not_maintainable "non-numeric value column"))

let pkey_of st row = List.map (fun i -> Row.get row i) st.pcols

let find_partition st pkey = List.find_opt (fun p -> compare_pkey p.pkey pkey = 0) st.parts

(* Rank (1-based) at which [row] inserts into the ordered partition:
   after all existing rows with order value <= its own, i.e. one past
   the first row whose order value is greater (binary search). *)
let insert_rank st (p : partition_state) row =
  let v = Row.get row st.ocol in
  let rec go lo hi =
    if lo >= hi then lo + 1
    else
      let mid = (lo + hi) / 2 in
      if Value.compare (Row.get p.base_rows.(mid) st.ocol) v <= 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length p.base_rows)

let apply_insert st row =
  Fault.hit site_apply_insert;
  let pkey = pkey_of st row in
  match find_partition st pkey with
  | None ->
    let raw = Core.Seqdata.raw_of_array [| value_of st row |] in
    let seq = Core.Compute.sequence ~agg:(core_agg st.spec.agg) st.spec.frame raw in
    st.parts <-
      List.sort
        (fun a b -> compare_pkey a.pkey b.pkey)
        ({ pkey; base_rows = [| row |]; raw; seq; rendered = None } :: st.parts)
  | Some p ->
    let k = insert_rank st p row in
    let seq', raw' =
      Core.Maintain.apply p.seq p.raw (Core.Maintain.Insert { k; value = value_of st row })
    in
    let n = Array.length p.base_rows in
    let rows = Array.make (n + 1) row in
    Array.blit p.base_rows 0 rows 0 (k - 1);
    Array.blit p.base_rows (k - 1) rows k (n - k + 1);
    p.base_rows <- rows;
    p.raw <- raw';
    p.seq <- seq'

(* Position of [row] in its partition (first row equal to it). *)
let find_rank (p : partition_state) row =
  let n = Array.length p.base_rows in
  let rec go k =
    if k >= n then None
    else if Row.equal p.base_rows.(k) row then Some (k + 1)
    else go (k + 1)
  in
  go 0

let apply_delete st row =
  Fault.hit site_apply_delete;
  let pkey = pkey_of st row in
  match find_partition st pkey with
  | None -> raise (Not_maintainable "deleted row not found in view state")
  | Some p ->
    (match find_rank p row with
     | None -> raise (Not_maintainable "deleted row not found in view state")
     | Some k ->
       let seq', raw' = Core.Maintain.apply p.seq p.raw (Core.Maintain.Delete { k }) in
       let n = Array.length p.base_rows in
       if n = 1 then st.parts <- List.filter (fun q -> q != p) st.parts
       else begin
         let rows = Array.make (n - 1) row in
         Array.blit p.base_rows 0 rows 0 (k - 1);
         Array.blit p.base_rows k rows (k - 1) (n - k);
         p.base_rows <- rows;
         p.raw <- raw';
         p.seq <- seq'
       end)

let apply_update st ~old_row ~new_row =
  Fault.hit site_apply_update;
  let same_partition = compare_pkey (pkey_of st old_row) (pkey_of st new_row) = 0 in
  let same_order =
    Value.equal (Row.get old_row st.ocol) (Row.get new_row st.ocol)
  in
  if same_partition && same_order then begin
    match find_partition st (pkey_of st old_row) with
    | None -> raise (Not_maintainable "updated row not found in view state")
    | Some p ->
      (match find_rank p old_row with
       | None -> raise (Not_maintainable "updated row not found in view state")
       | Some k ->
         let seq', raw' =
           Core.Maintain.apply p.seq p.raw
             (Core.Maintain.Update { k; value = value_of st new_row })
         in
         p.base_rows.(k - 1) <- new_row;
         p.raw <- raw';
         p.seq <- seq')
  end
  else begin
    (* order or partition changed: delete + insert *)
    apply_delete st old_row;
    apply_insert st new_row
  end

(* ---- Batched maintenance (multi-row §2.3) ----

   One partition's consolidated edits are merged into the ordered row
   array in a single two-pointer pass; the merge records, per new rank,
   which old rank it came from (0 for an inserted row) plus the edit
   events.  Each event dirties the window span it touches — [k-h, k+l]
   for an insert/update landing at new rank k, [g-h, g+l-1] for a
   deletion gap at g — and the dirty positions are recomputed with one
   pipelined span scan per contiguous run (Maintain.recompute_span).
   Clean positions copy the old sequence value under the run-local rank
   shift: a clean position's window contains no edit, so every raw value
   in it moved by the same offset.  When at least half the sequence is
   dirty the partition is recomputed outright. *)

let site_apply_batch = Fault.define "matview.apply_batch"

(* Stable by arrival on equal order values, matching per-row insert_rank
   (a new row lands after existing rows with order <= it). *)
let sort_inserts ~ocol inserts =
  List.stable_sort
    (fun a b -> Value.compare (Row.get a ocol) (Row.get b ocol))
    inserts

(* Structural half of one partition's batched merge: claim one old rank
   per delete / per in-place update, then two-pointer merge the sorted
   inserts over the old ranks.  Depends only on the order column and the
   ordered base rows — not on the view's value column, aggregate or
   frame — which is what shared-scan maintenance exploits: every view of
   a scan-share class has bit-identical [base_rows], so the merge is
   computed once and replayed per view. *)
let merge_structure ~ocol (base_rows : Row.t array) ~sorted_inserts ~deletes
    ~updates =
  let n = Array.length base_rows in
  let status = Array.make n `Keep in
  let claim row f =
    let rec go k =
      if k >= n then raise (Not_maintainable "edited row not found in view state")
      else
        match status.(k) with
        | `Keep when Row.equal base_rows.(k) row -> status.(k) <- f
        | _ -> go (k + 1)
    in
    go 0
  in
  List.iter (fun r -> claim r `Drop) deletes;
  List.iter (fun (o, nw) -> claim o (`Set nw)) updates;
  (* two-pointer merge over old ranks and sorted inserts *)
  let new_rows = ref [] and n2o = ref [] in
  let touches = ref [] and gaps = ref [] in
  let nk = ref 0 in
  let take row ~old_rank ~event =
    incr nk;
    new_rows := row :: !new_rows;
    n2o := old_rank :: !n2o;
    if event then touches := !nk :: !touches
  in
  let rec merge old_k ins =
    if old_k > n then List.iter (fun r -> take r ~old_rank:0 ~event:true) ins
    else
      let old_row = base_rows.(old_k - 1) in
      match ins with
      | r :: rest
        when Value.compare (Row.get r ocol) (Row.get old_row ocol) < 0 ->
        take r ~old_rank:0 ~event:true;
        merge old_k rest
      | _ ->
        (match status.(old_k - 1) with
         | `Keep -> take old_row ~old_rank:old_k ~event:false
         | `Set nr -> take nr ~old_rank:old_k ~event:true
         | `Drop -> gaps := (!nk + 1) :: !gaps);
        merge (old_k + 1) ins
  in
  merge 1 sorted_inserts;
  if !nk = 0 then `Drop
  else
    `Edit
      ( Array.of_list (List.rev !new_rows),
        Array.of_list (List.rev !n2o),
        !touches,
        !gaps )

(* Per-view half: re-extract the raw values with the view's value
   column, mark the window spans the merge events dirtied, recompute
   each contiguous dirty run with one pipelined span scan (clean
   positions copy their old value under the run-local rank shift), and
   install.  A partition at least half-dirty is recomputed outright. *)
let apply_merge st (p : partition_state) ~rows' ~n2o ~touches ~gaps =
  let agg = core_agg st.spec.agg in
  let frame = st.spec.frame in
  let n = Array.length p.base_rows in
  let n' = Array.length rows' in
  let raw' = Core.Seqdata.raw_of_array (Array.map (value_of st) rows') in
  let lo', hi' = Core.Seqdata.complete_range frame ~n:n' in
  let l, h =
    match frame with
    | Core.Frame.Sliding { l; h } -> (l, h)
    | Core.Frame.Cumulative -> (max n' n, 0)
  in
  let size = hi' - lo' + 1 in
  let dirty = Array.make size false in
  let mark lo hi =
    for i = max lo' lo to min hi' hi do
      dirty.(i - lo') <- true
    done
  in
  List.iter (fun k -> mark (k - h) (k + l)) touches;
  List.iter (fun g -> mark (g - h) (g + l - 1)) gaps;
  let dirty_count =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 dirty
  in
  let seq' =
    if 2 * dirty_count >= size then
      (* the delta is wider than the view: recompute the partition *)
      Core.Compute.sequence ~agg frame raw'
    else begin
      let out = Array.make size 0. in
      for i = lo' to hi' do
        if not dirty.(i - lo') then begin
          let anchor = max 1 (min n' i) in
          let s = n2o.(anchor - 1) - anchor in
          out.(i - lo') <- Core.Seqdata.get p.seq (i + s)
        end
      done;
      let i = ref lo' in
      while !i <= hi' do
        if not dirty.(!i - lo') then incr i
        else begin
          let rlo = !i in
          let rhi = ref rlo in
          while !rhi < hi' && dirty.(!rhi + 1 - lo') do
            incr rhi
          done;
          let span =
            match frame with
            | Core.Frame.Sliding _ ->
              Core.Maintain.recompute_span ~agg ~l ~h raw' ~lo:rlo ~hi:!rhi
            | Core.Frame.Cumulative ->
              let seed =
                if rlo = 1 then
                  match agg with
                  | Core.Agg.Sum -> 0.
                  | Core.Agg.Min | Core.Agg.Max -> Core.Agg.absent
                else out.(rlo - 1 - lo')
              in
              Core.Maintain.recompute_cumulative_span ~agg raw' ~seed ~lo:rlo
                ~hi:!rhi
          in
          Array.blit span 0 out (rlo - lo') (Array.length span);
          i := !rhi + 1
        end
      done;
      Core.Seqdata.make frame agg ~n:n' ~lo:lo' out
    end
  in
  p.base_rows <- rows';
  p.raw <- raw';
  p.seq <- seq'

let apply_partition_batch st pkey ~inserts ~deletes ~updates =
  let sorted_inserts = sort_inserts ~ocol:st.ocol inserts in
  match find_partition st pkey with
  | None ->
    if deletes <> [] || updates <> [] then
      raise (Not_maintainable "edited row not found in view state");
    if sorted_inserts <> [] then begin
      let rows = Array.of_list sorted_inserts in
      let raw = Core.Seqdata.raw_of_array (Array.map (value_of st) rows) in
      let seq = Core.Compute.sequence ~agg:(core_agg st.spec.agg) st.spec.frame raw in
      st.parts <-
        List.sort
          (fun a b -> compare_pkey a.pkey b.pkey)
          ({ pkey; base_rows = rows; raw; seq; rendered = None } :: st.parts)
    end
  | Some p ->
    (match
       merge_structure ~ocol:st.ocol p.base_rows ~sorted_inserts
         ~deletes ~updates
     with
     | `Drop -> st.parts <- List.filter (fun q -> q != p) st.parts
     | `Edit (rows', n2o, touches, gaps) ->
       apply_merge st p ~rows' ~n2o ~touches ~gaps)

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

let apply_batch st ~inserts ~deletes ~updates =
  Fault.hit site_apply_batch;
  List.iter
    (fun (pkey, (ins, del, upd)) ->
      apply_partition_batch st pkey ~inserts:ins ~deletes:del ~updates:upd)
    (group_edits st ~inserts ~deletes ~updates)

(* ---- Shared-scan batched maintenance ----

   All sequence views of one scan-share class (same base table, same
   partition columns, same order column — certified by
   Rfview_analysis.Share and re-checked here) keep bit-identical
   [base_rows] per partition: both initialization and every maintenance
   path are deterministic functions of the base contents and the shared
   (partition, order) key.  So the per-view work that depends only on
   that structure — delta grouping, claim matching, the two-pointer
   merge and the rank map — is computed ONCE against a representative
   state ([shared_plan]) and replayed into each view ([apply_shared]),
   leaving per view only the value re-extraction and the dirty-span
   sequence recompute. *)

type partition_plan =
  | P_new of Row.t array  (* no partition under this key: fresh sorted rows *)
  | P_drop                (* the partition empties *)
  | P_edit of {
      rows' : Row.t array;
      n2o : int array;
      touches : int list;
      gaps : int list;
      old_len : int;  (* every member's partition must have this length *)
    }

type shared_plan = {
  shp_pcols : int list;
  shp_ocol : int;
  shp_parts : (Value.t list * partition_plan) list;
}

let site_apply_shared = Fault.define "matview.apply_shared"

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
             | `Edit (rows', n2o, touches, gaps) ->
               ( pkey,
                 P_edit
                   {
                     rows';
                     n2o;
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
        if Array.length rows > 0 then begin
          let rows = Array.copy rows in
          let raw = Core.Seqdata.raw_of_array (Array.map (value_of st) rows) in
          let seq =
            Core.Compute.sequence ~agg:(core_agg st.spec.agg) st.spec.frame raw
          in
          st.parts <-
            List.sort
              (fun a b -> compare_pkey a.pkey b.pkey)
              ({ pkey; base_rows = rows; raw; seq; rendered = None } :: st.parts)
        end
      | P_drop, Some p -> st.parts <- List.filter (fun q -> q != p) st.parts
      | P_edit { rows'; n2o; touches; gaps; old_len }, Some p ->
        if Array.length p.base_rows <> old_len then diverged ();
        (* each view installs its own copy: rows arrays are mutated in
           place by the per-row update path and must not be aliased
           across states *)
        apply_merge st p ~rows':(Array.copy rows') ~n2o ~touches ~gaps
      | P_new _, Some _ | P_drop, None | P_edit _, None -> diverged ())
    plan.shp_parts

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
