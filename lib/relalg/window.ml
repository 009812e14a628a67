(* Native reporting-function (window-function) operator: the "existing
   reporting functionality inside the database engine" of the paper's
   Table 1.

   For each window function the input is partitioned by the PARTITION BY
   expressions and ordered inside each partition by the ORDER BY keys;
   the aggregate is then evaluated over the ROWS frame of every tuple.
   One output value per input tuple — reporting functions do not shrink
   the data volume.

   Framed aggregates run on the core's window kernel ([Kernel]), with
   [Aggregate]'s state over SQL values as its element operations.  Per
   partition of size m and frame width w:
   - [Naive]: the kernel's explicit form, O(m·w) — the baseline of §2.2;
   - [Incremental]: the two pointers for invertible aggregates
     (SUM/COUNT/AVG), the paper's pipelined computation with a cache of
     w+2 values, and for MIN/MAX under frames unbounded below; the
     monotonic deque for the other MIN/MAX frames; O(m). *)

module Kernel = Rfview_core.Kernel

type bound =
  | Unbounded_preceding
  | Preceding of int
  | Current_row
  | Following of int
  | Unbounded_following

(* ROWS frames count tuples (the paper's setting); RANGE frames measure
   the distance of the single ORDER BY key's *value* and include peers of
   the current row. *)
type frame_mode =
  | Rows
  | Range

type frame = {
  lo : bound;
  hi : bound;
  mode : frame_mode;
}

(* Common shapes. *)
let cumulative_frame = { lo = Unbounded_preceding; hi = Current_row; mode = Rows }
let sliding_frame ~l ~h = { lo = Preceding l; hi = Following h; mode = Rows }
let whole_partition_frame =
  { lo = Unbounded_preceding; hi = Unbounded_following; mode = Rows }
let range_frame ~l ~h = { lo = Preceding l; hi = Following h; mode = Range }

type spec = {
  partition : Expr.t list;
  order : Sortop.key list;
  frame : frame;
}

(* Window functions: framed aggregates, the rank family (which ignores
   the frame and takes no argument) and the navigation family. *)
type func =
  | Agg of Aggregate.kind
  | Row_number
  | Rank
  | Dense_rank
  | Lag of int         (* value of the argument [offset] rows earlier *)
  | Lead of int        (* value of the argument [offset] rows later *)
  | First_value        (* argument at the first row of the frame *)
  | Last_value         (* argument at the last row of the frame *)

let func_name = function
  | Agg k -> Aggregate.kind_name k
  | Row_number -> "ROW_NUMBER"
  | Rank -> "RANK"
  | Dense_rank -> "DENSE_RANK"
  | Lag _ -> "LAG"
  | Lead _ -> "LEAD"
  | First_value -> "FIRST_VALUE"
  | Last_value -> "LAST_VALUE"

(* LAG/LEAD carry an offset argument, so they are not resolvable by name
   alone; the binder builds them directly. *)
let func_of_name s =
  match String.uppercase_ascii s with
  | "ROW_NUMBER" -> Some Row_number
  | "RANK" -> Some Rank
  | "DENSE_RANK" -> Some Dense_rank
  | "FIRST_VALUE" -> Some First_value
  | "LAST_VALUE" -> Some Last_value
  | other -> Option.map (fun k -> Agg k) (Aggregate.kind_of_name other)

type fn = {
  func : func;
  arg : Expr.t; (* ignored by the rank family *)
  spec : spec;
  name : string;
}

type strategy =
  | Naive
  | Incremental

exception Invalid_frame of string

(* We accept the general SQL form; only negative offsets are rejected. *)
let validate_frame f =
  let nonneg = function
    | Preceding n | Following n -> n >= 0
    | _ -> true
  in
  if not (nonneg f.lo && nonneg f.hi) then
    raise (Invalid_frame "frame offsets must be non-negative")

(* A ROWS frame bound in a partition of [m] rows. *)
let rows_bound b ~m =
  match b with
  | Unbounded_preceding -> Kernel.Fixed 0
  | Preceding n -> Kernel.Offset (-n)
  | Current_row -> Kernel.Offset 0
  | Following n -> Kernel.Offset n
  | Unbounded_following -> Kernel.Fixed (m - 1)

(* A RANGE frame bound, from the (sorted ascending) numeric projections
   [t] of the order key: row [i]'s bound is the first row whose key
   reaches the bound's value, or with [~upper] the last row whose key
   does not pass it.  Peers of the current row are always included, per
   SQL. *)
let range_bound b (t : float array) ~upper =
  let m = Array.length t in
  (* the first index whose key passes [x] ([~upper]) or reaches it *)
  let search x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if (if upper then t.(mid) <= x else t.(mid) < x) then go (mid + 1) hi
        else go lo mid
    in
    if upper then go 0 m - 1 else go 0 m
  in
  match b with
  | Unbounded_preceding -> Kernel.Fixed 0
  | Preceding n -> Kernel.Fn (fun i -> search (t.(i) -. float_of_int n))
  | Current_row -> Kernel.Fn (fun i -> search t.(i))
  | Following n -> Kernel.Fn (fun i -> search (t.(i) +. float_of_int n))
  | Unbounded_following -> Kernel.Fixed (m - 1)

(* Numeric projection of an order-key value for RANGE evaluation; the
   sign flips for descending keys so projections stay ascending. *)
let range_key_projection ~asc (v : Value.t) : float =
  let f =
    match v with
    | Value.Null -> Float.neg_infinity
    | Value.Int i -> float_of_int i
    | Value.Float f -> f
    | Value.Date d -> float_of_int d
    | Value.Bool _ | Value.String _ ->
      raise (Invalid_frame "RANGE frames need a numeric or date ORDER BY key")
  in
  if asc then f
  else if f = Float.neg_infinity then Float.infinity
  else -.f

(* ---- Per-partition evaluation, on the window kernel ----

   One framed aggregate over a partition's argument values, in
   partition order, with [Aggregate]'s state as the kernel's element
   operations.  [Naive] is the explicit form.  [Incremental] runs the
   two pointers for SUM/COUNT/AVG, and for MIN/MAX under a [Fixed]
   lower bound, which never retires a row; other MIN/MAX frames slide
   the monotonic deque.  Among equal values every path keeps the
   first-best row, as a GROUP BY fold does. *)
let eval_partition strategy agg ~lo ~hi (vals : Value.t array) : Value.t array =
  let m = Array.length vals in
  let out = Array.make m Value.Null in
  let st = ref (Aggregate.create agg) in
  let add j = Aggregate.add !st vals.(j) and emit i = out.(i) <- Aggregate.result !st in
  (match strategy, agg, lo with
   | Naive, _, _ ->
     Kernel.explicit ~m ~first:0 ~last:(m - 1) ~lo ~hi
       ~reset:(fun () -> st := Aggregate.create agg)
       ~add ~emit
   | Incremental, (Aggregate.Min | Aggregate.Max), (Kernel.Offset _ | Kernel.Fn _) ->
     let sign = if agg = Aggregate.Min then 1 else -1 in
     Kernel.deque ~m ~first:0 ~last:(m - 1) ~lo ~hi
       ~beats:(fun j k ->
         (not (Value.is_null vals.(j)))
         && (Value.is_null vals.(k) || sign * Aggregate.compare_extremum vals.(j) vals.(k) < 0))
       ~emit:(fun i j -> if j >= 0 then out.(i) <- vals.(j))
   | Incremental, _, _ ->
     Kernel.two_pointer ~m ~first:0 ~last:(m - 1) ~lo ~hi ~add
       ~retire:(fun j -> Aggregate.remove !st vals.(j))
       ~emit);
  out

(* ---- The operator ---- *)

let output_schema (input : Schema.t) (fns : fn list) : Schema.t =
  let extra =
    List.map
      (fun fn ->
        let ty =
          match fn.func with
          | Row_number | Rank | Dense_rank -> Dtype.Int
          | Lag _ | Lead _ | First_value | Last_value ->
            (try Option.value ~default:Dtype.Float (Expr.infer_type input fn.arg)
             with Expr.Type_mismatch _ -> Dtype.Float)
          | Agg agg ->
            let input_ty =
              try Expr.infer_type input fn.arg with Expr.Type_mismatch _ -> None
            in
            Option.value ~default:Dtype.Float (Aggregate.result_type agg input_ty)
        in
        Schema.column fn.name ty)
      fns
  in
  Schema.append input (Schema.make extra)

(* Ranks within one ordered partition: positions start..stop-1 of [idx],
   ties determined by the ORDER BY keys. *)
let eval_ranks func order_keys (idx : int array) ~start ~stop : Value.t array =
  let m = stop - start in
  let out = Array.make m Value.Null in
  let rank = ref 1 and dense = ref 1 in
  for k = 0 to m - 1 do
    if k > 0 then begin
      let tie =
        Sortop.compare_rows order_keys idx.(start + k - 1) idx.(start + k) = 0
      in
      if not tie then begin
        rank := k + 1;
        incr dense
      end
    end;
    out.(k) <-
      Value.Int
        (match func with
         | Row_number -> k + 1
         | Rank -> !rank
         | Dense_rank -> !dense
         | Agg _ | Lag _ | Lead _ | First_value | Last_value -> assert false)
  done;
  out

(* Navigation functions over one ordered partition: the argument values
   [vals] are in partition order. *)
let eval_navigation func ~lo ~hi (vals : Value.t array) : Value.t array =
  let m = Array.length vals in
  Value.array_init m (fun i ->
      match func with
      | Lag off -> if i - off >= 0 then vals.(i - off) else Value.Null
      | Lead off -> if i + off < m then vals.(i + off) else Value.Null
      | First_value | Last_value ->
        let lo = max 0 (Kernel.at lo i) and hi = min (m - 1) (Kernel.at hi i) in
        if hi < lo then Value.Null
        else if func = First_value then vals.(lo)
        else vals.(hi)
      | Agg _ | Row_number | Rank | Dense_rank -> assert false)

(* Compute one window function over all rows; result.(i) corresponds to
   input row i (original order). *)
let compute_column strategy (rows : Row.t array) (fn : fn) : Value.t array =
  (match fn.func with
   | Agg _ | First_value | Last_value -> validate_frame fn.spec.frame
   | Row_number | Rank | Dense_rank | Lag _ | Lead _ -> ());
  let { Sortop.idx; order_keys; segments } =
    Sortop.partition_sort fn.spec.partition fn.spec.order rows
  in
  let arg = Expr.compile fn.arg in
  let out = Array.make (Array.length rows) Value.Null in
  List.iter
    (fun (start, stop) ->
      let m = stop - start in
      (* frame bounds: positional for ROWS, key-value based for RANGE *)
      let bounds () =
        let frame = fn.spec.frame in
        match frame.mode with
        | Rows -> (rows_bound frame.lo ~m, rows_bound frame.hi ~m)
        | Range ->
          let key =
            match fn.spec.order with
            | [ k ] -> k
            | _ ->
              raise (Invalid_frame "RANGE frames need exactly one ORDER BY key")
          in
          let t =
            Array.init m (fun k ->
                range_key_projection ~asc:key.Sortop.asc
                  (Sortop.key_value order_keys 0 idx.(start + k)))
          in
          (range_bound frame.lo t ~upper:false, range_bound frame.hi t ~upper:true)
      in
      let results =
        match fn.func with
        | Agg agg ->
          let vals = Value.array_init m (fun k -> arg rows.(idx.(start + k))) in
          let lo, hi = bounds () in
          eval_partition strategy agg ~lo ~hi vals
        | (Row_number | Rank | Dense_rank) as func ->
          eval_ranks func order_keys idx ~start ~stop
        | (Lag _ | Lead _ | First_value | Last_value) as func ->
          let vals = Value.array_init m (fun k -> arg rows.(idx.(start + k))) in
          let lo, hi = bounds () in
          eval_navigation func ~lo ~hi vals
      in
      for k = 0 to m - 1 do
        out.(idx.(start + k)) <- results.(k)
      done)
    segments;
  out

(* Append one column per window function; row order of the input is
   preserved. *)
let extend ?(strategy = Incremental) (r : Relation.t) (fns : fn list) : Relation.t =
  let rows = Relation.rows r in
  let columns = Array.of_list (List.map (compute_column strategy rows) fns) in
  let extra = Array.length columns in
  Relation.init (output_schema (Relation.schema r) fns) (Array.length rows) (fun i ->
      let row = rows.(i) in
      let arity = Array.length row in
      let out = Array.make (arity + extra) Value.Null in
      Array.blit row 0 out 0 arity;
      for c = 0 to extra - 1 do
        out.(arity + c) <- columns.(c).(i)
      done;
      out)
