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

(* ---- Typed argument columns ----

   A framed SUM, COUNT or AVG whose argument is a plain column holding
   only Ints, or only Floats, besides NULLs, reads that column once into
   an unboxed array and a NULL mask, and folds it on unboxed
   accumulators: one pass, no [Value.t] per row until the result is
   boxed.  The fold is [Aggregate]'s, step for step: NULLs are skipped;
   [count] counts the rest; over Ints the sum is an int and, for AVG,
   also a float sum of [float_of_int] of each value; over Floats the
   float sum starts from [0.]; a value that leaves the frame is
   subtracted as [Aggregate.remove] does.  So the answers are the
   [Value.t] path's bit for bit.  The kernel drivers, the strategies
   and the scatter to input order are unchanged; [Naive], MIN/MAX and
   other arguments keep the [Value.t] path. *)

(* A column of values by row: boxed, or unboxed with [null.[i] <> '\000']
   on the NULL rows *)
type column =
  | Values of Value.t array
  | Ints of int array * Bytes.t
  | Floats of Float.Array.t * Bytes.t

let value col i =
  match col with
  | Values a -> a.(i)
  | Ints (a, null) -> if Bytes.get null i <> '\000' then Value.Null else Value.Int a.(i)
  | Floats (a, null) ->
    if Bytes.get null i <> '\000' then Value.Null else Value.Float (Float.Array.get a i)

(* The kind of column [c] of [rows]: that of its first non-NULL value *)
let rec column_kind (rows : Row.t array) c i =
  if i = Array.length rows then Dtype.Int
  else
    match rows.(i).(c) with
    | Value.Null -> column_kind rows c (i + 1)
    | Value.Int _ -> Dtype.Int
    | Value.Float _ -> Dtype.Float
    | Value.Bool _ -> Dtype.Bool
    | Value.String _ -> Dtype.String
    | Value.Date _ -> Dtype.Date

(* Fill from row [i] on; false at the first value of another kind *)
let rec fill_ints (rows : Row.t array) c a null i =
  i = Array.length rows
  ||
  match rows.(i).(c) with
  | Value.Int x ->
    a.(i) <- x;
    fill_ints rows c a null (i + 1)
  | Value.Null ->
    Bytes.set null i '\001';
    fill_ints rows c a null (i + 1)
  | _ -> false

let rec fill_floats (rows : Row.t array) c a null i =
  i = Array.length rows
  ||
  match rows.(i).(c) with
  | Value.Float x ->
    Float.Array.set a i x;
    fill_floats rows c a null (i + 1)
  | Value.Null ->
    Bytes.set null i '\001';
    fill_floats rows c a null (i + 1)
  | _ -> false

(* Column [c] of [rows] unboxed, when its non-NULL values are all Ints
   or all Floats. *)
let typed_column (rows : Row.t array) c =
  let n = Array.length rows in
  let null = Bytes.make n '\000' in
  match column_kind rows c 0 with
  | Dtype.Int ->
    let a = Array.make n 0 in
    if fill_ints rows c a null 0 then Some (Ints (a, null)) else None
  | Dtype.Float ->
    let a = Float.Array.make n 0. in
    if fill_floats rows c a null 0 then Some (Floats (a, null)) else None
  | Dtype.Bool | Dtype.String | Dtype.Date -> None

(* The accumulators: [count] non-NULL values, [sum] of Ints, and the
   float sum in [fsum.(0)] (a flat float, updated without boxing) *)
type acc = {
  mutable count : int;
  mutable sum : int;
  fsum : Float.Array.t;
}

(* One partition ([idx.(start ..)], [m] rows) of a framed SUM/COUNT/AVG
   over a typed argument, on the two pointers; results at the input
   rows of [ints] or [floats], NULL where [nulls] is set. *)
let eval_typed agg arg ~lo ~hi idx ~start ~m ~ints ~floats ~nulls =
  let st = { count = 0; sum = 0; fsum = Float.Array.make 1 0. } in
  let emit i =
    let r = idx.(start + i) in
    match agg with
    | Aggregate.Count -> ints.(r) <- st.count
    | _ when st.count = 0 -> Bytes.set nulls r '\001'
    | Aggregate.Avg -> Float.Array.set floats r (Float.Array.get st.fsum 0 /. float_of_int st.count)
    | _ -> (
      match arg with
      | Ints _ -> ints.(r) <- st.sum
      | _ -> Float.Array.set floats r (Float.Array.get st.fsum 0))
  in
  match arg with
  | Ints (a, null) ->
    let add j =
      let r = idx.(start + j) in
      if Bytes.get null r = '\000' then begin
        st.count <- st.count + 1;
        st.sum <- st.sum + a.(r);
        Float.Array.set st.fsum 0 (Float.Array.get st.fsum 0 +. float_of_int a.(r))
      end
    and retire j =
      let r = idx.(start + j) in
      if Bytes.get null r = '\000' then begin
        st.count <- st.count - 1;
        st.sum <- st.sum - a.(r);
        Float.Array.set st.fsum 0 (Float.Array.get st.fsum 0 -. float_of_int a.(r))
      end
    in
    Kernel.two_pointer ~m ~first:0 ~last:(m - 1) ~lo ~hi ~add ~retire ~emit
  | Floats (a, null) ->
    let add j =
      let r = idx.(start + j) in
      if Bytes.get null r = '\000' then begin
        st.count <- st.count + 1;
        Float.Array.set st.fsum 0 (Float.Array.get st.fsum 0 +. Float.Array.get a r)
      end
    and retire j =
      let r = idx.(start + j) in
      if Bytes.get null r = '\000' then begin
        st.count <- st.count - 1;
        Float.Array.set st.fsum 0 (Float.Array.get st.fsum 0 -. Float.Array.get a r)
      end
    in
    Kernel.two_pointer ~m ~first:0 ~last:(m - 1) ~lo ~hi ~add ~retire ~emit
  | Values _ -> invalid_arg "Window.eval_typed"

(* Compute one window function over all rows; its value at input row i
   is [value col i]. *)
let compute_column strategy (rows : Row.t array) (fn : fn) : column =
  (match fn.func with
   | Agg _ | First_value | Last_value -> validate_frame fn.spec.frame
   | Row_number | Rank | Dense_rank | Lag _ | Lead _ -> ());
  let { Sortop.idx; order_keys; segments } =
    Sortop.partition_sort fn.spec.partition fn.spec.order rows
  in
  let n = Array.length rows in
  (* frame bounds of the partition [start, start + m): positional for
     ROWS, key-value based for RANGE *)
  let bounds ~start ~m =
    let frame = fn.spec.frame in
    match frame.mode with
    | Rows -> (rows_bound frame.lo ~m, rows_bound frame.hi ~m)
    | Range ->
      let key =
        match fn.spec.order with
        | [ k ] -> k
        | _ -> raise (Invalid_frame "RANGE frames need exactly one ORDER BY key")
      in
      let t =
        Array.init m (fun k ->
            range_key_projection ~asc:key.Sortop.asc
              (Sortop.key_value order_keys 0 idx.(start + k)))
      in
      (range_bound frame.lo t ~upper:false, range_bound frame.hi t ~upper:true)
  in
  let typed =
    match strategy, fn.func, fn.arg with
    | Incremental, Agg (Aggregate.Sum | Aggregate.Count | Aggregate.Avg), Expr.Col c ->
      typed_column rows c
    | _ -> None
  in
  match typed, fn.func with
  | Some arg, Agg agg ->
    let float_result =
      match agg, arg with
      | Aggregate.Avg, _ | Aggregate.Sum, Floats _ -> true
      | _ -> false
    in
    let ints = if float_result then [||] else Array.make n 0 in
    let floats = if float_result then Float.Array.make n 0. else Float.Array.make 0 0. in
    let nulls = Bytes.make n '\000' in
    List.iter
      (fun (start, stop) ->
        let m = stop - start in
        let lo, hi = bounds ~start ~m in
        eval_typed agg arg ~lo ~hi idx ~start ~m ~ints ~floats ~nulls)
      segments;
    if float_result then Floats (floats, nulls) else Ints (ints, nulls)
  | _ ->
    let arg = Expr.compile fn.arg in
    let out = Array.make n Value.Null in
    List.iter
      (fun (start, stop) ->
        let m = stop - start in
        let results =
          match fn.func with
          | Agg agg ->
            let vals = Value.array_init m (fun k -> arg rows.(idx.(start + k))) in
            let lo, hi = bounds ~start ~m in
            eval_partition strategy agg ~lo ~hi vals
          | (Row_number | Rank | Dense_rank) as func ->
            eval_ranks func order_keys idx ~start ~stop
          | (Lag _ | Lead _ | First_value | Last_value) as func ->
            let vals = Value.array_init m (fun k -> arg rows.(idx.(start + k))) in
            let lo, hi = bounds ~start ~m in
            eval_navigation func ~lo ~hi vals
        in
        for k = 0 to m - 1 do
          out.(idx.(start + k)) <- results.(k)
        done)
      segments;
    Values out

(* [f rows.(i) vals] for row [i], [vals] holding its window values in
   the order of [fns]: one buffer, written over for each row. *)
let outputs ?(strategy = Incremental) (rows : Row.t array) (fns : fn list) f =
  let columns = Array.of_list (List.map (compute_column strategy rows) fns) in
  let vals = Array.make (Array.length columns) Value.Null in
  fun i ->
    for c = 0 to Array.length columns - 1 do
      vals.(c) <- value columns.(c) i
    done;
    f rows.(i) vals

(* Append one column per window function; row order of the input is
   preserved. *)
let extend ?strategy (r : Relation.t) (fns : fn list) : Relation.t =
  let rows = Relation.rows r in
  Relation.init (output_schema (Relation.schema r) fns) (Array.length rows)
    (outputs ?strategy rows fns Row.append)
