(* Native reporting-function (window-function) operator: the "existing
   reporting functionality inside the database engine" of the paper's
   Table 1.

   For each window function the input is partitioned by the PARTITION BY
   expressions and ordered inside each partition by the ORDER BY keys;
   the aggregate is then evaluated over the ROWS frame of every tuple.
   One output value per input tuple — reporting functions do not shrink
   the data volume.

   Execution strategies per partition of size m and frame width w:
   - [Naive]: explicit form, O(m·w) — the baseline of §2.2;
   - [Incremental]: two-pointer accumulate/retire for invertible
     aggregates (SUM/COUNT/AVG), the paper's pipelined computation with a
     cache of w+2 values, O(m); for MIN/MAX a monotonic deque (sliding
     frames), prefix/suffix scans (cumulative frames), O(m). *)

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

let validate_frame f =
  let ok_lo = match f.lo with Following _ -> false | _ -> true in
  let ok_hi = match f.hi with Preceding _ -> false | _ -> true in
  (* We accept the general SQL form; only negative offsets are rejected. *)
  let nonneg = function
    | Preceding n | Following n -> n >= 0
    | _ -> true
  in
  ignore ok_lo;
  ignore ok_hi;
  if not (nonneg f.lo && nonneg f.hi) then
    raise (Invalid_frame "frame offsets must be non-negative")

(* ROWS frame bounds for row [i] in a partition of [m] rows, before
   clamping; (lo, hi) may be out of range. *)
let frame_bounds f ~m ~i =
  let lo =
    match f.lo with
    | Unbounded_preceding -> 0
    | Preceding n -> i - n
    | Current_row -> i
    | Following n -> i + n
    | Unbounded_following -> m - 1
  in
  let hi =
    match f.hi with
    | Unbounded_preceding -> 0
    | Preceding n -> i - n
    | Current_row -> i
    | Following n -> i + n
    | Unbounded_following -> m - 1
  in
  (lo, hi)

(* RANGE frames: bounds from the (sorted ascending) numeric projections
   of the order key.  Peers of the current row are always included, per
   SQL. *)
let range_bounds f (t : float array) ~i =
  let m = Array.length t in
  (* first index with t.(j) >= x *)
  let lower x =
    let rec go lo hi = if lo >= hi then lo
      else let mid = (lo + hi) / 2 in
        if t.(mid) < x then go (mid + 1) hi else go lo mid
    in
    go 0 m
  in
  (* last index with t.(j) <= x *)
  let upper x =
    let rec go lo hi = if lo >= hi then lo
      else let mid = (lo + hi) / 2 in
        if t.(mid) <= x then go (mid + 1) hi else go lo mid
    in
    go 0 m - 1
  in
  let lo =
    match f.lo with
    | Unbounded_preceding -> 0
    | Preceding n -> lower (t.(i) -. float_of_int n)
    | Current_row -> lower t.(i)
    | Following n -> lower (t.(i) +. float_of_int n)
    | Unbounded_following -> m - 1
  in
  let hi =
    match f.hi with
    | Unbounded_preceding -> 0
    | Preceding n -> upper (t.(i) -. float_of_int n)
    | Current_row -> upper t.(i)
    | Following n -> upper (t.(i) +. float_of_int n)
    | Unbounded_following -> m - 1
  in
  (lo, hi)

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

(* ---- Per-partition evaluation ---- *)

let eval_naive agg ~bounds (vals : Value.t array) : Value.t array =
  let m = Array.length vals in
  Value.array_init m (fun i ->
      let lo, hi = bounds ~i in
      let lo = max 0 lo and hi = min (m - 1) hi in
      let st = Aggregate.create agg in
      for j = lo to hi do
        Aggregate.add st vals.(j)
      done;
      Aggregate.result st)

(* Invertible aggregates: advance two pointers monotonically, adding rows
   entering the frame and removing rows leaving it.  Both frame bounds are
   non-decreasing functions of the row position, so each value is added
   and removed exactly once. *)
let eval_two_pointer agg ~bounds (vals : Value.t array) : Value.t array =
  let m = Array.length vals in
  let st = Aggregate.create agg in
  let a = ref 0 (* first position currently in the frame *)
  and b = ref (-1) (* last position currently in the frame *) in
  Value.array_init m (fun i ->
      let lo, hi = bounds ~i in
      let lo = max 0 lo and hi = min (m - 1) hi in
      if hi < lo then begin
        (* Empty frame: drain the accumulator so later rows restart clean. *)
        while !b >= !a do
          Aggregate.remove st vals.(!a);
          incr a
        done;
        a := max !a (max lo 0);
        b := !a - 1;
        Aggregate.result (Aggregate.create agg)
      end
      else begin
        while !b < hi do
          incr b;
          if !b >= !a then Aggregate.add st vals.(!b)
        done;
        while !a < lo do
          if !a <= !b then Aggregate.remove st vals.(!a);
          incr a
        done;
        if !b < !a then b := !a - 1;
        Aggregate.result st
      end)

(* Sliding-window MIN/MAX via a monotonic deque of candidate positions.
   Requires both frame bounds to advance by one per row, which holds for
   any combination of Preceding/Current/Following bounds. *)
let eval_deque agg ~bounds (vals : Value.t array) : Value.t array =
  let m = Array.length vals in
  let better a b =
    (* is a at least as good as b? *)
    match agg with
    | Aggregate.Min -> Aggregate.compare_extremum a b <= 0
    | Aggregate.Max -> Aggregate.compare_extremum a b >= 0
    | _ -> assert false
  in
  let dq = Array.make (m + 1) 0 in
  let front = ref 0 and back = ref 0 (* deque in dq.(front..back-1) *) in
  let pushed = ref 0 (* next position to feed to the deque *) in
  Value.array_init m (fun i ->
      let lo, hi = bounds ~i in
      let lo = max 0 lo and hi = min (m - 1) hi in
      if hi < lo then Value.Null
      else begin
        (* Feed new positions up to hi. *)
        while !pushed <= hi do
          let v = vals.(!pushed) in
          if not (Value.is_null v) then begin
            while !back > !front && better v vals.(dq.(!back - 1)) do
              decr back
            done;
            dq.(!back) <- !pushed;
            incr back
          end;
          incr pushed
        done;
        (* Expire positions before lo. *)
        while !back > !front && dq.(!front) < lo do
          incr front
        done;
        if !back = !front then Value.Null else vals.(dq.(!front))
      end)

(* Cumulative MIN/MAX: running extremum (forward for lo-unbounded frames,
   backward for hi-unbounded frames). *)
let eval_running_extremum agg ~from_left ~bounds (vals : Value.t array) : Value.t array =
  let m = Array.length vals in
  let running = Array.make (max m 1) Value.Null in
  let fold acc v =
    if Value.is_null v then acc
    else if Value.is_null acc then v
    else
      match agg with
      | Aggregate.Min -> if Aggregate.compare_extremum v acc < 0 then v else acc
      | Aggregate.Max -> if Aggregate.compare_extremum v acc > 0 then v else acc
      | _ -> assert false
  in
  if from_left then begin
    let acc = ref Value.Null in
    for j = 0 to m - 1 do
      acc := fold !acc vals.(j);
      running.(j) <- !acc
    done
  end
  else begin
    let acc = ref Value.Null in
    for j = m - 1 downto 0 do
      acc := fold !acc vals.(j);
      running.(j) <- !acc
    done
  end;
  Value.array_init m (fun i ->
      let lo, hi = bounds ~i in
      let lo = max 0 lo and hi = min (m - 1) hi in
      if hi < lo then Value.Null
      else if from_left then running.(hi)
      else running.(lo))

let eval_partition strategy agg frame ~bounds (vals : Value.t array) : Value.t array =
  match strategy with
  | Naive -> eval_naive agg ~bounds vals
  | Incremental ->
    (match agg with
     | Aggregate.Sum | Aggregate.Count | Aggregate.Avg ->
       eval_two_pointer agg ~bounds vals
     | Aggregate.Min | Aggregate.Max ->
       (match frame.lo, frame.hi with
        | Unbounded_preceding, Unbounded_following ->
          let total = Aggregate.of_seq agg (Array.to_seq vals) in
          Value.array_init (Array.length vals) (fun _ -> total)
        | Unbounded_preceding, _ -> eval_running_extremum agg ~from_left:true ~bounds vals
        | _, Unbounded_following -> eval_running_extremum agg ~from_left:false ~bounds vals
        | _ -> eval_deque agg ~bounds vals))

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
let eval_navigation func ~bounds (vals : Value.t array) : Value.t array =
  let m = Array.length vals in
  Value.array_init m (fun i ->
      match func with
      | Lag off -> if i - off >= 0 then vals.(i - off) else Value.Null
      | Lead off -> if i + off < m then vals.(i + off) else Value.Null
      | First_value | Last_value ->
        let lo, hi = bounds ~i in
        let lo = max 0 lo and hi = min (m - 1) hi in
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
      (* bounds function for framed evaluation: positional for ROWS,
         key-value based for RANGE *)
      let make_bounds () =
        match fn.spec.frame.mode with
        | Rows ->
          let frame = fn.spec.frame in
          fun ~i -> frame_bounds frame ~m ~i
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
          let frame = fn.spec.frame in
          fun ~i -> range_bounds frame t ~i
      in
      let results =
        match fn.func with
        | Agg agg ->
          let vals = Value.array_init m (fun k -> arg rows.(idx.(start + k))) in
          eval_partition strategy agg fn.spec.frame ~bounds:(make_bounds ()) vals
        | (Row_number | Rank | Dense_rank) as func ->
          eval_ranks func order_keys idx ~start ~stop
        | (Lag _ | Lead _ | First_value | Last_value) as func ->
          let vals = Value.array_init m (fun k -> arg rows.(idx.(start + k))) in
          eval_navigation func ~bounds:(make_bounds ()) vals
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
