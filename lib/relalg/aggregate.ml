(* Aggregation functions over SQL values.

   Besides one-shot folding over a value sequence, each aggregate exposes
   an accumulator interface.  SUM/COUNT/AVG accumulators are *invertible*
   ([remove] undoes [add]), which is what makes the paper's pipelined
   window computation (§2.2) possible; MIN/MAX are only semi-invertible
   and fall back to other strategies in the window operator. *)

type kind =
  | Sum
  | Count
  | Avg
  | Min
  | Max

let kind_name = function
  | Sum -> "SUM"
  | Count -> "COUNT"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let kind_of_name s =
  match String.uppercase_ascii s with
  | "SUM" -> Some Sum
  | "COUNT" -> Some Count
  | "AVG" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | _ -> None

let invertible = function
  | Sum | Count | Avg -> true
  | Min | Max -> false

(* SQL semantics: NULL inputs are ignored; an aggregate over an empty (or
   all-NULL) input is NULL, except COUNT which is 0. *)

type state = {
  kind : kind;
  mutable count : int;          (* non-NULL inputs seen *)
  mutable sum_i : int;          (* integer sum, the result while [floats = 0] *)
  sum_f : float array;  (* one cell: a flat float, updated without boxing *)
  mutable floats : int;         (* Float inputs in the state *)
  mutable extremum : Value.t;   (* Null until the first non-NULL input *)
}

let create kind =
  { kind; count = 0; sum_i = 0; sum_f = [| 0. |]; floats = 0; extremum = Value.Null }

(* [Value.compare] with -0.0 below 0.0 (and below an Int 0), the order
   [Float.min]/[Float.max] and the core's sequences use: MIN and MAX
   over a tie of signed zeros then pick the same zero whatever the
   input order. *)
let compare_extremum a b =
  let c = Value.compare a b in
  if c <> 0 then c
  else
    match a, b with
    | Value.Float x, Value.Float y when x = 0. -> Bool.compare (Float.sign_bit y) (Float.sign_bit x)
    | Value.Float x, Value.Int _ when x = 0. -> if Float.sign_bit x then -1 else 0
    | Value.Int _, Value.Float y when y = 0. -> if Float.sign_bit y then 1 else 0
    | _ -> 0

let add st (v : Value.t) =
  match v with
  | Value.Null -> ()
  | v ->
    st.count <- st.count + 1;
    (match st.kind with
     | Count -> ()
     | Sum | Avg ->
       (match v with
        | Value.Int i ->
          st.sum_i <- st.sum_i + i;
          st.sum_f.(0) <- st.sum_f.(0) +. float_of_int i
        | Value.Float f ->
          st.floats <- st.floats + 1;
          st.sum_f.(0) <- st.sum_f.(0) +. f
        | v -> Value.type_error "%s over non-numeric %s" (kind_name st.kind) (Value.to_string v))
     | Min ->
       if Value.is_null st.extremum || compare_extremum v st.extremum < 0 then
         st.extremum <- v
     | Max ->
       if Value.is_null st.extremum || compare_extremum v st.extremum > 0 then
         st.extremum <- v)

let remove st (v : Value.t) =
  match v with
  | Value.Null -> ()
  | v ->
    (match st.kind with
     | Min | Max -> invalid_arg "Aggregate.remove: MIN/MAX are not invertible"
     | Count -> st.count <- st.count - 1
     | Sum | Avg ->
       st.count <- st.count - 1;
       (match v with
        | Value.Int i ->
          st.sum_i <- st.sum_i - i;
          st.sum_f.(0) <- st.sum_f.(0) -. float_of_int i
        | Value.Float f ->
          st.floats <- st.floats - 1;
          st.sum_f.(0) <- st.sum_f.(0) -. f
        | v -> Value.type_error "%s over non-numeric %s" (kind_name st.kind) (Value.to_string v)))

let result st : Value.t =
  match st.kind with
  | Count -> Value.Int st.count
  | Sum ->
    if st.count = 0 then Value.Null
    else if st.floats = 0 then Value.Int st.sum_i
    else Value.Float st.sum_f.(0)
  | Avg -> if st.count = 0 then Value.Null else Value.Float (st.sum_f.(0) /. float_of_int st.count)
  | Min | Max -> st.extremum

let of_seq kind vs =
  let st = create kind in
  Seq.iter (add st) vs;
  result st

let of_list kind vs = of_seq kind (List.to_seq vs)

(* Result type of an aggregate given its input type. *)
let result_type kind (input : Dtype.t option) : Dtype.t option =
  match kind with
  | Count -> Some Dtype.Int
  | Avg -> Some Dtype.Float
  | Sum | Min | Max -> input
