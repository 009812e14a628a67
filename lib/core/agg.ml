(* Aggregation functions at the sequence level (paper §2.1, FA).

   The paper emphasizes SUM — COUNT is trivial (a closed form of the
   position) and AVG = SUM / COUNT — and treats the semi-algebraic MIN and
   MAX separately, because only MaxOA can derive them (§4.2, §7).

   Sequence values are floats.  SUM-sequences zero-extend the raw data
   outside [1, n]; MIN/MAX-sequences clamp their windows to existing data
   and use [absent] (NaN) for empty windows. *)

type t =
  | Sum
  | Min
  | Max

let name = function Sum -> "SUM" | Min -> "MIN" | Max -> "MAX"

let invertible = function Sum -> true | Min | Max -> false

(* Marker for "no value" in MIN/MAX sequences. *)
let absent = Float.nan
let is_absent v = Float.is_nan v

(* Combine two window results into the result of the union window.
   Correct for MIN/MAX whenever the windows cover the union (overlaps are
   harmless); for SUM only correct on disjoint windows. *)
let combine t a b =
  if is_absent a then b
  else if is_absent b then a
  else
    match t with
    | Sum -> a +. b
    | Min -> Float.min a b
    | Max -> Float.max a b

(* Fold a window of raw values from the empty window's value: for SUM,
   [span] is taken as-is (raw data is zero-extended by the caller), so
   -0. values sum to 0.; for MIN/MAX an empty span is absent. *)
let of_span t (get : int -> float) ~lo ~hi =
  let acc = ref (match t with Sum -> 0. | Min | Max -> absent) in
  for i = lo to hi do
    acc := combine t !acc (get i)
  done;
  !acc

(* COUNT has a closed form: the number of raw positions inside the window
   clamped to [1, n] (paper §2.1: "COUNT is trivial"). *)
let count_at frame ~n ~k =
  (* [Frame.bounds] clamped to [1, n], without building its pair: the
     renderer compares counts per row and must not allocate *)
  match frame with
  | Frame.Cumulative -> Int.max 0 (Int.min n k)
  | Frame.Sliding { l; h } -> Int.max 0 (Int.min n (k + h) - Int.max 1 (k - l) + 1)

(* AVG is derived: SUM / COUNT, absent on empty windows. *)
let avg_of_sum frame ~n ~k sum =
  let c = count_at frame ~n ~k in
  if c = 0 then absent else sum /. float_of_int c
