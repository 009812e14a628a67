(* Computing sequence values from raw data (paper §2.2), on the window
   kernel ([Kernel]):

   - [naive]: the explicit form, W(k)+1 operations per position.
   - [pipelined]: SUM by the two-pointer recursion
     x̃_k = x̃_{k-1} + x_{k+h} - x_{k-l-1} (sliding) resp.
     x̃_k = x̃_{k-1} + x_k (cumulative): three operations per position
     independent of window size, with a cache of w+2 values.  MIN/MAX
     slide a monotonic deque, since the recursion requires an
     invertible aggregate; cumulative MIN/MAX keep a running extremum.

   Kernel element j is raw position j+1.  Every fold starts from the
   empty window's value (0. for SUM, absent for MIN/MAX), so the
   strategies agree bit for bit on integer-valued data, signed zeros
   included.  All constructors return *complete* sequences (§3.2):
   header and trailer positions included. *)

(* Kernel bounds of position k's window [wL(k), wH(k)]; a cumulative
   window folds on from [seed], the value at [first - 1], so its lower
   bound is [first]. *)
let bounds frame ~first =
  match frame with
  | Frame.Cumulative -> (Kernel.Fixed (first - 1), Kernel.Offset (-1))
  | Frame.Sliding { l; h } -> (Kernel.Offset (-l - 1), Kernel.Offset (h - 1))

let empty_value = function Agg.Sum -> 0. | Agg.Min | Agg.Max -> Agg.absent

(* Does [v] replace the extremum [a]?  Strictly better, with -0. below
   0. as in [Agg.combine]'s [Float.min]/[Float.max]; anything replaces
   absent.  Inlined, so the floats are not boxed. *)
let[@inline] beats agg v a =
  Float.is_nan a
  ||
  match agg with
  | Agg.Min -> v < a || (v = a && Float.sign_bit v && not (Float.sign_bit a))
  | Agg.Max -> v > a || (v = a && Float.sign_bit a && not (Float.sign_bit v))
  | Agg.Sum -> assert false

(* Fold element [j] of [x] into the one-value state [acc]. *)
let add_into agg (x : float array) (acc : float array) =
  match agg with
  | Agg.Sum -> fun j -> acc.(0) <- acc.(0) +. x.(j)
  | Agg.Min | Agg.Max -> fun j -> if beats agg x.(j) acc.(0) then acc.(0) <- x.(j)

let naive ?(agg = Agg.Sum) frame (raw : Seqdata.raw) : Seqdata.t =
  let x = Seqdata.raw_data raw in
  let n = Array.length x in
  let first, last = Seqdata.complete_range frame ~n in
  let values = Array.make (last - first + 1) 0. in
  let empty = empty_value agg in
  let acc = [| empty |] in
  let lo, hi = bounds frame ~first:1 in
  Kernel.explicit ~m:n ~first ~last ~lo ~hi
    ~reset:(fun () -> acc.(0) <- empty)
    ~add:(add_into agg x acc)
    ~emit:(fun k -> values.(k - first) <- acc.(0));
  Seqdata.make frame agg ~n ~lo:first values

let fill ?seed ~agg frame (raw : Seqdata.raw) ~first ~last out ~pos =
  let x = Seqdata.raw_data raw in
  let m = Array.length x in
  let acc = [| Option.value seed ~default:(empty_value agg) |] in
  let lo, hi = bounds frame ~first in
  let shift = first - pos in
  let add = add_into agg x acc and emit k = out.(k - shift) <- acc.(0) in
  match agg, lo with
  | Agg.Sum, _ | _, Kernel.Fixed _ ->
    (* a cumulative frame's [Fixed] lower bound never retires, so MIN/MAX
       only ever add *)
    Kernel.two_pointer ~m ~first ~last ~lo ~hi ~add
      ~retire:(fun j -> acc.(0) <- acc.(0) -. x.(j))
      ~emit
  | (Agg.Min | Agg.Max), _ ->
    Kernel.deque ~m ~first ~last ~lo ~hi
      ~beats:(fun j k -> beats agg x.(j) x.(k))
      ~emit:(fun k j -> out.(k - shift) <- (if j < 0 then Agg.absent else x.(j)))

let pipelined ?(agg = Agg.Sum) frame raw : Seqdata.t =
  let n = Seqdata.raw_length raw in
  let first, last = Seqdata.complete_range frame ~n in
  let values = Array.create_float (last - first + 1) in
  fill ~agg frame raw ~first ~last values ~pos:0;
  Seqdata.make frame agg ~n ~lo:first values

(* Default entry point: the efficient strategy. *)
let sequence ?(agg = Agg.Sum) frame raw = pipelined ~agg frame raw

(* Prefix sums C_j = Σ_{i<=j} x_i for j in [0, n]; the cumulative sequence
   in array form, used by the derivation fast paths. *)
let prefix_sums (raw : Seqdata.raw) : float array =
  let n = Seqdata.raw_length raw in
  let c = Array.make (n + 1) 0. in
  fill ~agg:Agg.Sum Frame.Cumulative raw ~first:1 ~last:n c ~pos:1;
  c
