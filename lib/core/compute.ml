(* Computing sequence values from raw data (paper §2.2).

   - [naive]: the explicit form, W(k)+1 operations per position.
   - [pipelined]: the recursion x̃_k = x̃_{k-1} + x_{k+h} - x_{k-l-1}
     (sliding) resp. x̃_k = x̃_{k-1} + x_k (cumulative): three operations
     per position independent of window size, with a cache of w+2 values.
   - MIN/MAX sliding windows use a monotonic deque (O(n) total), since the
     recursion requires an invertible aggregate.

   All constructors return *complete* sequences (§3.2): header and trailer
   positions included. *)

let compute_range frame ~n = Seqdata.complete_range frame ~n

let naive ?(agg = Agg.Sum) frame (raw : Seqdata.raw) : Seqdata.t =
  let n = Seqdata.raw_length raw in
  let lo, hi = compute_range frame ~n in
  let values =
    Array.init (hi - lo + 1) (fun i ->
        let k = lo + i in
        let wlo, whi = Frame.bounds frame ~k in
        match agg with
        | Agg.Sum ->
          (* zero-extension: clamping to [1, n] is equivalent and cheaper *)
          Agg.of_span Agg.Sum (Seqdata.raw_get raw) ~lo:(max 1 wlo) ~hi:(min n whi)
        | Agg.Min | Agg.Max ->
          Agg.of_span agg (Seqdata.raw_get raw) ~lo:(max 1 wlo) ~hi:(min n whi))
  in
  Seqdata.make frame agg ~n ~lo values

let pipelined_sum frame (raw : Seqdata.raw) : Seqdata.t =
  let n = Seqdata.raw_length raw in
  let lo, hi = compute_range frame ~n in
  let values = Array.make (hi - lo + 1) 0. in
  (match frame with
   | Frame.Cumulative ->
     let acc = ref 0. in
     for k = lo to hi do
       acc := !acc +. Seqdata.raw_get raw k;
       values.(k - lo) <- !acc
     done
   | Frame.Sliding { l; h } ->
     (* x̃_{lo-1} would be a sum over raw positions < 1, i.e. 0. *)
     let prev = ref 0. in
     for k = lo to hi do
       let v = !prev +. Seqdata.raw_get raw (k + h) -. Seqdata.raw_get raw (k - l - 1) in
       values.(k - lo) <- v;
       prev := v
     done);
  Seqdata.make frame Agg.Sum ~n ~lo values

(* Sliding MIN/MAX by monotonic deque over the clamped window [k-l, k+h] ∩
   [1, n]; cumulative MIN/MAX by a running extremum. *)
let pipelined_extremum agg frame (raw : Seqdata.raw) : Seqdata.t =
  let n = Seqdata.raw_length raw in
  let lo, hi = compute_range frame ~n in
  let values = Array.make (hi - lo + 1) Agg.absent in
  (match frame with
   | Frame.Cumulative ->
     let acc = ref Agg.absent in
     for k = 1 to n do
       acc := Agg.combine agg !acc (Seqdata.raw_get raw k);
       values.(k - lo) <- !acc
     done
   | Frame.Sliding { l; h } ->
     (* is [a] at least as good as [b]?  Among equal values -0. is the
        smaller, as in [Agg.combine]'s [Float.min]/[Float.max], so the
        deque lands on the bits every maintenance path computes *)
     let better a b =
       match agg with
       | Agg.Min -> a < b || (a = b && (Float.sign_bit a || not (Float.sign_bit b)))
       | Agg.Max -> a > b || (a = b && ((not (Float.sign_bit a)) || Float.sign_bit b))
       | Agg.Sum -> assert false
     in
     let dq = Array.make (n + 1) 0 in
     let front = ref 0 and back = ref 0 in
     let pushed = ref 1 in
     for k = lo to hi do
       let wlo = max 1 (k - l) and whi = min n (k + h) in
       while !pushed <= whi do
         let v = Seqdata.raw_get raw !pushed in
         while !back > !front && better v (Seqdata.raw_get raw dq.(!back - 1)) do
           decr back
         done;
         dq.(!back) <- !pushed;
         incr back;
         incr pushed
       done;
       while !back > !front && dq.(!front) < wlo do
         incr front
       done;
       if whi >= wlo && !back > !front then
         values.(k - lo) <- Seqdata.raw_get raw dq.(!front)
     done);
  Seqdata.make frame agg ~n ~lo values

let pipelined ?(agg = Agg.Sum) frame raw : Seqdata.t =
  match agg with
  | Agg.Sum -> pipelined_sum frame raw
  | Agg.Min | Agg.Max -> pipelined_extremum agg frame raw

(* Default entry point: the efficient strategy. *)
let sequence ?(agg = Agg.Sum) frame raw = pipelined ~agg frame raw

(* Prefix sums C_j = Σ_{i<=j} x_i for j in [0, n]; the cumulative sequence
   in array form, used by the derivation fast paths. *)
let prefix_sums (raw : Seqdata.raw) : float array =
  let n = Seqdata.raw_length raw in
  let c = Array.make (n + 1) 0. in
  for i = 1 to n do
    c.(i) <- c.(i - 1) +. Seqdata.raw_get raw i
  done;
  c
