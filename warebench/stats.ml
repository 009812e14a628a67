(* Sample statistics for latency reports.

   Percentiles use the nearest-rank rule: the q-th percentile of n
   sorted samples is the sample at rank ceil(q/100 * n).  A percentile
   is only reported when at least [min_beyond] samples lie above that
   rank, so a tail figure always rests on more than a handful of
   requests. *)

let min_beyond = 10

let rank ~n q =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  max 1 (min n (int_of_float (Float.ceil (q /. 100. *. float_of_int n))))

let beyond ~n q = n - rank ~n q
let supported ~n q = n > 0 && beyond ~n q >= min_beyond

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* [percentile sorted q]: [sorted] must be in ascending order. *)
let percentile sorted q = sorted.(rank ~n:(Array.length sorted) q - 1)

let median samples = percentile (sorted samples) 50.

let mean samples =
  if Array.length samples = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)
