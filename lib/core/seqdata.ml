(* Materialized sequence data (paper §2.1, §3.2).

   Raw data values x_i exist for 1 <= i <= n and are zero for other i
   (SUM semantics; MIN/MAX clamp instead, see {!Agg}).

   A materialized sequence stores the values x̃_k of a reporting function
   over the raw data.  A *complete* simple sequence (§3.2) additionally
   carries its header (positions -h+1 .. 0) and trailer (n+1 .. n+l):
   exactly the out-of-range positions whose windows still overlap the raw
   data.  We store the full complete range, so [get] returns the correct
   value at *every* integer position:

   - sliding (l, h): stored range [1-h, n+l], zero outside;
   - cumulative:     stored range [1, n]; x̃_k = 0 for k < 1 and
                     x̃_k = x̃_n for k > n (the running total saturates). *)

type raw = {
  n : int;
  data : float array; (* data.(i-1) = x_i *)
}

let raw_of_array data = { n = Array.length data; data }
let raw_of_list l = raw_of_array (Array.of_list l)
let raw_length r = r.n

let raw_get r i = if i < 1 || i > r.n then 0. else r.data.(i - 1)

let raw_data r = r.data
let raw_to_array r = Array.copy r.data
let raw_blit r ~src dst ~pos ~len = Array.blit r.data (src - 1) dst pos len

(* Raw-data editing used by the maintenance rules (§2.3). *)
let raw_update r ~k ~value =
  if k < 1 || k > r.n then invalid_arg "Seqdata.raw_update: position out of range";
  let data = Array.copy r.data in
  data.(k - 1) <- value;
  { r with data }

let raw_insert r ~k ~value =
  if k < 1 || k > r.n + 1 then invalid_arg "Seqdata.raw_insert: position out of range";
  let data = Array.make (r.n + 1) 0. in
  Array.blit r.data 0 data 0 (k - 1);
  data.(k - 1) <- value;
  Array.blit r.data (k - 1) data k (r.n - k + 1);
  { n = r.n + 1; data }

let raw_delete r ~k =
  if k < 1 || k > r.n then invalid_arg "Seqdata.raw_delete: position out of range";
  let data = Array.make (r.n - 1) 0. in
  Array.blit r.data 0 data 0 (k - 1);
  Array.blit r.data k data (k - 1) (r.n - k);
  { n = r.n - 1; data }

(* ---- Materialized sequences ---- *)

type t = {
  frame : Frame.t;
  agg : Agg.t;
  n : int;           (* cardinality of the underlying raw data *)
  lo : int;          (* first stored position *)
  values : float array; (* values.(k - lo) = x̃_k *)
}

let frame t = t.frame
let agg t = t.agg
let length t = t.n
let stored_lo t = t.lo
let stored_hi t = t.lo + Array.length t.values - 1

(* The stored range of a complete sequence. *)
let complete_range frame ~n =
  match frame with
  | Frame.Cumulative -> (1, n)
  | Frame.Sliding { l; h } -> (1 - h, n + l)

let make frame agg ~n ~lo values =
  let explo, exphi = complete_range frame ~n in
  if lo <> explo || lo + Array.length values - 1 <> exphi then
    invalid_arg "Seqdata.make: values do not cover the complete range";
  { frame; agg; n; lo; values }

let[@inline] get t k =
  let hi = stored_hi t in
  if k >= t.lo && k <= hi then t.values.(k - t.lo)
  else
    let empty = Array.length t.values = 0 in
    match t.frame, t.agg with
    | Frame.Cumulative, Agg.Sum ->
      if k < t.lo || empty then 0. else t.values.(hi - t.lo)
    | Frame.Cumulative, (Agg.Min | Agg.Max) ->
      if k < t.lo || empty then Agg.absent else t.values.(hi - t.lo)
    | Frame.Sliding _, Agg.Sum -> 0.
    | Frame.Sliding _, (Agg.Min | Agg.Max) -> Agg.absent

(* Compared in place: [get] is inlined here, so no float is boxed. *)
let same_quotient a i ~by b j ~by0 =
  let x = get a i /. float_of_int by and y = get b j /. float_of_int by0 in
  (x <> x && y <> y) || Int64.bits_of_float x = Int64.bits_of_float y

(* All stored values, ascending by position. *)
let to_array t = Array.copy t.values
let blit t ~src dst ~pos ~len = Array.blit t.values (src - t.lo) dst pos len

(* In-place mutation of a stored value; used by the O(w) maintenance fast
   path.  The position must lie in the stored range. *)
let set_value t k v =
  if k < t.lo || k > stored_hi t then
    invalid_arg "Seqdata.set_value: position outside the stored range";
  t.values.(k - t.lo) <- v

(* Values at positions 1..n only (without header/trailer). *)
let body t = Array.init t.n (fun i -> get t (i + 1))

(* Header (positions below 1) and trailer (positions above n). *)
let header t = Array.init (max 0 (1 - t.lo)) (fun i -> t.values.(i))
let trailer t =
  let hi = stored_hi t in
  Array.init (max 0 (hi - t.n)) (fun i -> get t (t.n + 1 + i))

let is_complete t =
  let explo, exphi = complete_range t.frame ~n:t.n in
  t.lo = explo && stored_hi t = exphi

(* Mirror a sequence around the centre of [1, n]: position p becomes
   n+1-p; a sliding (l, h) sequence becomes a sliding (h, l) sequence over
   the mirrored raw data.  Used to derive the right-sided MaxOA variant
   from the left-sided one. *)
let mirror t =
  match t.frame with
  | Frame.Cumulative -> invalid_arg "Seqdata.mirror: only sliding sequences"
  | Frame.Sliding { l; h } ->
    let len = Array.length t.values in
    let values = Array.init len (fun i -> t.values.(len - 1 - i)) in
    { frame = Frame.sliding ~l:h ~h:l; agg = t.agg; n = t.n; lo = 1 - l; values }

let mirror_raw (r : raw) : raw =
  { r with data = Array.init r.n (fun i -> r.data.(r.n - 1 - i)) }

(* Two sequences are equal when their frames, aggregates and stored values
   agree (within [eps] per value, NaN equal to NaN). *)
let equal ?(eps = 1e-9) a b =
  Frame.equal a.frame b.frame && a.agg = b.agg && a.n = b.n && a.lo = b.lo
  && Array.length a.values = Array.length b.values
  && Array.for_all2
       (fun x y ->
         (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= eps)
       a.values b.values

let pp ppf t =
  Format.fprintf ppf "%s %s n=%d [%d..%d]:" (Agg.name t.agg)
    (Frame.to_string t.frame) t.n t.lo (stored_hi t);
  Array.iteri
    (fun i v -> Format.fprintf ppf " %d:%g" (t.lo + i) v)
    t.values
