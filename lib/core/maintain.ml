(* Incremental maintenance of materialized sequence views (paper §2.3).

   All changes to a sliding-window sequence remain local: an update at raw
   position k touches only sequence positions [k-h, k+l]; insert and
   delete additionally shift the positions right of the edit (a blit, not
   a recomputation).  Cumulative sequences are maintained by suffix
   adjustments.

   The rules need O(w) raw values around the edit position, so the
   maintenance functions take both the view and the raw data and return
   the new pair.  [Recompute] from scratch is provided for comparison (and
   is what the test-suite checks every rule against). *)

type edit =
  | Update of { k : int; value : float }
  | Insert of { k : int; value : float }
  | Delete of { k : int }

let apply_raw (raw : Seqdata.raw) = function
  | Update { k; value } -> Seqdata.raw_update raw ~k ~value
  | Insert { k; value } -> Seqdata.raw_insert raw ~k ~value
  | Delete { k } -> Seqdata.raw_delete raw ~k

let recompute seq raw edit =
  let raw' = apply_raw raw edit in
  (Compute.sequence ~agg:(Seqdata.agg seq) (Seqdata.frame seq) raw', raw')

(* ---- SUM sequences ---- *)

let maintain_sum_sliding ~l ~h seq raw edit =
  let frame = Frame.sliding ~l ~h in
  let raw' = apply_raw raw edit in
  let n' = Seqdata.raw_length raw' in
  let lo', hi' = Seqdata.complete_range frame ~n:n' in
  let values = Array.make (hi' - lo' + 1) 0. in
  (match edit with
   | Update { k; value } ->
     let delta = value -. Seqdata.raw_get raw k in
     for i = lo' to hi' do
       let v = Seqdata.get seq i in
       values.(i - lo') <- (if i >= k - h && i <= k + l then v +. delta else v)
     done
   | Insert { k; value } ->
     for i = lo' to hi' do
       values.(i - lo') <-
         (if i < k - h then Seqdata.get seq i
          else if i <= k + l then
            (* the new value enters the window; the old occupant of the
               upper window slot (now shifted out) leaves it *)
            Seqdata.get seq i +. value -. Seqdata.raw_get raw (i + h)
          else Seqdata.get seq (i - 1))
     done
   | Delete { k } ->
     let xk = Seqdata.raw_get raw k in
     for i = lo' to hi' do
       values.(i - lo') <-
         (if i < k - h then Seqdata.get seq i
          else if i < k + l then Seqdata.get seq i -. xk +. Seqdata.raw_get raw (i + h + 1)
          else Seqdata.get seq (i + 1))
     done);
  (Seqdata.make frame Agg.Sum ~n:n' ~lo:lo' values, raw')

let maintain_sum_cumulative seq raw edit =
  let raw' = apply_raw raw edit in
  let n' = Seqdata.raw_length raw' in
  let values = Array.make (max n' 0) 0. in
  (match edit with
   | Update { k; value } ->
     let delta = value -. Seqdata.raw_get raw k in
     for i = 1 to n' do
       values.(i - 1) <- Seqdata.get seq i +. (if i >= k then delta else 0.)
     done
   | Insert { k; value } ->
     for i = 1 to n' do
       values.(i - 1) <-
         (if i < k then Seqdata.get seq i else Seqdata.get seq (i - 1) +. value)
     done
   | Delete { k } ->
     let xk = Seqdata.raw_get raw k in
     for i = 1 to n' do
       values.(i - 1) <-
         (if i < k then Seqdata.get seq i else Seqdata.get seq (i + 1) -. xk)
     done);
  (Seqdata.make Frame.Cumulative Agg.Sum ~n:n' ~lo:1 values, raw')

(* ---- MIN/MAX sequences (paper §2.3 footnote) ----

   Updates are cheap when the new value dominates (it becomes the new
   extremum) or when the old value was not the extremum; otherwise the
   affected window is recomputed from the new raw data.  Insert/delete
   recompute the affected band (still local). *)

let window_extremum agg raw' frame ~k =
  let wlo, whi = Frame.bounds frame ~k in
  let n' = Seqdata.raw_length raw' in
  Agg.of_span agg (Seqdata.raw_get raw') ~lo:(max 1 wlo) ~hi:(min n' whi)

let maintain_extremum agg frame seq raw edit =
  let raw' = apply_raw raw edit in
  let n' = Seqdata.raw_length raw' in
  let lo', hi' = Seqdata.complete_range frame ~n:n' in
  let values = Array.make (hi' - lo' + 1) Agg.absent in
  let l, h =
    match frame with
    | Frame.Sliding { l; h } -> (l, h)
    | Frame.Cumulative -> (max n' (Seqdata.length seq), 0)
  in
  let dominates v old =
    match agg with
    | Agg.Min -> v <= old
    | Agg.Max -> v >= old
    | Agg.Sum -> assert false
  in
  (match edit with
   | Update { k; value } ->
     let xk = Seqdata.raw_get raw k in
     for i = lo' to hi' do
       let old = Seqdata.get seq i in
       values.(i - lo') <-
         (if i < k - h || i > k + l then old
          else if Agg.is_absent old || dominates value old then
            Agg.combine agg old value
          else if xk <> old then old (* the replaced value was not the extremum *)
          else window_extremum agg raw' frame ~k:i)
     done
   | Insert { k; _ } ->
     for i = lo' to hi' do
       values.(i - lo') <-
         (if i < k - h then Seqdata.get seq i
          else if i <= k + l then window_extremum agg raw' frame ~k:i
          else Seqdata.get seq (i - 1))
     done
   | Delete { k } ->
     for i = lo' to hi' do
       values.(i - lo') <-
         (if i < k - h then Seqdata.get seq i
          else if i < k + l then window_extremum agg raw' frame ~k:i
          else Seqdata.get seq (i + 1))
     done);
  (Seqdata.make frame agg ~n:n' ~lo:lo' values, raw')

(* In-place update of a SUM view by a raw-value delta at position k:
   touches exactly the positions [k-h, k+l] whose windows contain the
   updated value — the O(w) locality the paper's §2.3 rules promise. *)
let apply_update_delta seq ~k ~delta =
  (match Seqdata.agg seq with
   | Agg.Sum -> ()
   | Agg.Min | Agg.Max -> invalid_arg "Maintain.apply_update_delta: SUM sequences only");
  match Seqdata.frame seq with
  | Frame.Sliding { l; h } ->
    let lo = max (Seqdata.stored_lo seq) (k - h)
    and hi = min (Seqdata.stored_hi seq) (k + l) in
    for i = lo to hi do
      Seqdata.set_value seq i (Seqdata.get seq i +. delta)
    done
  | Frame.Cumulative ->
    for i = max (Seqdata.stored_lo seq) k to Seqdata.stored_hi seq do
      Seqdata.set_value seq i (Seqdata.get seq i +. delta)
    done

(* Same, taking and returning the raw data (which is copied). *)
let update_in_place seq raw ~k ~value =
  apply_update_delta seq ~k ~delta:(value -. Seqdata.raw_get raw k);
  Seqdata.raw_update raw ~k ~value

(* ---- Dispatcher ---- *)

let apply seq raw edit =
  match Seqdata.agg seq, Seqdata.frame seq with
  | Agg.Sum, Frame.Sliding { l; h } -> maintain_sum_sliding ~l ~h seq raw edit
  | Agg.Sum, Frame.Cumulative -> maintain_sum_cumulative seq raw edit
  | (Agg.Min | Agg.Max), frame -> maintain_extremum (Seqdata.agg seq) frame seq raw edit
