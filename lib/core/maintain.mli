(** Incremental maintenance of materialized sequence views (paper §2.3).

    The rules keep changes local: an update at raw position [k] touches
    only sequence positions [k-h, k+l]; insert and delete additionally
    shift the positions right of the edit (a blit, not a recomputation).
    Maintenance needs O(w) raw values around the edit, so the functions
    take both the view and the raw data and return the new pair. *)

type edit =
  | Update of { k : int; value : float }
  | Insert of { k : int; value : float }  (** positions [>= k] shift right *)
  | Delete of { k : int }                 (** positions [> k] shift left *)

(** Apply an edit to the raw data alone. *)
val apply_raw : Seqdata.raw -> edit -> Seqdata.raw

(** Apply an edit incrementally using the §2.3 rules.  Dispatches on the
    view's aggregate and frame; MIN/MAX updates use the cheap monotone
    path where possible and recompute the affected band otherwise
    (paper §2.3 footnote). *)
val apply : Seqdata.t -> Seqdata.raw -> edit -> Seqdata.t * Seqdata.raw

(** Full recomputation after the edit — the baseline the incremental
    rules are tested and benchmarked against. *)
val recompute : Seqdata.t -> Seqdata.raw -> edit -> Seqdata.t * Seqdata.raw

(** In-place update of a SUM view by a raw-value delta at position [k]:
    touches exactly the O(w) positions whose windows contain [k].
    @raise Invalid_argument on MIN/MAX sequences. *)
val apply_update_delta : Seqdata.t -> k:int -> delta:float -> unit

(** [update_in_place seq raw ~k ~value] mutates [seq] via
    {!apply_update_delta} and returns the updated raw data. *)
val update_in_place : Seqdata.t -> Seqdata.raw -> k:int -> value:float -> Seqdata.raw
