(** Materialized sequence data (paper §2.1, §3.2).

    {2 Raw data}

    Raw values [x_i] exist for [1 <= i <= n] and are zero for other [i]
    (the paper's convention for SUM semantics).

    {2 Complete sequences}

    A materialized sequence stores the reporting-function values [x~_k].
    A {e complete} simple sequence (§3.2) also carries its header
    (positions [-h+1 .. 0]) and trailer ([n+1 .. n+l]) — the out-of-range
    positions whose windows still overlap the raw data.  {!get} is total:
    it returns the mathematically correct value at {e every} integer
    position (zero / {!Agg.absent} outside the stored range; cumulative
    sequences saturate at [x~_n] above [n]). *)

(** {1 Raw data} *)

type raw

val raw_of_array : float array -> raw
val raw_of_list : float list -> raw
val raw_length : raw -> int

(** [raw_get r i] is [x_i], zero outside [1, n]. *)
val raw_get : raw -> int -> float

(** The values [x_1 .. x_n] as they are stored, not copied: never
    write into the array. *)
val raw_data : raw -> float array

val raw_to_array : raw -> float array

(** [raw_blit r ~src dst ~pos ~len] copies [x_src .. x_(src+len-1)] into
    [dst.(pos) ..].
    @raise Invalid_argument if a position lies outside [1, n]. *)
val raw_blit : raw -> src:int -> float array -> pos:int -> len:int -> unit

(** Functional edits used by the §2.3 maintenance rules.  Positions are
    1-based; insert shifts positions [>= k] right, delete shifts
    positions [> k] left.
    @raise Invalid_argument if [k] is out of range. *)

val raw_update : raw -> k:int -> value:float -> raw
val raw_insert : raw -> k:int -> value:float -> raw
val raw_delete : raw -> k:int -> raw

(** Mirror the raw data around the centre of [1, n]. *)
val mirror_raw : raw -> raw

(** {1 Materialized sequences} *)

type t

val frame : t -> Frame.t
val agg : t -> Agg.t

(** Cardinality [n] of the underlying raw data. *)
val length : t -> int

val stored_lo : t -> int
val stored_hi : t -> int

(** The stored position range [(lo, hi)] of a complete sequence over [n]
    raw values: [(1-h, n+l)] for sliding frames, [(1, n)] for cumulative
    ones. *)
val complete_range : Frame.t -> n:int -> int * int

(** [make frame agg ~n ~lo values] packs a complete sequence.
    @raise Invalid_argument
      if [lo] and [values] do not cover exactly {!complete_range}. *)
val make : Frame.t -> Agg.t -> n:int -> lo:int -> float array -> t

(** Total accessor: the sequence value at any position. *)
val get : t -> int -> float

(** [same_quotient a i ~by b j ~by0] is whether [get a i /. by] and
    [get b j /. by0] are the same float bit for bit (so [-0.] differs
    from [0.]), any two NaNs counting as the same.  Allocates nothing. *)
val same_quotient : t -> int -> by:int -> t -> int -> by0:int -> bool

(** In-place mutation of a stored value (the O(w) maintenance fast path).
    @raise Invalid_argument if the position is outside the stored range. *)
val set_value : t -> int -> float -> unit

(** All stored values, ascending by position (a copy). *)
val to_array : t -> float array

(** [blit t ~src dst ~pos ~len] copies the stored values at positions
    [src .. src+len-1] into [dst.(pos) ..].
    @raise Invalid_argument if a position is not stored. *)
val blit : t -> src:int -> float array -> pos:int -> len:int -> unit

(** Values at body positions [1..n] only. *)
val body : t -> float array

(** Header (positions below 1) resp. trailer (positions above [n]). *)
val header : t -> float array

val trailer : t -> float array

val is_complete : t -> bool

(** Mirror a sliding sequence around the centre of [1, n]: position [p]
    becomes [n+1-p] and an (l, h) frame becomes (h, l).  Used to obtain
    right-sided MaxOA from the left-sided algorithm.
    @raise Invalid_argument on cumulative sequences. *)
val mirror : t -> t

(** Structural equality within [eps] per value (NaN equal to NaN). *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
