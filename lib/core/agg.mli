(** Aggregation functions at the sequence level (paper §2.1, the [FA] of a
    simple sequence).

    The paper emphasizes SUM — COUNT has a closed form and AVG is
    SUM/COUNT — and treats the semi-algebraic MIN and MAX separately
    because only MaxOA can derive them (§4.2, §7).

    Conventions: sequence values are floats; SUM-sequences zero-extend
    the raw data outside [1, n]; MIN/MAX-sequences clamp windows to
    existing data and mark empty windows with {!absent} (NaN). *)

type t =
  | Sum
  | Min
  | Max

val name : t -> string

(** SUM is invertible (supports the pipelined recursion and MinOA);
    MIN/MAX are not. *)
val invertible : t -> bool

(** The marker for "no value" in MIN/MAX sequences (NaN). *)
val absent : float

val is_absent : float -> bool

(** [combine t a b] merges two window results into the result of the
    union window.  Exact for MIN/MAX whenever the windows cover the
    union (overlaps are harmless); for SUM only on disjoint windows.
    {!absent} operands are ignored. *)
val combine : t -> float -> float -> float

(** [of_span t get ~lo ~hi] folds the aggregate over the raw values at
    positions [lo..hi], from the empty span's value: [0.] for SUM (so
    [-0.] values sum to [0.]) and {!absent} for MIN/MAX. *)
val of_span : t -> (int -> float) -> lo:int -> hi:int -> float

(** [count_at frame ~n ~k] is the closed form of COUNT: the number of raw
    positions inside the window of [k] clamped to [1, n]. *)
val count_at : Frame.t -> n:int -> k:int -> int

(** [avg_of_sum frame ~n ~k sum] derives AVG from a SUM window value;
    {!absent} on empty windows. *)
val avg_of_sum : Frame.t -> n:int -> k:int -> float -> float
