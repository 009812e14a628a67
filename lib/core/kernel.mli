(** The window kernel: the three drivers every window evaluation runs
    (paper §2.2).

    A driver walks the rows [first .. last] in order.  Row [i]'s frame
    is the element positions [at lo i .. at hi i] clamped to
    [0, m-1]; it is empty when the clamped upper bound is below the
    lower one.  Both bounds must be non-decreasing in [i].  A bound is
    data for the common ROWS shapes and an int-returning function
    otherwise, so no pair is built and, for ROWS frames, no closure is
    called per row.

    The drivers never see a value.  The caller's closures fold element
    positions into the caller's own state and write row results into
    the caller's own arrays, so each caller keeps its value semantics
    (SQL values in relalg, floats in core), and no float crosses a
    closure boundary: without flambda a float passed to or returned
    from a closure is boxed.

    The tie rule is the caller's [beats] (or [add]) being strict: among
    equal-comparing values, the first-best position in frame order
    wins, as a one-shot fold does. *)

(** A frame bound of row [i]. *)
type bound =
  | Fixed of int  (** the same position for every row *)
  | Offset of int  (** [i + d] *)
  | Fn of (int -> int)  (** e.g. a RANGE frame's key search *)

val at : bound -> int -> int

(** The explicit form: [reset ()], then [add j] for each position of
    the frame, then [emit i].  O(w) per row. *)
val explicit :
  m:int ->
  first:int ->
  last:int ->
  lo:bound ->
  hi:bound ->
  reset:(unit -> unit) ->
  add:(int -> unit) ->
  emit:(int -> unit) ->
  unit

(** Two pointers: each position is [add]ed as it enters a frame and
    [retire]d as it leaves, before [emit i]; within a row, entering
    positions are added before leaving ones are retired.  The state
    starts empty.  O(1) amortized per row for an invertible aggregate
    (the paper's pipelined recursion); any aggregate fits when [lo] is
    [Fixed], because such a frame never retires a position. *)
val two_pointer :
  m:int ->
  first:int ->
  last:int ->
  lo:bound ->
  hi:bound ->
  add:(int -> unit) ->
  retire:(int -> unit) ->
  emit:(int -> unit) ->
  unit

(** Monotonic deque for MIN/MAX: [beats j k] is whether the value at
    position [j] is strictly better than the one at [k] (a position
    holding no value beats nothing, and anything beats it).  [emit i j]
    gets the frame's first-best position [j], or [-1] for an empty
    frame.  O(1) amortized per row; with [hi] unbounded above it is the
    running scan from the right. *)
val deque :
  m:int ->
  first:int ->
  last:int ->
  lo:bound ->
  hi:bound ->
  beats:(int -> int -> bool) ->
  emit:(int -> int -> unit) ->
  unit
