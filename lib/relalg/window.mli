(** The native reporting-function (window-function) operator — the
    "existing reporting functionality inside the database engine" of the
    paper's Table 1.

    For each window function the input is partitioned by the PARTITION BY
    expressions and ordered within each partition by the ORDER BY keys;
    the function is evaluated over the ROWS frame of every tuple.  One
    output value per input tuple — reporting functions do not shrink the
    data volume.  The input row order is preserved in the output. *)

type bound =
  | Unbounded_preceding
  | Preceding of int
  | Current_row
  | Following of int
  | Unbounded_following

(** ROWS frames count tuples (the paper's setting); RANGE frames measure
    the {e value} distance of the single ORDER BY key and always include
    peers of the current row, per SQL. *)
type frame_mode =
  | Rows
  | Range

type frame = {
  lo : bound;
  hi : bound;
  mode : frame_mode;
}

(** [ROWS UNBOUNDED PRECEDING .. CURRENT ROW]. *)
val cumulative_frame : frame

(** [ROWS l PRECEDING .. h FOLLOWING]. *)
val sliding_frame : l:int -> h:int -> frame

(** [ROWS UNBOUNDED PRECEDING .. UNBOUNDED FOLLOWING]. *)
val whole_partition_frame : frame

(** [RANGE l PRECEDING .. h FOLLOWING] (key-value offsets). *)
val range_frame : l:int -> h:int -> frame

type spec = {
  partition : Expr.t list;
  order : Sortop.key list;
  frame : frame;
}

(** Window functions: framed aggregates, the rank family (frame-less,
    argument-less) and the navigation family. *)
type func =
  | Agg of Aggregate.kind
  | Row_number
  | Rank
  | Dense_rank
  | Lag of int    (** argument value [offset] rows earlier in the partition *)
  | Lead of int   (** argument value [offset] rows later *)
  | First_value   (** argument at the first row of the frame *)
  | Last_value    (** argument at the last row of the frame *)

val func_name : func -> string

(** Resolve by name; LAG/LEAD carry an offset and are built directly by
    the binder, so they are not resolvable here. *)
val func_of_name : string -> func option

type fn = {
  func : func;
  arg : Expr.t;  (** ignored by the rank family *)
  spec : spec;
  name : string; (** output column name *)
}

(** Execution strategy per partition of size m and frame width w, on
    the core's window kernel ({!Rfview_core.Kernel}):
    - [Naive]: the explicit form, O(m·w) — the §2.2 baseline;
    - [Incremental]: two-pointer accumulate/retire for invertible
      aggregates (the paper's pipelined computation, O(m)) and for
      MIN/MAX under frames unbounded below; the monotonic deque for the
      other MIN/MAX frames, O(m).
    Both keep the first-best row among equal MIN/MAX values. *)
type strategy =
  | Naive
  | Incremental

exception Invalid_frame of string

(** @raise Invalid_frame on negative frame offsets. *)
val validate_frame : frame -> unit

val output_schema : Schema.t -> fn list -> Schema.t

(** Append one column per window function; input row order preserved.

    A framed SUM, COUNT or AVG under [Incremental] whose argument is a
    plain column holding only Ints, or only Floats, besides NULLs, is
    folded on an unboxed copy of that column, in [Aggregate]'s order of
    operations: the same answers, bit for bit, as the [Value.t] path
    that every other function and argument takes. *)
val extend : ?strategy:strategy -> Relation.t -> fn list -> Relation.t

(** [outputs ?strategy rows fns f] evaluates [fns] over [rows] and
    returns the function [i ↦ f rows.(i) vals], where [vals] holds row
    [i]'s values of [fns], in order.  [vals] is one buffer, written over
    at each call: [f] must not keep it.  [extend] is [f = Row.append];
    a projection above the window passes its projector, so each output
    row is built once. *)
val outputs :
  ?strategy:strategy -> Row.t array -> fn list -> (Row.t -> Row.t -> Row.t) -> int -> Row.t
