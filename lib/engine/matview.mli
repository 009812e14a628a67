(** Materialized sequence views: recognition, state, incremental
    maintenance (paper §2.3) and rendering.

    A view qualifies as a {e sequence view} when its definition is

    {v SELECT col..., agg(value_col) OVER
         ([PARTITION BY pcols] ORDER BY order_col [ROWS frame]) [AS a]
       FROM base_table v}

    with simple column references, one ordering column and a cumulative
    or sliding ROWS frame.  The engine then keeps a per-partition core
    representation (base rows + complete sequence) and maintains it
    incrementally under base-table DML; other views get full refreshes.

    The value column must be numeric and NULL-free for the incremental
    path; otherwise {!init_state} raises and the engine falls back. *)

open Rfview_relalg
module Ast := Rfview_sql.Ast
module Core := Rfview_core

type seq_spec = {
  source : string;              (** base table *)
  partition : string list;      (** partition column names *)
  order_col : string;
  value_col : string;
  agg : Aggregate.kind;
  frame : Core.Frame.t;
  items : (string option * string) list;
      (** output layout: (source column, output name); [None] marks the
          window column *)
}

(** Recognize a sequence-view definition. *)
val recognize : Ast.query -> seq_spec option

(** Map a SQL aggregate to its carrier core aggregate (COUNT and AVG ride
    on the SUM sequence). *)
val core_agg : Aggregate.kind -> Core.Agg.t

(** One partition's state: its base rows, complete sequence and
    rendered output rows, cut into segments of 1 to
    {!Relation.chunk_size} rows (at least a quarter of that when the
    partition has more than one), with the sequence's header and
    trailer.  Immutable: maintenance builds fresh segments where an
    edit reaches and shares the others (see {!apply_shared}). *)
type partition_state

(** The partitions of a state, keyed by partition key. *)
type partitions

(** The output layout, fixed when the state is built. *)
type layout

type state = {
  spec : seq_spec;
  base_schema : Schema.t;
  out_schema : Schema.t;
  pcols : int list;
  ocol : int;
  vcol : int;
  layout : layout;
  mutable parts : partitions;
}

exception Not_maintainable of string

(** The 1-based rank at which a new base row enters its ordered
    partition: after every existing row whose order value is [<=] its
    own. *)
val insert_rank : state -> partition_state -> Row.t -> int

(** Build the maintenance state from the base table's current contents,
    its output rows rendered.
    @raise Not_maintainable per the restrictions above. *)
val init_state : seq_spec -> base:Relation.t -> out_schema:Schema.t -> state

(** Copy for undo-log snapshots, in O(1): partitions are immutable and
    kept in a persistent map, so the copy shares them all. *)
val copy_state : state -> state

(** The view contents: the partitions' output chunks in key order, one
    chunk per segment, with no row rendered and no row array copied —
    maintenance renders the segments it rebuilds (a kept row whose
    window cell is bit-identical keeps its previously rendered row) and
    shares every other segment's chunk.  Row-for-row, bit for bit and
    in physical order what a from-scratch render gives.  Chunks and
    rows are shared with earlier results and never written. *)
val render : state -> Relation.t

(** {2 Reading partitions} — flattening accessors, O(partition). *)

(** In partition-key order. *)
val partitions : state -> partition_state list

val partition_key : partition_state -> Value.t list

(** The base rows, ordered. *)
val partition_rows : partition_state -> Row.t array

(** The raw values, read off the base rows. *)
val partition_raw : state -> partition_state -> Core.Seqdata.raw

(** The complete sequence, header and trailer included. *)
val partition_seq : state -> partition_state -> Core.Seqdata.t

(** Each segment's output chunk, in order (shared, not copied). *)
val partition_chunks : partition_state -> Relation.chunk array

(** Incremental maintenance (multi-row §2.3).  Every change — one
    statement's rows or a batch's consolidated delta — takes one path:
    {!shared_plan} computes the structural merge once per scan-share
    class (same base table, partition columns and order column —
    certified statically by [Rfview_analysis.Share] and re-checked at
    runtime; a lone view is a class of one), and {!apply_shared}
    replays it into each member.  Per partition, each delete or
    in-place update claims the first unclaimed equal row (binary search
    over the segments, then within one, to its run of equal order
    values), and each insert lands at its {!insert_rank}.  Only the
    segments an edit lands in are rebuilt: one that grows past
    {!Relation.chunk_size} rows splits, one that shrinks below a
    quarter of that absorbs a neighbour.  Per member, kept rows copy
    their raw and sequence values; each contiguous run of dirty
    sequence positions is recomputed with one pipelined scan on the
    window kernel over a gathered raw slice, a cumulative run folding
    on from its clean left neighbour (so it still rewrites the suffix
    after its edit).  Every other segment is shared, rendered chunk
    included.  An update of the ordering or partition column is a
    delete + insert.  No step writes into an existing segment. *)

type shared_plan

(** Compute the class's shared structural merge.
    @raise Invalid_argument on an empty class or when the states
    disagree on the (base, partition, order) scan key;
    @raise Not_maintainable when an edited row is missing from the
    shared base structure; the engine then refreshes the class. *)
val shared_plan :
  state list ->
  inserts:Row.t list ->
  deletes:Row.t list ->
  updates:(Row.t * Row.t) list ->
  shared_plan

(** Replay the shared merge into one member state.  Members cut into
    the same segments install the same merged row arrays; a member cut
    otherwise (refreshed since) replays the plan's events against its
    own segments.
    @raise Not_maintainable when this member's partitions diverge
    structurally from the plan (broken class invariant), or a new value
    is NULL or non-numeric; the engine then falls back to a full
    refresh of that member only. *)
val apply_shared : shared_plan -> state -> unit

(** One view's maintenance as a class of one:
    [apply_shared (shared_plan [st] ...) st]. *)
val apply_batch :
  state ->
  inserts:Row.t list ->
  deletes:Row.t list ->
  updates:(Row.t * Row.t) list ->
  unit

(** Batches of one over {!apply_batch}, for callers outside the
    library (the engine maintains through {!apply_shared}). *)

val apply_insert : state -> Row.t -> unit
val apply_delete : state -> Row.t -> unit
val apply_update : state -> old_row:Row.t -> new_row:Row.t -> unit

(** Derived views (generalized IVM): immutable maintenance state for
    views beyond the sequence shape — the delta rules of
    {!Rfview_planner.Deriv} plus their source tables.  The engine
    installs one per view whose derivation succeeded under a valid
    {!Rfview_analysis.Ivmcert} certificate and replays it at each batch
    commit. *)
module Derived : sig
  module Deriv := Rfview_planner.Deriv

  type t

  val make : Deriv.t -> t

  (** Source base tables, lowercased. *)
  val sources : t -> string list

  val shape_name : t -> string
  val has_window : t -> bool

  (** Apply one consolidated batch delta to the view's contents,
      returning the new contents.
      @raise Deriv.Divergence when the delta disagrees with the
      materialized rows; the engine then falls back to full refresh. *)
  val apply_batch : t -> env:Deriv.env -> contents:Relation.t -> Relation.t
end
