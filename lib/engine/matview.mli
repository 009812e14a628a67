(** Materialized sequence views: recognition, state, incremental
    maintenance (paper §2.3) and rendering.

    A view qualifies as a {e sequence view} when its definition is

    {v SELECT col..., agg(value_col) OVER
         ([PARTITION BY pcols] ORDER BY order_col [ROWS frame]) [AS a]
       FROM base_table v}

    with simple column references, one ordering column and a cumulative
    or sliding ROWS frame.  The engine then keeps a per-partition core
    representation (raw data + complete sequence) and maintains it
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

(** A partition's render cache: its output rows as last rendered, in
    chunks, the [seq] they were rendered from, and the rank map of the
    rows kept since (see {!render}). *)
type render_cache

type partition_state = {
  pkey : Value.t list;
  mutable base_rows : Row.t array;  (** base rows of the partition, ordered *)
  mutable raw : Core.Seqdata.raw;
  mutable seq : Core.Seqdata.t;
  mutable rendered : render_cache option;
      (** Build new records with [None]. *)
}

type state = {
  spec : seq_spec;
  base_schema : Schema.t;
  out_schema : Schema.t;
  pcols : int list;
  ocol : int;
  vcol : int;
  mutable parts : partition_state list;  (** sorted by partition key *)
}

exception Not_maintainable of string

(** The 1-based rank at which a new base row enters its ordered
    partition: after every existing row whose order value is [<=] its
    own. *)
val insert_rank : state -> partition_state -> Row.t -> int

(** Build the maintenance state from the base table's current contents.
    @raise Not_maintainable per the restrictions above. *)
val init_state : seq_spec -> base:Relation.t -> out_schema:Schema.t -> state

(** Copy of the mutable layers (for undo-log snapshots): the state and
    partition records.  Row arrays, raw data and sequences are shared —
    no maintenance path writes into them. *)
val copy_state : state -> state

(** Render the view contents from the state, at a cost in what changed
    since the last render rather than in what the view holds.  Each
    partition's rendered rows are cached as chunks of
    {!Relation.chunk_size} rows (the last one shorter), with their
    zones.  A partition whose [seq] is unchanged returns its cached
    chunks.  In a changed partition, a row the maintenance merges kept
    (same base row) whose window cell is bit-identical keeps its
    previously rendered row, every other row is rendered fresh, and a
    chunk whose rows all come out physically the same as the cached
    chunk at its place is that chunk.  The result is the partitions'
    chunks in order, with no row array copied: row-for-row, bit for bit
    and in physical order what a from-scratch render gives.  Chunks and
    rows are shared with earlier results (neither is ever written). *)
val render : state -> Relation.t

(** Forget every partition's cached rendering, e.g. after a cross-check
    render whose rows should not stay resident. *)
val drop_render_cache : state -> unit

(** Incremental maintenance (multi-row §2.3).  Every change — one
    statement's rows or a batch's consolidated delta — takes one path:
    {!shared_plan} computes the structural merge once per scan-share
    class (same base table, partition columns and order column —
    certified statically by [Rfview_analysis.Share] and re-checked at
    runtime; a lone view is a class of one), and {!apply_shared}
    replays it into each member.  Per partition, each delete or
    in-place update claims the first unclaimed equal row (binary search
    to its run of equal order values), each insert lands at its
    {!insert_rank}, and the new row array is blitted between those
    event points.  Per member, kept rows copy their raw and sequence
    values under the rank map; each contiguous run of dirty sequence
    positions is recomputed with one pipelined scan on the window
    kernel, a cumulative run folding on from its clean left neighbour.
    An update of the ordering or partition column is a delete + insert.
    No step writes into an existing row array, raw data or sequence. *)

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

(** Replay the shared merge into one member state.  Members install the
    same merged row arrays.
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
