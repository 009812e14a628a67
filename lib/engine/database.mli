(** The database facade: parse → bind → (rewrite) → optimize → plan →
    execute, plus DDL/DML with materialized-view maintenance. *)

open Rfview_relalg
module Ast := Rfview_sql.Ast
module P := Rfview_planner

exception Engine_error of string

(** A script statement failed: 1-based index and SQL text of the
    culprit, wrapping the original exception. *)
exception Script_error of { index : int; sql : string; cause : exn }

(** A durable database directory could not be brought back to a usable
    state: structural checkpoint corruption, or a WAL record that fails
    to replay.  Per-view state damage does {e not} raise this — such
    views are quarantined and recovery proceeds. *)
exception Recovery_error of string

(** The session is in disk-full degraded mode: the write was rejected
    (state unchanged, reads keep serving).  See {!health}. *)
exception Degraded_error of { reason : string }

(** How reporting functions execute — the contrast of the paper's
    Table 1: the native window operator, or the Fig. 2 self-join
    simulation applied in query rewrite. *)
type window_mode =
  [ `Native
  | `Self_join
  ]

(** What happens when maintaining one materialized view fails mid
    statement: [`Quarantine] (default) marks the view stale — the
    statement succeeds and the next read of the view triggers a full
    refresh; [`Abort] propagates the exception, rolling the whole
    statement back. *)
type degradation =
  [ `Quarantine
  | `Abort
  ]

(** Exceptions the degradation policies may absorb: everything except
    verification failures ([Verify.Not_preserved], a bug not an
    environmental fault) and asynchronous exhaustion. *)
val recoverable_exn : exn -> bool

(** {1 Configuration}

    All execution knobs live in one record, fixed at {!create} (or
    {!open_durable}) time and changeable wholesale with {!reconfigure}.

    - [window_mode] / [window_strategy]: how reporting functions
      execute and how the window operator evaluates.
    - [hash_join]: disabling hash joins forces nested loops for
      equality predicates — how the paper's engine executed both
      Table 2 variants.  [index_join] additionally off yields pure
      nested-loop plans.
    - [degradation]: the view-maintenance failure policy.
    - [share_scans]: during batch maintenance, drive all sequence views
      of a certified scan-share class (same base table, partition
      columns and order column — {!Rfview_analysis.Share}) from one
      shared partition iterator instead of re-scanning per view. *)
type config = {
  window_mode : window_mode;
  window_strategy : Window.strategy;
  hash_join : bool;
  index_join : bool;
  degradation : degradation;
  share_scans : bool;
}

(** [`Native], [Incremental], hash and index joins on, [`Quarantine]. *)
val default_config : config

type t

type result =
  | Relation of Relation.t
  | Done of string  (** acknowledgement of a DDL/DML statement *)

val create : ?config:config -> unit -> t

(** Replace the whole configuration.  Plans are built per statement, so
    the change takes effect on the next one. *)
val reconfigure : t -> config -> unit

(** The current configuration. *)
val config : t -> config

(** {1 Execution}

    Every statement is {e atomic}: on any exception an undo log restores
    tables, view contents, view states and index caches to the
    pre-statement snapshot before the exception re-raises. *)

(** Execute one statement.

    DDL keeps the view-dependency graph ({!Catalog}) total: [DROP TABLE]
    and [DROP VIEW] are RESTRICT (they raise [Catalog.Catalog_error]
    while any view reads the object; [DROP VIEW] drops its indexes too),
    and [CREATE VIEW] binds its definition.

    @raise Engine_error / Binder.Bind_error / Parser.Parse_error /
           Catalog.Catalog_error on failure. *)
val exec : t -> string -> result

(** Execute a [;]-separated script.  The whole script runs as one
    {!with_batch} scope: statements keep their individual atomicity and
    the first failure stops the script, but view maintenance and the
    WAL fsync happen once at the end (group commit).
    @raise Script_error wrapping the failing statement's exception with
    its 1-based index and SQL text. *)
val exec_script : t -> string -> result list

(** [with_batch db f] runs [f] inside a batch scope: base-table deltas
    from DML statements are accumulated (consolidated per table) and
    propagated to each dependent materialized view {e once}, at scope
    exit, using the multi-row §2.3 rules; on a durable database the
    batch's WAL records are framed into a single record and fsynced
    once (group commit).  Statements inside the batch remain
    individually atomic; if [f] raises, the {e whole batch} is rolled
    back (and nothing of it reaches the WAL).  A public read inside the
    batch — {!query}, {!run_query}, {!plan_query}, EXPLAIN,
    {!binder_catalog}, {!catalog_view}, {!view_state} — and DDL that
    creates, refreshes or drops relations first propagate the pending
    delta, so they see every write of the batch.  A public read
    flushes; maintenance never needs to.  Nested calls (and calls
    inside a statement scope) are no-ops joining the enclosing scope. *)
val with_batch : t -> (unit -> 'a) -> 'a

(** Execute a query statement.  [EXPLAIN] and [EXPLAIN ANALYZE] of a
    query answer their text as a relation of one [plan] column, one
    row per line, as {!Snapshot.query} does.
    @raise Engine_error on any other statement. *)
val query : t -> string -> Relation.t

(** Logical and physical plan text. *)
val explain : t -> string -> string

val exec_statement : t -> Ast.statement -> result

(** Run a query against the live database, healing any quarantined
    view it reads.  Flushes an open batch's delta first. *)
val run_query : t -> Ast.query -> Relation.t

(** The physical plan {!run_query} would execute.  Flushes an open
    batch's delta first. *)
val plan_query : t -> Ast.query -> P.Physical.t

(** Bulk-load rows, bypassing SQL parsing; materialized views on the
    table are maintained through the batched delta path (one
    propagation per view).  Atomic like a statement: a failed
    propagation rolls the load back. *)
val load_table : t -> table:string -> Row.t array -> unit

(** {1 Durability}

    A durable database lives in a directory holding a checkpoint (see
    {!module:Checkpoint}) and a write-ahead log (see {!module:Wal}).
    Every statement's logical records are appended and fsynced before it
    commits; a statement whose records cannot be made durable rolls
    back.  Opening the directory recovers: checkpoint + WAL suffix
    replay, with torn-tail truncation and per-view quarantine of damaged
    state, so recovery always terminates with a readable database. *)

type recovery_report = {
  checkpoint_epoch : int option;  (** [None] when no checkpoint existed *)
  replayed : int;  (** WAL records applied after the checkpoint *)
  torn : bool;  (** a torn/corrupt WAL tail was detected and truncated *)
  quarantined : string list;
      (** views restored stale because their checkpoint state was
          damaged or could not be validated (sorted) *)
  swept : string list;
      (** stale [*.tmp] files (left by a crash between an artifact
          write and its rename) removed when the directory was opened *)
}

(** Open (creating if necessary) a durable database directory.
    @raise Recovery_error when the directory cannot be recovered. *)
val open_durable : ?config:config -> string -> t

(** Like {!open_durable}, also returning what recovery did. *)
val recover : ?config:config -> string -> t * recovery_report

(** Write a checkpoint: an atomic snapshot of tables, index DDL, views
    and materialized state, then start a fresh WAL epoch.
    @raise Engine_error when the database has no directory.
    @raise Degraded_error when the disk is full (the previous checkpoint
    and WAL stay intact; see {!health}). *)
val checkpoint : t -> unit

(** {2 Disk-full degraded mode}

    ENOSPC during a WAL commit or a checkpoint never corrupts state: the
    failed write is rolled back and the session enters a read-only
    degraded mode.  Reads keep serving; every write raises
    {!Degraded_error}.  A cheap space probe (write + fsync of a scratch
    file) runs with exponential backoff — counted in rejected writes —
    and normal operation resumes automatically once it succeeds. *)

type health =
  | Healthy
  | Degraded of { reason : string; rejected_writes : int }

val health : t -> health

(** Checkpoint automatically once the WAL holds at least [n] records
    ([None] disables, the default).  A failing automatic checkpoint is
    ignored — the longer WAL still recovers the same state. *)
val set_checkpoint_every : t -> int option -> unit

(** Checkpoint automatically once the WAL file reaches [n] bytes
    ([None] disables, the default) — the log-compaction trigger: a few
    huge batch records compact as eagerly as many small ones.  Composes
    with {!set_checkpoint_every}; either threshold fires. *)
val set_checkpoint_bytes : t -> int option -> unit

(** The database directory, when opened with {!open_durable}/{!recover}. *)
val durable_dir : t -> string option

(** The current checkpoint epoch (0 before the first checkpoint, and
    for non-durable databases). *)
val epoch : t -> int

(** {1 Replication support}

    Primitives the replication layer ({!module:Rfview_replica}) builds
    on: a global log position, record application outside the WAL
    commit path, bootstrap from shipped checkpoint bytes, a logical
    state fingerprint for divergence detection, and promotion. *)

(** The log sequence number: the global count of top-level WAL records
    appended since the database was created.  Survives checkpoints (the
    checkpoint header carries it forward).  0 for a non-durable
    database. *)
val lsn : t -> int

(** Is a {!with_batch} scope currently open?  (A shipper must not read
    the log position mid-batch: the batch's record is not sealed yet.) *)
val in_batch : t -> bool

(** Apply one WAL record through the regular replay path (view
    maintenance, fault sites and quarantine behave as on the primary).
    On a non-durable database nothing is re-logged: application is a
    pure state transition — this is how replicas consume shipped
    records.
    @raise Engine_error when the record does not apply (e.g. a missing
    pre-image), which a replica should treat as divergence. *)
val apply_record : t -> Wal.record -> unit

(** Build an in-memory (non-durable) database from a checkpoint
    snapshot; returns it with the names of views restored stale.
    Replica bootstrap: the snapshot typically comes from
    {!Checkpoint.read_bytes} on a shipped artifact.
    @raise Recovery_error when the snapshot does not restore. *)
val restore_snapshot : ?config:config -> Checkpoint.snapshot -> t * string list

(** A textual dump of the logical database state: table rows, view
    contents, quarantine flags.  Equal fingerprints mean every query
    answers identically.  Excludes incremental-maintenance {e presence}
    (a checkpoint-bootstrapped replica may maintain by full refresh
    where the primary is incremental — same logical state). *)
val fingerprint : t -> string

(** Promote an in-memory database (a replica's applied state) into a
    durable primary at [dir]: writes an epoch-1 checkpoint carrying
    [lsn] and installs a fresh WAL, so the promoted primary's log
    sequence continues where the shipped history ended.
    @raise Engine_error when the database is already durable or a batch
    is open. *)
val make_durable : t -> dir:string -> lsn:int -> unit

(** Close the WAL writer and detach the directory (the in-memory
    database remains usable, but is no longer durable). *)
val close : t -> unit

(** {1 Introspection} *)

val catalog : t -> Catalog.t

(** Does the view currently have an incremental maintenance state —
    either the §2.3 sequence machinery or a derived delta plan? *)
val is_incrementally_maintained : t -> string -> bool

(** Is the view maintained by a derived delta plan (generalized IVM,
    {!Rfview_planner.Deriv})? *)
val is_derived_maintained : t -> string -> bool

(** The derived maintenance state, when one is installed (flushes any
    open batch delta first, like {!view_state}). *)
val derived_state : t -> string -> Matview.Derived.t option

(** Is the view quarantined (stale, pending a lazy full refresh)? *)
val is_stale : t -> string -> bool

(** Names of all quarantined views, sorted. *)
val stale_views : t -> string list

val view_state : t -> string -> Matview.state option

(** The certified scan-share classes (view names, ≥ 2 members each) a
    batch delta against [table] would drive through one shared partition
    iterator.  A lookup of the catalog's scan-key groups
    ({!Catalog.share_groups}, built at DDL time) filtered by live state:
    non-empty only when [share_scans] is on, the views have live
    sequence states (materialized, fresh, not derived), {e and} the
    static {!Rfview_analysis.Share} certificate over their definitions
    holds — the same both-or-neither gate the engine applies, so tests
    can pair this verdict with the analysis verdict.  Flushes any open
    batch delta first, like {!view_state}. *)
val share_classes : t -> table:string -> string list list

(** The binder/executor adapters over the live database (exposed for
    the CLI and tests).  Each flushes an open batch's delta when it is
    built, like {!run_query}. *)
val binder_catalog : t -> P.Binder.catalog

val catalog_view : t -> P.Physical.catalog_view

(** {1 MVCC snapshots}

    Every commit point — a top-level statement, a {!with_batch} commit,
    recovery — publishes an immutable, LSN-stamped version of the
    logical state.  Publication captures pointers (row arrays and view
    contents are replaced wholesale by every mutation path, never
    mutated in place), so the hot path pays O(tables + views), not a
    deep copy.  A bounded window of recent versions stays acquirable;
    an acquired snapshot pins its version beyond the window until
    released, so neither eviction nor {!close} invalidates it.

    Concurrency contract: {e one} writer executes statements and
    batches; any number of domains may acquire snapshots and run
    {!Snapshot.query} concurrently with the writer and each other. *)

module Snapshot : sig
  (** A frozen, immutable view of the database at one published LSN. *)
  type t

  (** The LSN this snapshot's state corresponds to.  On a durable
      database this is the WAL position of the publishing commit; on an
      in-memory database it is a session-local commit counter. *)
  val lsn : t -> int

  (** Run one query statement against the frozen state: the regular
      plan pipeline over the version's tables, view contents and
      indexes.  Safe to call from any domain.  A quarantined view heals
      {e snapshot-locally}: recomputed from the frozen base tables and
      never written back.  Heals and built indexes are memoized on the
      version, so every snapshot of one LSN shares them.  [EXPLAIN]
      and [EXPLAIN ANALYZE] of a query answer their text as a relation
      of one [plan] column, one row per line.
      @raise Engine_error on any other statement or a closed
      snapshot. *)
  val query : t -> string -> Relation.t

  val run_query : t -> Rfview_sql.Ast.query -> Relation.t

  (** The frozen state's {!fingerprint} (same rendering as the live
      one, stale views included as captured — the chaos oracle relies
      on bit-identity). *)
  val fingerprint : t -> string

  (** Release the pinned version.  Idempotent. *)
  val close : t -> unit

  val released : t -> bool
end

(** Acquire the newest published version.  Never blocks on the writer
    beyond the version-list mutex. *)
val snapshot : t -> Snapshot.t

(** Acquire the version published at exactly [lsn];
    [Error violation] when that LSN has left the retained window (or
    was never published). *)
val snapshot_at :
  t -> lsn:int -> (Snapshot.t, Staleness.violation) Stdlib.result

(** Same as {!Snapshot.close}. *)
val release : t -> Snapshot.t -> unit

(** LSNs currently acquirable, newest first. *)
val retained_lsns : t -> int list

(** Resize the retained-version window (default 8, minimum 1).  Active
    snapshots keep their versions alive regardless. *)
val set_retain : t -> int -> unit

(** Total acquired-and-unreleased snapshots. *)
val open_snapshots : t -> int
