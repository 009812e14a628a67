(** The chaos harness: randomized DML streams against a shadow oracle,
    with faults injected at the engine's registered sites.

    One seeded stream of INSERT/UPDATE/DELETE/CSV-load/REFRESH
    statements runs over a [(grp, pos, val)] table carrying five
    materialized views, mirroring each successful statement's effect
    onto a plain row-list oracle.  After every statement (or
    group-commit chunk) it checks, with injection suspended, that

    - the base table equals the oracle (failed statements rolled back
      completely, successful ones applied completely);
    - every non-stale materialized view equals full recomputation;
    - reading a stale (quarantined) view heals it to exactly the
      recomputed contents.

    Each entry point below runs that stream under one fault layer.
    Violations raise {!Divergence}; a completed run returns counters
    proving the interesting paths were actually exercised. *)

module Db := Rfview_engine.Database

exception Divergence of string

type config = {
  seed : int;
  ops : int;          (** length of the DML stream *)
  cache_every : int;  (** probe the cache every Nth statement *)
  batch : int;
      (** [> 1]: run the stream in [Db.with_batch] chunks of this many
          statements, with all consistency checks and cache probes at
          chunk (batch-commit) boundaries; [<= 1] (default 0) keeps the
          per-statement stream *)
}

val default_config : config

type report = {
  statements : int;    (** statements attempted *)
  failed : int;        (** statements that raised (and rolled back) *)
  quarantines : int;   (** views observed stale after a statement *)
  heals : int;         (** stale views healed by a read *)
  cache_probes : int;
  cache_hits : int;
  checks : int;        (** invariant checkpoints passed *)
}

(** Run the stream in memory, with periodic cache answers checked
    against uncached execution; [inject] arms one fault site for the
    whole run (always disarmed again on exit).  [sanitize] enables the
    differential sanitizer ({!Rfview_analysis.Sanitize}) for the run:
    every query the harness executes — cache probes, view recomputation
    checks, heal reads — then has each sub-plan's concrete relation
    checked against the abstract interpreter's state.
    @raise Divergence on any consistency violation.
    @raise Rfview_analysis.Sanitize.Disagreement
      on any abstract/concrete mismatch (with [sanitize]). *)
val run :
  ?config:config ->
  ?inject:string * Rfview_engine.Fault.policy ->
  ?sanitize:bool ->
  unit ->
  report

(** {1 Crash-recovery chaos}

    The stream over a {e durable} database directory, with simulated
    crashes: the in-memory handle is abandoned (the engine fsyncs per
    statement, so that is an accurate kill model) and the directory
    reopened through recovery.  Crash variants: clean kill; a torn
    mid-record WAL tail (must be truncated, never replayed); armed
    [wal.append]/[wal.fsync] (the statement must roll back and stay off
    disk); a faulting checkpoint write (the previous checkpoint plus the
    longer WAL must still recover); a faulting first recovery
    ([recover.replay]) followed by a clean retry.  After every recovery
    the database must equal the oracle at the last committed
    statement. *)

type crash_config = {
  cc_seed : int;
  cc_ops : int;               (** statements across the whole run *)
  cc_crash_every : int;       (** crash once per this many statements *)
  cc_checkpoint_every : int;  (** checkpoint period in statements; 0 = never *)
  cc_batch : int;
      (** [> 1]: group-commit the stream in chunks of this many
          statements; checks, checkpoints and crashes happen at batch
          boundaries (there is never an open batch at a crash).
          [<= 1] (default 0) keeps the per-statement stream *)
}

val default_crash_config : crash_config

type crash_report = {
  cr_statements : int;
  cr_crashes : int;            (** crash + recovery cycles *)
  cr_torn : int;               (** recoveries that truncated a torn tail *)
  cr_wal_faults : int;         (** statements rejected by armed WAL sites *)
  cr_checkpoints : int;        (** successful checkpoints *)
  cr_checkpoint_faults : int;  (** checkpoint attempts killed by the site *)
  cr_recover_faults : int;     (** first recovery attempts killed mid-replay *)
  cr_replayed : int;           (** WAL records replayed across recoveries *)
  cr_quarantined : int;        (** views restored in quarantine *)
  cr_heals : int;
}

(** Run one crash-recovery stream in [dir] (created if missing, previous
    run's files removed).  @raise Divergence on any violation. *)
val run_crash : ?config:crash_config -> dir:string -> unit -> crash_report

(** {1 Replication chaos}

    The stream over a durable primary shipped to N replica feeds
    ({!Rfview_replica}), with the oracle's state recorded {e at every
    commit boundary, keyed by LSN}.  The central assertion: every read
    any replica serves, tagged with LSN [l], equals the oracle's state
    at exactly [l] — replicas may be stale, they may never be wrong.
    Chaos events: replica kills (rebuilt from checkpoint artifact +
    record suffix), feed corruption (must quarantine, then heal via
    resync), lag injection (bounded reads must refuse with [Stale]),
    interrupted polls ([replica.apply]) and pumps ([ship.append]), and
    primary crash + recovery with feed reattach.  The run ends with
    failover: the freshest replica is promoted and its directory must
    reproduce the oracle at the promoted LSN, losing at most the
    never-pumped tail. *)

type replica_config = {
  rp_seed : int;
  rp_ops : int;               (** statements across the whole run *)
  rp_replicas : int;          (** feeds fanned out *)
  rp_pump_every : int;        (** ship once per this many statements *)
  rp_read_every : int;        (** replica read once per this many *)
  rp_event_every : int;       (** chaos event once per this many *)
  rp_checkpoint_bytes : int;  (** primary compaction threshold; 0 = off *)
  rp_batch : int;             (** [> 1]: group-commit chunks of this size *)
  rp_max_lag : int;           (** staleness bound for bounded reads *)
}

val default_replica_config : replica_config

type replica_report = {
  rp_statements : int;
  rp_pumps : int;
  rp_deliveries : int;        (** (record, feed) deliveries shipped *)
  rp_reads : int;             (** replica reads served and verified *)
  rp_stale_reads : int;       (** reads refused by the staleness bound *)
  rp_kills : int;             (** replica kill + rebootstrap cycles *)
  rp_corruptions : int;       (** feed entries corrupted *)
  rp_quarantines : int;       (** replica quarantines observed *)
  rp_resyncs : int;           (** resync artifacts shipped *)
  rp_ship_faults : int;       (** pumps interrupted by [ship.*] sites *)
  rp_apply_faults : int;      (** polls interrupted by [replica.apply] *)
  rp_primary_crashes : int;   (** primary crash + reattach cycles *)
  rp_compactions : int;       (** byte-triggered checkpoints observed *)
  rp_promoted_lsn : int;      (** failover: LSN the promoted replica held *)
  rp_lost_tail : int;         (** failover: records lost with the primary *)
}

(** Run one replication-chaos stream under [dir] (created if missing;
    [dir/primary], [dir/promoted] and the feed files are reset).
    @raise Divergence on any violation — including any replica read
    that is not a true historical state at its reported LSN. *)
val run_replica : ?config:replica_config -> dir:string -> unit -> replica_report

(** A textual dump of everything a statement may mutate: table rows in
    physical order, view contents, quarantine flags, incremental-state
    presence.  Equal fingerprints iff the logical database states are
    identical — the rollback-idempotence oracle for the property tests. *)
val fingerprint : Db.t -> string

(** {!fingerprint} of a façade session's database. *)
val fingerprint_session : Rfview.Session.t -> string

(** {1 Storage-fault chaos}

    The stream over a durable primary whose every disk byte moves
    through the {!Rfview_engine.Io} seam, with the simulated disk
    driving the faults the other layers cannot express:
    one-shot EIO at the [io.*] sites (the statement must roll back),
    disk-full episodes (the session must drop to read-only degraded
    mode and resume via the space probe once the budget clears), power
    cuts that lose every unsynced byte (recovery must reproduce the
    oracle and scrub clean), bit rot in the WAL, WAL deletion, and feed
    corruption.  One feed is kept pumped to the tip as the repair peer;
    every WAL repair is checked for {e bit}-identity against the
    pre-damage bytes, and every scrub/repair cycle must end clean. *)

type storage_config = {
  st_seed : int;
  st_ops : int;               (** statements across the whole run *)
  st_event_every : int;       (** storage event once per this many *)
  st_checkpoint_every : int;  (** checkpoint period in statements; 0 = never *)
  st_batch : int;             (** [> 1]: group-commit chunks of this size *)
}

val default_storage_config : storage_config

type storage_report = {
  st_statements : int;
  st_io_faults : int;         (** armed [io.*] faults: statement rolled back *)
  st_enospc : int;            (** disk-full episodes entered *)
  st_degraded_writes : int;   (** writes rejected while degraded *)
  st_resumes : int;           (** degraded → healthy via the space probe *)
  st_crashes : int;           (** power cuts (lost unsynced bytes) survived *)
  st_corruptions : int;       (** artifact bytes the harness damaged *)
  st_scrub_findings : int;    (** damage items the scrubber reported *)
  st_repairs : int;           (** WAL rebuilds / truncations performed *)
  st_reseeds : int;           (** feeds re-seeded from the primary *)
  st_checks : int;            (** invariant checkpoints passed *)
}

(** Run one storage-fault stream under [dir] (created if missing;
    [dir/primary] and the feed file are reset).  The simulated disk is
    reset on entry and exit.  @raise Divergence on any violation —
    including a repaired WAL that is not bit-identical to its
    pre-damage bytes. *)
val run_storage : ?config:storage_config -> dir:string -> unit -> storage_report
