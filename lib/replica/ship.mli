(** The primary-side WAL shipper: fans one durable primary's log out to
    per-replica {!Feed}s.

    Shipping is pull-free and synchronous: call {!pump} after commits
    (or on a timer) and every attached feed receives the records it is
    missing, each tagged with its global LSN.  A feed that has fallen
    behind the checkpoint horizon — log compaction discarded records it
    never got — is re-seeded with a checkpoint artifact instead.
    {!resync} forces a fresh checkpoint and ships it, which is how a
    divergent (quarantined) replica is repaired. *)

open Rfview_engine

exception Ship_error of string

type t

(** @raise Ship_error when the database is not durable. *)
val create : Database.t -> t

val primary : t -> Database.t

(** Attached feed names, sorted. *)
val feeds : t -> string list

(** Create feed [path] (truncating any previous file) and seed it with
    the primary's current checkpoint artifact, when one exists.
    @raise Ship_error on a duplicate name. *)
val attach : t -> name:string -> path:string -> unit

(** Reopen an existing feed after a shipper (or primary) restart: chops
    a torn tail, recovers the resume point from the feed's own entries,
    and resumes shipping where the previous writer stopped.
    @raise Ship_error on a duplicate name. *)
val reattach : t -> name:string -> path:string -> unit

(** Highest LSN the named feed holds. *)
val shipped : t -> name:string -> int

(** Ship every unshipped record to every feed; returns the number of
    (record, feed) deliveries.  Each feed is fsynced once per pump.
    @raise Ship_error mid-batch (the tip record is not sealed yet).
    @raise Fault.Injected when a [ship.*] site is armed (the partial
    entry is truncated back off the feed first). *)
val pump : t -> int

(** Checkpoint the primary and ship the artifact (carrying a tip
    fingerprint) to the named feed. *)
val resync : t -> name:string -> unit

val close : t -> unit
