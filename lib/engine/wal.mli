(** The write-ahead log: an append-only file of logical statement
    records, each framed with its length and CRC32 so a torn tail is
    detected and truncated rather than replayed.

    Records are {e logical}: DML deltas carry the exact rows (binary
    value encoding — no text round-trip), DDL and REFRESH carry their
    SQL text, and bulk/CSV batches carry the loaded rows.  Every log
    starts with a {!Begin} record naming its epoch; a checkpoint bumps
    the epoch and replaces the log, so recovery can tell a fresh log
    from a stale one left by a crash between the two steps.

    All bytes move through the {!module:Io} seam, so the storage-level
    [io.*] fault sites and the simulated disk ({!Io.Sim}) apply to every
    WAL write.  Logical fault-injection sites: [wal.append] (before a
    record's bytes are written) and [wal.fsync] (before the durability
    barrier). *)

open Rfview_relalg

exception Wal_error of string

(** A failed {!truncate_back}: the log could not be chopped back to
    [target] bytes.  Typed (instead of a leaked [Unix_error]) because
    the caller must decide between degraded mode and quarantine. *)
exception Truncate_error of { path : string; target : int; detail : string }

(** CRC32 (IEEE 802.3, the zlib polynomial) of a string. *)
val crc32 : string -> int32

(** {1 Records} *)

type record =
  | Begin of int  (** epoch header: the first record of every log *)
  | Statement of string  (** SQL text of a committed DDL/REFRESH statement *)
  | Insert of { table : string; rows : Row.t array }
  | Delete of { table : string; rows : Row.t array }
  | Update of { table : string; pairs : (Row.t * Row.t) array }
      (** (old, new) row pairs *)
  | Load of { table : string; rows : Row.t array }
      (** bulk/CSV batch load (full-refresh maintenance on replay) *)
  | Batch of record list
      (** group commit: the records of one batch scope, framed as a
          single record so the whole batch shares one fsync and recovery
          replays it atomically through the delta path *)

(** One line for reports and error messages. *)
val describe : record -> string

(** The on-disk bytes of one record: [length ∥ crc32 ∥ payload].
    Exposed so the chaos harness can simulate torn writes by appending
    a strict prefix. *)
val frame : record -> string

(** A record's payload bytes without the frame — the replication feed
    carries record payloads inside its own framed entries. *)
val payload_of_record : record -> string

(** Invert {!payload_of_record}.  @raise Codec.Decode when malformed. *)
val record_of_payload : string -> record

(** {1 Writing} *)

type writer

(** Atomically install a fresh log containing only [Begin epoch]
    ({!Io.install}) and return an append handle to it. *)
val create : string -> epoch:int -> writer

(** Open an existing log for appending. *)
val open_append : string -> writer

(** Byte offset of the log's end — capture before {!append} so a failed
    commit can {!truncate_back} the record back off. *)
val position : writer -> int

(** Append one framed record ({e not} synced).
    @raise Fault.Injected when [wal.append] is armed.
    @raise Io.Io_error when the disk (or an [io.*] site) fails. *)
val append : writer -> record -> unit

(** Durability barrier (fsync).
    @raise Fault.Injected when [wal.fsync] is armed.
    @raise Io.Io_error when the disk (or an [io.*] site) fails. *)
val sync : writer -> unit

(** Chop the log back to [pos] (a failed commit must not leave its
    record behind for recovery to replay).
    @raise Truncate_error when the truncate itself fails. *)
val truncate_back : writer -> int -> unit

val close : writer -> unit

(** {1 Reading} *)

type scan = {
  epoch : int;  (** from the leading {!Begin} record *)
  records : record list;  (** valid records after {!Begin}, in order *)
  torn : bool;  (** a torn or corrupt tail was found (and not included) *)
  valid_bytes : int;  (** file prefix ending at the last valid record *)
}

(** Read a log, stopping at the first missing/short/CRC-mismatched
    record: everything before it is returned, everything from it on is
    a torn tail.  @raise Wal_error when the file is missing or its
    [Begin] record is unreadable. *)
val scan : string -> scan

(** Truncate the file to [valid_bytes], discarding a torn tail. *)
val truncate : string -> int -> unit

(** {1 Detailed scanning}

    Used by [rfview wal-info] and the replication shipper.  Unlike
    {!scan}, the walk continues past CRC-mismatched records (their
    length field still frames them) and reports every frame with its
    byte span and status. *)

type entry = {
  e_index : int;  (** 1-based position in the file *)
  e_offset : int;  (** byte offset of the frame (its length field) *)
  e_bytes : int;  (** total frame size: 8-byte header + payload *)
  e_crc_ok : bool;
  e_record : record option;
      (** the decoded record; [None] when the CRC mismatched or the
          payload does not decode *)
}

type detail = {
  d_entries : entry list;
  d_torn : int option;  (** byte offset of a torn tail, when present *)
  d_size : int;  (** file size in bytes *)
}

(** @raise Wal_error when the file is missing. *)
val scan_detail : string -> detail

(** {1 Value codec}

    Shared with {!module:Checkpoint} and the replication feed. *)

module Codec : sig
  exception Decode of string

  val put_bool : Buffer.t -> bool -> unit
  val put_int : Buffer.t -> int -> unit
  val put_string : Buffer.t -> string -> unit
  val put_value : Buffer.t -> Value.t -> unit
  val put_row : Buffer.t -> Row.t -> unit
  val put_schema : Buffer.t -> Schema.t -> unit
  val put_relation : Buffer.t -> Relation.t -> unit

  type reader

  val reader : string -> reader
  val at_end : reader -> bool

  (** @raise Decode on truncation or a malformed tag. *)

  val get_char : reader -> char
  val get_bool : reader -> bool
  val get_int : reader -> int

  (** A count of items that each take at least one byte ([what] names
      it in the error): rejected when negative or larger than the bytes
      left, before anything is allocated for it. *)
  val get_count : reader -> string -> int

  val get_string : reader -> string

  (** [n] raw bytes, no length prefix. *)
  val get_raw : reader -> int -> string
  val get_value : reader -> Value.t
  val get_row : reader -> Row.t
  val get_schema : reader -> Schema.t
  val get_relation : reader -> Relation.t
end

(** {1 Frames}

    Every durable artifact — the log, the checkpoint and the
    replication feed — is a sequence of frames [length ∥ crc32 ∥
    payload] (both u32 LE, a payload of at most 1 GiB).  This module is
    the only one that reads or writes a frame header. *)

(** Frame an arbitrary payload. *)
val frame_payload : string -> string

(** One complete frame found by {!frames}. *)
type frame = {
  f_offset : int;  (** byte offset of the frame (its length field) *)
  f_payload : string;
  f_crc_ok : bool;  (** the stored CRC matches the payload *)
}

(** The frames of [data] from byte [from] (default 0) on, in order.  A
    frame whose CRC mismatches is still framed by its length field, so
    the walk goes on past it.  The walk stops at a short tail — fewer
    than 8 header bytes, a length over the bound, or a payload running
    past the end — and returns its offset; [None] when the frames end
    exactly at the end of [data]. *)
val frames : ?from:int -> string -> frame list * int option
