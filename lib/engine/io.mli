(** The VFS seam: every byte any on-disk artifact writes — the WAL
    ({!module:Wal}), checkpoints ({!module:Checkpoint}), replication
    feeds — moves through this module, so the storage layer itself is a
    first-class fault surface.

    Failures are typed: a failing operation raises {!Io_error} carrying
    the operation, the path and an {!error_kind} (ENOSPC or EIO), never
    a raw [Unix_error].  Four fault-injection sites cover the write
    path — [io.write], [io.fsync], [io.rename], [io.truncate] — and an
    armed site fires as an {!Io_error} whose kind is chosen with
    {!Sim.set_error_kind}, so the existing [--inject SITE:POLICY]
    grammar drives disk faults deterministically.

    {!Sim} is the simulated-disk backend: a global byte budget (writes
    past it land as short/torn prefixes and fail with ENOSPC), seeded
    bit flips on written buffers, and per-path tracking of the durable
    (fsynced) length so {!Sim.crash} can model a power cut that loses
    every unsynced byte.  All simulation features are inert by default:
    the production cost of the seam is one counter bump per operation. *)

type error_kind =
  | Enospc  (** the device is out of space *)
  | Eio  (** any other I/O failure *)

exception
  Io_error of {
    op : string;  (** "write", "fsync", "rename", "truncate", "open" *)
    path : string;
    kind : error_kind;
    detail : string;
  }

val describe_kind : error_kind -> string

(** {1 File handles} *)

type file

type mode =
  | Create_trunc  (** create/overwrite, write from the start *)
  | Append  (** existing file, append-only *)
  | Write  (** existing file, write at a seeked offset *)

(** @raise Io_error when the file cannot be opened. *)
val openf : string -> mode:mode -> file

val path_of : file -> string

(** Write the whole buffer at the current offset.
    @raise Io_error — on ENOSPC (a real one, or a {!Sim} budget
    exhaustion) a short prefix may have landed first, exactly like a
    torn write on a full disk. *)
val write : file -> string -> unit

(** Positioned write (no budget or flip simulation: this is the
    corruption-injection and repair primitive, it must place exactly
    the bytes asked for). *)
val pwrite : file -> at:int -> string -> unit

(** Durability barrier; marks the file's current length durable for
    {!Sim.crash}. *)
val fsync : file -> unit

val ftruncate : file -> int -> unit
val seek : file -> int -> unit

(** Current size (fstat). *)
val size : file -> int

val close : file -> unit

(** {1 Path operations} *)

(** @raise Io_error ([io.rename]). *)
val rename : string -> string -> unit

(** Best-effort unlink: never raises. *)
val remove : string -> unit

(** Best-effort directory fsync (not every platform allows it). *)
val fsync_dir : string -> unit

(** Atomically install the file at [path]: [fill] writes [path ^ ".tmp"],
    which is then fsynced, closed and renamed over [path], and the
    directory is fsynced so the rename itself is durable.  A crash at
    any point leaves either the old file or the complete new one.  When
    [fill], the fsync or the close fails, the tmp file is removed and
    the exception re-raised; a failed rename leaves it for {!tmp_files}
    to find. *)
val install : string -> (file -> unit) -> unit

(** The regular [*.tmp] files directly in [dir] (full paths, sorted):
    what a crash between writing and renaming an {!install} leaves.
    [[]] when [dir] cannot be read. *)
val tmp_files : string -> string list

val exists : string -> bool

(** 0 when the file does not exist. *)
val file_size : string -> int

(** Whole-file read (no fault injection: the read side detects damage
    by CRC, it does not need synthetic failures to be exercised). *)
val read_file : string -> string

(** {1 The simulated disk} *)

module Sim : sig
  (** [Some n]: at most [n] more bytes of {!write} succeed; a write
      crossing the boundary lands its affordable prefix (a torn write)
      and fails with ENOSPC.  [None] (default): unlimited. *)
  val set_budget : int option -> unit

  val budget : unit -> int option

  (** The kind carried by faults injected at the [io.*] sites
      (default {!Eio}). *)
  val set_error_kind : error_kind -> unit

  (** Flip one seeded-random bit of each written buffer with
      probability [p] — silent media corruption, caught later only by
      CRC verification (the scrubber). *)
  val set_flip : p:float -> seed:int -> unit

  val clear_flip : unit -> unit

  (** Buffers corrupted since the last {!reset}. *)
  val flips : unit -> int

  (** Power cut: truncate every tracked file back to its last durable
      (fsynced) length — unsynced bytes are lost.  Handles held open
      across a crash are the caller's to abandon. *)
  val crash : unit -> unit

  (** Clear budget, flips, counters and durable-length tracking. *)
  val reset : unit -> unit
end
