(** The concurrent session server: one writer, many snapshot readers.

    [start] binds a loopback TCP socket and serves the line/JSON
    protocol of {!Wire} over one {!Rfview.Session}: every read runs
    against an MVCC snapshot on a {!Pool} worker domain, every write is
    serialized through one writer mutex.  A connection occupies its
    worker for its lifetime, so the pool size bounds concurrent
    connections.

    {2 Protocol}

    One request line in, one JSON object line out:

    {v
    ping                 {"ok":true,"pong":true}
    open [LSN]           pin a snapshot (at LSN, default tip) for this
                         connection → {"ok":true,"lsn":N}
    query SQL            evaluate against the pinned snapshot, or a
                         fresh tip snapshot when none is pinned
                         → {"ok":true,"lsn":N,"rows":R,"data":"..."}
    exec SQL             execute one statement (writer-serialized)
    batch N              read the next N lines as statements, execute
                         them in one batch scope (one group commit);
                         N above {!max_batch} is refused before any
                         line is read
    status               {"ok":true,"lsn":N,"retained":[...],
                          "snapshots":K,"domains":D}
    close                release the pinned snapshot
    quit                 end this connection
    shutdown             stop the whole server
    v} *)

type t

(** Serve [session] on loopback [port] ([0] picks an ephemeral port —
    read it back with {!port}) with [domains] reader domains
    (default 4). *)
val start : ?domains:int -> session:Rfview.Session.t -> port:int -> unit -> t

val port : t -> int

(** The largest statement count a [batch N] request may announce. *)
val max_batch : int

(** The longest request or batch-payload line, in bytes (1 MiB).  A
    longer line draws [{"ok":false,...}] and ends that connection; the
    server keeps serving the others. *)
val max_line : int

(** Block until the server stops (a client sent [shutdown], or {!stop}
    was called), then drain and join every domain.  Idempotent with
    {!stop}. *)
val wait : t -> unit

(** Request shutdown and {!wait}. *)
val stop : t -> unit

(** The response line (without its newline) to a [query] that answered
    [rel] at snapshot [lsn]: [{"ok":true,"lsn":N,"rows":R,"data":"..."}],
    where [data] is [Relation.render ~max_rows:max_int rel]. *)
val query_response : Rfview_relalg.Relation.t -> lsn:int -> string

(** The largest answer a connection's buffer holds (1 MiB). *)
val answer_cap : int

(** A connection's reused answer buffer: it grows geometrically up to
    {!answer_cap} and is written over by each answer. *)
type answer_buffer

val answer_buffer : unit -> answer_buffer

(** [query_line buf rel ~lsn] writes the {!query_response} line and its
    newline into [buf] and returns the bytes and the line's length,
    newline included: what the server sends for a [query].  An answer
    above {!answer_cap} is written into fresh bytes and [buf] is left
    as it was.  The bytes are valid until the next call on [buf]. *)
val query_line :
  answer_buffer -> Rfview_relalg.Relation.t -> lsn:int -> Bytes.t * int

(** {1 Client}

    A minimal blocking client for the protocol — what [rfview call]
    and the smoke tests use. *)

module Client : sig
  type conn

  val connect : port:int -> conn

  (** One round-trip: send the request line, read the response line. *)
  val request : conn -> string -> string

  val disconnect : conn -> unit
end
