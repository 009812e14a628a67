(** In-memory relations: a schema plus an immutable sequence of row
    chunks, each of at most {!chunk_size} rows.

    Operators produce fresh relations.  Stored relations (base tables
    and rendered views) also carry a zone per chunk: for each Int
    column, the least and greatest Int value in the chunk.  A filter
    skips every chunk whose zone rules out one of its top-level
    conjuncts ({!filter}), and a single-row edit copies only the chunks
    it changes ({!edit}, {!append_rows}).  No chunk is written once
    built, so relations share chunks freely. *)

type t

(** 256: a chunk array is then a small block, allocated on the minor
    heap. *)
val chunk_size : int

val make : Schema.t -> Row.t list -> t

(** Rows in array order; an array of at most {!chunk_size} rows becomes
    the one chunk as it is, without a copy. *)
val of_array : Schema.t -> Row.t array -> t

(** [of_rev_list schema rows] holds [rows] in reverse order: the way an
    operator conses up its output.  Long outputs never force a minor
    collection (see {!Row.array_init}). *)
val of_rev_list : Schema.t -> Row.t list -> t

(** [init schema n f] holds [f 0 .. f (n-1)], evaluated in that order,
    built in chunks; never forces a minor collection. *)
val init : Schema.t -> int -> (int -> Row.t) -> t

val empty : Schema.t -> t
val schema : t -> Schema.t

(** The rows as one array: the chunk itself when there is one chunk,
    else a fresh copy.  Streaming consumers use {!iter}, {!iteri} or
    {!get} instead. *)
val rows : t -> Row.t array

val cardinality : t -> int
val is_empty : t -> bool
val to_list : t -> Row.t list
val iter : (Row.t -> unit) -> t -> unit

(** [iteri f r] calls [f i row] on every row in order; [i] counts from 0. *)
val iteri : (int -> Row.t -> unit) -> t -> unit

(** The row at position [i], through the chunk offsets.
    @raise Invalid_argument when out of range. *)
val get : t -> int -> Row.t

(** [map schema f r]: [f] on every row in order, under a new schema. *)
val map : Schema.t -> (Row.t -> Row.t) -> t -> t

(** The same rows (and zones) under another schema of equal arity. *)
val with_schema : Schema.t -> t -> t

(** [concat a b]: the rows of [a] then of [b], sharing both relations'
    chunks; [a]'s schema. *)
val concat : t -> t -> t

(** The values of column [i], in row order. *)
val column_values : t -> int -> Value.t array

(** {1 Zones}

    A range [(c, lo, hi)] stands for the conjunct "column [c] is an Int
    in [[lo, hi]]" (empty when [lo > hi]).  A chunk is skipped only when
    its zone proves that no row can satisfy a range: every non-NULL
    value of column [c] in it is an Int and none lies in [[lo, hi]].  A
    chunk without a zone, or whose column [c] holds a non-Int value, is
    never skipped. *)

(** The chunks whose zones admit every range, shared. *)
val prune : (int * int * int) list -> t -> t

(** [filter ranges keep r]: the rows of [r] for which [keep] holds, in
    order, where [keep] may be called only on the rows of chunks that
    {!prune} keeps: the caller guarantees that [keep] is false, and
    raises nothing, on every row outside the ranges.  A chunk whose
    rows all pass is shared, zone included. *)
val filter : (int * int * int) list -> (Row.t -> bool) -> t -> t

(** [r] with a zone on every chunk: the form tables and rendered views
    are stored in. *)
val store : t -> t

(** A stored relation plus [rows] at the end.  Only the tail chunk is
    copied, when it has room; the other chunks are shared. *)
val append_rows : t -> Row.t array -> t

(** [edit r ~admit f] rewrites a stored relation chunk by chunk, in
    order.  [f] sees the rows of each chunk whose zone admits one of
    the range lists in [admit], and returns [None] to keep the chunk or
    [Some rows] to replace it ([[||]] drops it).  Only replaced chunks
    are copied; a replacement that fits into its predecessor together
    with it is merged into it.  [r] itself when nothing is replaced. *)
val edit : t -> admit:(int * int * int) list list -> (Row.t array -> Row.t array option) -> t

(** A chunk of a stored relation: at most {!chunk_size} rows and their
    zone. *)
type chunk

(** [chunk schema rows] zones [rows], which must hold between 1 and
    {!chunk_size} rows. *)
val chunk : Schema.t -> Row.t array -> chunk

val chunk_rows : chunk -> Row.t array

(** The relation made of [chunks], shared, in order. *)
val of_chunks : Schema.t -> chunk array -> t

(** {!of_chunks} when the row offsets are known: [starts.(c)] rows
    precede chunk [c], and the last entry is the cardinality.  Reads
    no chunk, so it costs the array, not a visit to every chunk. *)
val of_chunks_at : Schema.t -> chunk array -> starts:int array -> t

(** Order-insensitive multiset equality: same rows, same multiplicities
    (SQL bag semantics).  The primary comparison in the test suite. *)
val equal_bag : t -> t -> bool

(** Positional row-by-row equality. *)
val equal_ordered : t -> t -> bool

(** A copy sorted by all columns (canonical order for display/tests). *)
val sorted_by_all : t -> t

(** ASCII-table rendering, truncated to [max_rows] (default 40). *)
val render : ?max_rows:int -> t -> string

val print : ?max_rows:int -> t -> unit
