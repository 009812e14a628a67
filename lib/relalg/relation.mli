(** In-memory relations: a schema plus a row array.  Operators produce
    fresh relations; storage-level tables wrap a mutable row array and
    expose snapshots through this type. *)

type t

val make : Schema.t -> Row.t list -> t
val of_array : Schema.t -> Row.t array -> t

(** [of_rev_list schema rows] holds [rows] in reverse order: the way an
    operator conses up its output.  Long outputs never force a minor
    collection (see {!Row.array_init}). *)
val of_rev_list : Schema.t -> Row.t list -> t
val schema : t -> Schema.t
val rows : t -> Row.t array
val cardinality : t -> int
val is_empty : t -> bool
val to_list : t -> Row.t list
val iter : (Row.t -> unit) -> t -> unit
val map_rows : (Row.t -> Row.t) -> t -> t

(** The values of column [i], in row order. *)
val column_values : t -> int -> Value.t array

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
