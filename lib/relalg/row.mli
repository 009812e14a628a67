(** Rows: value arrays indexed by schema position (immutable by
    convention). *)

type t = Value.t array

val make : Value.t list -> t
val of_array : Value.t array -> t
val get : t -> int -> Value.t
val arity : t -> int
val append : t -> t -> t
val equal : t -> t -> bool

(** Lexicographic order by {!Value.compare}. *)
val compare : t -> t -> int

val hash : t -> int

(** Tables keyed by rows under {!equal}, the key equality of GROUP BY,
    DISTINCT and hash joins: INT and FLOAT of one value are one key,
    0.0 and -0.0 are one key, and NULL is equal to NULL. *)
module Tbl : Hashtbl.S with type key = t

(** [array_init n f] is [Array.init n f], filled from the constant
    [[||]] and then in index order, so a long array of fresh rows never
    forces a minor collection (see the implementation). *)
val array_init : int -> (int -> t) -> t array

(** Project the listed column indices into a fresh row. *)
val project : int array -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
