(** Secondary indexes over a relation's rows, by row position.

    Two flavours, mirroring the paper's Table 1 setup (self join with and
    without an index on the sequence position):
    - {!Hash}: equality lookups, O(1) expected;
    - {!Ordered}: a sorted (key, row-id) array answering point and range
      lookups by binary search — the stand-in for a B-tree.

    NULL keys are not indexed: SQL equality and range predicates never
    match NULL. *)

type kind =
  | Hash
  | Ordered

type t

val kind_name : kind -> string

(** Build an index over the rows of a relation, keyed by column
    [key_col]; a row id is a position for {!Relation.get}. *)
val build : kind -> Relation.t -> key_col:int -> t

(** Row ids whose key equals the value ([] for NULL). *)
val lookup_eq : t -> Value.t -> int list

(** [iter_range t ?lo ?hi f] calls [f] on each row id with key in
    [[lo, hi]] (inclusive; either bound optional), in key order.
    @raise Invalid_argument on hash indexes. *)
val iter_range : t -> ?lo:Value.t -> ?hi:Value.t -> (int -> unit) -> unit

val supports_range : t -> bool
