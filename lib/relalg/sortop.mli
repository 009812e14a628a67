(** Sorting.  A key is an expression plus direction; NULLs sort first on
    ascending keys (and last on descending), following {!Value.compare}. *)

type key = {
  expr : Expr.t;
  asc : bool;
}

val key : ?asc:bool -> Expr.t -> key

(** The key values of a row array.  A key that is a plain column is
    read from the rows; any other key is compiled once and evaluated at
    most once per row, on first use.  A sort first checks whether its
    input is already ordered, comparing each row with the next, so keys
    are first evaluated in row order; the keys evaluated are still
    exactly those some comparison of the sort reaches. *)
type keyed

val keyed : key list -> Row.t array -> keyed

(** [key_value t k i]: the [k]-th key of row [i]. *)
val key_value : keyed -> int -> int -> Value.t

(** Compare rows [i] and [j] under the keys. *)
val compare_rows : keyed -> int -> int -> int

(** Stable sort of the row indices by the keys.  Input already in key
    order is recognised in n-1 comparisons and not sorted. *)
val sort_indices : key list -> Row.t array -> int array

val sort : key list -> Relation.t -> Relation.t

(** Input order of the window and numbering operators. *)
type partitioned = {
  idx : int array;
      (** row indices grouped by partition key, ordered by the order
          keys inside each partition, stable on input order *)
  order_keys : keyed;
  segments : (int * int) list;  (** each partition's [\[start, stop)] in [idx] *)
}

(** Partition keys that are not plain columns are evaluated for every
    row, in row order, before sorting; order keys on demand, as in
    {!keyed}.  Without partition keys there is one segment. *)
val partition_sort : Expr.t list -> key list -> Row.t array -> partitioned
