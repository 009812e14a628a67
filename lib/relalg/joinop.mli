(** Join algorithms.

    All joins emit the concatenated schema (left columns first); the
    condition is an expression over the concatenated schema.  The
    preserved side of a LEFT OUTER join is always the left (outer) side.

    The three strategies are exactly the plan alternatives the paper's
    evaluation contrasts: nested loop (any predicate, O(|L|·|R|)), hash
    join (equality conjuncts, including computed keys such as MOD residue
    classes), and index nested-loop join (bounds on an indexed inner
    column, the "self join with index" of Table 1). *)

type kind =
  | Inner
  | Left_outer

(** How an index join derives the inner key from each outer row. *)
type probe =
  | Probe_eq of Expr.t                            (** inner.key = f(outer) *)
  | Probe_range of Expr.t option * Expr.t option  (** f(outer) <= key <= g(outer) *)
  | Probe_in of Expr.t list                       (** key IN (f(outer), ...) *)

(** How a join finds a left row's candidate right rows. *)
type access =
  | Every  (** every right row: nested loop *)
  | Keys of Expr.t list * Expr.t list
      (** the right rows whose right keys equal the left row's left keys
          pairwise: hash join.  NULL keys never match. *)
  | Index of Index.t * probe  (** an index on a right column *)

(** The probe side of a join, one left row at a time.
    [prober kind access ~left_arity ~right ~residual ~out emit] builds
    the join's table over [right] (for {!Keys}) and returns a function
    that, given a left row [l] of [left_arity] columns, hands [out l r]
    to [emit] for each candidate right row [r] (in build order) on
    which [residual], an expression over the concatenated schema,
    holds; and [out l nulls] for an unmatched [l] of a LEFT OUTER
    join.  [out] is {!Row.append} for the concatenated row, or a
    projection compiled on the pair ({!Expr.compile_pair}).
    @raise Invalid_argument on empty or mismatched {!Keys} lists. *)
val prober :
  kind ->
  access ->
  left_arity:int ->
  right:Relation.t ->
  residual:Expr.t option ->
  out:(Row.t -> Row.t -> Row.t) ->
  (Row.t -> unit) ->
  Row.t ->
  unit

(** Nested-loop join under an arbitrary predicate. *)
val nested_loop : kind -> Relation.t -> Relation.t -> Expr.t -> Relation.t

(** Hash join on pairwise key equality, with an optional residual
    predicate over the combined row.  NULL keys never match.
    @raise Invalid_argument on empty or mismatched key lists. *)
val hash_join :
  kind ->
  left:Relation.t ->
  right:Relation.t ->
  left_keys:Expr.t list ->
  right_keys:Expr.t list ->
  ?residual:Expr.t ->
  unit ->
  Relation.t


(** Index nested-loop join: for each left (outer) row, look matching
    inner rows up in [index] (built on an inner column).  [Probe_in]
    deduplicates colliding item values, so no double counting occurs. *)
val index_join :
  kind ->
  left:Relation.t ->
  right:Relation.t ->
  index:Index.t ->
  probe:probe ->
  ?residual:Expr.t ->
  unit ->
  Relation.t
