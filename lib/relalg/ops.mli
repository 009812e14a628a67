(** Basic relational operators. *)

(** Keep rows for which the predicate is TRUE (SQL filter semantics). *)
val filter : Expr.t -> Relation.t -> Relation.t

(** The schema of a projection: one column per (expression, name),
    typed by inference against the input schema.
    @raise Value.Type_error on an ill-typed expression. *)
val project_schema : Schema.t -> (Expr.t * string) list -> Schema.t

(** [projector ~left_arity exprs l r]: the projected row of a join's
    (left, right) pair, the expressions evaluated in order over the
    concatenated schema ({!Expr.compile_pair}), without building the
    concatenated row.  With [~left_arity:max_int], [f row row]
    projects one row. *)
val projector : left_arity:int -> (Expr.t * string) list -> Row.t -> Row.t -> Row.t

(** Project to (expression, output name) pairs; output types inferred
    from the input schema. *)
val project : (Expr.t * string) list -> Relation.t -> Relation.t

(** A fresh first-occurrence test: true the first time a row is met,
    under SQL equality ({!Row.Tbl}: INT 1 meets FLOAT 1.0, 0.0 meets
    -0.0, NULL meets NULL). *)
val first_seen : unit -> Row.t -> bool

(** Duplicate elimination under SQL equality, preserving
    first-occurrence order. *)
val distinct : Relation.t -> Relation.t

val limit : int -> Relation.t -> Relation.t

(** The schema of a UNION ALL of the two: the left one.
    @raise Value.Type_error unless the arities are equal. *)
val union_schema : Schema.t -> Schema.t -> Schema.t

(** Bag union; schemas must have equal arity (left names win).
    @raise Value.Type_error on arity mismatch. *)
val union_all : Relation.t -> Relation.t -> Relation.t

(** Set union: {!union_all} followed by {!distinct}. *)
val union : Relation.t -> Relation.t -> Relation.t
