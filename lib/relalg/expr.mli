(** Scalar expressions over a resolved schema.

    Column references are positional ({!Col}); the planner's binder
    resolves SQL names to indices.  Boolean evaluation follows SQL
    three-valued logic: predicates evaluate to TRUE, FALSE or NULL, and
    filters keep only TRUE rows ({!holds}). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop =
  | Neg
  | Not

type func =
  | Coalesce
  | Abs
  | Least
  | Greatest
  | Year
  | Month
  | Day
  | Nullif
  | Sign

type t =
  | Const of Value.t
  | Col of int
  | Binop of binop * t * t
  | Unop of unop * t
  | Case of (t * t) list * t option  (** searched CASE: WHEN cond THEN v *)
  | Call of func * t list
  | In_list of t * t list
  | Between of t * t * t             (** [e BETWEEN lo AND hi] *)
  | Is_null of t
  | Is_not_null of t

val func_name : func -> string

(** Resolve a scalar function name (case-insensitive); MOD is a binop,
    not a [func]. *)
val func_of_name : string -> func option

(** {1 Evaluation} *)

(** Evaluate against a row.  @raise Value.Type_error on type errors. *)
val eval : Row.t -> t -> Value.t

(** SQL filter semantics: TRUE passes; FALSE and NULL do not. *)
val holds : Row.t -> t -> bool

(** {1 Compilation}

    Operators compile each expression once per invocation and run the
    closure per row.  A compiled closure agrees with {!eval} exactly:
    the same value (floats bit-identical), the same exception, and the
    operands evaluated in the same order.  It skips an operand, or
    answers a comparison without allocating, only where the skipped
    evaluation cannot raise: constants, columns, comparisons, BETWEEN
    and IS [NOT] NULL over those, and AND/OR/NOT of such predicates.
    Columns are assumed in range for the rows the closure is applied
    to. *)

(** [compile e row] is [eval row e]. *)
val compile : t -> Row.t -> Value.t

(** [compile_pred e row] is [holds row e]. *)
val compile_pred : t -> Row.t -> bool

(** Values over a join's (left, right) pair: [compile_pair ~left_arity e l r]
    is [eval (Row.append l r) e] for a left row of [left_arity] columns,
    without building the concatenated row (a projection above a join). *)
val compile_pair : left_arity:int -> t -> Row.t -> Row.t -> Value.t

(** Join conditions: [compile_pred_pair ~left_arity e l r] is
    [holds (Row.append l r) e] for a left row of [left_arity] columns,
    without building the concatenated row.  With [~left_arity:max_int]
    every column reads the left row, so [f row row] is
    [compile_pred e row] without one indirect call per row. *)
val compile_pred_pair : left_arity:int -> t -> Row.t -> Row.t -> bool

(** {1 Static typing} *)

exception Type_mismatch of string

(** The static type against a schema; [None] means "always NULL".
    @raise Type_mismatch on ill-typed expressions. *)
val infer_type : Schema.t -> t -> Dtype.t option

(** {1 Structural helpers (used by the planner)} *)

(** Renumber all column references. *)
val map_cols : (int -> int) -> t -> t

(** Sorted, deduplicated column indices referenced by the expression. *)
val columns : t -> int list

(** Top-level AND-conjuncts. *)
val conjuncts : t -> t list

(** AND together a conjunct list ([TRUE] when empty). *)
val conjoin : t list -> t

(** The Int ranges [(col, lo, hi)] (inclusive) that every row on which
    the predicate holds lies in, for {!Relation.admits_chunk}: one per
    top-level conjunct [col op k] or [col BETWEEN a AND b] with Int
    constants and op one of [= < <= > >=].  OR, NOT, NULL, Float and
    mixed-type comparisons give none.  Empty when the predicate can
    raise, so that skipping a row never skips its exception. *)
val int_ranges : t -> (int * int * int) list

(** {1 Pretty-printing} *)

val binop_symbol : binop -> string

(** Print with a custom column renderer (e.g. qualified names). *)
val pp_with : col:(int -> string) -> Format.formatter -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : ?col:(int -> string) -> t -> string
