(** The binder: resolves names against the catalog and turns the SQL AST
    into a logical plan.

    Scoping follows SQL's evaluation order: FROM → WHERE → GROUP BY /
    aggregates → HAVING → window functions → SELECT list → DISTINCT →
    ORDER BY → LIMIT.  ORDER BY resolves against the output schema
    (aliases, projected names, ordinals) and falls back to the FROM scope
    by pushing the sort below the final projection. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast

exception Bind_error of string

(** Name resolution hooks supplied by the engine: [resolve_table] answers
    base tables and materialized views (as stored relations);
    [resolve_view] answers plain views (as ASTs to inline). *)
type catalog = {
  resolve_table : string -> Schema.t option;
  resolve_view : string -> Ast.query option;
}

(** Bind a scalar expression against a schema: no aggregates, no window
    functions.  @raise Bind_error on unknown/ambiguous names. *)
val bind_scalar : Schema.t -> Ast.expr -> Expr.t

(** Bind a full query.  [stmt], when given, is the 1-based statement
    index within a script; binder errors are then prefixed with
    ["statement N: "] so lint diagnostics carry the source position
    (statement index + offending column name) rather than only a plan
    path.  @raise Bind_error on any scoping error. *)
val bind_query : ?stmt:int -> catalog -> Ast.query -> Logical.t

(** {2 Exposed for tests} *)

val ast_equal : Ast.expr -> Ast.expr -> bool
val extract_windows : Ast.expr list -> Ast.expr list * Ast.window_fn list

val extract_aggregates :
  Ast.expr list -> Ast.expr list * (Aggregate.kind * Ast.expr) list

val replace_group_refs : Ast.expr list -> Ast.expr list -> Ast.expr list
