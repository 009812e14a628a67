(** Grouped aggregation — the classic GROUP BY, the "first step" of
    reporting-function evaluation in the paper's processing strategy.

    Output schema: one column per group expression followed by one per
    aggregate.  Global aggregation (no group expressions) over an empty
    input still yields one row, per SQL. *)

type agg_spec = {
  kind : Aggregate.kind;
  arg : Expr.t;
  name : string;
}

(** COUNT over a constant: counts rows, i.e. COUNT star. *)
val star_count : string -> agg_spec

val output_schema : Schema.t -> Expr.t list -> agg_spec list -> Schema.t

(** {1 Streaming}

    A group table takes rows one at a time, in any number of chunks,
    and then yields one row per group in order of first appearance.
    Groups are keyed by SQL equality ({!Row.Tbl}): INT 1 and FLOAT 1.0
    are one group, so are 0.0 and -0.0, and NULL groups with NULL. *)

type table

val table : group:Expr.t list -> aggs:agg_spec list -> table
val add : table -> Row.t -> unit

(** The output rows (group key, then aggregates), one per group in
    order of first appearance; for a global aggregation over no rows,
    the one row of empty aggregates.  Call once, after the last
    {!add}. *)
val iter_results : table -> (Row.t -> unit) -> unit

(** {!table}, {!add} on every row, {!iter_results}. *)
val group_by : ?group:Expr.t list -> aggs:agg_spec list -> Relation.t -> Relation.t
