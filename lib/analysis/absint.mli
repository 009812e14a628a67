(** Bottom-up abstract interpretation of logical plans over the
    {!Domain} product domain: per output column a numeric interval, a
    nullability fact and a distinct-count range, per relation a
    row-count range.

    The analysis is a sound over-approximation of
    {!Rfview_planner.Physical.execute}: every concrete intermediate
    relation lies inside the abstract state of its node (the property
    the differential sanitizer {!Sanitize} enforces during tests).

    On top of the transfer functions the walk emits the RF2xx
    diagnostics: statically-empty/contradictory predicates ({b RF201}),
    guaranteed division by zero ({b RF202}), NULL-poisoned
    aggregate/window arguments ({b RF203}) and cumulative-SUM
    overflow/precision risk ({b RF204}). *)

module Logical := Rfview_planner.Logical

(** Table contents for [Scan] nodes; [None] means unknown (the scan is
    abstracted by its schema only: all columns top). *)
type env = string -> Rfview_relalg.Relation.t option

(** The abstraction of the plan's output relation. *)
val analyze : ?env:env -> Logical.t -> Domain.rel_abs

(** Per-node abstract states in pre-order (root first), each with its
    root-first plan path (["Project/Filter/Scan(t)"]), plus the RF2xx
    diagnostics of the whole plan. *)
val annotate :
  ?env:env -> Logical.t -> (string * Domain.rel_abs) list * Diagnostic.t list

(** Just the RF2xx diagnostics. *)
val diagnostics : ?env:env -> Logical.t -> Diagnostic.t list

(** Human-readable summary of the root abstraction: one line per output
    column (name, type, interval, nullability, distinct range) plus the
    row range. *)
val report : ?env:env -> Logical.t -> string
