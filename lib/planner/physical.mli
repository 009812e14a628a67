(** Physical planning and execution.

    The physical planner mirrors the logical plan and picks join
    algorithms — the choice the paper's evaluation turns on:
    - equality conjuncts (including computed keys such as the MOD residue
      classes of Figs. 10/13) → hash join;
    - bounds on an indexed column of a base-table side (BETWEEN / <= /
      IN, as in the Fig. 2 self join) → index nested-loop join;
    - anything else (notably disjunctive predicates) → nested loop.

    Joins keep the preserved (left) side as the outer side, so LEFT OUTER
    semantics hold under every algorithm. *)

open Rfview_relalg

exception Plan_error of string

(** Storage access supplied by the engine. *)
type catalog_view = {
  table_contents : string -> Relation.t;
  table_index : table:string -> column:string -> Index.t option;
}

type options = {
  window_strategy : Window.strategy;
  enable_hash_join : bool;
  enable_index_join : bool;
}

val default_options : options

type join_algo =
  | Nested_loop
  | Hash of {
      left_keys : Expr.t list;
      right_keys : Expr.t list;
      residual : Expr.t option;
    }
  | Index_nl of {
      table : string;
      column : string;
      probe : probe;
      residual : Expr.t option;
    }

and probe =
  | P_eq of Expr.t
  | P_in of Expr.t list
  | P_range of Expr.t option * Expr.t option

type t =
  | Scan of { table : string; schema : Schema.t }
  | Filter of { input : t; pred : Expr.t }
  | Project of { input : t; exprs : (Expr.t * string) list }
  | Join of { kind : Joinop.kind; algo : join_algo; left : t; right : t; cond : Expr.t }
  | Aggregate of { input : t; group : Expr.t list; aggs : Groupop.agg_spec list }
  | Window_exec of { input : t; fns : Window.fn list; strategy : Window.strategy }
  | Number of {
      input : t;
      partition : Expr.t list;
      order : Sortop.key list;
      name : string;
    }
  | Sort of { input : t; keys : Sortop.key list }
  | Distinct of t
  | Limit of { input : t; n : int }
  | Union_all of { left : t; right : t }
  | Alias of { input : t; rel : string }

(** Choose the join algorithm for a logical join. *)
val choose_join_algo :
  options -> catalog_view -> left:Logical.t -> right:Logical.t -> Expr.t -> join_algo

(** Lower a logical plan. *)
val plan : ?opts:options -> catalog_view -> Logical.t -> t

(** Execute against the catalog as pipelines of row chunks: streamed
    nodes hand each chunk on, and only the breakers (Aggregate,
    Window, Number, Sort, Limit, a join's build side and the root)
    collect their input.  A Project directly above a Join is computed on the
    join's (left, right) pairs.  Rows reach every breaker in
    operator-at-a-time order, so answers do not depend on the
    chunking.
    @raise Plan_error if an index disappeared since planning. *)
val execute : catalog_view -> t -> Relation.t

(** {1 EXPLAIN ANALYZE} *)

type profile_entry = {
  depth : int;
  label : string;
  rows : int;
  seconds : float;  (** inclusive of children *)
}

(** Execute once, as {!execute} does, with a meter on every node: the
    rows it hands on and its own time, charged while it owns the
    clock.  Entries come in pre-order of the plan; a node's [seconds]
    is the sum of its direct children's plus its own, so inclusive
    minus the children's is its self time, never negative.  A fused
    Project's work is counted in its join. *)
val execute_analyze : catalog_view -> t -> Relation.t * profile_entry list

val render_profile : profile_entry list -> string

val algo_name : join_algo -> string
val pp : ?indent:int -> Format.formatter -> t -> unit
val to_string : t -> string
