(* Query rewriting.

   [window_to_self_join] implements the paper's relational mapping of
   reporting functions (Fig. 2): simulate each window function with a self
   join on the sequence position plus a grouped aggregation.  The paper's
   mapping presumes a dense position column; we materialize one with the
   Number operator (a per-partition dense row number over the ORDER BY
   keys), which makes the rewrite applicable to any input.

   Shape for a window function agg(arg) OVER (PARTITION BY p ORDER BY o
   ROWS BETWEEN l PRECEDING AND h FOLLOWING) on input I with columns c*:

       Project c*, agg_val
         Aggregate group=[c*, pos] aggs=[agg(s2.arg)]
           Join s1.p = s2.p AND s2.pos BETWEEN s1.pos-l AND s1.pos+h
             Number(I) as s1
             Number(I) as s2

   Restriction (documented): the frame must contain the current row —
   otherwise rows with empty frames would vanish in the inner join.  All
   frames used in the paper (cumulative and (l, h) sliding windows)
   qualify. *)

open Rfview_relalg

exception Not_rewritable of string

let frame_contains_current (f : Window.frame) =
  let lo_ok =
    match f.Window.lo with
    | Window.Unbounded_preceding | Window.Preceding _ | Window.Current_row -> true
    | Window.Following n -> n = 0
    | Window.Unbounded_following -> false
  in
  let hi_ok =
    match f.Window.hi with
    | Window.Unbounded_following | Window.Following _ | Window.Current_row -> true
    | Window.Preceding n -> n = 0
    | Window.Unbounded_preceding -> false
  in
  lo_ok && hi_ok

(* Join predicate on the position columns implementing the frame.
   [s1_pos]/[s2_pos] are column indices in the combined schema. *)
let frame_predicate (f : Window.frame) ~s1_pos ~s2_pos : Expr.t =
  let p1 = Expr.Col s1_pos and p2 = Expr.Col s2_pos in
  let plus e n =
    if n = 0 then e
    else if n > 0 then Expr.Binop (Expr.Add, e, Expr.Const (Value.Int n))
    else Expr.Binop (Expr.Sub, e, Expr.Const (Value.Int (-n)))
  in
  let lo =
    match f.Window.lo with
    | Window.Unbounded_preceding -> None
    | Window.Preceding n -> Some (plus p1 (-n))
    | Window.Current_row -> Some p1
    | Window.Following n -> Some (plus p1 n)
    | Window.Unbounded_following -> None
  in
  let hi =
    match f.Window.hi with
    | Window.Unbounded_following -> None
    | Window.Following n -> Some (plus p1 n)
    | Window.Current_row -> Some p1
    | Window.Preceding n -> Some (plus p1 (-n))
    | Window.Unbounded_preceding -> None
  in
  match lo, hi with
  | Some lo, Some hi -> Expr.Between (p2, lo, hi)
  | Some lo, None -> Expr.Binop (Expr.Ge, p2, lo)
  | None, Some hi -> Expr.Binop (Expr.Le, p2, hi)
  | None, None -> Expr.Const (Value.Bool true)

(* Rewrite one window function over [input]; the result has the schema of
   [input] extended with one column [fn.name] (same contract as the native
   Window operator with a single function). *)
let rewrite_one (input : Logical.t) (fn : Logical.window_fn) : Logical.t =
  let agg_kind =
    match fn.func with
    | Window.Agg k -> k
    | Window.Row_number | Window.Rank | Window.Dense_rank
    | Window.Lag _ | Window.Lead _ | Window.First_value | Window.Last_value ->
      raise
        (Not_rewritable "only framed aggregates have a self-join simulation")
  in
  if fn.frame.Window.mode <> Window.Rows then
    raise (Not_rewritable "RANGE frames have no positional self-join simulation");
  if not (frame_contains_current fn.frame) then
    raise
      (Not_rewritable
         "self-join simulation requires the frame to contain the current row");
  let in_schema = Logical.schema input in
  let arity = Schema.arity in_schema in
  let numbered =
    Logical.Number
      { input; partition = fn.partition; order = fn.order; name = "$pos" }
  in
  (* combined schema: s1 (arity+1 cols) ++ s2 (arity+1 cols) *)
  let s1_pos = arity in
  let s2_pos = (2 * arity) + 1 in
  let partition_eq =
    List.map
      (fun e ->
        let lhs = e (* over s1 = same positions *) in
        let rhs = Expr.map_cols (fun c -> c + arity + 1) e in
        Expr.Binop (Expr.Eq, lhs, rhs))
      fn.partition
  in
  let cond =
    Expr.conjoin (partition_eq @ [ frame_predicate fn.frame ~s1_pos ~s2_pos ])
  in
  let join =
    Logical.Join { kind = Joinop.Inner; left = numbered; right = numbered; cond }
  in
  (* group by all s1 columns plus s1.$pos (unique per partition) *)
  let group = List.init (arity + 1) (fun i -> Expr.Col i) in
  let agg_arg = Expr.map_cols (fun c -> c + arity + 1) fn.arg in
  let agg =
    Logical.Aggregate
      {
        input = join;
        group;
        aggs = [ { Groupop.kind = agg_kind; arg = agg_arg; name = fn.name } ];
      }
  in
  (* drop $pos: keep original columns and the aggregate result *)
  let exprs =
    List.init arity (fun i -> (Expr.Col i, (Schema.col in_schema i).Schema.name))
    @ [ (Expr.Col (arity + 1), fn.name) ]
  in
  Logical.Project { input = agg; exprs }

(* A projection loses qualifiers; keep them by re-aliasing per column is
   not possible in general, so the rewrite is applied before projection
   naming matters (directly on Window_op nodes). *)

(* Replace every Window_op node in the plan by the self-join simulation. *)
let rec rewrite_windows (plan : Logical.t) : Logical.t =
  match plan with
  | Logical.Scan _ -> plan
  | Logical.Filter { input; pred } ->
    Logical.Filter { input = rewrite_windows input; pred }
  | Logical.Project { input; exprs } ->
    Logical.Project { input = rewrite_windows input; exprs }
  | Logical.Join { kind; left; right; cond } ->
    Logical.Join
      { kind; left = rewrite_windows left; right = rewrite_windows right; cond }
  | Logical.Aggregate { input; group; aggs } ->
    Logical.Aggregate { input = rewrite_windows input; group; aggs }
  | Logical.Window_op { input; fns } ->
    let input = rewrite_windows input in
    (* chain the functions; each rewrite preserves prior columns as a
       prefix, so the per-function expressions stay valid and the output
       column order matches the native operator *)
    List.fold_left rewrite_one input fns
  | Logical.Number { input; partition; order; name } ->
    Logical.Number { input = rewrite_windows input; partition; order; name }
  | Logical.Sort { input; keys } ->
    Logical.Sort { input = rewrite_windows input; keys }
  | Logical.Distinct input -> Logical.Distinct (rewrite_windows input)
  | Logical.Limit { input; n } -> Logical.Limit { input = rewrite_windows input; n }
  | Logical.Union_all { left; right } ->
    Logical.Union_all
      { left = rewrite_windows left; right = rewrite_windows right }
  | Logical.Alias { input; rel } ->
    Logical.Alias { input = rewrite_windows input; rel }

(* Translation-validated entry point: the simulation must produce the
   same output schema as the native window operator it replaces. *)
let window_to_self_join (plan : Logical.t) : Logical.t =
  let rewritten = rewrite_windows plan in
  Hooks.validate ~pass:"Rewrite.window_to_self_join" ~before:plan ~after:rewritten;
  rewritten
