(* Algebraic delta-plan derivation (generalized IVM).

   Given the logical plan of a materialized view and the consolidated
   delta of one batch, derive how the view's contents change without
   recomputing the whole query:

   - Select, project, inner join and UNION ALL are (bi)linear in their
     inputs, so their deltas are computed on *signed multisets* of rows
     (sign +1 inserts, -1 deletes).  Because the base tables already
     hold the post-batch state when maintenance runs, the join rule is
     the new-state form

       delta(A |x| B) = dA |x| B_new  +  A_new |x| dB  -  dA |x| dB

     (the cross term is subtracted: it is contained in both flanks).

   - GROUP BY does not commute with deltas, but it *localizes*: only
     groups whose key appears in the child delta can change.  The
     derived rule removes the view rows of those keys and recomputes
     the affected groups from the post-state child restricted to the
     key set — in child scan order, i.e. the exact fold order a full
     refresh would use, so recomputed float aggregates are bit-identical
     to recomputation.

   - Reporting-function (window) nodes localize to their PARTITION BY
     key the same way: affected partitions are re-extended from the
     restricted post-state child (§2.3 dirty-partition machinery, lifted
     from sequences to arbitrary partition-local window sets).

   Everything else (DISTINCT, LIMIT, ORDER BY, row numbering, outer
   joins, non-local grouping) is rejected at derivation time with a
   structured reason; the engine then keeps the full-refresh path.  The
   mirror image of each rule's precondition lives in
   Rfview_analysis.Ivmcert as a machine-checkable certificate; the two
   walks are kept in lockstep by the cert-iff-runtime matrix in
   test/test_ivm.ml. *)

open Rfview_relalg

(* ---- Rejection reasons (surfaced as RF3xx diagnostics) ---- *)

type reject_reason =
  | Nonlinear_op of string   (* DISTINCT/LIMIT/ORDER BY/NUMBER: no delta rule *)
  | Outer_join               (* padding rows break bilinearity *)
  | Group_nonlocal of string (* GROUP BY cannot be localized to a key set *)
  | Window_nonlocal of string (* window fns cannot be localized to partitions *)

type reject = {
  rj_reason : reject_reason;
  rj_node : string; (* operator description, for reporting *)
}

let reject_to_string r =
  let what =
    match r.rj_reason with
    | Nonlinear_op op -> Printf.sprintf "operator %s has no delta rule" op
    | Outer_join -> "outer join padding breaks bilinearity"
    | Group_nonlocal why -> Printf.sprintf "GROUP BY is not localizable: %s" why
    | Window_nonlocal why -> Printf.sprintf "window is not partition-local: %s" why
  in
  Printf.sprintf "%s (at %s)" what r.rj_node

(* ---- The linear fragment ----

   A tree of operators whose delta is computable on signed rows alone.
   Join nodes keep the logical plans of their flanks so the new-state
   rule can evaluate A_new / B_new through the engine. *)

type lin =
  | Lscan of { table : string }
  | Lfilter of { input : lin; pred : Expr.t }
  | Lproject of { input : lin; exprs : Expr.t list }
  | Ljoin of {
      left : lin;
      right : lin;
      cond : Expr.t;
      left_plan : Logical.t;
      right_plan : Logical.t;
    }
  | Lunion of { left : lin; right : lin }

(* Wrappers sitting between the localized node and the view's output:
   row-at-a-time transforms, applied innermost-first. *)
type wrap =
  | Wproject of Expr.t list
  | Wfilter of Expr.t

type shape =
  | Linear of lin
  | Grouped of {
      child : lin;              (* delta source *)
      child_plan : Logical.t;   (* post-state evaluation *)
      group : Expr.t list;      (* key exprs over the child schema *)
      aggs : Groupop.agg_spec list;
      out_keys : Expr.t list;   (* key exprs over the VIEW schema *)
    }
  | Windowed of {
      child : lin;
      child_plan : Logical.t;
      fns : Logical.window_fn list;
      partition : Expr.t list;  (* shared partition exprs, child schema *)
      out_keys : Expr.t list;   (* partition exprs over the VIEW schema *)
    }

type t = {
  shape : shape;
  wraps : wrap list;     (* innermost-first, from node output to view rows *)
  sources : string list; (* referenced base tables, lowercased, deduped *)
}

let sources t = t.sources

let has_window t = match t.shape with Windowed _ -> true | _ -> false

let shape_name t =
  match t.shape with
  | Linear _ -> "linear (select/project/join/union)"
  | Grouped _ -> "group-by regrouping over affected keys"
  | Windowed _ -> "window recompute over affected partitions"

(* ---- Derivation ---- *)

let node_name : Logical.t -> string = function
  | Logical.Scan { table; _ } -> "Scan " ^ table
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Join _ -> "Join"
  | Aggregate _ -> "Aggregate"
  | Window_op _ -> "Window"
  | Number _ -> "Number"
  | Sort _ -> "Sort"
  | Distinct _ -> "Distinct"
  | Limit _ -> "Limit"
  | Union_all _ -> "UnionAll"
  | Alias { rel; _ } -> "Alias " ^ rel

let rej reason node = { rj_reason = reason; rj_node = node_name node }

(* Collect base tables of a linear tree. *)
let rec lin_sources acc = function
  | Lscan { table } -> String.lowercase_ascii table :: acc
  | Lfilter { input; _ } | Lproject { input; _ } -> lin_sources acc input
  | Ljoin { left; right; _ } | Lunion { left; right } ->
    lin_sources (lin_sources acc left) right

(* The linear fragment proper: anything outside it is a reject.  Alias
   nodes only re-qualify column names (positions are untouched), so they
   are transparent for row-level deltas. *)
let rec lin_of (plan : Logical.t) : (lin, reject list) result =
  match plan with
  | Scan { table; _ } -> Ok (Lscan { table })
  | Alias { input; _ } -> lin_of input
  | Filter { input; pred } ->
    Result.map (fun input -> Lfilter { input; pred }) (lin_of input)
  | Project { input; exprs } ->
    Result.map
      (fun input -> Lproject { input; exprs = List.map fst exprs })
      (lin_of input)
  | Join { kind = Joinop.Left_outer; _ } -> Error [ rej Outer_join plan ]
  | Join { kind = Joinop.Inner; left; right; cond } ->
    both
      (fun l r ->
        Ljoin { left = l; right = r; cond; left_plan = left; right_plan = right })
      (lin_of left) (lin_of right)
  | Union_all { left; right } ->
    both (fun l r -> Lunion { left = l; right = r }) (lin_of left) (lin_of right)
  | Aggregate _ ->
    Error [ rej (Group_nonlocal "GROUP BY below a join or union is not on the view's top spine") plan ]
  | Window_op _ ->
    Error [ rej (Window_nonlocal "window below a join or union is not on the view's top spine") plan ]
  | Number _ -> Error [ rej (Nonlinear_op "Number (row numbering)") plan ]
  | Sort _ -> Error [ rej (Nonlinear_op "Sort (ORDER BY)") plan ]
  | Distinct _ -> Error [ rej (Nonlinear_op "Distinct") plan ]
  | Limit _ -> Error [ rej (Nonlinear_op "Limit") plan ]

and both : 'a. (lin -> lin -> 'a) -> (lin, reject list) result ->
    (lin, reject list) result -> ('a, reject list) result =
 fun f l r ->
  match l, r with
  | Ok l, Ok r -> Ok (f l r)
  | Error e, Ok _ | Ok _, Error e -> Error e
  | Error e1, Error e2 -> Error (e1 @ e2)

(* A *local chain*: Filter/Project/Alias over a single Scan.  Localized
   recomputation (affected groups / partitions) re-evaluates the child,
   so the child must be cheap and its row order must be stable under
   DML elsewhere — a single-table chain guarantees both (deletes filter
   the row array, updates rewrite in place, inserts append, so the
   relative order of untouched rows never changes). *)
let rec local_chain = function
  | Logical.Scan _ -> true
  | Filter { input; _ } | Project { input; _ } | Alias { input; _ } ->
    local_chain input
  | _ -> false

(* Peel Filter/Project/Alias wrappers off the top of the plan, returning
   them innermost-first together with the node they sit on. *)
let rec peel wraps (plan : Logical.t) =
  match plan with
  | Filter { input; pred } -> peel (Wfilter pred :: wraps) input
  | Project { input; exprs } ->
    peel (Wproject (List.map fst exprs) :: wraps) input
  | Alias { input; _ } -> peel wraps input
  | node -> (wraps, node)

(* Rebase an expression over a node's output schema onto the view's
   output schema by pushing it through the wrap chain.  Only column
   renaming survives: every projection on the way up must consist of
   bare column references covering the expression's columns.  [None]
   means the key is not recoverable from view rows. *)
let remap_through_wraps (wraps : wrap list) (e : Expr.t) : Expr.t option =
  List.fold_left
    (fun acc w ->
      match acc, w with
      | None, _ -> None
      | Some e, Wfilter _ -> Some e
      | Some e, Wproject exprs ->
        let positions =
          List.mapi (fun i pe -> match pe with Expr.Col c -> Some (c, i) | _ -> None) exprs
        in
        let table = List.filter_map Fun.id positions in
        let ok = ref true in
        let e' =
          Expr.map_cols
            (fun c ->
              match List.assoc_opt c table with
              | Some i -> i
              | None ->
                ok := false;
                c)
            e
        in
        if !ok then Some e' else None)
    (Some e) wraps

let dedup_sources l = List.sort_uniq String.compare l

(* Structural equality of partition expression lists (Expr.t carries no
   functions, so OCaml structural equality is exact). *)
let same_partition (a : Expr.t list) (b : Expr.t list) = a = b

let derive (plan : Logical.t) : (t, reject list) result =
  let wraps, node = peel [] plan in
  let finish shape lin =
    Ok { shape; wraps; sources = dedup_sources (lin_sources [] lin) }
  in
  match node with
  | Logical.Aggregate { input; group; aggs } ->
    let errs = ref [] in
    if group = [] then
      errs := rej (Group_nonlocal "global aggregate has no grouping key to localize on") node :: !errs;
    if not (local_chain input) then
      errs :=
        rej
          (Group_nonlocal
             "the aggregate input is not a single-table select/project chain")
          node
        :: !errs;
    let out_keys =
      List.mapi (fun i _ -> remap_through_wraps wraps (Expr.Col i)) group
    in
    if List.exists Option.is_none out_keys then
      errs :=
        rej (Group_nonlocal "grouping keys are not preserved in the view output")
          node
        :: !errs;
    (match !errs, lin_of input with
     | [], Ok child ->
       finish
         (Grouped
            {
              child;
              child_plan = input;
              group;
              aggs;
              out_keys = List.filter_map Fun.id out_keys;
            })
         child
     | errs, Ok _ -> Error (List.rev errs)
     | errs, Error more -> Error (List.rev errs @ more))
  | Logical.Window_op { input; fns } ->
    let errs = ref [] in
    let partition =
      match fns with
      | [] -> []
      | f :: rest ->
        if f.Logical.partition = [] then
          errs :=
            rej
              (Window_nonlocal
                 "a window without PARTITION BY spans the whole relation")
              node
            :: !errs
        else if
          not (List.for_all (fun g -> same_partition g.Logical.partition f.Logical.partition) rest)
        then
          errs :=
            rej
              (Window_nonlocal
                 "window functions do not share one PARTITION BY key")
              node
            :: !errs;
        f.Logical.partition
    in
    if not (local_chain input) then
      errs :=
        rej
          (Window_nonlocal
             "the window input is not a single-table select/project chain")
          node
        :: !errs;
    (* partition exprs over the child schema stay valid over the window
       output (the window only appends columns), so they remap through
       the wraps directly *)
    let out_keys = List.map (remap_through_wraps wraps) partition in
    if List.exists Option.is_none out_keys then
      errs :=
        rej
          (Window_nonlocal
             "partition keys are not preserved in the view output")
          node
        :: !errs;
    (match !errs, lin_of input with
     | [], Ok child ->
       finish
         (Windowed
            {
              child;
              child_plan = input;
              fns;
              partition;
              out_keys = List.filter_map Fun.id out_keys;
            })
         child
     | errs, Ok _ -> Error (List.rev errs)
     | errs, Error more -> Error (List.rev errs @ more))
  | node -> Result.map (fun lin -> { shape = Linear lin; wraps; sources = dedup_sources (lin_sources [] lin) }) (lin_of node)

(* ---- Evaluation ---- *)

(* The engine supplies post-state evaluation and the batch delta; the
   deriver stays free of engine dependencies. *)
type env = {
  delta_of : string -> (Row.t * int) list;
      (* consolidated signed delta of a base table: inserts +1, deletes
         -1, updates as delete(old)+insert(new) *)
  eval : Logical.t -> Relation.t;
      (* post-state evaluation of a sub-plan through the engine *)
  window_strategy : Window.strategy;
}

type change = {
  ch_removes : Row.t list;  (* exact view rows to remove (first match) *)
  ch_rekeys : (Expr.t list * Row.t list) option;
      (* (key exprs over the view schema, affected key tuples): drop
         every contents row whose key tuple is in the set *)
  ch_adds : Row.t list;     (* rows to append, view schema *)
}

let empty_change = { ch_removes = []; ch_rekeys = None; ch_adds = [] }

(* [exprs] compiled once into a row-to-row function. *)
let compile_row exprs : Row.t -> Row.t =
  let fns = Array.of_list (List.map Expr.compile exprs) in
  fun row -> Array.map (fun f -> f row) fns

(* Delta of a linear tree, as signed rows. *)
let rec lin_delta env = function
  | Lscan { table } -> env.delta_of table
  | Lfilter { input; pred } ->
    let holds = Expr.compile_pred pred in
    List.filter (fun (r, _) -> holds r) (lin_delta env input)
  | Lproject { input; exprs } ->
    let project = compile_row exprs in
    List.map (fun (r, s) -> (project r, s)) (lin_delta env input)
  | Lunion { left; right } -> lin_delta env left @ lin_delta env right
  | Ljoin { left; right; cond; left_plan; right_plan } ->
    let dl = lin_delta env left in
    let dr = lin_delta env right in
    if dl = [] && dr = [] then []
    else begin
      let holds =
        Expr.compile_pred_pair ~left_arity:(Schema.arity (Logical.schema left_plan)) cond
      in
      let pairs (la : (Row.t * int) list) (ra : (Row.t * int) list) sign acc =
        List.fold_left
          (fun acc (lr, ls) ->
            List.fold_left
              (fun acc (rr, rs) ->
                if holds lr rr then (Row.append lr rr, sign * ls * rs) :: acc
                else acc)
              acc ra)
          acc la
      in
      let signed_of rel = List.map (fun r -> (r, 1)) (Relation.to_list rel) in
      (* dA |x| B_new *)
      let acc =
        if dl = [] then []
        else pairs dl (signed_of (env.eval right_plan)) 1 []
      in
      (* A_new |x| dB *)
      let acc =
        if dr = [] then acc
        else pairs (signed_of (env.eval left_plan)) dr 1 acc
      in
      (* - dA |x| dB (counted in both flanks above) *)
      let acc = if dl = [] || dr = [] then acc else pairs dl dr (-1) acc in
      List.rev acc
    end

(* The wrap chain compiled once: runs over one signed row, [None] when a
   filter drops it. *)
let compile_wraps wraps : Row.t -> Row.t option =
  let steps =
    List.map
      (function
        | Wproject exprs ->
          let project = compile_row exprs in
          fun r -> Some (project r)
        | Wfilter pred ->
          let holds = Expr.compile_pred pred in
          fun r -> if holds r then Some r else None)
      wraps
  in
  fun row -> List.fold_left (fun acc step -> Option.bind acc step) (Some row) steps

let mem_key keys k = List.exists (Row.equal k) keys

(* Deduplicated affected-key set of a child delta. *)
let affected_keys key_row delta =
  List.fold_left
    (fun acc (r, _) ->
      let k = key_row r in
      if mem_key acc k then acc else k :: acc)
    [] delta
  |> List.rev

let apply env t : change =
  match t.shape with
  | Linear lin ->
    let delta = lin_delta env lin in
    let wrap_row = compile_wraps t.wraps in
    let adds = ref [] and removes = ref [] in
    List.iter
      (fun (row, s) ->
        match wrap_row row with
        | None -> ()
        | Some out ->
          if s > 0 then adds := out :: !adds else removes := out :: !removes)
      delta;
    { ch_adds = List.rev !adds; ch_removes = List.rev !removes; ch_rekeys = None }
  | Grouped { child; child_plan; group; aggs; out_keys } ->
    let delta = lin_delta env child in
    if delta = [] then empty_change
    else begin
      let key_row = compile_row group in
      let keys = affected_keys key_row delta in
      let rel = env.eval child_plan in
      let restricted =
        Array.of_list
          (List.filter (fun r -> mem_key keys (key_row r)) (Relation.to_list rel))
      in
      let grouped =
        Groupop.group_by ~group ~aggs
          (Relation.of_array (Relation.schema rel) restricted)
      in
      let adds =
        List.filter_map (compile_wraps t.wraps) (Relation.to_list grouped)
      in
      { ch_adds = adds; ch_removes = []; ch_rekeys = Some (out_keys, keys) }
    end
  | Windowed { child; child_plan; fns; partition; out_keys } ->
    let delta = lin_delta env child in
    if delta = [] then empty_change
    else begin
      let key_row = compile_row partition in
      let keys = affected_keys key_row delta in
      let rel = env.eval child_plan in
      let restricted =
        Array.of_list
          (List.filter (fun r -> mem_key keys (key_row r)) (Relation.to_list rel))
      in
      let extended =
        Window.extend ~strategy:env.window_strategy
          (Relation.of_array (Relation.schema rel) restricted)
          (List.map Logical.to_relalg_fn fns)
      in
      let adds =
        List.filter_map (compile_wraps t.wraps) (Relation.to_list extended)
      in
      { ch_adds = adds; ch_removes = []; ch_rekeys = Some (out_keys, keys) }
    end

(* ---- Splicing a change into view contents ---- *)

(* The incremental result drifted from reality: an exact row the delta
   says must leave the view is not present.  The engine catches this and
   falls back to a full refresh. *)
exception Divergence of string

let splice (contents : Relation.t) (ch : change) : Relation.t =
  let rows = ref (Relation.to_list contents) in
  (* exact removals, first match *)
  List.iter
    (fun victim ->
      let rec go acc = function
        | [] ->
          raise
            (Divergence
               (Printf.sprintf "derived delta removes a row not in the view: %s"
                  (Row.to_string victim)))
        | r :: rest when Row.equal r victim -> List.rev_append acc rest
        | r :: rest -> go (r :: acc) rest
      in
      rows := go [] !rows)
    ch.ch_removes;
  (* keyed removals *)
  (match ch.ch_rekeys with
   | None -> ()
   | Some (key_exprs, keys) ->
     let key_row = compile_row key_exprs in
     rows := List.filter (fun r -> not (mem_key keys (key_row r))) !rows);
  Relation.make (Relation.schema contents) (!rows @ ch.ch_adds)
