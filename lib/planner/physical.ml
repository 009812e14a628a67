(* Physical planning and execution.

   The physical planner mirrors the logical plan and picks join
   algorithms — the choice the paper's evaluation turns on:

   - equality conjuncts (including computed keys such as the MOD residue
     classes of Figs. 10/13)      → hash join;
   - bounds on an indexed column of a base-table side (BETWEEN / <= / IN,
     as in the Fig. 2 self join)  → index nested-loop join;
   - anything else (notably the disjunctive predicates of the derivation
     patterns)                    → nested-loop join.

   Joins keep the preserved (left) side as the outer side, so LEFT OUTER
   semantics are respected by every algorithm. *)

open Rfview_relalg

exception Plan_error of string

let plan_error fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

type catalog_view = {
  table_contents : string -> Relation.t;
  table_index : table:string -> column:string -> Index.t option;
}

type options = {
  window_strategy : Window.strategy;
  enable_hash_join : bool;
  enable_index_join : bool;
}

let default_options =
  { window_strategy = Window.Incremental; enable_hash_join = true; enable_index_join = true }

type join_algo =
  | Nested_loop
  | Hash of {
      left_keys : Expr.t list;   (* over left schema *)
      right_keys : Expr.t list;  (* over right schema *)
      residual : Expr.t option;  (* over combined schema *)
    }
  | Index_nl of {
      table : string;
      column : string;
      probe : probe;
      residual : Expr.t option;  (* over combined schema *)
    }

and probe =
  | P_eq of Expr.t               (* over left schema *)
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

(* ---- Join analysis ---- *)

(* Does the expression only reference columns below [bound]? *)
let only_left ~bound e = List.for_all (fun c -> c < bound) (Expr.columns e)
let only_right ~bound e = List.for_all (fun c -> c >= bound) (Expr.columns e)

(* Shift column indices by [-bound] (combined schema -> right schema). *)
let to_right ~bound e = Expr.map_cols (fun c -> c - bound) e

(* The base-table Scan under Alias wrappers, if any. *)
let rec scan_of_plan (l : Logical.t) =
  match l with
  | Logical.Scan { table; schema } -> Some (table, schema)
  | Logical.Alias { input; _ } -> scan_of_plan input
  | _ -> None

type classified = {
  mutable eq_pairs : (Expr.t * Expr.t) list; (* left key, right key (right schema) *)
  mutable probes : (int * probe * bool) list;
  (* right column (right schema), probe, fully-covered-by-probe *)
  mutable residual : Expr.t list;
}

let classify_conjuncts ~bound conjuncts =
  let c = { eq_pairs = []; probes = []; residual = [] } in
  List.iter
    (fun conj ->
      let covered = ref false in
      (match conj with
       | Expr.Binop (Expr.Eq, a, b) when only_left ~bound a && only_right ~bound b ->
         c.eq_pairs <- (a, to_right ~bound b) :: c.eq_pairs;
         (match to_right ~bound b with
          | Expr.Col rc ->
            c.probes <- (rc, P_eq a, true) :: c.probes;
            covered := true
          | _ -> covered := true (* hash join covers it *))
       | Expr.Binop (Expr.Eq, b, a) when only_left ~bound a && only_right ~bound b ->
         c.eq_pairs <- (a, to_right ~bound b) :: c.eq_pairs;
         (match to_right ~bound b with
          | Expr.Col rc ->
            c.probes <- (rc, P_eq a, true) :: c.probes;
            covered := true
          | _ -> covered := true)
       | Expr.Between (b, lo, hi)
         when only_right ~bound b && only_left ~bound lo && only_left ~bound hi ->
         (match to_right ~bound b with
          | Expr.Col rc ->
            c.probes <- (rc, P_range (Some lo, Some hi), true) :: c.probes;
            covered := true
          | _ -> ())
       | Expr.In_list (b, items) when only_right ~bound b && List.for_all (only_left ~bound) items ->
         (match to_right ~bound b with
          | Expr.Col rc ->
            c.probes <- (rc, P_in items, true) :: c.probes;
            covered := true
          | _ -> ())
       | Expr.Binop ((Expr.Le | Expr.Lt | Expr.Ge | Expr.Gt) as op, x, y) ->
         (* normalize to bounds on a right column *)
         let bound_probe rc ~is_lower e ~strict =
           (* strict bounds keep the original conjunct as residual *)
           let probe =
             if is_lower then P_range (Some e, None) else P_range (None, Some e)
           in
           c.probes <- (rc, probe, not strict) :: c.probes;
           covered := not strict
         in
         (match x, y with
          | b, e when only_right ~bound b && only_left ~bound e ->
            (match to_right ~bound b with
             | Expr.Col rc ->
               (match op with
                | Expr.Ge -> bound_probe rc ~is_lower:true e ~strict:false
                | Expr.Gt -> bound_probe rc ~is_lower:true e ~strict:true
                | Expr.Le -> bound_probe rc ~is_lower:false e ~strict:false
                | Expr.Lt -> bound_probe rc ~is_lower:false e ~strict:true
                | _ -> ())
             | _ -> ())
          | e, b when only_left ~bound e && only_right ~bound b ->
            (match to_right ~bound b with
             | Expr.Col rc ->
               (* e <= b  ==  b >= e *)
               (match op with
                | Expr.Le -> bound_probe rc ~is_lower:true e ~strict:false
                | Expr.Lt -> bound_probe rc ~is_lower:true e ~strict:true
                | Expr.Ge -> bound_probe rc ~is_lower:false e ~strict:false
                | Expr.Gt -> bound_probe rc ~is_lower:false e ~strict:true
                | _ -> ())
             | _ -> ())
          | _ -> ())
       | _ -> ());
      if not !covered then c.residual <- conj :: c.residual)
    conjuncts;
  c

(* Merge single-sided range probes on the same column. *)
let merge_probes probes =
  let by_col = Hashtbl.create 8 in
  List.iter
    (fun (col, probe, _) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_col col) in
      Hashtbl.replace by_col col (probe :: existing))
    probes;
  Hashtbl.fold
    (fun col probes acc ->
      (* prefer equality, then IN, then a merged range *)
      let eq = List.find_opt (function P_eq _ -> true | _ -> false) probes in
      let inp = List.find_opt (function P_in _ -> true | _ -> false) probes in
      match eq, inp with
      | Some p, _ -> (col, p) :: acc
      | None, Some p -> (col, p) :: acc
      | None, None ->
        let lo =
          List.find_map (function P_range (Some e, _) -> Some e | _ -> None) probes
        in
        let hi =
          List.find_map (function P_range (_, Some e) -> Some e | _ -> None) probes
        in
        if lo = None && hi = None then acc else (col, P_range (lo, hi)) :: acc)
    by_col []

let choose_join_algo (opts : options) (cat : catalog_view) ~(left : Logical.t)
    ~(right : Logical.t) (cond : Expr.t) : join_algo =
  let bound = Schema.arity (Logical.schema left) in
  match cond with
  | Expr.Binop (Expr.Or, _, _) -> Nested_loop (* disjunctive predicate *)
  | _ ->
    let conjuncts = Expr.conjuncts cond in
    if List.exists (function Expr.Binop (Expr.Or, _, _) -> true | _ -> false) conjuncts
       && not (List.exists (function Expr.Binop (Expr.Eq, _, _) -> true | _ -> false) conjuncts)
    then Nested_loop
    else begin
      let c = classify_conjuncts ~bound conjuncts in
      (* index join on the base table under the right side *)
      let index_candidate =
        if not opts.enable_index_join then None
        else
          match scan_of_plan right with
          | None -> None
          | Some (table, scan_schema) ->
            let right_schema = Logical.schema right in
            merge_probes c.probes
            |> List.find_map (fun (col, probe) ->
                   (* map right-plan column position to the scan column name;
                      Alias keeps positions, so the index lines up *)
                   if col < Schema.arity right_schema then begin
                     let column = (Schema.col scan_schema col).Schema.name in
                     match cat.table_index ~table ~column with
                     | Some idx ->
                       let usable =
                         match probe, idx with
                         | (P_range _ | P_in _ | P_eq _), _ when Index.supports_range idx -> true
                         | (P_eq _ | P_in _), _ -> true
                         | P_range _, _ -> false
                       in
                       if usable then Some (table, column, probe) else None
                     | None -> None
                   end
                   else None)
      in
      let residual_of exclude_probe =
        (* conjuncts not covered by the chosen access path *)
        let covered_by_probe conj =
          match exclude_probe with
          | None -> false
          | Some (_, _, probe) ->
            (match conj, probe with
             | Expr.Between (b, lo, hi), P_range (Some lo', Some hi') ->
               (match to_right ~bound b with
                | Expr.Col _ -> lo = lo' && hi = hi' && only_right ~bound b
                | _ -> false)
             | Expr.In_list (b, items), P_in items' ->
               only_right ~bound b && items = items'
             | Expr.Binop (Expr.Eq, a, b), P_eq e ->
               (only_left ~bound a && a = e && only_right ~bound b)
               || (only_left ~bound b && b = e && only_right ~bound a)
             | Expr.Binop (Expr.Le, b, e), P_range (_, Some e')
               when only_right ~bound b -> e = e'
             | Expr.Binop (Expr.Ge, b, e), P_range (Some e', _)
               when only_right ~bound b -> e = e'
             | Expr.Binop (Expr.Le, e, b), P_range (Some e', _)
               when only_right ~bound b -> e = e'
             | Expr.Binop (Expr.Ge, e, b), P_range (_, Some e')
               when only_right ~bound b -> e = e'
             | _ -> false)
        in
        List.filter (fun conj -> not (covered_by_probe conj)) conjuncts
      in
      match index_candidate with
      | Some (table, column, probe) ->
        let rest = residual_of (Some (table, column, probe)) in
        let residual = if rest = [] then None else Some (Expr.conjoin rest) in
        Index_nl { table; column; probe; residual }
      | None ->
        if opts.enable_hash_join && c.eq_pairs <> [] then begin
          let left_keys = List.map fst c.eq_pairs in
          let right_keys = List.map snd c.eq_pairs in
          (* everything that is not one of the used equality conjuncts is
             residual; recompute from the full conjunct list *)
          let is_eq_conjunct conj =
            match conj with
            | Expr.Binop (Expr.Eq, a, b) ->
              (only_left ~bound a && only_right ~bound b)
              || (only_left ~bound b && only_right ~bound a)
            | _ -> false
          in
          let rest = List.filter (fun conj -> not (is_eq_conjunct conj)) conjuncts in
          let residual = if rest = [] then None else Some (Expr.conjoin rest) in
          Hash { left_keys; right_keys; residual }
        end
        else Nested_loop
    end

(* ---- Logical -> physical ---- *)

let rec plan ?(opts = default_options) (cat : catalog_view) (l : Logical.t) : t =
  let recur = plan ~opts cat in
  match l with
  | Logical.Scan { table; schema } -> Scan { table; schema }
  | Logical.Filter { input; pred } -> Filter { input = recur input; pred }
  | Logical.Project { input; exprs } -> Project { input = recur input; exprs }
  | Logical.Join { kind; left; right; cond } ->
    let algo = choose_join_algo opts cat ~left ~right cond in
    Join { kind; algo; left = recur left; right = recur right; cond }
  | Logical.Aggregate { input; group; aggs } ->
    Aggregate { input = recur input; group; aggs }
  | Logical.Window_op { input; fns } ->
    Window_exec
      {
        input = recur input;
        fns = List.map Logical.to_relalg_fn fns;
        strategy = opts.window_strategy;
      }
  | Logical.Number { input; partition; order; name } ->
    Number { input = recur input; partition; order; name }
  | Logical.Sort { input; keys } -> Sort { input = recur input; keys }
  | Logical.Distinct input -> Distinct (recur input)
  | Logical.Limit { input; n } -> Limit { input = recur input; n }
  | Logical.Union_all { left; right } ->
    Union_all { left = recur left; right = recur right }
  | Logical.Alias { input; rel } -> Alias { input = recur input; rel }

(* ---- Execution ---- *)

(* [observer] is called per node with the node, its output and its
   inclusive wall time; used by EXPLAIN ANALYZE.  A scan under a filter
   (through aliases) delivers only the chunks whose zones admit the
   filter's [ranges] (see [Relation.prune]): the rows it reports are
   the rows the filter examines. *)
let rec execute_obs ?(ranges = []) observer (cat : catalog_view) (p : t) : Relation.t =
  let t0 = if observer == no_observer then 0. else Unix.gettimeofday () in
  let result =
    match p with
    | Scan { table; _ } -> Relation.prune ranges (cat.table_contents table)
    | Filter { input; pred } ->
      Ops.filter pred (execute_obs ~ranges:(Expr.int_ranges pred) observer cat input)
    | Project { input; exprs } -> Ops.project exprs (execute_obs observer cat input)
    | Join { kind; algo; left; right; cond } ->
      execute_join observer cat kind algo left right cond
    | Aggregate { input; group; aggs } ->
      Groupop.group_by ~group ~aggs (execute_obs observer cat input)
    | Window_exec { input; fns; strategy } ->
      Window.extend ~strategy (execute_obs observer cat input) fns
    | Number { input; partition; order; name } ->
      execute_number observer cat input partition order name
    | Sort { input; keys } -> Sortop.sort keys (execute_obs observer cat input)
    | Distinct input -> Ops.distinct (execute_obs observer cat input)
    | Limit { input; n } -> Ops.limit n (execute_obs observer cat input)
    | Union_all { left; right } ->
      Ops.union_all (execute_obs observer cat left) (execute_obs observer cat right)
    | Alias { input; rel } ->
      let r = execute_obs ~ranges observer cat input in
      Relation.with_schema (Schema.with_rel rel (Relation.schema r)) r
  in
  if observer != no_observer then
    observer p result (Unix.gettimeofday () -. t0);
  result

and no_observer : t -> Relation.t -> float -> unit = fun _ _ _ -> ()

and execute_join observer cat kind algo left right cond =
  let l = execute_obs observer cat left and r = execute_obs observer cat right in
  match algo with
  | Nested_loop -> Joinop.nested_loop kind l r cond
  | Hash { left_keys; right_keys; residual } ->
    Joinop.hash_join kind ~left:l ~right:r ~left_keys ~right_keys ?residual ()
  | Index_nl { table; column; probe; residual } ->
    let index =
      match cat.table_index ~table ~column with
      | Some idx -> idx
      | None -> plan_error "index on %s.%s disappeared during execution" table column
    in
    (match probe with
     | P_eq e ->
       Joinop.index_join kind ~left:l ~right:r ~index ~probe:(Joinop.Probe_eq e)
         ?residual ()
     | P_range (lo, hi) ->
       Joinop.index_join kind ~left:l ~right:r ~index ~probe:(Joinop.Probe_range (lo, hi))
         ?residual ()
     | P_in items ->
       Joinop.index_join kind ~left:l ~right:r ~index ~probe:(Joinop.Probe_in items)
         ?residual ())

and execute_number observer cat input partition order name =
  let r = execute_obs observer cat input in
  let rows = Relation.rows r in
  let { Sortop.idx; segments; _ } = Sortop.partition_sort partition order rows in
  let numbers = Array.make (Array.length rows) 0 in
  List.iter
    (fun (start, stop) ->
      for k = start to stop - 1 do
        numbers.(idx.(k)) <- k - start + 1
      done)
    segments;
  let schema =
    Schema.append (Relation.schema r) (Schema.make [ Schema.column name Dtype.Int ])
  in
  Relation.init schema (Array.length rows) (fun i ->
      Row.append rows.(i) [| Value.Int numbers.(i) |])

let execute (cat : catalog_view) (p : t) : Relation.t =
  execute_obs no_observer cat p

(* ---- EXPLAIN ANALYZE: instrumented execution ---- *)

type profile_entry = {
  depth : int;
  label : string;
  rows : int;
  seconds : float; (* inclusive of children *)
}

let node_label = function
  | Scan { table; _ } -> "Scan " ^ table
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Join { kind; algo; _ } ->
    Printf.sprintf "%sJoin [%s]"
      (match kind with Joinop.Inner -> "" | Joinop.Left_outer -> "LeftOuter")
      (match algo with
       | Nested_loop -> "nested-loop"
       | Hash _ -> "hash"
       | Index_nl { table; column; _ } -> Printf.sprintf "index %s.%s" table column)
  | Aggregate _ -> "Aggregate"
  | Window_exec { fns; _ } ->
    Printf.sprintf "Window [%s]"
      (String.concat ", " (List.map (fun f -> Window.func_name f.Window.func) fns))
  | Number _ -> "Number"
  | Sort _ -> "Sort"
  | Distinct _ -> "Distinct"
  | Limit { n; _ } -> Printf.sprintf "Limit %d" n
  | Union_all _ -> "UnionAll"
  | Alias { rel; _ } -> "Alias " ^ rel

let children = function
  | Scan _ -> []
  | Filter { input; _ }
  | Project { input; _ }
  | Aggregate { input; _ }
  | Window_exec { input; _ }
  | Number { input; _ }
  | Sort { input; _ }
  | Distinct input
  | Limit { input; _ }
  | Alias { input; _ } -> [ input ]
  | Join { left; right; _ } | Union_all { left; right } -> [ left; right ]

(* Execute once while recording per-node inclusive wall time and output
   cardinality; entries are reported in pre-order of the plan. *)
let execute_analyze (cat : catalog_view) (p : t) : Relation.t * profile_entry list =
  let measured : (t, int * float) Hashtbl.t = Hashtbl.create 32 in
  let observer node result seconds =
    Hashtbl.replace measured node (Relation.cardinality result, seconds)
  in
  let result = execute_obs observer cat p in
  (* walk the plan in pre-order and look the measurements up *)
  let entries = ref [] in
  let rec walk depth node =
    let rows, seconds =
      match Hashtbl.find_opt measured node with
      | Some m -> m
      | None -> (0, 0.)
    in
    entries := { depth; label = node_label node; rows; seconds } :: !entries;
    List.iter (walk (depth + 1)) (children node)
  in
  walk 0 p;
  (result, List.rev !entries)

let render_profile (entries : profile_entry list) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s%-40s %10d rows %10.3f ms\n"
           (String.make (e.depth * 2) ' ')
           e.label e.rows (e.seconds *. 1000.)))
    entries;
  Buffer.contents buf

(* ---- EXPLAIN ---- *)

let algo_name = function
  | Nested_loop -> "nested-loop"
  | Hash _ -> "hash"
  | Index_nl { table; column; probe; _ } ->
    Printf.sprintf "index(%s.%s%s)" table column
      (match probe with
       | P_eq _ -> " eq"
       | P_in _ -> " in"
       | P_range (Some _, Some _) -> " range"
       | P_range (Some _, None) -> " range>="
       | P_range (None, Some _) -> " range<="
       | P_range (None, None) -> "")

let rec pp ?(indent = 0) ppf (p : t) =
  let pad = String.make (indent * 2) ' ' in
  let child = pp ~indent:(indent + 1) in
  match p with
  | Scan { table; _ } -> Format.fprintf ppf "%sScan %s@." pad table
  | Filter { input; pred } ->
    Format.fprintf ppf "%sFilter %a@.%a" pad Expr.pp pred child input
  | Project { input; exprs } ->
    Format.fprintf ppf "%sProject [%s]@.%a" pad
      (String.concat ", " (List.map snd exprs))
      child input
  | Join { kind; algo; left; right; _ } ->
    Format.fprintf ppf "%s%sJoin [%s]@.%a%a" pad
      (match kind with Joinop.Inner -> "" | Joinop.Left_outer -> "LeftOuter")
      (algo_name algo) child left child right
  | Aggregate { input; group; aggs } ->
    Format.fprintf ppf "%sAggregate groups=%d aggs=%d@.%a" pad (List.length group)
      (List.length aggs) child input
  | Window_exec { input; fns; strategy } ->
    Format.fprintf ppf "%sWindow [%s] (%s)@.%a" pad
      (String.concat ", "
         (List.map (fun f -> Window.func_name f.Window.func) fns))
      (match strategy with Window.Naive -> "naive" | Window.Incremental -> "incremental")
      child input
  | Number { input; _ } -> Format.fprintf ppf "%sNumber@.%a" pad child input
  | Sort { input; keys } ->
    Format.fprintf ppf "%sSort (%d keys)@.%a" pad (List.length keys) child input
  | Distinct input -> Format.fprintf ppf "%sDistinct@.%a" pad child input
  | Limit { input; n } -> Format.fprintf ppf "%sLimit %d@.%a" pad n child input
  | Union_all { left; right } ->
    Format.fprintf ppf "%sUnionAll@.%a%a" pad child left child right
  | Alias { input; rel } -> Format.fprintf ppf "%sAlias %s@.%a" pad rel child input

let to_string p = Format.asprintf "%a" (pp ~indent:0) p
