(* The binder: resolves names against the catalog and turns the SQL AST
   into a logical plan.

   Scoping follows SQL's evaluation order: FROM → WHERE → GROUP BY /
   aggregates → HAVING → window functions → SELECT list → DISTINCT →
   ORDER BY → LIMIT.  Aggregate calls, window functions and GROUP BY
   expressions are extracted from the select list by AST rewriting into
   references to synthetic scopes ($agg, $grp, $win), which are then bound
   positionally against the corresponding operator's output schema. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast
module Pretty = Rfview_sql.Pretty

exception Bind_error of string

let bind_error fmt = Format.kasprintf (fun s -> raise (Bind_error s)) fmt

type catalog = {
  resolve_table : string -> Schema.t option;
  resolve_view : string -> Ast.query option;
}

(* ---- AST utilities ---- *)

let ieq a b = String.lowercase_ascii a = String.lowercase_ascii b

let rec ast_equal (a : Ast.expr) (b : Ast.expr) =
  match a, b with
  | Ast.Lit x, Ast.Lit y -> x = y
  | Ast.Column (qa, na), Ast.Column (qb, nb) ->
    ieq na nb
    && (match qa, qb with
        | None, None -> true
        | Some x, Some y -> ieq x y
        | _ -> false)
  | Ast.Star, Ast.Star -> true
  | Ast.Binary (o1, a1, b1), Ast.Binary (o2, a2, b2) ->
    o1 = o2 && ast_equal a1 a2 && ast_equal b1 b2
  | Ast.Neg x, Ast.Neg y | Ast.Not x, Ast.Not y -> ast_equal x y
  | Ast.Case (w1, e1), Ast.Case (w2, e2) ->
    List.length w1 = List.length w2
    && List.for_all2 (fun (c1, v1) (c2, v2) -> ast_equal c1 c2 && ast_equal v1 v2) w1 w2
    && (match e1, e2 with
        | None, None -> true
        | Some x, Some y -> ast_equal x y
        | _ -> false)
  | Ast.Call (f1, a1), Ast.Call (f2, a2) ->
    ieq f1 f2 && List.length a1 = List.length a2 && List.for_all2 ast_equal a1 a2
  | Ast.In_list (x1, i1), Ast.In_list (x2, i2) ->
    ast_equal x1 x2 && List.length i1 = List.length i2 && List.for_all2 ast_equal i1 i2
  | Ast.Between (x1, l1, h1), Ast.Between (x2, l2, h2) ->
    ast_equal x1 x2 && ast_equal l1 l2 && ast_equal h1 h2
  | Ast.Is_null x, Ast.Is_null y | Ast.Is_not_null x, Ast.Is_not_null y -> ast_equal x y
  | _ -> false

let is_aggregate_name f =
  match Aggregate.kind_of_name f with Some _ -> true | None -> false

(* ---- Scalar expression binding ---- *)

let literal_value = function
  | Ast.L_int i -> Value.Int i
  | Ast.L_float f -> Value.Float f
  | Ast.L_string s -> Value.String s
  | Ast.L_bool b -> Value.Bool b
  | Ast.L_null -> Value.Null
  | Ast.L_date s ->
    (match Value.parse_date s with
     | Some d -> Value.Date d
     | None -> bind_error "invalid date literal '%s'" s)

let rec bind_scalar (schema : Schema.t) (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Lit l -> Expr.Const (literal_value l)
  | Ast.Column (q, name) ->
    (try Expr.Col (Schema.find schema ?rel:q name) with
     | Schema.Unknown_column c -> bind_error "unknown column %s" c
     | Schema.Ambiguous_column c -> bind_error "ambiguous column %s" c)
  | Ast.Star -> bind_error "* is only valid as the argument of COUNT"
  | Ast.Binary (op, a, b) ->
    let op =
      match op with
      | Ast.Add -> Expr.Add
      | Ast.Sub -> Expr.Sub
      | Ast.Mul -> Expr.Mul
      | Ast.Div -> Expr.Div
      | Ast.Mod -> Expr.Mod
      | Ast.Eq -> Expr.Eq
      | Ast.Neq -> Expr.Neq
      | Ast.Lt -> Expr.Lt
      | Ast.Le -> Expr.Le
      | Ast.Gt -> Expr.Gt
      | Ast.Ge -> Expr.Ge
      | Ast.And -> Expr.And
      | Ast.Or -> Expr.Or
    in
    Expr.Binop (op, bind_scalar schema a, bind_scalar schema b)
  | Ast.Neg a -> Expr.Unop (Expr.Neg, bind_scalar schema a)
  | Ast.Not a -> Expr.Unop (Expr.Not, bind_scalar schema a)
  | Ast.Case (whens, els) ->
    Expr.Case
      ( List.map (fun (c, v) -> (bind_scalar schema c, bind_scalar schema v)) whens,
        Option.map (bind_scalar schema) els )
  | Ast.Call (f, args) when ieq f "mod" ->
    (match args with
     | [ a; b ] -> Expr.Binop (Expr.Mod, bind_scalar schema a, bind_scalar schema b)
     | _ -> bind_error "MOD takes two arguments")
  | Ast.Call (f, args) ->
    if is_aggregate_name f then
      bind_error "aggregate %s is not allowed here" (String.uppercase_ascii f)
    else begin
      match Expr.func_of_name f with
      | Some fn -> Expr.Call (fn, List.map (bind_scalar schema) args)
      | None -> bind_error "unknown function %s" f
    end
  | Ast.Window _ -> bind_error "window functions are not allowed here"
  | Ast.In_list (a, items) ->
    Expr.In_list (bind_scalar schema a, List.map (bind_scalar schema) items)
  | Ast.Between (a, lo, hi) ->
    Expr.Between (bind_scalar schema a, bind_scalar schema lo, bind_scalar schema hi)
  | Ast.Is_null a -> Expr.Is_null (bind_scalar schema a)
  | Ast.Is_not_null a -> Expr.Is_not_null (bind_scalar schema a)

(* ---- Window specification binding ---- *)

let bind_frame (w : Ast.window_fn) : Window.frame =
  let bound = function
    | Ast.Unbounded_preceding -> Window.Unbounded_preceding
    | Ast.Preceding n -> Window.Preceding n
    | Ast.Current_row -> Window.Current_row
    | Ast.Following n -> Window.Following n
    | Ast.Unbounded_following -> Window.Unbounded_following
  in
  match w.Ast.w_frame with
  | Some f ->
    {
      Window.lo = bound f.Ast.frame_lo;
      hi = bound f.Ast.frame_hi;
      mode =
        (match f.Ast.frame_mode with
         | Ast.Frame_rows -> Window.Rows
         | Ast.Frame_range -> Window.Range);
    }
  | None ->
    (* SQL default: cumulative when ordered, whole partition otherwise *)
    if w.Ast.w_order <> [] then Window.cumulative_frame
    else Window.whole_partition_frame

let bind_window_fn (schema : Schema.t) (w : Ast.window_fn) ~name : Logical.window_fn =
  let fname = String.uppercase_ascii w.Ast.w_func in
  let require_order func =
    if w.Ast.w_order = [] then
      bind_error "%s requires an ORDER BY clause" (Window.func_name func)
  in
  let reject_frame func =
    if w.Ast.w_frame <> None then
      bind_error "%s does not accept a frame clause" (Window.func_name func)
  in
  (* LAG/LEAD carry an offset and are resolved here; everything else by
     name. *)
  let func, arg =
    match fname, w.Ast.w_args with
    | ("LAG" | "LEAD"), (e :: rest) ->
      let offset =
        match rest with
        | [] -> 1
        | [ Ast.Lit (Ast.L_int k) ] when k >= 0 -> k
        | _ -> bind_error "%s offset must be a non-negative integer literal" fname
      in
      let func = if fname = "LAG" then Window.Lag offset else Window.Lead offset in
      require_order func;
      reject_frame func;
      (func, bind_scalar schema e)
    | ("LAG" | "LEAD"), [] -> bind_error "%s needs an argument" fname
    | _ ->
      (match Window.func_of_name fname with
       | None -> bind_error "%s is not a window function" fname
       | Some ((Window.Row_number | Window.Rank | Window.Dense_rank) as func) ->
         if w.Ast.w_args <> [] then
           bind_error "%s takes no arguments" (Window.func_name func);
         require_order func;
         reject_frame func;
         (func, Expr.Const (Value.Int 1))
       | Some ((Window.First_value | Window.Last_value) as func) ->
         (match w.Ast.w_args with
          | [ e ] -> (func, bind_scalar schema e)
          | _ -> bind_error "%s takes exactly one argument" (Window.func_name func))
       | Some (Window.Agg agg) ->
         (match w.Ast.w_args with
          | [ Ast.Star ] ->
            if agg <> Aggregate.Count then bind_error "* argument requires COUNT";
            (Window.Agg agg, Expr.Const (Value.Int 1))
          | [ e ] -> (Window.Agg agg, bind_scalar schema e)
          | _ ->
            bind_error "%s takes exactly one argument" (Aggregate.kind_name agg))
       | Some (Window.Lag _ | Window.Lead _) -> assert false)
  in
  {
    Logical.func;
    arg;
    partition = List.map (bind_scalar schema) w.Ast.w_partition;
    order =
      List.map
        (fun o -> { Sortop.expr = bind_scalar schema o.Ast.o_expr; asc = o.Ast.o_asc })
        w.Ast.w_order;
    frame = bind_frame w;
    name;
  }

(* ---- Extraction rewrites ---- *)

(* Replace window functions by $win.i references, collecting them. *)
let extract_windows (exprs : Ast.expr list) : Ast.expr list * Ast.window_fn list =
  let acc = ref [] in
  let replace e =
    match e with
    | Ast.Window w ->
      let idx = List.length !acc in
      acc := !acc @ [ w ];
      Ast.Column (Some "$win", string_of_int idx)
    | e -> e
  in
  let exprs = List.map (Ast.map_expr replace) exprs in
  (exprs, !acc)

(* Replace aggregate calls by $agg.i references, collecting (kind, arg);
   structurally identical aggregates share one slot. *)
let extract_aggregates (exprs : Ast.expr list) :
    Ast.expr list * (Aggregate.kind * Ast.expr) list =
  let acc = ref [] in
  let add kind arg =
    let rec find i = function
      | [] -> None
      | (k, a) :: rest -> if k = kind && ast_equal a arg then Some i else find (i + 1) rest
    in
    match find 0 !acc with
    | Some i -> i
    | None ->
      acc := !acc @ [ (kind, arg) ];
      List.length !acc - 1
  in
  let replace e =
    match e with
    | Ast.Call (f, args) when is_aggregate_name f ->
      let kind = Option.get (Aggregate.kind_of_name f) in
      let arg =
        match args with
        | [ a ] -> a
        | _ -> bind_error "%s takes exactly one argument" (String.uppercase_ascii f)
      in
      (match arg with
       | Ast.Star when kind <> Aggregate.Count -> bind_error "* argument requires COUNT"
       | _ -> ());
      Ast.Column (Some "$agg", string_of_int (add kind arg))
    | e -> e
  in
  let rewritten = List.map (Ast.map_expr replace) exprs in
  (rewritten, !acc)

(* Replace sub-expressions equal to a GROUP BY expression by $grp.j. *)
let replace_group_refs (group : Ast.expr list) (exprs : Ast.expr list) : Ast.expr list =
  let replace e =
    let rec find i = function
      | [] -> None
      | g :: rest -> if ast_equal g e then Some i else find (i + 1) rest
    in
    match e with
    | Ast.Column (Some "$agg", _) | Ast.Column (Some "$win", _) -> e
    | e ->
      (match find 0 group with
       | Some j -> Ast.Column (Some "$grp", string_of_int j)
       | None -> e)
  in
  List.map (Ast.map_expr replace) exprs

let contains_aggregate e =
  let found = ref false in
  let probe x =
    (match x with
     | Ast.Call (f, _) when is_aggregate_name f -> found := true
     | _ -> ());
    x
  in
  ignore (Ast.map_expr probe e);
  !found

(* ---- Naming of select items ---- *)

let item_name i (e : Ast.expr) (alias : string option) =
  match alias, e with
  | Some a, _ -> a
  | None, Ast.Column (_, name) -> name
  | None, Ast.Window _ -> Printf.sprintf "col_%d" (i + 1)
  | None, e ->
    let s = Pretty.expr e in
    if String.length s <= 40 then s else Printf.sprintf "col_%d" (i + 1)

(* ---- Query binding ---- *)

let rec bind_query ?stmt (cat : catalog) (q : Ast.query) : Logical.t =
  (* [stmt] is the 1-based statement index within a script: lint drivers
     pass it so binder diagnostics carry a source position (statement
     index + the offending column name already in the message) instead of
     only a plan path *)
  try
    let plan = bind_query_body cat q.Ast.body in
    bind_order_limit plan ~order_by:q.Ast.order_by ~limit:q.Ast.limit
  with Bind_error m when stmt <> None ->
    raise (Bind_error (Printf.sprintf "statement %d: %s" (Option.get stmt) m))

and bind_query_body (cat : catalog) (body : Ast.query_body) : Logical.t =
  match body with
  | Ast.Select s -> bind_select cat s
  | Ast.Union { all; left; right } ->
    let l = bind_query_body cat left and r = bind_query_body cat right in
    let sl = Logical.schema l and sr = Logical.schema r in
    if Schema.arity sl <> Schema.arity sr then
      bind_error "UNION operands have different numbers of columns (%d vs %d)"
        (Schema.arity sl) (Schema.arity sr);
    (* the answer takes the left operand's column types, so a column
       typed INT on one side and FLOAT on the other would hold values
       its type does not admit (the plan checker's RF109) *)
    Array.iteri
      (fun i (c : Schema.column) ->
        let ty = (Schema.col sr i).Schema.ty in
        if c.Schema.ty <> ty then
          bind_error "UNION operand column %d (%s) is %s on the left and %s on the right"
            (i + 1) c.Schema.name (Dtype.to_string c.Schema.ty) (Dtype.to_string ty))
      sl;
    let u = Logical.Union_all { left = l; right = r } in
    if all then u else Logical.Distinct u

and bind_order_limit plan ~order_by ~limit =
  let plan = if order_by = [] then plan else bind_order plan order_by in
  match limit with None -> plan | Some n -> Logical.Limit { input = plan; n }

(* ORDER BY resolution: against the output schema (aliases, projected
   column names, ordinals) first; when an item only exists in the input of
   the final projection — SQL allows ordering by non-projected columns —
   the sort is pushed below the projection, with output references
   substituted by their defining projection expressions. *)
and bind_order plan order_by =
  let out = Logical.schema plan in
  let resolve_out (o : Ast.order_item) : Expr.t option =
    match o.Ast.o_expr with
    | Ast.Lit (Ast.L_int k) ->
      if k < 1 || k > Schema.arity out then
        bind_error "ORDER BY position %d out of range" k;
      Some (Expr.Col (k - 1))
    | e ->
      (try Some (bind_scalar out e) with
       | Bind_error _ ->
         (* projections drop qualifiers; accept a qualified reference when
            the bare name is unambiguous in the output *)
         (match e with
          | Ast.Column (Some _, n) ->
            (try Some (bind_scalar out (Ast.Column (None, n))) with Bind_error _ -> None)
          | _ -> None))
  in
  let resolved = List.map resolve_out order_by in
  if List.for_all Option.is_some resolved then
    Logical.Sort
      {
        input = plan;
        keys =
          List.map2
            (fun (o : Ast.order_item) e -> { Sortop.expr = Option.get e; asc = o.Ast.o_asc })
            order_by resolved;
      }
  else begin
    (* push the sort below the final projection *)
    let rec push plan =
      match plan with
      | Logical.Distinct input -> Logical.Distinct (push input)
      | Logical.Project { input; exprs } ->
        let in_schema = Logical.schema input in
        let proj = Array.of_list (List.map fst exprs) in
        let keys =
          List.map2
            (fun (o : Ast.order_item) res ->
              let expr =
                match res with
                | Some out_expr ->
                  (* rewrite output references into input expressions *)
                  Expr.map_cols (fun j -> j) out_expr |> fun e ->
                  substitute_projection proj e
                | None ->
                  (try bind_scalar in_schema o.Ast.o_expr with
                   | Bind_error _ ->
                     bind_error
                       "ORDER BY expression %s must appear in the select list or \
                        the FROM scope"
                       (Pretty.expr o.Ast.o_expr))
              in
              { Sortop.expr; asc = o.Ast.o_asc })
            order_by resolved
        in
        Logical.Project { input = Logical.Sort { input; keys }; exprs }
      | _ ->
        bind_error
          "ORDER BY expression must appear in the select list of a set operation"
    in
    push plan
  end

(* Replace output column references by the projection expressions that
   define them. *)
and substitute_projection proj (e : Expr.t) : Expr.t =
  let rec subst = function
    | Expr.Col j -> proj.(j)
    | Expr.Const _ as c -> c
    | Expr.Binop (op, a, b) -> Expr.Binop (op, subst a, subst b)
    | Expr.Unop (op, a) -> Expr.Unop (op, subst a)
    | Expr.Case (whens, els) ->
      Expr.Case (List.map (fun (c, v) -> (subst c, subst v)) whens, Option.map subst els)
    | Expr.Call (f, args) -> Expr.Call (f, List.map subst args)
    | Expr.In_list (a, items) -> Expr.In_list (subst a, List.map subst items)
    | Expr.Between (a, lo, hi) -> Expr.Between (subst a, subst lo, subst hi)
    | Expr.Is_null a -> Expr.Is_null (subst a)
    | Expr.Is_not_null a -> Expr.Is_not_null (subst a)
  in
  subst e

(* ---- FROM binding ---- *)

and bind_table_ref (cat : catalog) (t : Ast.table_ref) : Logical.t =
  match t with
  | Ast.Table { name; alias } ->
    let rel_name = Option.value ~default:name alias in
    (match cat.resolve_table name with
     | Some schema ->
       Logical.Alias
         { input = Logical.Scan { table = name; schema }; rel = rel_name }
     | None ->
       (match cat.resolve_view name with
        | Some q -> Logical.Alias { input = bind_query cat q; rel = rel_name }
        | None -> bind_error "unknown table %s" name))
  | Ast.Subquery { query; alias } ->
    Logical.Alias { input = bind_query cat query; rel = alias }
  | Ast.Join { kind; left; right; cond } ->
    let l = bind_table_ref cat left and r = bind_table_ref cat right in
    let joined_schema = Schema.append (Logical.schema l) (Logical.schema r) in
    let kind =
      match kind with Ast.Join_inner -> Joinop.Inner | Ast.Join_left -> Joinop.Left_outer
    in
    Logical.Join { kind; left = l; right = r; cond = bind_scalar joined_schema cond }

and bind_from (cat : catalog) (from : Ast.table_ref list) : Logical.t =
  match from with
  | [] -> bind_error "FROM clause is required"
  | first :: rest ->
    List.fold_left
      (fun acc t ->
        Logical.Join
          {
            kind = Joinop.Inner;
            left = acc;
            right = bind_table_ref cat t;
            cond = Expr.Const (Value.Bool true);
          })
      (bind_table_ref cat first) rest

(* ---- SELECT binding ---- *)

and bind_select (cat : catalog) (s : Ast.select) : Logical.t =
  let from_plan = bind_from cat s.Ast.from in
  let from_schema = Logical.schema from_plan in
  (* WHERE: no aggregates or windows allowed *)
  let plan =
    match s.Ast.where with
    | None -> from_plan
    | Some pred ->
      if contains_aggregate pred then bind_error "aggregates are not allowed in WHERE";
      if Ast.has_window pred then
        bind_error "window functions are not allowed in WHERE";
      Logical.Filter { input = from_plan; pred = bind_scalar from_schema pred }
  in
  (* Expand stars in the select list. *)
  let expanded_items =
    List.concat_map
      (fun item ->
        match item with
        | Ast.Sel_star ->
          Array.to_list from_schema
          |> List.map (fun c ->
                 Ast.Sel_expr (Ast.Column (c.Schema.rel, c.Schema.name), None))
        | Ast.Sel_table_star t ->
          let cols =
            Array.to_list from_schema
            |> List.filter (fun c ->
                   match c.Schema.rel with Some r -> ieq r t | None -> false)
          in
          if cols = [] then bind_error "unknown table %s in %s.*" t t;
          List.map
            (fun c -> Ast.Sel_expr (Ast.Column (c.Schema.rel, c.Schema.name), None))
            cols
        | Ast.Sel_expr _ -> [ item ])
      s.Ast.items
  in
  let item_exprs = List.map (function Ast.Sel_expr (e, _) -> e | _ -> assert false) expanded_items in
  let item_aliases =
    List.map (function Ast.Sel_expr (_, a) -> a | _ -> assert false) expanded_items
  in
  (* Extract window functions first (their internals are processed by the
     aggregate/group rewrites below when grouping is present). *)
  let item_exprs, window_asts = extract_windows item_exprs in
  let having_list = Option.to_list s.Ast.having in
  let grouping =
    s.Ast.group_by <> []
    || List.exists contains_aggregate item_exprs
    || List.exists contains_aggregate having_list
    || List.exists
         (fun (w : Ast.window_fn) ->
           List.exists contains_aggregate w.Ast.w_args
           || List.exists contains_aggregate w.Ast.w_partition
           || List.exists (fun o -> contains_aggregate o.Ast.o_expr) w.Ast.w_order)
         window_asts
  in
  if not grouping then begin
    (* No aggregation: bind windows over the FROM scope. *)
    let plan, scope = attach_windows plan from_schema window_asts in
    let exprs =
      List.mapi
        (fun i (e, alias) -> (bind_scalar scope e, item_name i e alias))
        (List.combine item_exprs item_aliases)
    in
    (match s.Ast.having with
     | Some _ -> bind_error "HAVING requires GROUP BY or aggregates"
     | None -> ());
    finish_select plan exprs ~distinct:s.Ast.distinct
  end
  else begin
    (* Aggregation path. *)
    let group_asts = s.Ast.group_by in
    (* rewrite windows' internals and items/having *)
    let rewrite_batch exprs =
      let exprs, aggs = extract_aggregates exprs in
      (replace_group_refs group_asts exprs, aggs)
    in
    (* We must collect aggregates across items, having and window internals
       into one shared list, so run extraction over the concatenation. *)
    let window_internal_exprs =
      List.concat_map
        (fun (w : Ast.window_fn) ->
          w.Ast.w_args @ w.Ast.w_partition
          @ List.map (fun o -> o.Ast.o_expr) w.Ast.w_order)
        window_asts
    in
    let all = item_exprs @ having_list @ window_internal_exprs in
    let all', aggs = rewrite_batch all in
    let n_items = List.length item_exprs in
    let n_having = List.length having_list in
    let items' = List.filteri (fun i _ -> i < n_items) all' in
    let having' =
      List.filteri (fun i _ -> i >= n_items && i < n_items + n_having) all'
    in
    let window_internals' =
      List.filteri (fun i _ -> i >= n_items + n_having) all'
    in
    (* Rebuild the window ASTs with rewritten internals. *)
    let window_asts' =
      let rec rebuild ws internals =
        match ws with
        | [] -> []
        | (w : Ast.window_fn) :: rest ->
          let na = List.length w.Ast.w_args in
          let n_int = na + List.length w.Ast.w_partition + List.length w.Ast.w_order in
          let mine = List.filteri (fun i _ -> i < n_int) internals in
          let rest_internals = List.filteri (fun i _ -> i >= n_int) internals in
          let args = List.filteri (fun i _ -> i < na) mine in
          let more = List.filteri (fun i _ -> i >= na) mine in
          let np = List.length w.Ast.w_partition in
          let partition = List.filteri (fun i _ -> i < np) more in
          let order_exprs = List.filteri (fun i _ -> i >= np) more in
          let order =
            List.map2
              (fun (o : Ast.order_item) e -> { o with Ast.o_expr = e })
              w.Ast.w_order order_exprs
          in
          { w with Ast.w_args = args; w_partition = partition; w_order = order }
          :: rebuild rest rest_internals
      in
      rebuild window_asts window_internals'
    in
    (* Build the aggregate node. *)
    let group_bound = List.map (bind_scalar from_schema) group_asts in
    let agg_specs =
      List.mapi
        (fun i (kind, arg_ast) ->
          let arg =
            match arg_ast with
            | Ast.Star -> Expr.Const (Value.Int 1)
            | e -> bind_scalar from_schema e
          in
          { Groupop.kind; arg; name = Printf.sprintf "agg_%d" i })
        aggs
    in
    let plan = Logical.Aggregate { input = plan; group = group_bound; aggs = agg_specs } in
    (* Scope after aggregation: $grp.j then $agg.i. *)
    let agg_out = Logical.schema plan in
    let scope =
      Schema.make
        (List.mapi
           (fun j _ ->
             Schema.column ~rel:"$grp" (string_of_int j) (Schema.col agg_out j).Schema.ty)
           group_asts
        @ List.mapi
            (fun i _ ->
              Schema.column ~rel:"$agg" (string_of_int i)
                (Schema.col agg_out (List.length group_asts + i)).Schema.ty)
            aggs)
    in
    (* HAVING *)
    let plan =
      match having' with
      | [] -> plan
      | [ h ] -> Logical.Filter { input = plan; pred = bind_scalar scope h }
      | _ -> assert false
    in
    (* Windows over the aggregated scope. *)
    let plan, scope = attach_windows plan scope window_asts' in
    let exprs =
      List.mapi
        (fun i (e, alias) ->
          let name =
            match alias with
            | Some a -> a
            | None ->
              (* name after the original (pre-rewrite) expression *)
              item_name i (List.nth item_exprs i) None
          in
          (bind_scalar scope e, name))
        (List.combine items' item_aliases)
    in
    finish_select plan exprs ~distinct:s.Ast.distinct
  end

(* Append window function columns; returns the new plan and the scope with
   $win.i names visible. *)
and attach_windows plan (scope : Schema.t) (window_asts : Ast.window_fn list) =
  if window_asts = [] then (plan, scope)
  else begin
    let fns =
      List.mapi
        (fun i w -> bind_window_fn scope w ~name:(Printf.sprintf "win_%d" i))
        window_asts
    in
    let plan = Logical.Window_op { input = plan; fns } in
    let out = Logical.schema plan in
    let base = Schema.arity scope in
    let scope =
      Schema.make
        (Array.to_list scope
        @ List.mapi
            (fun i _ ->
              Schema.column ~rel:"$win" (string_of_int i)
                (Schema.col out (base + i)).Schema.ty)
            window_asts)
    in
    (plan, scope)
  end

(* Every select item must have an inferable, consistent type — a silent
   String fallback in the output schema would mask binder bugs and
   mistype downstream consumers (ORDER BY, set operations, views). *)
and finish_select plan exprs ~distinct =
  let in_schema = Logical.schema plan in
  List.iter
    (fun (e, name) ->
      match Expr.infer_type in_schema e with
      | Some _ -> ()
      | None ->
        bind_error
          "cannot infer the type of select item %s; give a bare NULL a typed \
           context (e.g. COALESCE with a typed value)"
          name
      | exception Expr.Type_mismatch m ->
        bind_error "select item %s is ill-typed: %s" name m)
    exprs;
  let plan = Logical.Project { input = plan; exprs } in
  if distinct then Logical.Distinct plan else plan

(* Naming note: ORDER BY binds against the projected output schema, so it
   can reference select aliases, projected column names or ordinals. *)
