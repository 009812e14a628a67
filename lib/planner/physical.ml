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
      let usable =
        if not opts.enable_index_join then []
        else
          match scan_of_plan right with
          | None -> []
          | Some (table, scan_schema) ->
            let right_schema = Logical.schema right in
            merge_probes c.probes
            |> List.filter_map (fun (col, probe) ->
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
      (* A one-sided range probes a fixed fraction of the inner table per
         outer row (the MaxOA/MinOA union branches, s2.pos <= s1.pos - k,
         read half of it), while an equi-key hash bucket holds only the
         rows that can match: with an equality pair at hand, hash.  An
         equality, IN or two-sided range probe (the Fig. 2 self-join's
         BETWEEN) reads a window-sized slice and keeps the index. *)
      let one_sided = function
        | P_range (Some _, None) | P_range (None, Some _) -> true
        | _ -> false
      in
      let index_candidate =
        match List.find_opt (fun (_, _, probe) -> not (one_sided probe)) usable with
        | Some _ as candidate -> candidate
        | None when opts.enable_hash_join && c.eq_pairs <> [] -> None
        | None -> (match usable with candidate :: _ -> Some candidate | [] -> None)
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

(* ---- Execution ----

   One push executor.  Each node of the plan becomes a [pipe]: its
   output schema, and a producer that hands its rows to a consumer one
   chunk at a time ([Relation.chunk]) and returns at the end of its
   stream.

   - Streamed nodes transform a chunk and hand it on, so no relation
     is built between them: Scan (the chunks whose zones admit the
     ranges of the filter above it, through aliases), Filter (a chunk
     whose rows all pass is handed on as it is), Project (of every
     input column in order: the chunks as they are), Alias, Union_all
     (the left branch, then the right), Distinct (each row's first
     occurrence), and a join's probe (left) side.
   - Pipeline breakers collect their input first, then hand on their
     result's chunks: Aggregate, Window, Number, Sort, Limit, a join's
     build (right) side, and the query root.
   - A Project directly above a Join runs on the join's (left, right)
     pairs, and one directly above a Window on the (input row, window
     values) pairs, through expressions compiled on the pair
     ([Ops.projector]): no concatenated row is built.

   Rows reach every breaker in the order an operator-at-a-time run
   would give them: a join's left rows in order, each left row's right
   candidates in build order, a union's left branch first.  So float
   sums and group order do not depend on the chunking.

   EXPLAIN ANALYZE runs the same pipes with a meter on each node.  One
   clock charges the time since its last reading to the node that owns
   it: a node owns it while its producer runs and while its consumer
   transforms a chunk, and gives it back to its parent for the time
   the parent spends on each chunk it hands on.  A node's self time is
   thus its own work, and its inclusive time is that plus its
   children's.  A fused Project's work is its join's or its
   window's. *)

(* A node's output: its schema, and a producer handing its chunks to a
   consumer. *)
type pipe = { schema : Schema.t; run : (Relation.chunk -> unit) -> unit }

(* The chunks of a relation made on demand (a breaker's result). *)
let chunks_of schema make =
  { schema; run = (fun emit -> Array.iter emit (Relation.chunks (make ()))) }

let collect p =
  let acc = ref [] in
  p.run (fun c -> acc := c :: !acc);
  Relation.of_rev_chunks p.schema !acc

(* EXPLAIN ANALYZE's meters *)

type meter = {
  mutable rows : int;  (* handed on *)
  mutable self : float;
}

type profiler = {
  mutable owner : meter;  (* of the clock *)
  mutable since : float;
  mutable meters : (int * t * meter) list;  (* depth, node, meter; newest first *)
}

(* Charge the clock's owner up to now and hand the clock to [m]; the
   previous owner. *)
let switch prof m =
  let now = Unix.gettimeofday () in
  let prev = prof.owner in
  prev.self <- prev.self +. (now -. prof.since);
  prof.since <- now;
  prof.owner <- m;
  prev

(* The meter of [node], registered in pre-order (so taken before the
   node's children are built), as a wrapper of the node's pipe. *)
let meter prof ~depth node : pipe -> pipe =
  match prof with
  | None -> Fun.id
  | Some prof ->
    let m = { rows = 0; self = 0. } in
    prof.meters <- (depth, node, m) :: prof.meters;
    fun p ->
      {
        p with
        run =
          (fun emit ->
            let parent = switch prof m in
            p.run (fun c ->
                m.rows <- m.rows + Relation.chunk_length c;
                ignore (switch prof parent);
                emit c;
                ignore (switch prof m));
            ignore (switch prof parent));
      }

(* [p] with each chunk replaced by [f c], or dropped when that is
   [None]; [sieve ()] makes [f] afresh for each run. *)
let sifted p sieve =
  {
    p with
    run =
      (fun emit ->
        let f = sieve () in
        p.run (fun c -> match f c with Some c -> emit c | None -> ()));
  }

let number_rows partition order name r =
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

(* [ranges]: the Int ranges of the filter above, through aliases, that
   a scan prunes its chunks by. *)
let rec build cat prof ~depth ~ranges (node : t) : pipe =
  let metered = meter prof ~depth node in
  let p =
    match node with
    | Scan { table; _ } ->
      let r = cat.table_contents table in
      {
        schema = Relation.schema r;
        run =
          (fun emit ->
            Array.iter
              (fun c -> if Relation.admits_chunk ranges c then emit c)
              (Relation.chunks r));
      }
    | Filter { input; pred } ->
      let ranges = Expr.int_ranges pred in
      let p = build cat prof ~depth:(depth + 1) ~ranges input in
      let keep = Expr.compile_pred pred in
      sifted p (fun () ->
          let sieve = Relation.sieve keep in
          fun c -> if Relation.admits_chunk ranges c then sieve c else None)
    | Project { input = Join { kind; algo; left; right; cond } as j; exprs } ->
      (* the join's meter first: pre-order *)
      let metered_join = meter prof ~depth:(depth + 1) j in
      metered_join
        (join cat prof ~depth:(depth + 1) ~project:(Some exprs) kind algo left right cond)
    | Project { input = Window_exec { input; fns; strategy } as w; exprs } ->
      let metered_window = meter prof ~depth:(depth + 1) w in
      metered_window (window cat prof ~depth:(depth + 1) ~project:(Some exprs) input fns strategy)
    | Project { input; exprs } ->
      let p = child cat prof depth input in
      let schema = Ops.project_schema p.schema exprs in
      (* every column, in order: the input's rows as they are *)
      let identity =
        List.length exprs = Schema.arity p.schema
        && List.for_all Fun.id
             (List.mapi (fun i (e, _) -> match e with Expr.Col j -> i = j | _ -> false) exprs)
      in
      if identity then { p with schema }
      else
        let f = Ops.projector ~left_arity:max_int exprs in
        let one row = f row row in
        { schema; run = (fun emit -> p.run (fun c -> emit (Relation.map_chunk one c))) }
    | Join { kind; algo; left; right; cond } ->
      join cat prof ~depth ~project:None kind algo left right cond
    | Aggregate { input; group; aggs } ->
      let p = child cat prof depth input in
      {
        schema = Groupop.output_schema p.schema group aggs;
        run =
          (fun emit ->
            let t = Groupop.table ~group ~aggs in
            let add = Groupop.add t in
            p.run (fun c -> Array.iter add (Relation.chunk_rows c));
            let b = Relation.builder emit in
            Groupop.iter_results t (Relation.push b);
            Relation.flush b);
      }
    | Window_exec { input; fns; strategy } -> window cat prof ~depth ~project:None input fns strategy
    | Number { input; partition; order; name } ->
      let p = child cat prof depth input in
      chunks_of
        (Schema.append p.schema (Schema.make [ Schema.column name Dtype.Int ]))
        (fun () -> number_rows partition order name (collect p))
    | Sort { input; keys } ->
      let p = child cat prof depth input in
      chunks_of p.schema (fun () -> Sortop.sort keys (collect p))
    | Distinct input ->
      let p = child cat prof depth input in
      sifted p (fun () -> Relation.sieve (Ops.first_seen ()))
    | Limit { input; n } ->
      let p = child cat prof depth input in
      chunks_of p.schema (fun () -> Ops.limit n (collect p))
    | Union_all { left; right } ->
      let l = child cat prof depth left in
      let r = child cat prof depth right in
      {
        schema = Ops.union_schema l.schema r.schema;
        run = (fun emit -> l.run emit; r.run emit);
      }
    | Alias { input; rel } ->
      let p = build cat prof ~depth:(depth + 1) ~ranges input in
      { p with schema = Schema.with_rel rel p.schema }
  in
  metered p

and child cat prof depth n = build cat prof ~depth:(depth + 1) ~ranges:[] n

(* A join: the right side collected into the join's table, the left
   side streamed through it.  Each output row is the concatenated row,
   or, under a fused Project, the projection of the pair. *)
and join cat prof ~depth ~project kind algo left right cond =
  let lp = child cat prof depth left in
  let rp = child cat prof depth right in
  let left_arity = Schema.arity lp.schema in
  let joined = Schema.append lp.schema rp.schema in
  let schema, out =
    match project with
    | None -> (joined, Row.append)
    | Some exprs -> (Ops.project_schema joined exprs, Ops.projector ~left_arity exprs)
  in
  {
    schema;
    run =
      (fun emit ->
        let access, residual =
          match algo with
          | Nested_loop -> (Joinop.Every, Some cond)
          | Hash { left_keys; right_keys; residual } ->
            (Joinop.Keys (left_keys, right_keys), residual)
          | Index_nl { table; column; probe; residual } ->
            let index =
              match cat.table_index ~table ~column with
              | Some idx -> idx
              | None -> plan_error "index on %s.%s disappeared during execution" table column
            in
            let probe =
              match probe with
              | P_eq e -> Joinop.Probe_eq e
              | P_range (lo, hi) -> Joinop.Probe_range (lo, hi)
              | P_in items -> Joinop.Probe_in items
            in
            (Joinop.Index (index, probe), residual)
        in
        let right = collect rp in
        let b = Relation.builder emit in
        let step = Joinop.prober kind access ~left_arity ~right ~residual ~out (Relation.push b) in
        lp.run (fun c -> Array.iter step (Relation.chunk_rows c));
        Relation.flush b);
  }

(* A window: its input collected, each output row the input row with
   its window values appended, or, under a fused Project, the
   projection of that pair. *)
and window cat prof ~depth ~project input fns strategy =
  let p = child cat prof depth input in
  let extended = Window.output_schema p.schema fns in
  let schema, out =
    match project with
    | None -> (extended, Row.append)
    | Some exprs ->
      ( Ops.project_schema extended exprs,
        Ops.projector ~left_arity:(Schema.arity p.schema) exprs )
  in
  chunks_of schema (fun () ->
      let rows = Relation.rows (collect p) in
      Relation.init schema (Array.length rows) (Window.outputs ~strategy rows fns out))

let execute (cat : catalog_view) (p : t) : Relation.t =
  collect (build cat None ~depth:0 ~ranges:[] p)

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

(* Execute once with a meter on every node; entries come in pre-order
   of the plan.  A node's inclusive time is the sum of its direct
   children's, plus its self time. *)
let execute_analyze (cat : catalog_view) (p : t) : Relation.t * profile_entry list =
  let root = { rows = 0; self = 0. } in
  let prof = { owner = root; since = Unix.gettimeofday (); meters = [] } in
  let result = collect (build cat (Some prof) ~depth:0 ~ranges:[] p) in
  ignore (switch prof root);
  let nodes = Array.of_list (List.rev prof.meters) in
  let n = Array.length nodes in
  let inclusive = Array.make n 0. in
  for i = n - 1 downto 0 do
    let depth, _, (m : meter) = nodes.(i) in
    let children = ref 0. and j = ref (i + 1) in
    while !j < n && (let d, _, _ = nodes.(!j) in d > depth) do
      (let d, _, _ = nodes.(!j) in
       if d = depth + 1 then children := !children +. inclusive.(!j));
      incr j
    done;
    inclusive.(i) <- !children +. m.self
  done;
  ( result,
    Array.to_list
      (Array.mapi
         (fun i (depth, node, (m : meter)) ->
           { depth; label = node_label node; rows = m.rows; seconds = inclusive.(i) })
         nodes) )

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
