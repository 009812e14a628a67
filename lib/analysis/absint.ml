(* Bottom-up abstract interpretation over Planner.Logical plans — see
   the .mli.  Transfer functions over-approximate the executor's
   semantics (lib/relalg: NULL-skipping aggregates, three-valued
   predicates, NULL padding on LEFT OUTER, Lag/Lead NULL outside the
   partition, truncating INT division). *)

open Rfview_relalg
open Domain
module Logical = Rfview_planner.Logical
module Rewrite = Rfview_planner.Rewrite

type env = string -> Relation.t option

let no_env : env = fun _ -> None

(* ---- Small helpers ---- *)

(* NULL-propagating operators: NULL in, NULL out. *)
let null_prop a b =
  match a, b with
  | Null.Never, Null.Never -> Null.Never
  | Null.Always, _ | _, Null.Always -> Null.Always
  | _ -> Null.Maybe

(* Wrap an outcome set as the abstract value of a boolean expression. *)
let bool_aval (b3 : B3.t) =
  let null =
    if not b3.B3.can_null then Null.Never
    else if b3.B3.can_t || b3.B3.can_f then Null.Maybe
    else Null.Always
  in
  { itv = Itv.bot; null; b3 }

let static_type schema e =
  try Expr.infer_type schema e with Expr.Type_mismatch _ -> None

let is_numeric_type = function
  | Some (Dtype.Int | Dtype.Float | Dtype.Date) -> true
  | Some (Dtype.Bool | Dtype.String) | None -> false

let const_float (v : Value.t) : float option =
  match v with
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | Value.Date d -> Some (float_of_int d)
  | Value.Null | Value.Bool _ | Value.String _ -> None

let const_aval (v : Value.t) : aval =
  match v with
  | Value.Null -> { itv = Itv.bot; null = Null.Always; b3 = B3.null }
  | Value.Bool b -> { itv = Itv.bot; null = Null.Never; b3 = B3.const b }
  | Value.String _ -> { itv = Itv.top; null = Null.Never; b3 = B3.top }
  | v ->
    (match const_float v with
     | Some f -> { itv = Itv.const f; null = Null.Never; b3 = B3.top }
     | None -> aval_top)

(* ---- Abstract expression evaluation ---- *)

(* [sink] receives the RF2xx diagnostics found inside expressions
   (guaranteed division by zero). *)
let rec eval ~sink ~schema (ra : rel_abs) (e : Expr.t) : aval =
  let eval' = eval ~sink ~schema ra in
  match e with
  | Expr.Const v -> const_aval v
  | Expr.Col i -> if i >= 0 && i < Array.length ra.cols then ra.cols.(i).av else aval_top
  | Expr.Unop (Expr.Neg, a) ->
    let av = eval' a in
    { itv = Itv.neg av.itv; null = av.null; b3 = B3.top }
  | Expr.Unop (Expr.Not, a) -> bool_aval (B3.not3 (eval' a).b3)
  | Expr.Binop (op, a, b) -> eval_binop ~sink ~schema ra op a b
  | Expr.Case (whens, else_) ->
    let tail = match else_ with Some e -> eval' e | None -> const_aval Value.Null in
    List.fold_left
      (fun acc (c, v) ->
        let c3 = eval' c in
        let va = eval' v in
        (* a branch whose condition can never be TRUE is unreachable *)
        if c3.b3.B3.can_t then aval_join acc va else acc)
      tail whens
  | Expr.Call (f, args) -> eval_call ~sink ~schema ra f args
  | Expr.In_list (x, items) ->
    let xa = eval' x in
    let ias = List.map eval' items in
    if xa.null = Null.Always then bool_aval B3.null
    else
      let can_null =
        xa.null <> Null.Never || List.exists (fun i -> i.null <> Null.Never) ias
      in
      bool_aval { B3.can_t = true; can_f = true; can_null }
  | Expr.Between (x, lo, hi) ->
    eval' (Expr.Binop (Expr.And, Expr.Binop (Expr.Ge, x, lo), Expr.Binop (Expr.Le, x, hi)))
  | Expr.Is_null a ->
    let av = eval' a in
    bool_aval
      (match av.null with
       | Null.Always -> B3.const true
       | Null.Never -> B3.const false
       | Null.Maybe -> { B3.can_t = true; can_f = true; can_null = false })
  | Expr.Is_not_null a ->
    let av = eval' a in
    bool_aval
      (match av.null with
       | Null.Always -> B3.const false
       | Null.Never -> B3.const true
       | Null.Maybe -> { B3.can_t = true; can_f = true; can_null = false })

and eval_binop ~sink ~schema ra op a b =
  let av = eval ~sink ~schema ra a in
  let bv = eval ~sink ~schema ra b in
  let arith itv_op =
    { itv = itv_op av.itv bv.itv; null = null_prop av.null bv.null; b3 = B3.top }
  in
  match op with
  | Expr.Add -> arith Itv.add
  | Expr.Sub -> arith Itv.sub
  | Expr.Mul -> arith Itv.mul
  | Expr.Div | Expr.Mod ->
    (* guaranteed division by zero: the divisor is the non-NULL
       constant 0 on every row *)
    (if bv.null = Null.Never && Itv.equal bv.itv (Itv.const 0.) then
       sink ~code:"RF202"
         (Printf.sprintf "divisor %s is 0 on every row" (Expr.to_string b)));
    arith (if op = Expr.Div then Itv.div else Itv.modulo)
  | Expr.And -> bool_aval (B3.and3 av.b3 bv.b3)
  | Expr.Or -> bool_aval (B3.or3 av.b3 bv.b3)
  | Expr.Eq | Expr.Neq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge ->
    let can_null = av.null <> Null.Never || bv.null <> Null.Never in
    if av.null = Null.Always || bv.null = Null.Always then bool_aval B3.null
    else
      let numeric =
        is_numeric_type (static_type schema a) && is_numeric_type (static_type schema b)
      in
      let can_t, can_f =
        if not numeric then (true, true)
        else
          match av.itv, bv.itv with
          | Itv.Bot, _ | _, Itv.Bot -> (false, false)
          | Itv.Itv { lo = al; hi = ah }, Itv.Itv { lo = bl; hi = bh } ->
            (match op with
             | Expr.Eq -> (al <= bh && bl <= ah, not (al = ah && bl = bh && al = bl))
             | Expr.Neq -> (not (al = ah && bl = bh && al = bl), al <= bh && bl <= ah)
             | Expr.Lt -> (al < bh, ah >= bl)
             | Expr.Le -> (al <= bh, ah > bl)
             | Expr.Gt -> (ah > bl, al <= bh)
             | Expr.Ge -> (ah >= bl, al < bh)
             | _ -> (true, true))
      in
      bool_aval { B3.can_t; can_f; can_null }

and eval_call ~sink ~schema ra f args =
  let eval' = eval ~sink ~schema ra in
  let avs = List.map eval' args in
  match f, avs with
  | Expr.Coalesce, avs ->
    let null =
      if List.exists (fun a -> a.null = Null.Never) avs then Null.Never
      else if List.for_all (fun a -> a.null = Null.Always) avs then Null.Always
      else Null.Maybe
    in
    let itv = List.fold_left (fun acc a -> Itv.join acc a.itv) Itv.bot avs in
    let b3 = List.fold_left (fun acc a -> B3.join acc a.b3) B3.null avs in
    { itv; null; b3 = (match null with Null.Never -> { b3 with B3.can_null = false } | _ -> b3) }
  | Expr.Abs, [ a ] -> { itv = Itv.abs a.itv; null = a.null; b3 = B3.top }
  | Expr.Sign, [ a ] -> { itv = Itv.of_bounds (-1.) 1.; null = a.null; b3 = B3.top }
  | Expr.Least, a :: rest ->
    let extremum pick =
      List.fold_left
        (fun acc v ->
          {
            itv =
              (match acc.itv, v.itv with
               | Itv.Bot, _ | _, Itv.Bot -> Itv.Bot
               | Itv.Itv { lo = al; hi = ah }, Itv.Itv { lo = bl; hi = bh } ->
                 Itv.of_bounds (pick al bl) (pick ah bh));
            null = null_prop acc.null v.null;
            b3 = B3.top;
          })
        a rest
    in
    extremum Float.min
  | Expr.Greatest, a :: rest ->
    List.fold_left
      (fun acc v ->
        {
          itv =
            (match acc.itv, v.itv with
             | Itv.Bot, _ | _, Itv.Bot -> Itv.Bot
             | Itv.Itv { lo = al; hi = ah }, Itv.Itv { lo = bl; hi = bh } ->
               Itv.of_bounds (Float.max al bl) (Float.max ah bh));
          null = null_prop acc.null v.null;
          b3 = B3.top;
        })
      a rest
  | Expr.Year, [ a ] ->
    let itv =
      match a.itv with
      | Itv.Itv { lo; hi } when Float.abs lo <= 1e8 && Float.abs hi <= 1e8 ->
        Itv.of_bounds
          (float_of_int (Value.date_year (int_of_float lo)))
          (float_of_int (Value.date_year (int_of_float hi)))
      | _ -> Itv.top
    in
    { itv; null = a.null; b3 = B3.top }
  | Expr.Month, [ a ] -> { itv = Itv.of_bounds 1. 12.; null = a.null; b3 = B3.top }
  | Expr.Day, [ a ] -> { itv = Itv.of_bounds 1. 31.; null = a.null; b3 = B3.top }
  | Expr.Nullif, [ a; _b ] ->
    {
      itv = a.itv;
      null = (if a.null = Null.Always then Null.Always else Null.Maybe);
      b3 = B3.join a.b3 B3.null;
    }
  | _ -> aval_top

(* ---- Filter refinement ----

   Comparison conjuncts refine the surviving rows' column
   abstractions: a row passes [col OP const] only if the column is
   non-NULL and inside the implied bound.  Column-column comparisons
   propagate bounds both ways; the refinement loop runs rounds until a
   fixpoint (each step only shrinks, so stopping at any round is
   sound — 4 rounds is the cheap termination guard). *)

let refine_filter ~schema cols pred =
  let cols = Array.copy cols in
  let contradiction = ref false in
  let numeric_col i =
    i >= 0 && i < Schema.arity schema
    && is_numeric_type (Some (Schema.col schema i).Schema.ty)
  in
  let meet_col i itv =
    if i >= 0 && i < Array.length cols then begin
      let c = cols.(i) in
      let met = Itv.meet c.av.itv itv in
      if Itv.is_bot met && not (Itv.is_bot c.av.itv) then contradiction := true;
      cols.(i) <- { c with av = { c.av with itv = met; null = Null.Never } }
    end
  in
  let not_null i =
    if i >= 0 && i < Array.length cols then begin
      let c = cols.(i) in
      if c.av.null = Null.Always then contradiction := true;
      cols.(i) <- { c with av = { c.av with null = Null.Never } }
    end
  in
  let bound_of op v =
    match op with
    | Expr.Eq -> Some (Itv.const v)
    | Expr.Lt | Expr.Le -> Some (Itv.of_bounds neg_infinity v)
    | Expr.Gt | Expr.Ge -> Some (Itv.of_bounds v infinity)
    | _ -> None
  in
  let flip = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | op -> op
  in
  let itv_of i = if i >= 0 && i < Array.length cols then cols.(i).av.itv else Itv.top in
  let apply conj =
    match conj with
    | Expr.Is_not_null (Expr.Col i) -> not_null i
    | Expr.Is_null (Expr.Col i) ->
      if i >= 0 && i < Array.length cols then begin
        let c = cols.(i) in
        if c.av.null = Null.Never then contradiction := true;
        cols.(i) <-
          {
            av = { c.av with itv = Itv.bot; null = Null.Always };
            distinct = Card.of_bounds 0 (Some 0);
          }
      end
    | Expr.Binop (op, Expr.Col i, Expr.Const v) when numeric_col i ->
      (match const_float v with
       | Some f ->
         not_null i;
         (match bound_of op f with Some b -> meet_col i b | None -> ())
       | None -> ())
    | Expr.Binop (op, Expr.Const v, Expr.Col i) when numeric_col i ->
      (match const_float v with
       | Some f ->
         not_null i;
         (match bound_of (flip op) f with Some b -> meet_col i b | None -> ())
       | None -> ())
    | Expr.Between (Expr.Col i, Expr.Const a, Expr.Const b) when numeric_col i ->
      (match const_float a, const_float b with
       | Some fa, Some fb ->
         not_null i;
         meet_col i (Itv.of_bounds fa fb)
       | _ -> ())
    | Expr.Binop (op, Expr.Col i, Expr.Col j)
      when numeric_col i && numeric_col j
           && (match op with
               | Expr.Eq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> true
               | _ -> false) ->
      not_null i;
      not_null j;
      (match itv_of i, itv_of j with
       | Itv.Itv { lo = il; hi = ih }, Itv.Itv { lo = jl; hi = jh } ->
         (match op with
          | Expr.Eq ->
            let m = Itv.meet (itv_of i) (itv_of j) in
            meet_col i m;
            meet_col j m
          | Expr.Lt | Expr.Le ->
            meet_col i (Itv.of_bounds neg_infinity jh);
            meet_col j (Itv.of_bounds il infinity)
          | Expr.Gt | Expr.Ge ->
            meet_col i (Itv.of_bounds jl infinity);
            meet_col j (Itv.of_bounds neg_infinity ih)
          | _ -> ())
       | _ -> ())
    | _ -> ()
  in
  let conjs = Expr.conjuncts pred in
  let snapshot () = Array.map (fun c -> c.av.itv) cols in
  let rec rounds n =
    let before = snapshot () in
    List.iter apply conjs;
    let after = snapshot () in
    if n < 4 && not (Array.for_all2 Itv.equal before after) then rounds (n + 1)
  in
  rounds 1;
  (cols, !contradiction)

(* ---- Transfer functions ---- *)

let top_cols arity = Array.make arity { av = aval_top; distinct = Card.top }

let relax_distinct cols =
  Array.map (fun c -> { c with distinct = Card.relax_lo c.distinct 0 }) cols

(* Upper bound on the number of rows a ROWS frame can cover. *)
let frame_max_width (f : Window.frame) : int option =
  if f.Window.mode <> Window.Rows then None
  else
    match f.Window.lo, f.Window.hi with
    | Window.Preceding l, Window.Following h -> Some (l + h + 1)
    | Window.Preceding l, Window.Current_row -> Some (l + 1)
    | Window.Preceding l, Window.Preceding l' -> Some (max 0 (l - l' + 1))
    | Window.Current_row, Window.Following h -> Some (h + 1)
    | Window.Current_row, Window.Current_row -> Some 1
    | Window.Following h, Window.Following h' -> Some (max 0 (h' - h + 1))
    | _ -> None

let two_pow_53 = 9007199254740992.

(* SUM over INT inputs computes in exact integer arithmetic only while
   the magnitude stays under 2^53 in the float-backed sequence/derivation
   paths; warn when the abstract bound provably exceeds that. *)
let overflow_risk ~arg_itv ~cnt_hi =
  match arg_itv, cnt_hi with
  | Itv.Itv { lo; hi }, Some n ->
    let m = Float.max (Float.abs lo) (Float.abs hi) in
    Float.is_finite m && m *. float_of_int n > two_pow_53
  | _ -> false

(* The count of non-NULL aggregate inputs over a row population of
   [rows]; [one_min] forces the lower population bound to >= 1 (each
   GROUP BY group is non-empty). *)
let nonnull_count ~(null : Null.t) ~(rows : Card.t) ~one_min =
  let lo = if one_min then max rows.Card.lo 1 else rows.Card.lo in
  match null with
  | Null.Never -> { Card.lo; hi = rows.Card.hi }
  | Null.Maybe -> { Card.lo = 0; hi = rows.Card.hi }
  | Null.Always -> Card.of_bounds 0 (Some 0)

let agg_transfer ~sink ~what (kind : Aggregate.kind) ~(arg_av : aval) ~(cnt : Card.t)
    : aval =
  if arg_av.null = Null.Always && kind <> Aggregate.Count then
    sink ~code:"RF203"
      (Printf.sprintf "%s argument is always NULL: the result is NULL on every row/group"
         what);
  let sum_null =
    if cnt.Card.lo >= 1 then Null.Never
    else if cnt.Card.hi = Some 0 then Null.Always
    else Null.Maybe
  in
  match kind with
  | Aggregate.Count ->
    {
      itv =
        Itv.of_bounds
          (float_of_int cnt.Card.lo)
          (match cnt.Card.hi with None -> infinity | Some h -> float_of_int h);
      null = Null.Never;
      b3 = B3.top;
    }
  | Aggregate.Sum ->
    (if overflow_risk ~arg_itv:arg_av.itv ~cnt_hi:cnt.Card.hi then
       sink ~code:"RF204"
         (Printf.sprintf
            "%s may exceed 2^53: float-backed accumulation and sequence derivation \
             lose integer exactness"
            what));
    { itv = Itv.sum_n arg_av.itv ~lo:cnt.Card.lo ~hi:cnt.Card.hi; null = sum_null; b3 = B3.top }
  | Aggregate.Avg -> { itv = arg_av.itv; null = sum_null; b3 = B3.top }
  | Aggregate.Min | Aggregate.Max -> { itv = arg_av.itv; null = sum_null; b3 = arg_av.b3 }

(* ---- The walk ---- *)

let rec go ~env ~sink path (p : Logical.t) : rel_abs * (string * rel_abs) list =
  let here = path @ [ Check.label p ] in
  let sink_here ~code msg = sink ~code ~path:here msg in
  let abs, child_anns =
    match p with
    | Logical.Scan { table; schema } ->
      let a =
        match env table with
        | Some r -> abstract_relation r
        | None -> { cols = top_cols (Schema.arity schema); rows = Card.top }
      in
      (a, [])
    | Logical.Filter { input; pred } ->
      let ia, anns = go ~env ~sink here input in
      let schema = Logical.schema input in
      let p3 = (eval ~sink:sink_here ~schema ia pred).b3 in
      let cols, contradiction = refine_filter ~schema ia.cols pred in
      let empty = B3.never_true p3 || contradiction in
      if empty && ia.rows <> Card.zero then
        sink_here ~code:"RF201"
          (if contradiction then
             "contradictory filter conjuncts: no row can satisfy them all, the \
              subtree is statically empty"
           else "filter predicate can never be TRUE: the subtree is statically empty");
      let rows =
        if empty then Card.zero
        else if (not p3.B3.can_f) && not p3.B3.can_null then ia.rows
        else Card.of_bounds 0 ia.rows.Card.hi
      in
      ({ cols = relax_distinct cols; rows }, anns)
    | Logical.Project { input; exprs } ->
      let ia, anns = go ~env ~sink here input in
      let schema = Logical.schema input in
      let cols =
        Array.of_list
          (List.map
             (fun (e, _) ->
               let av = eval ~sink:sink_here ~schema ia e in
               let distinct =
                 match e with
                 | Expr.Col i when i >= 0 && i < Array.length ia.cols ->
                   ia.cols.(i).distinct
                 | Expr.Const (Value.Null) -> Card.of_bounds 0 (Some 0)
                 | Expr.Const _ -> Card.of_bounds 0 (Some 1)
                 | _ -> Card.of_bounds 0 ia.rows.Card.hi
               in
               { av; distinct })
             exprs)
      in
      ({ cols; rows = ia.rows }, anns)
    | Logical.Join { kind; left; right; cond } ->
      let la, lanns = go ~env ~sink here left in
      let ra, ranns = go ~env ~sink here right in
      let schema = Logical.schema p |> fun _ ->
        Schema.append (Logical.schema left) (Logical.schema right)
      in
      let joined = { cols = Array.append la.cols ra.cols; rows = Card.mul la.rows ra.rows } in
      let c3 = (eval ~sink:sink_here ~schema joined cond).b3 in
      let never = B3.never_true c3 in
      let abs =
        match kind with
        | Joinop.Inner ->
          if never && la.rows <> Card.zero && ra.rows <> Card.zero then
            sink_here ~code:"RF201"
              "join condition can never be TRUE: the inner join is statically empty";
          let rows =
            if never then Card.zero
            else if
              (not c3.B3.can_f) && not c3.B3.can_null
              (* condition always TRUE: a cross join *)
            then Card.mul la.rows ra.rows
            else Card.of_bounds 0 (Card.mul la.rows ra.rows).Card.hi
          in
          { cols = relax_distinct (Array.append la.cols ra.cols); rows }
        | Joinop.Left_outer ->
          (* every left row survives (padded when unmatched), so left
             columns keep their abstraction; right columns may be NULL *)
          let pad c =
            if never then
              {
                av = { itv = Itv.bot; null = Null.Always; b3 = B3.null };
                distinct = Card.of_bounds 0 (Some 0);
              }
            else
              {
                av =
                  {
                    c.av with
                    null = Null.join c.av.null Null.Always;
                    b3 = { c.av.b3 with B3.can_null = true };
                  };
                distinct = Card.relax_lo c.distinct 0;
              }
          in
          let rows =
            {
              Card.lo = la.rows.Card.lo;
              hi =
                (match la.rows.Card.hi, ra.rows.Card.hi with
                 | Some lh, Some rh -> Some (lh * max rh 1)
                 | _ -> None);
            }
          in
          { cols = Array.append la.cols (Array.map pad ra.cols); rows }
      in
      (abs, lanns @ ranns)
    | Logical.Aggregate { input; group; aggs } ->
      let ia, anns = go ~env ~sink here input in
      let schema = Logical.schema input in
      let grouped = group <> [] in
      let rows_out =
        if not grouped then Card.exact 1
        else begin
          let lo = if ia.rows.Card.lo >= 1 then 1 else 0 in
          (* the group count is also bounded by the value combinations
             of the grouping columns *)
          let prod =
            List.fold_left
              (fun acc e ->
                match acc, e with
                | Some acc, Expr.Col i when i >= 0 && i < Array.length ia.cols ->
                  let c = ia.cols.(i) in
                  (match c.distinct.Card.hi with
                   | Some d when acc * (d + 1) <= 1_000_000_000 ->
                     Some (acc * (d + if c.av.null = Null.Never then 0 else 1))
                   | _ -> None)
                | _ -> None)
              (Some 1) group
          in
          let hi =
            match ia.rows.Card.hi, prod with
            | Some h, Some p -> Some (min h p)
            | Some h, None -> Some h
            | None, p -> p
          in
          Card.of_bounds lo hi
        end
      in
      let group_cols =
        List.map
          (fun e ->
            match e with
            | Expr.Col i when i >= 0 && i < Array.length ia.cols -> ia.cols.(i)
            | e ->
              {
                av = eval ~sink:sink_here ~schema ia e;
                distinct = Card.of_bounds 0 rows_out.Card.hi;
              })
          group
      in
      (* Per-group row population: a group that exists holds at least
         one row, and holds *all* of the input's rows only when it is
         provably the sole group.  Feeding the total population to the
         aggregate transfer would abstract a count over a 4-row input
         with 2 groups as [4, 4] — unsound for any group of fewer
         rows. *)
      let group_rows =
        if (not grouped) || rows_out.Card.hi = Some 1 then ia.rows
        else Card.of_bounds (min ia.rows.Card.lo 1) ia.rows.Card.hi
      in
      let agg_cols =
        List.map
          (fun (a : Groupop.agg_spec) ->
            let arg_av = eval ~sink:sink_here ~schema ia a.Groupop.arg in
            let cnt = nonnull_count ~null:arg_av.null ~rows:group_rows ~one_min:grouped in
            let what =
              Printf.sprintf "%s(%s)" (Aggregate.kind_name a.Groupop.kind)
                (Expr.to_string a.Groupop.arg)
            in
            {
              av = agg_transfer ~sink:sink_here ~what a.Groupop.kind ~arg_av ~cnt;
              distinct = Card.of_bounds 0 rows_out.Card.hi;
            })
          aggs
      in
      ({ cols = Array.of_list (group_cols @ agg_cols); rows = rows_out }, anns)
    | Logical.Window_op { input; fns } ->
      let ia, anns = go ~env ~sink here input in
      let schema = Logical.schema input in
      let fn_cols = List.map (window_fn_transfer ~sink:sink_here ~schema ia) fns in
      ({ cols = Array.append ia.cols (Array.of_list fn_cols); rows = ia.rows }, anns)
    | Logical.Number { input; _ } ->
      let ia, anns = go ~env ~sink here input in
      let num =
        {
          av =
            {
              itv =
                Itv.of_bounds 1.
                  (match ia.rows.Card.hi with
                   | None -> infinity
                   | Some h -> float_of_int (max h 1));
              null = Null.Never;
              b3 = B3.top;
            };
          distinct =
            Card.of_bounds (if ia.rows.Card.lo >= 1 then 1 else 0) ia.rows.Card.hi;
        }
      in
      ({ cols = Array.append ia.cols [| num |]; rows = ia.rows }, anns)
    | Logical.Sort { input; _ } -> let ia, anns = go ~env ~sink here input in (ia, anns)
    | Logical.Alias { input; _ } -> let ia, anns = go ~env ~sink here input in (ia, anns)
    | Logical.Distinct input ->
      let ia, anns = go ~env ~sink here input in
      let rows =
        Card.of_bounds (if ia.rows.Card.lo >= 1 then 1 else 0) ia.rows.Card.hi
      in
      ({ ia with rows }, anns)
    | Logical.Limit { input; n } ->
      let ia, anns = go ~env ~sink here input in
      let cols =
        Array.map
          (fun c -> { c with distinct = Card.cap (Card.relax_lo c.distinct 0) n })
          ia.cols
      in
      ({ cols; rows = Card.cap ia.rows n }, anns)
    | Logical.Union_all { left; right } ->
      let la, lanns = go ~env ~sink here left in
      let ra, ranns = go ~env ~sink here right in
      let cols =
        if Array.length la.cols = Array.length ra.cols then
          Array.map2
            (fun a b ->
              {
                av = aval_join a.av b.av;
                distinct =
                  {
                    Card.lo = max a.distinct.Card.lo b.distinct.Card.lo;
                    hi =
                      (match a.distinct.Card.hi, b.distinct.Card.hi with
                       | Some x, Some y -> Some (x + y)
                       | _ -> None);
                  };
              })
            la.cols ra.cols
        else top_cols (Array.length la.cols)
      in
      ({ cols; rows = Card.add la.rows ra.rows }, lanns @ ranns)
  in
  (abs, (String.concat "/" here, abs) :: child_anns)

and window_fn_transfer ~sink ~schema (ia : rel_abs) (fn : Logical.window_fn) : col_abs
    =
  let arg_av = eval ~sink ~schema ia fn.Logical.arg in
  let contains_current = Rewrite.frame_contains_current fn.Logical.frame in
  (* the frame lives inside one partition, itself at most the whole
     input; a frame containing the current row is never empty *)
  let frame_rows =
    let hi =
      match ia.rows.Card.hi, frame_max_width fn.Logical.frame with
      | Some m, Some w -> Some (min m w)
      | Some m, None -> Some m
      | None, Some w -> Some w
      | None, None -> None
    in
    Card.of_bounds (if contains_current then 1 else 0) hi
  in
  let generic_distinct = Card.of_bounds 0 ia.rows.Card.hi in
  let av =
    match fn.Logical.func with
    | Window.Agg kind ->
      let cnt =
        match arg_av.null with
        | Null.Never -> frame_rows
        | Null.Maybe -> Card.of_bounds 0 frame_rows.Card.hi
        | Null.Always -> Card.of_bounds 0 (Some 0)
      in
      let what =
        Printf.sprintf "window %s(%s) over %s" (Aggregate.kind_name kind)
          (Expr.to_string fn.Logical.arg)
          (match fn.Logical.frame.Window.lo with
           | Window.Unbounded_preceding -> "a cumulative frame"
           | _ -> "a sliding frame")
      in
      agg_transfer ~sink ~what kind ~arg_av ~cnt
    | Window.Row_number | Window.Rank | Window.Dense_rank ->
      {
        itv =
          Itv.of_bounds 1.
            (match ia.rows.Card.hi with
             | None -> infinity
             | Some h -> float_of_int (max h 1));
        null = Null.Never;
        b3 = B3.top;
      }
    | Window.Lag _ | Window.Lead _ ->
      (if arg_av.null = Null.Always then
         sink ~code:"RF203"
           (Printf.sprintf "window %s argument %s is always NULL"
              (Window.func_name fn.Logical.func)
              (Expr.to_string fn.Logical.arg)));
      {
        itv = arg_av.itv;
        null = (if arg_av.null = Null.Always then Null.Always else Null.Maybe);
        b3 = { arg_av.b3 with B3.can_null = true };
      }
    | Window.First_value | Window.Last_value ->
      (if arg_av.null = Null.Always then
         sink ~code:"RF203"
           (Printf.sprintf "window %s argument %s is always NULL"
              (Window.func_name fn.Logical.func)
              (Expr.to_string fn.Logical.arg)));
      {
        itv = arg_av.itv;
        null =
          (match arg_av.null with
           | Null.Always -> Null.Always
           | Null.Never when contains_current -> Null.Never
           | _ -> Null.Maybe);
        b3 = { arg_av.b3 with B3.can_null = true };
      }
  in
  { av; distinct = generic_distinct }

(* ---- Entry points ---- *)

let run ?(env = no_env) plan =
  let diags = ref [] in
  let sink ~code ~path msg = diags := Diagnostic.make ~code ~path msg :: !diags in
  let abs, anns = go ~env ~sink [] plan in
  let diags =
    List.sort_uniq compare (List.rev !diags)
  in
  (abs, anns, diags)

let analyze ?env plan =
  let abs, _, _ = run ?env plan in
  abs

let annotate ?env plan =
  (* a plan the well-formedness checker rejects has no trustworthy
     schema to analyze against *)
  if List.exists Diagnostic.is_error (Check.check plan) then ([], [])
  else
    let _, anns, diags = run ?env plan in
    (anns, diags)

let diagnostics ?env plan = snd (annotate ?env plan)

let report ?env plan =
  let abs = analyze ?env plan in
  let schema = Logical.schema plan in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "rows: %s\n" (Card.to_string abs.rows));
  Array.iteri
    (fun i (c : Schema.column) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-18s %-7s %s\n" c.Schema.name
           (Dtype.to_string c.Schema.ty)
           (if i < Array.length abs.cols then col_to_string abs.cols.(i)
            else "(?)")))
    schema;
  Buffer.contents buf
