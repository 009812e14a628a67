(* Basic relational operators not worth their own module. *)

(* Chunks whose zones rule out a conjunct are skipped unread. *)
let filter pred (r : Relation.t) : Relation.t =
  (* [compile_pred] minus its one-row wrapper: this loop is the hottest
     per-row path of the warehouse lookups *)
  let holds = Expr.compile_pred_pair ~left_arity:max_int pred in
  Relation.filter (Expr.int_ranges pred) (fun row -> holds row row) r

(* Project to a list of (expression, output column name).  Output types are
   inferred from the input schema. *)
let project_schema (input : Schema.t) (exprs : (Expr.t * string) list) : Schema.t =
  Schema.make
    (List.map
       (fun (e, name) ->
         let ty =
           match Expr.infer_type input e with
           | Some t -> t
           | None -> Dtype.String
           | exception Expr.Type_mismatch m -> Value.type_error "%s" m
         in
         Schema.column name ty)
       exprs)

(* The projected row of a (left, right) pair, its expressions evaluated
   in order.  With [~left_arity:max_int], [f row row] projects one row. *)
let projector ~left_arity (exprs : (Expr.t * string) list) : Row.t -> Row.t -> Row.t =
  let compile (e, _) = Expr.compile_pair ~left_arity e in
  match exprs with
  | [ e0 ] ->
    let f0 = compile e0 in
    fun l r -> [| f0 l r |]
  | [ e0; e1 ] ->
    let f0 = compile e0 and f1 = compile e1 in
    fun l r ->
      let v0 = f0 l r in
      [| v0; f1 l r |]
  | [ e0; e1; e2 ] ->
    let f0 = compile e0 and f1 = compile e1 and f2 = compile e2 in
    fun l r ->
      let v0 = f0 l r in
      let v1 = f1 l r in
      [| v0; v1; f2 l r |]
  | _ ->
    let fns = Array.of_list (List.map compile exprs) in
    fun l r ->
      let out = Array.make (Array.length fns) Value.Null in
      for j = 0 to Array.length fns - 1 do
        out.(j) <- fns.(j) l r
      done;
      out

let project (exprs : (Expr.t * string) list) (r : Relation.t) : Relation.t =
  let f = projector ~left_arity:max_int exprs in
  Relation.map (project_schema (Relation.schema r) exprs) (fun row -> f row row) r

(* True the first time a row is met, under SQL equality ([Row.Tbl]). *)
let first_seen () =
  let seen = Row.Tbl.create 64 in
  fun row ->
    if Row.Tbl.mem seen row then false
    else begin
      Row.Tbl.add seen row ();
      true
    end

let distinct (r : Relation.t) : Relation.t = Relation.filter [] (first_seen ()) r

let limit n (r : Relation.t) : Relation.t =
  let n = max 0 (min n (Relation.cardinality r)) in
  Relation.init (Relation.schema r) n (Relation.get r)

(* UNION ALL: schemas must be compatible (same arity and types); the left
   schema's names win. *)
let union_schema (sa : Schema.t) (sb : Schema.t) : Schema.t =
  if Schema.arity sa <> Schema.arity sb then
    Value.type_error "UNION: arity mismatch (%d vs %d)" (Schema.arity sa)
      (Schema.arity sb);
  sa

let union_all (a : Relation.t) (b : Relation.t) : Relation.t =
  ignore (union_schema (Relation.schema a) (Relation.schema b));
  Relation.concat a b

let union (a : Relation.t) (b : Relation.t) : Relation.t = distinct (union_all a b)
