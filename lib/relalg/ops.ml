(* Basic relational operators not worth their own module. *)

(* Chunks whose zones rule out a conjunct are skipped unread. *)
let filter pred (r : Relation.t) : Relation.t =
  (* [compile_pred] minus its one-row wrapper: this loop is the hottest
     per-row path of the warehouse lookups *)
  let holds = Expr.compile_pred_pair ~left_arity:max_int pred in
  Relation.filter (Expr.int_ranges pred) (fun row -> holds row row) r

(* Project to a list of (expression, output column name).  Output types are
   inferred from the input schema. *)
let project (exprs : (Expr.t * string) list) (r : Relation.t) : Relation.t =
  let input = Relation.schema r in
  let schema =
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
  in
  let fns = Array.of_list (List.map (fun (e, _) -> Expr.compile e) exprs) in
  let project row =
    let out = Array.make (Array.length fns) Value.Null in
    for j = 0 to Array.length fns - 1 do
      out.(j) <- fns.(j) row
    done;
    out
  in
  Relation.map schema project r

let distinct (r : Relation.t) : Relation.t =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Relation.iter
    (fun row ->
      if not (Hashtbl.mem seen row) then begin
        Hashtbl.add seen row ();
        out := row :: !out
      end)
    r;
  Relation.of_rev_list (Relation.schema r) !out

let limit n (r : Relation.t) : Relation.t =
  let n = max 0 (min n (Relation.cardinality r)) in
  Relation.init (Relation.schema r) n (Relation.get r)

(* UNION ALL: schemas must be compatible (same arity and types); the left
   schema's names win. *)
let union_all (a : Relation.t) (b : Relation.t) : Relation.t =
  let sa = Relation.schema a and sb = Relation.schema b in
  if Schema.arity sa <> Schema.arity sb then
    Value.type_error "UNION: arity mismatch (%d vs %d)" (Schema.arity sa)
      (Schema.arity sb);
  Relation.concat a b

let union (a : Relation.t) (b : Relation.t) : Relation.t = distinct (union_all a b)
