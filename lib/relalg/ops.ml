(* Basic relational operators not worth their own module. *)

let filter pred (r : Relation.t) : Relation.t =
  (* [compile_pred] minus its one-row wrapper: this loop is the hottest
     per-row path of the warehouse lookups *)
  let holds = Expr.compile_pred_pair ~left_arity:max_int pred in
  let kept = ref [] in
  Array.iter (fun row -> if holds row row then kept := row :: !kept) (Relation.rows r);
  Relation.of_rev_list (Relation.schema r) !kept

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
  let rows = Relation.rows r in
  let project row =
    let out = Array.make (Array.length fns) Value.Null in
    for j = 0 to Array.length fns - 1 do
      out.(j) <- fns.(j) row
    done;
    out
  in
  Relation.of_array schema (Row.array_init (Array.length rows) (fun i -> project rows.(i)))

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
  let rows = Relation.rows r in
  let n = min n (Array.length rows) in
  Relation.of_array (Relation.schema r) (Array.sub rows 0 (max 0 n))

(* UNION ALL: schemas must be compatible (same arity and types); the left
   schema's names win. *)
let union_all (a : Relation.t) (b : Relation.t) : Relation.t =
  let sa = Relation.schema a and sb = Relation.schema b in
  if Schema.arity sa <> Schema.arity sb then
    Value.type_error "UNION: arity mismatch (%d vs %d)" (Schema.arity sa)
      (Schema.arity sb);
  Relation.of_array sa (Array.append (Relation.rows a) (Relation.rows b))

let union (a : Relation.t) (b : Relation.t) : Relation.t = distinct (union_all a b)
