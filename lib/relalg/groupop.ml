(* Grouped aggregation (the classic GROUP BY, the paper's "first step" of
   reporting-function evaluation).  Output schema: one column per group
   expression followed by one column per aggregate.

   COUNT star is encoded as COUNT over a constant: it never sees NULL, so
   it counts rows. *)

type agg_spec = {
  kind : Aggregate.kind;
  arg : Expr.t;
  name : string;
}

let star_count name = { kind = Aggregate.Count; arg = Expr.Const (Value.Int 1); name }

let output_schema (input : Schema.t) group aggs : Schema.t =
  let group_cols =
    List.mapi
      (fun i e ->
        match e with
        | Expr.Col c -> (Schema.col input c)
        | _ ->
          Schema.column (Printf.sprintf "group_%d" i)
            (Option.value ~default:Dtype.String (Expr.infer_type input e)))
      group
  in
  let agg_cols =
    List.map
      (fun a ->
        let input_ty =
          try Expr.infer_type input a.arg with Expr.Type_mismatch _ -> None
        in
        let ty =
          Option.value ~default:Dtype.Float (Aggregate.result_type a.kind input_ty)
        in
        Schema.column a.name ty)
      aggs
  in
  Schema.make (group_cols @ agg_cols)

(* The group table: one entry per group key under SQL equality
   ([Row.Tbl]), so INT 1 and FLOAT 1.0 are one group, and so are 0.0
   and -0.0, and NULL groups with NULL.  A group's key is the first
   key value met.  Each row's key is computed into one reused probe
   buffer: only a new group allocates its key. *)
type table = {
  group_fns : (Row.t -> Value.t) array;
  arg_fns : (Row.t -> Value.t) array;
  kinds : Aggregate.kind array;
  global : bool;  (* no group expressions *)
  groups : Aggregate.state array Row.Tbl.t;
  probe : Row.t;
  mutable order : (Row.t * Aggregate.state array) list;  (* newest first *)
}

let table ~(group : Expr.t list) ~(aggs : agg_spec list) =
  let group_fns = Array.of_list (List.map Expr.compile group) in
  {
    group_fns;
    arg_fns = Array.of_list (List.map (fun a -> Expr.compile a.arg) aggs);
    kinds = Array.of_list (List.map (fun a -> a.kind) aggs);
    global = group = [];
    groups = Row.Tbl.create 64;
    probe = Array.make (Array.length group_fns) Value.Null;
    order = [];
  }

let new_group t key =
  let states = Array.map Aggregate.create t.kinds in
  Row.Tbl.add t.groups key states;
  t.order <- (key, states) :: t.order;
  states

let add t row =
  let key = t.probe in
  for k = 0 to Array.length t.group_fns - 1 do
    key.(k) <- t.group_fns.(k) row
  done;
  let states =
    match Row.Tbl.find t.groups key with
    | states -> states
    | exception Not_found -> new_group t (Array.copy key)
  in
  for i = 0 to Array.length t.arg_fns - 1 do
    Aggregate.add states.(i) (t.arg_fns.(i) row)
  done

let iter_results t f =
  (* Global aggregation over an empty input still yields one row. *)
  if t.order = [] && t.global then ignore (new_group t [||]);
  List.iter
    (fun (key, states) ->
      let nk = Array.length key in
      let row = Array.make (nk + Array.length states) Value.Null in
      Array.blit key 0 row 0 nk;
      Array.iteri (fun i st -> row.(nk + i) <- Aggregate.result st) states;
      f row)
    (List.rev t.order)

let group_by ?(group : Expr.t list = []) ~(aggs : agg_spec list) (r : Relation.t) :
    Relation.t =
  let t = table ~group ~aggs in
  Relation.iter (add t) r;
  let rows = ref [] in
  iter_results t (fun row -> rows := row :: !rows);
  Relation.of_rev_list (output_schema (Relation.schema r) group aggs) !rows
