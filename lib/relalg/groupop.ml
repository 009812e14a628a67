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

let group_by ?(group : Expr.t list = []) ~(aggs : agg_spec list) (r : Relation.t) :
    Relation.t =
  let schema = output_schema (Relation.schema r) group aggs in
  let tbl : (Row.t, Aggregate.state array) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let group_fns = Array.of_list (List.map Expr.compile group) in
  let arg_fns = Array.of_list (List.map (fun a -> Expr.compile a.arg) aggs) in
  Relation.iter
    (fun row ->
      let key = Array.make (Array.length group_fns) Value.Null in
      for k = 0 to Array.length group_fns - 1 do
        key.(k) <- group_fns.(k) row
      done;
      let states =
        match Hashtbl.find_opt tbl key with
        | Some st -> st
        | None ->
          let st = Array.of_list (List.map (fun a -> Aggregate.create a.kind) aggs) in
          Hashtbl.add tbl key st;
          order := key :: !order;
          st
      in
      for i = 0 to Array.length arg_fns - 1 do
        Aggregate.add states.(i) (arg_fns.(i) row)
      done)
    r;
  (* Global aggregation over an empty input still yields one row. *)
  if !order = [] && group = [] then begin
    let st = Array.of_list (List.map (fun a -> Aggregate.create a.kind) aggs) in
    Hashtbl.add tbl [||] st;
    order := [ [||] ]
  end;
  (* [!order] lists the groups newest first: the rows are built in
     reverse *)
  let rows =
    List.map
      (fun key ->
        let states = Hashtbl.find tbl key in
        Row.append key (Array.map Aggregate.result states))
      !order
  in
  Relation.of_rev_list schema rows
