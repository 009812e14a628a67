(* Join algorithms.  All joins emit the concatenated schema (left columns
   first).  The join condition is an expression over the concatenated
   schema.

   Three physical strategies, chosen by the planner:
   - nested loop: any condition, O(|L|·|R|);
   - hash join: equi-conjuncts plus an optional residual;
   - index join: for each outer (left) row, look the matching inner rows up
     in an index on an inner column — either by equality or by a range
     whose bounds are computed from the outer row.  This is the plan the
     paper's Table 1 calls "self join method with index". *)

type kind =
  | Inner
  | Left_outer

let null_row n : Row.t = Array.make n Value.Null

let output_schema left right =
  Schema.append (Relation.schema left) (Relation.schema right)

(* A condition or residual over the concatenated schema, tested on the
   (left, right) pair so rejected pairs build no combined row. *)
let pair_pred left cond =
  Expr.compile_pred_pair ~left_arity:(Schema.arity (Relation.schema left)) cond

let nested_loop kind (left : Relation.t) (right : Relation.t) cond : Relation.t =
  let out = ref [] in
  let rnull = null_row (Schema.arity (Relation.schema right)) in
  let holds = pair_pred left cond in
  Relation.iter
    (fun lrow ->
      let matched = ref false in
      Relation.iter
        (fun rrow ->
          if holds lrow rrow then begin
            matched := true;
            out := Row.append lrow rrow :: !out
          end)
        right;
      if (not !matched) && kind = Left_outer then
        out := Row.append lrow rnull :: !out)
    left;
  Relation.of_rev_list (output_schema left right) !out

(* Keyed by [Row.equal]: INT 1 and FLOAT 1.0 are one key, where a
   polymorphic [Hashtbl] keys by structure and keeps them apart. *)
module Row_tbl = Hashtbl.Make (Row)

(* Hash join on [left_keys(l) = right_keys(r)] pairwise, with an optional
   residual predicate over the combined row.  SQL equality: NULL keys
   never match, INT and FLOAT keys of equal value do. *)
let hash_join kind ~(left : Relation.t) ~(right : Relation.t) ~left_keys ~right_keys
    ?residual () : Relation.t =
  if List.length left_keys <> List.length right_keys || left_keys = [] then
    invalid_arg "Joinop.hash_join: key lists must be equal-length and non-empty";
  (* a row's key, or [[||]] when a component is NULL *)
  let key_of exprs =
    let fns = Array.of_list (List.map Expr.compile exprs) in
    fun row ->
      let k = Array.make (Array.length fns) Value.Null and null = ref false in
      for i = 0 to Array.length fns - 1 do
        k.(i) <- fns.(i) row;
        if Value.is_null k.(i) then null := true
      done;
      if !null then [||] else k
  in
  let left_key = key_of left_keys and right_key = key_of right_keys in
  let residual = Option.map (pair_pred left) residual in
  let tbl = Row_tbl.create (max 16 (Relation.cardinality right)) in
  Relation.iter
    (fun rrow ->
      let k = right_key rrow in
      if Array.length k > 0 then
        Row_tbl.replace tbl k (rrow :: Option.value ~default:[] (Row_tbl.find_opt tbl k)))
    right;
  (* each bucket in build order once, not once per probe *)
  Row_tbl.filter_map_inplace (fun _ rrows -> Some (List.rev rrows)) tbl;
  let rnull = null_row (Schema.arity (Relation.schema right)) in
  let out = ref [] in
  Relation.iter
    (fun lrow ->
      let k = left_key lrow in
      let candidates =
        if Array.length k = 0 then []
        else Option.value ~default:[] (Row_tbl.find_opt tbl k)
      in
      let matched = ref false in
      List.iter
        (fun rrow ->
          let ok = match residual with None -> true | Some p -> p lrow rrow in
          if ok then begin
            matched := true;
            out := Row.append lrow rrow :: !out
          end)
        candidates;
      if (not !matched) && kind = Left_outer then
        out := Row.append lrow rnull :: !out)
    left;
  Relation.of_rev_list (output_schema left right) !out

(* Probe specification for an index join: how to derive the inner key
   bounds from the outer row. *)
type probe =
  | Probe_eq of Expr.t                       (* inner.key = f(outer) *)
  | Probe_range of Expr.t option * Expr.t option  (* f(outer) <= inner.key <= g(outer) *)
  | Probe_in of Expr.t list                  (* inner.key IN (f(outer), g(outer), ...) *)

let index_join kind ~(left : Relation.t) ~(right : Relation.t) ~(index : Index.t)
    ~probe ?residual () : Relation.t =
  let rnull = null_row (Schema.arity (Relation.schema right)) in
  let residual = Option.map (pair_pred left) residual in
  (* [matches lrow f]: [f] on each candidate inner row id, in index order *)
  let matches : Row.t -> (int -> unit) -> unit =
    match probe with
    | Probe_eq e ->
      let key = Expr.compile e in
      fun lrow f -> List.iter f (Index.lookup_eq index (key lrow))
    | Probe_range (lo, hi) ->
      let lo = Option.map Expr.compile lo and hi = Option.map Expr.compile hi in
      fun lrow f ->
        let eval_bound = Option.map (fun g -> g lrow) in
        (match eval_bound lo, eval_bound hi with
         (* a NULL bound can never compare TRUE against anything *)
         | Some Value.Null, _ | _, Some Value.Null -> ()
         | lo, hi -> Index.iter_range index ?lo ?hi f)
    | Probe_in items ->
      let items = List.map Expr.compile items in
      fun lrow f ->
        (* deduplicate keys so colliding item values do not double-count *)
        let keys = List.map (fun g -> g lrow) items in
        let keys = List.sort_uniq Value.compare keys in
        List.iter (fun k -> List.iter f (Index.lookup_eq index k)) keys
  in
  let out = ref [] in
  Relation.iter
    (fun lrow ->
      let matched = ref false in
      matches lrow (fun rid ->
          let rrow = Relation.get right rid in
          let ok = match residual with None -> true | Some p -> p lrow rrow in
          if ok then begin
            matched := true;
            out := Row.append lrow rrow :: !out
          end);
      if (not !matched) && kind = Left_outer then
        out := Row.append lrow rnull :: !out)
    left;
  Relation.of_rev_list (output_schema left right) !out
