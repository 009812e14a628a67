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

(* Probe specification for an index join: how to derive the inner key
   bounds from the outer row. *)
type probe =
  | Probe_eq of Expr.t                       (* inner.key = f(outer) *)
  | Probe_range of Expr.t option * Expr.t option  (* f(outer) <= inner.key <= g(outer) *)
  | Probe_in of Expr.t list                  (* inner.key IN (f(outer), g(outer), ...) *)

type access =
  | Every
  | Keys of Expr.t list * Expr.t list
  | Index of Index.t * probe

(* [candidates access right]: [f] on each right row that may match a
   left row, in build order. *)
let candidates access (right : Relation.t) : Row.t -> (Row.t -> unit) -> unit =
  match access with
  | Every -> fun _ f -> Relation.iter f right
  | Keys (left_keys, right_keys) ->
    if List.length left_keys <> List.length right_keys || left_keys = [] then
      invalid_arg "Joinop.hash_join: key lists must be equal-length and non-empty";
    (* SQL equality: NULL keys never match, INT and FLOAT keys of equal
       value do ([Row.Tbl]) *)
    let compile keys = Array.of_list (List.map Expr.compile keys) in
    let lfns = compile left_keys and rfns = compile right_keys in
    (* [fill fns row k]: [k] holds the key of [row]; false when a
       component is NULL *)
    let fill fns row k =
      let ok = ref true in
      for i = 0 to Array.length fns - 1 do
        k.(i) <- fns.(i) row;
        if Value.is_null k.(i) then ok := false
      done;
      !ok
    in
    let tbl = Row.Tbl.create (max 16 (Relation.cardinality right)) in
    Relation.iter
      (fun rrow ->
        let k = Array.make (Array.length rfns) Value.Null in
        if fill rfns rrow k then
          Row.Tbl.replace tbl k
            (rrow :: Option.value ~default:[] (Row.Tbl.find_opt tbl k)))
      right;
    (* each bucket in build order once, not once per probe *)
    Row.Tbl.filter_map_inplace (fun _ rrows -> Some (List.rev rrows)) tbl;
    (* one probe key, refilled for every left row *)
    let probe = Array.make (Array.length lfns) Value.Null in
    fun lrow f ->
      if fill lfns lrow probe then begin
        match Row.Tbl.find tbl probe with
        | bucket -> List.iter f bucket
        | exception Not_found -> ()
      end
  | Index (index, probe) ->
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
    fun lrow f -> matches lrow (fun rid -> f (Relation.get right rid))

let prober kind access ~left_arity ~(right : Relation.t) ~residual ~out emit =
  let each = candidates access right in
  let rnull = null_row (Schema.arity (Relation.schema right)) in
  (* the residual is tested on the (left, right) pair, so a rejected
     pair builds no row *)
  let holds =
    match residual with
    | None -> fun _ _ -> true
    | Some e -> Expr.compile_pred_pair ~left_arity e
  in
  fun lrow ->
    let matched = ref false in
    each lrow (fun rrow ->
        if holds lrow rrow then begin
          matched := true;
          emit (out lrow rrow)
        end);
    if (not !matched) && kind = Left_outer then emit (out lrow rnull)

let join kind access ~(left : Relation.t) ~(right : Relation.t) ~residual =
  let out = ref [] in
  let step =
    prober kind access ~left_arity:(Schema.arity (Relation.schema left)) ~right ~residual
      ~out:Row.append (fun row -> out := row :: !out)
  in
  Relation.iter step left;
  Relation.of_rev_list (output_schema left right) !out

let nested_loop kind left right cond = join kind Every ~left ~right ~residual:(Some cond)

let hash_join kind ~left ~right ~left_keys ~right_keys ?residual () =
  join kind (Keys (left_keys, right_keys)) ~left ~right ~residual

let index_join kind ~left ~right ~index ~probe ?residual () =
  join kind (Index (index, probe)) ~left ~right ~residual
