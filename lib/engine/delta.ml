(* Accumulated base-table changes for one batch scope.

   A delta is a per-table multiset of inserted rows, deleted rows and
   (old, new) update pairs, consolidated as changes arrive so each base
   row appears at most once: inserting then deleting a row inside one
   batch cancels out, updating an inserted row folds into the insert,
   chained updates collapse to (original, final).  Propagation at batch
   commit therefore sees the *net* change, which is exactly what the
   multi-row maintenance rules need.

   The structure is persistent (a [Map] of immutable accumulators), so
   the undo log can snapshot it by capturing the old pointer. *)

open Rfview_relalg

module M = Map.Make (String)

let row_equal (a : Row.t) (b : Row.t) =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i v -> if not (Value.equal v b.(i)) then ok := false) a;
      !ok)

(* Internal accumulator: newest-first lists, reversed on read. *)
type acc = {
  ins_rev : Row.t list;
  del_rev : Row.t list;
  upd_rev : (Row.t * Row.t) list;  (* (original, current) *)
}

let empty_acc = { ins_rev = []; del_rev = []; upd_rev = [] }

type table_delta = {
  inserted : Row.t list;
  deleted : Row.t list;
  updated : (Row.t * Row.t) list;
}

type t = acc M.t

let empty : t = M.empty
let is_empty (d : t) = M.is_empty d

let key table = String.lowercase_ascii table

let acc_of d table =
  match M.find_opt (key table) d with Some a -> a | None -> empty_acc

(* Remove the first list element satisfying [p]; None when absent. *)
let rec remove_first p = function
  | [] -> None
  | x :: rest when p x -> Some rest
  | x :: rest ->
    (match remove_first p rest with
     | Some rest' -> Some (x :: rest')
     | None -> None)

(* Replace the first element satisfying [p] with [f x]. *)
let rec replace_first p f = function
  | [] -> None
  | x :: rest when p x -> Some (f x :: rest)
  | x :: rest ->
    (match replace_first p f rest with
     | Some rest' -> Some (x :: rest')
     | None -> None)

let add_insert a row = { a with ins_rev = row :: a.ins_rev }

let add_delete a row =
  (* a row inserted earlier in the batch simply vanishes *)
  match remove_first (row_equal row) a.ins_rev with
  | Some ins_rev -> { a with ins_rev }
  | None ->
    (* a row updated earlier: the delete targets its current value; the
       net effect is deleting the original *)
    (match
       remove_first (fun (_, cur) -> row_equal row cur) a.upd_rev
     with
     | Some upd_rev ->
       let original =
         List.find_map
           (fun (pre, cur) -> if row_equal row cur then Some pre else None)
           a.upd_rev
       in
       (match original with
        | Some pre -> { a with upd_rev; del_rev = pre :: a.del_rev }
        | None -> { a with del_rev = row :: a.del_rev })
     | None -> { a with del_rev = row :: a.del_rev })

let add_update a (old_row, new_row) =
  (* updating a row inserted this batch folds into the insert *)
  match replace_first (row_equal old_row) (fun _ -> new_row) a.ins_rev with
  | Some ins_rev -> { a with ins_rev }
  | None ->
    (* chained updates collapse to (original, final) *)
    (match
       replace_first
         (fun (_, cur) -> row_equal old_row cur)
         (fun (pre, _) -> (pre, new_row))
         a.upd_rev
     with
     | Some upd_rev -> { a with upd_rev }
     | None -> { a with upd_rev = (old_row, new_row) :: a.upd_rev })

(* Fold [changes] into [table]'s accumulator; no change, no entry. *)
let record add d table changes =
  if changes = [] then d
  else M.add (key table) (List.fold_left add (acc_of d table) changes) d

let insert (d : t) ~table rows = record add_insert d table rows
let delete (d : t) ~table rows = record add_delete d table rows
let update (d : t) ~table pairs = record add_update d table pairs

let tables (d : t) = List.map fst (M.bindings d)

let find (d : t) table : table_delta option =
  match M.find_opt (key table) d with
  | None -> None
  | Some a ->
    let td =
      {
        inserted = List.rev a.ins_rev;
        deleted = List.rev a.del_rev;
        updated = List.rev a.upd_rev;
      }
    in
    if td.inserted = [] && td.deleted = [] && td.updated = [] then None
    else Some td

let weight (td : table_delta) =
  List.length td.inserted + List.length td.deleted + List.length td.updated
