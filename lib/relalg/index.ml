(* Secondary indexes over a relation's rows, by row position.

   Two flavours, mirroring what the paper's evaluation needs (Table 1
   contrasts the self-join simulation with and without an index on the
   sequence position):

   - [Hash]: equality lookups, O(1) expected.
   - [Ordered]: a sorted (key, row-id) array answering point and range
     lookups by binary search, standing in for DB2's B-tree. *)

type kind =
  | Hash
  | Ordered

(* keyed by [Value.equal], so INT and FLOAT keys of equal value meet *)
module Value_tbl = Hashtbl.Make (Value)

type t =
  | Hash_index of int list Value_tbl.t
  | Ordered_index of (Value.t * int) array

let kind_name = function
  | Hash -> "HASH"
  | Ordered -> "ORDERED"

(* NULL keys are not indexed: SQL equality/range predicates never match
   NULL, so lookups could never return them anyway. *)
let build kind (rel : Relation.t) ~key_col : t =
  match kind with
  | Hash ->
    let tbl = Value_tbl.create (max 16 (Relation.cardinality rel)) in
    (* from the last row back, so each key lists its rows in row order:
       an index join then meets SQL-equal rows in the order the hash
       and nested-loop joins do *)
    for i = Relation.cardinality rel - 1 downto 0 do
      let k = Row.get (Relation.get rel i) key_col in
      if not (Value.is_null k) then
        Value_tbl.replace tbl k (i :: Option.value ~default:[] (Value_tbl.find_opt tbl k))
    done;
    Hash_index tbl
  | Ordered ->
    let count = ref 0 in
    Relation.iter
      (fun row -> if not (Value.is_null (Row.get row key_col)) then incr count)
      rel;
    let count = !count in
    (* filled from a constant, not [Array.of_list]: see [Row.array_init] *)
    let entries = Array.make count (Value.Null, 0) in
    let next = ref 0 in
    Relation.iteri
      (fun i row ->
        let k = Row.get row key_col in
        if not (Value.is_null k) then begin
          entries.(!next) <- (k, i);
          incr next
        end)
      rel;
    Array.sort
      (fun (a, i) (b, j) ->
        let c = Value.compare a b in
        if c <> 0 then c else Int.compare i j)
      entries;
    Ordered_index entries

(* First position with key >= k. *)
let lower_bound entries k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare (fst entries.(mid)) k < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length entries)

(* First position with key > k. *)
let upper_bound entries k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare (fst entries.(mid)) k <= 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length entries)

let collect_ids entries ~start ~stop =
  let rec collect i acc =
    if i < start then acc else collect (i - 1) (snd entries.(i) :: acc)
  in
  if start >= stop then [] else collect (stop - 1) []

(* Row ids whose key equals [k]. *)
let lookup_eq t k =
  if Value.is_null k then []
  else
    match t with
    | Hash_index tbl -> Option.value ~default:[] (Value_tbl.find_opt tbl k)
    | Ordered_index entries ->
      collect_ids entries ~start:(lower_bound entries k) ~stop:(upper_bound entries k)

(* [f] on each row id whose key lies in [lo, hi] (inclusive; either
   bound optional), in key order; no list of ids is built. *)
let iter_range t ?lo ?hi f =
  match t with
  | Hash_index _ -> invalid_arg "Index.iter_range: hash indexes answer equality only"
  | Ordered_index entries ->
    let start = match lo with None -> 0 | Some v -> lower_bound entries v in
    let stop = match hi with None -> Array.length entries | Some v -> upper_bound entries v in
    for i = start to stop - 1 do
      f (snd entries.(i))
    done

let supports_range t =
  match t with Ordered_index _ -> true | Hash_index _ -> false
