(* Sorting.  A key is an expression plus direction; NULLs sort first on
   ascending keys (and last on descending), matching [Value.compare]. *)

type key = {
  expr : Expr.t;
  asc : bool;
}

let key ?(asc = true) expr = { expr; asc }

(* Key values of a row array.  Each key is compiled once and evaluated
   at most once per row, when a comparison first needs it.  A sort first
   compares each row with the next, in row order, to see whether the
   input is already ordered, so keys are first evaluated in row order.
   That check reaches a key of a row only where the row and its
   neighbour agree on every earlier key; rows that agree on those keys
   end up adjacent to such a row in any ordering, and a sort compares
   every pair that ends up adjacent, so the sort would have evaluated
   that key too.  A key no comparison reaches is still never
   evaluated, and a key that raises still raises. *)
type keyed = {
  rows : Row.t array;
  fns : (Row.t -> Value.t) array;
  ascending : bool array;
  vals : Value.t array array; (* vals.(k).(i), [unset] until evaluated *)
}

(* Physically unique, so no evaluated key is ever mistaken for it. *)
let unset = Value.String "unset"

let keyed keys rows =
  let n = Array.length rows in
  {
    rows;
    fns = Array.of_list (List.map (fun k -> Expr.compile k.expr) keys);
    ascending = Array.of_list (List.map (fun (k : key) -> k.asc) keys);
    vals = Array.of_list (List.map (fun _ -> Array.make n unset) keys);
  }

let key_value t k i =
  let v = t.vals.(k).(i) in
  if v != unset then v
  else begin
    let v = t.fns.(k) t.rows.(i) in
    t.vals.(k).(i) <- v;
    v
  end

let rec compare_from t i j k =
  if k = Array.length t.fns then 0
  else
    let c = Value.compare (key_value t k i) (key_value t k j) in
    let c = if t.ascending.(k) then c else -c in
    if c <> 0 then c else compare_from t i j (k + 1)

let compare_rows t i j = compare_from t i j 0

(* Sort [idx], the identity permutation of [0, n), by [cmp], a strict
   total order (it breaks ties on the index).  Sorted input, such as a
   scan of a table kept in key order, costs n-1 comparisons and no
   sort: the identity is then the one ordering [cmp] admits. *)
let sort_identity cmp idx =
  let n = Array.length idx in
  let rec ordered i = i >= n - 1 || (cmp i (i + 1) < 0 && ordered (i + 1)) in
  if not (ordered 0) then Array.sort cmp idx

let sort_indices keys (rows : Row.t array) : int array =
  let t = keyed keys rows in
  let idx = Array.init (Array.length rows) Fun.id in
  let cmp i j =
    let c = compare_rows t i j in
    if c <> 0 then c else Int.compare i j
  in
  sort_identity cmp idx;
  idx

let sort keys (r : Relation.t) : Relation.t =
  let rows = Relation.rows r in
  let idx = sort_indices keys rows in
  Relation.init (Relation.schema r) (Array.length idx) (fun k -> rows.(idx.(k)))

type partitioned = {
  idx : int array;
  order_keys : keyed;
  segments : (int * int) list;
}

let rec compare_values_from (a : Value.t array) (b : Value.t array) k =
  if k = Array.length a then 0
  else
    let c = Value.compare a.(k) b.(k) in
    if c <> 0 then c else compare_values_from a b (k + 1)

let compare_values a b = compare_values_from a b 0

let partition_sort partition order (rows : Row.t array) : partitioned =
  let part = Array.of_list (List.map Expr.compile partition) in
  let part_keys =
    Row.array_init (Array.length rows) (fun i ->
        let key = Array.make (Array.length part) Value.Null in
        for k = 0 to Array.length part - 1 do
          key.(k) <- part.(k) rows.(i)
        done;
        key)
  in
  let order_keys = keyed order rows in
  let n = Array.length rows in
  let idx = Array.init n Fun.id in
  let cmp i j =
    let c = compare_values part_keys.(i) part_keys.(j) in
    if c <> 0 then c
    else
      let c = compare_rows order_keys i j in
      if c <> 0 then c else Int.compare i j
  in
  sort_identity cmp idx;
  let rec segments acc start =
    if start >= n then List.rev acc
    else begin
      let key = part_keys.(idx.(start)) in
      let stop = ref (start + 1) in
      while !stop < n && compare_values part_keys.(idx.(!stop)) key = 0 do
        incr stop
      done;
      segments ((start, !stop) :: acc) !stop
    end
  in
  { idx; order_keys; segments = segments [] 0 }
