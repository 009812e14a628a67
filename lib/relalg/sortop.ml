(* Sorting.  A key is an expression plus direction; NULLs sort first on
   ascending keys (and last on descending), matching [Value.compare]. *)

type key = {
  expr : Expr.t;
  asc : bool;
}

let key ?(asc = true) expr = { expr; asc }

(* Key values of a row array.  A key that is a plain column is read
   from the rows where a comparison needs it.  Any other key is
   compiled once and evaluated at most once per row, when a comparison
   first needs it.  A sort first compares each row with the next, in
   row order, to see whether the input is already ordered, so keys are
   first evaluated in row order.  That check reaches a key of a row
   only where the row and its neighbour agree on every earlier key;
   rows that agree on those keys end up adjacent to such a row in any
   ordering, and a sort compares every pair that ends up adjacent, so
   the sort would have evaluated that key too.  A key no comparison
   reaches is still never evaluated, and a key that raises still
   raises. *)
type source =
  | Column of int
  | Computed of (Row.t -> Value.t) * Value.t array (* [unset] until evaluated *)

type keyed = {
  rows : Row.t array;
  sources : source array;
  ascending : bool array;
}

(* Physically unique, so no evaluated key is ever mistaken for it. *)
let unset = Value.String "unset"

let source n (e : Expr.t) =
  match e with
  | Expr.Col c -> Column c
  | e -> Computed (Expr.compile e, Array.make n unset)

let keyed keys rows =
  let n = Array.length rows in
  {
    rows;
    sources = Array.of_list (List.map (fun k -> source n k.expr) keys);
    ascending = Array.of_list (List.map (fun (k : key) -> k.asc) keys);
  }

let key_value t k i =
  match t.sources.(k) with
  | Column c -> t.rows.(i).(c)
  | Computed (f, vals) ->
    let v = vals.(i) in
    if v != unset then v
    else begin
      let v = f t.rows.(i) in
      vals.(i) <- v;
      v
    end

(* [Value.compare], with the common pair of Ints first *)
let compare_values (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Int x, Value.Int y -> Int.compare x y
  | a, b -> Value.compare a b

let rec compare_from t i j k =
  if k = Array.length t.sources then 0
  else
    let c = compare_values (key_value t k i) (key_value t k j) in
    if c <> 0 then if t.ascending.(k) then c else -c else compare_from t i j (k + 1)

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

(* Partition keys are ascending keys evaluated for every row, in row
   order, before sorting: a plain column needs nothing, and no
   partition at all builds nothing. *)
let partition_keys partition (rows : Row.t array) =
  let parts = keyed (List.map key partition) rows in
  let computed = Array.exists (function Computed _ -> true | Column _ -> false) parts.sources in
  if computed then
    for i = 0 to Array.length rows - 1 do
      for k = 0 to Array.length parts.sources - 1 do
        ignore (key_value parts k i)
      done
    done;
  parts

let partition_sort partition order (rows : Row.t array) : partitioned =
  let parts = partition_keys partition rows in
  let order_keys = keyed order rows in
  let n = Array.length rows in
  let idx = Array.init n Fun.id in
  let cmp i j =
    let c = compare_from parts i j 0 in
    if c <> 0 then c
    else
      let c = compare_from order_keys i j 0 in
      if c <> 0 then c else Int.compare i j
  in
  sort_identity cmp idx;
  let rec segments acc start =
    if start >= n then List.rev acc
    else begin
      let stop = ref (start + 1) in
      while !stop < n && compare_from parts idx.(!stop) idx.(start) 0 = 0 do
        incr stop
      done;
      segments ((start, !stop) :: acc) !stop
    end
  in
  { idx; order_keys; segments = segments [] 0 }
