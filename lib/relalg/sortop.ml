(* Sorting.  A key is an expression plus direction; NULLs sort first on
   ascending keys (and last on descending), matching [Value.compare]. *)

type key = {
  expr : Expr.t;
  asc : bool;
}

let key ?(asc = true) expr = { expr; asc }

(* Key values of a row array.  Each key is compiled once and evaluated
   at most once per row, when a comparison first needs it.  Memoizing
   does not change which comparisons a sort makes, so keys are first
   evaluated in the order a comparator evaluating them afresh would:
   a key that raises raises at the same comparison, and a key no
   comparison reaches is never evaluated. *)
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

let compare_rows t i j =
  let rec loop k =
    if k = Array.length t.fns then 0
    else
      let va = key_value t k i in
      let vb = key_value t k j in
      let c = Value.compare va vb in
      let c = if t.ascending.(k) then c else -c in
      if c <> 0 then c else loop (k + 1)
  in
  loop 0

let sort_indices keys (rows : Row.t array) : int array =
  let t = keyed keys rows in
  let idx = Array.init (Array.length rows) Fun.id in
  let cmp i j =
    let c = compare_rows t i j in
    if c <> 0 then c else Int.compare i j
  in
  Array.sort cmp idx;
  idx

let sort keys (r : Relation.t) : Relation.t =
  let rows = Relation.rows r in
  let idx = sort_indices keys rows in
  Relation.of_array (Relation.schema r) (Array.map (fun i -> rows.(i)) idx)

type partitioned = {
  idx : int array;
  order_keys : keyed;
  segments : (int * int) list;
}

let compare_values (a : Value.t array) (b : Value.t array) =
  let rec loop k =
    if k = Array.length a then 0
    else
      let c = Value.compare a.(k) b.(k) in
      if c <> 0 then c else loop (k + 1)
  in
  loop 0

let partition_sort partition order (rows : Row.t array) : partitioned =
  let part = Array.of_list (List.map Expr.compile partition) in
  let part_keys = Array.map (fun row -> Array.map (fun f -> f row) part) rows in
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
  Array.sort cmp idx;
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
