(* An in-memory relation: a schema plus a row array.  Operators produce
   fresh relations; storage-level tables wrap a mutable version of this. *)

type t = {
  schema : Schema.t;
  rows : Row.t array;
}

let make schema rows = { schema; rows = Array.of_list rows }

(* [make schema (List.rev rev)] without the reversed copy, and filled
   from a constant rather than by [Array.of_list]: see [Row.array_init]. *)
let of_rev_list schema rev =
  let n = List.length rev in
  let rows = Array.make n [||] in
  List.iteri (fun k row -> rows.(n - 1 - k) <- row) rev;
  { schema; rows }

let of_array schema rows = { schema; rows }
let schema r = r.schema
let rows r = r.rows
let cardinality r = Array.length r.rows
let is_empty r = cardinality r = 0
let to_list r = Array.to_list r.rows

let iter f r = Array.iter f r.rows
let map_rows f r = { r with rows = Array.map f r.rows }

let column_values r i = Array.map (fun row -> Row.get row i) r.rows

(* Order-insensitive multiset equality, used heavily in tests: two query
   results are the same if they contain the same rows the same number of
   times. *)
let equal_bag a b =
  cardinality a = cardinality b
  &&
  let sort r =
    let copy = Array.copy r.rows in
    Array.sort Row.compare copy;
    copy
  in
  let sa = sort a and sb = sort b in
  Array.for_all2 Row.equal sa sb

let equal_ordered a b =
  cardinality a = cardinality b && Array.for_all2 Row.equal a.rows b.rows

let sorted_by_all r =
  let copy = Array.copy r.rows in
  Array.sort Row.compare copy;
  { r with rows = copy }

(* ---- ASCII table rendering ---- *)

let render ?(max_rows = 40) r =
  let headers =
    Array.map (fun c -> Schema.qualified_name c) r.schema
  in
  let ncols = Array.length headers in
  let shown = min max_rows (cardinality r) in
  (* cell (i, j) at i * ncols + j: one flat array filled from a constant *)
  let cells = Array.make (shown * ncols) "" in
  let widths = Array.map String.length headers in
  for i = 0 to shown - 1 do
    let row = r.rows.(i) in
    for j = 0 to ncols - 1 do
      let c = Value.to_string row.(j) in
      cells.((i * ncols) + j) <- c;
      widths.(j) <- max widths.(j) (String.length c)
    done
  done;
  (* column j spans [starts.(j), starts.(j) + widths.(j) + 2]: a space,
     the cell, its padding and a space, then its right border *)
  let starts = Array.make ncols 0 in
  let at = ref 1 in
  for j = 0 to ncols - 1 do
    starts.(j) <- !at;
    at := !at + widths.(j) + 3
  done;
  let width = !at + 1 (* every line, newline included *) in
  let trailer =
    if shown < cardinality r then
      Printf.sprintf "... (%d of %d rows shown)\n" shown (cardinality r)
    else ""
  in
  (* sized exactly, and blank: the padding is already in place *)
  let out = Bytes.make (((shown + 4) * width) + String.length trailer) ' ' in
  let borders k c =
    let o = k * width in
    Bytes.set out o c;
    for j = 0 to ncols - 1 do
      Bytes.set out (o + starts.(j) + widths.(j) + 2) c
    done;
    Bytes.set out (o + width - 1) '\n'
  in
  let rule k =
    Bytes.fill out (k * width) (width - 1) '-';
    borders k '+'
  in
  let text k src base =
    borders k '|';
    for j = 0 to ncols - 1 do
      let c = src.(base + j) in
      Bytes.blit_string c 0 out ((k * width) + starts.(j) + 1) (String.length c)
    done
  in
  rule 0;
  text 1 headers 0;
  rule 2;
  for i = 0 to shown - 1 do
    text (i + 3) cells (i * ncols)
  done;
  rule (shown + 3);
  Bytes.blit_string trailer 0 out ((shown + 4) * width) (String.length trailer);
  Bytes.unsafe_to_string out

let print ?max_rows r = print_string (render ?max_rows r)
