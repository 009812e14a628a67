(* The benchmark's warehouse: the shadow copy of table [seq], the four
   sequence views over it, and the paper's Table 1/2 queries, with
   reference answers computed by [Rfview_core] (never by the engine
   under test).

   [seq(grp, pos, val)] has [groups] partitions of [per_group] rows.
   Positions are spaced by [spacing] so inserts can land between two
   existing rows, and values are integers in [-50, 50] stored as floats,
   so every SUM is exact and a rendered value compares as text. *)

module Core = Rfview_core
module Prng = Rfview_workload.Prng
open Rfview_relalg

let groups = 8
let per_group = 2_500
let spacing = 16

(* ---- views ---- *)

type agg = Sum | Min | Avg

type view = { name : string; col : string; agg : agg; frame : Core.Frame.t }

(* One certified share class: all four views partition by grp and
   order by pos over the same base table. *)
let views =
  [
    { name = "v_cum"; col = "s"; agg = Sum; frame = Core.Frame.cumulative };
    { name = "v_s21"; col = "s"; agg = Sum; frame = Core.Frame.sliding ~l:2 ~h:1 };
    { name = "v_min"; col = "m"; agg = Min; frame = Core.Frame.sliding ~l:3 ~h:0 };
    { name = "v_avg"; col = "a"; agg = Avg; frame = Core.Frame.sliding ~l:1 ~h:1 };
  ]

let view_sql v =
  Printf.sprintf
    "CREATE MATERIALIZED VIEW %s AS SELECT grp, pos, val, %s(val) OVER \
     (PARTITION BY grp ORDER BY pos %s) AS %s FROM seq"
    v.name
    (match v.agg with Sum -> "SUM" | Min -> "MIN" | Avg -> "AVG")
    (Core.Frame.to_sql v.frame) v.col

(* ---- Table 1 and Table 2 queries ---- *)

let table1_frame = Core.Frame.sliding ~l:1 ~h:1

let window_sql grp =
  Core.Sqlgen.native_window table1_frame ^ Printf.sprintf " WHERE grp = %d" grp

(* Table 2: a complete (2,1) sequence of [matseq_n] values in table
   [matseq]; the query derives y = (4,1) through MaxOA in union form. *)
let matseq_n = 300
let matseq_frame = Core.Frame.sliding ~l:2 ~h:1
let derive_frame = Core.Frame.sliding ~l:4 ~h:1
let derive_sql = Core.Sqlgen.maxoa ~lx:2 ~h:1 ~ly:4 `Union

let matseq_values ~seed =
  Rfview_workload.Seqgen.raw_values ~seed:(seed + 7919) matseq_n

let matseq_seq values =
  Core.Compute.sequence matseq_frame (Core.Seqdata.raw_of_array values)

(* every stored position of the complete view: 1-h .. n+l *)
let derive_rows = matseq_n + 3

let lookup_sql ~grp ~lo ~hi =
  Printf.sprintf "SELECT grp, pos, s FROM v_cum WHERE grp = %d AND pos BETWEEN %d AND %d"
    grp lo hi

(* ---- the shadow table ---- *)

type part = { mutable pos : int array; mutable vals : float array }
type t = part array

let int_value prng = float_of_int (Prng.int_range prng ~lo:(-50) ~hi:50)

let create ~seed : t =
  let prng = Prng.create ~seed in
  Array.init groups (fun _ ->
      {
        pos = Array.init per_group (fun i -> (i + 1) * spacing);
        vals = Array.init per_group (fun _ -> int_value prng);
      })

let size (t : t) g = Array.length t.(g).pos

(* index of [pos] in group [g], or of the first larger position *)
let search (t : t) g pos =
  let a = t.(g).pos in
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < pos then lo := mid + 1 else hi := mid
  done;
  !lo

let find t g pos =
  let i = search t g pos in
  if i < size t g && t.(g).pos.(i) = pos then Some i else None

(* ---- edits: the DML the workloads send ---- *)

type edit =
  | Insert of { grp : int; pos : int; v : float }
  | Update of { grp : int; pos : int; old_v : float; v : float }
  | Delete of { grp : int; pos : int; old_v : float }

let edit_sql = function
  | Insert { grp; pos; v } ->
    Printf.sprintf "INSERT INTO seq VALUES (%d, %d, %.1f)" grp pos v
  | Update { grp; pos; v; _ } ->
    Printf.sprintf "UPDATE seq SET val = %.1f WHERE grp = %d AND pos = %d" v grp pos
  | Delete { grp; pos; _ } ->
    Printf.sprintf "DELETE FROM seq WHERE grp = %d AND pos = %d" grp pos

let row ~grp ~pos v = [| Value.Int grp; Value.Int pos; Value.Float v |]

let apply (t : t) edit =
  let existing g pos =
    match find t g pos with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Data.apply: no row (%d, %d)" g pos)
  in
  match edit with
  | Insert { grp; pos; v } ->
    if find t grp pos <> None then invalid_arg "Data.apply: duplicate key";
    let i = search t grp pos and p = t.(grp) in
    let old_pos = p.pos and old_vals = p.vals in
    let pick a x j = if j < i then a.(j) else if j = i then x else a.(j - 1) in
    p.pos <- Array.init (Array.length old_pos + 1) (pick old_pos pos);
    p.vals <- Array.init (Array.length old_vals + 1) (pick old_vals v)
  | Update { grp; pos; v; _ } -> t.(grp).vals.(existing grp pos) <- v
  | Delete { grp; pos; _ } ->
    let i = existing grp pos and p = t.(grp) in
    let old_pos = p.pos and old_vals = p.vals in
    let skip a j = if j < i then a.(j) else a.(j + 1) in
    p.pos <- Array.init (Array.length old_pos - 1) (skip old_pos);
    p.vals <- Array.init (Array.length old_vals - 1) (skip old_vals)

(* ---- reference answers, as rendered text cells ---- *)

let cell_float x = Value.to_string (Value.Float x)

let sequence (t : t) g ~agg frame =
  let core_agg = match agg with Min -> Core.Agg.Min | Sum | Avg -> Core.Agg.Sum in
  Core.Compute.sequence ~agg:core_agg frame (Core.Seqdata.raw_of_array t.(g).vals)

let view_value v seq ~n ~k =
  match v.agg with
  | Sum | Min -> Core.Seqdata.get seq k
  | Avg -> Core.Agg.avg_of_sum v.frame ~n ~k (Core.Seqdata.get seq k)

(* Whole view contents: (grp, pos, val, aggregate) per base row. *)
let expected_view (t : t) v =
  List.concat
    (List.init groups (fun g ->
         let seq = sequence t g ~agg:v.agg v.frame in
         let n = size t g in
         List.init n (fun i ->
             [|
               string_of_int g;
               string_of_int t.(g).pos.(i);
               cell_float t.(g).vals.(i);
               cell_float (view_value v seq ~n ~k:(i + 1));
             |])))

let expected_seq (t : t) =
  List.concat
    (List.init groups (fun g ->
         List.init (size t g) (fun i ->
             [| string_of_int g; string_of_int t.(g).pos.(i); cell_float t.(g).vals.(i) |])))

(* Rows of [v_cum] in group [grp] with [lo <= pos <= hi]. *)
let expected_lookup (t : t) ~grp ~lo ~hi =
  let seq = sequence t grp ~agg:Sum Core.Frame.cumulative in
  let first = search t grp lo and stop = search t grp (hi + 1) in
  List.init (stop - first) (fun j ->
      let i = first + j in
      [| string_of_int grp; string_of_int t.(grp).pos.(i); cell_float (Core.Seqdata.get seq (i + 1)) |])

let lookup_count (t : t) ~grp ~lo ~hi = search t grp (hi + 1) - search t grp lo

(* Table 1 over one partition: (pos, windowed SUM). *)
let expected_window (t : t) ~grp =
  let seq = sequence t grp ~agg:Sum table1_frame in
  List.init (size t grp) (fun i ->
      [| string_of_int t.(grp).pos.(i); cell_float (Core.Seqdata.get seq (i + 1)) |])

(* Table 2: (pos, y) checked on the body positions 1..n; header and
   trailer rows only have to be present. *)
let check_derive values (rows : string array list) =
  let target = Core.Compute.sequence derive_frame (Core.Seqdata.raw_of_array values) in
  if List.length rows <> derive_rows then
    Error (Printf.sprintf "derive: %d rows, expected %d" (List.length rows) derive_rows)
  else
    List.fold_left
      (fun acc r ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          (match int_of_string_opt r.(0) with
           | Some k when k >= 1 && k <= matseq_n ->
             let want = cell_float (Core.Seqdata.get target k) in
             if r.(1) = want then Ok ()
             else Error (Printf.sprintf "derive: y[%d] = %s, expected %s" k r.(1) want)
           | Some _ -> Ok ()
           | None -> Error ("derive: bad position " ^ r.(0))))
      (Ok ()) rows

(* Compare two row sets as bags (rows of a relation come in no
   promised order). *)
let same_rows ~what ~(expected : string array list) (actual : string array list) =
  let sort = List.sort compare in
  let e = sort expected and a = sort actual in
  if List.length e <> List.length a then
    Error
      (Printf.sprintf "%s: %d rows, expected %d" what (List.length a) (List.length e))
  else
    match List.find_opt (fun (x, y) -> x <> y) (List.combine e a) with
    | None -> Ok ()
    | Some (x, y) ->
      Error
        (Printf.sprintf "%s: row [%s], expected [%s]" what
           (String.concat "; " (Array.to_list y))
           (String.concat "; " (Array.to_list x)))

let cells_of_relation rel =
  List.map (Array.map Value.to_string) (Array.to_list (Relation.rows rel))
