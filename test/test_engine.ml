(* End-to-end engine tests: DDL/DML, materialized sequence views with
   incremental maintenance (§2.3), the derivability advisor (§3-§6) and
   the paper's relational derivation patterns (Figs. 4, 10, 13) executed
   through the SQL engine and checked against core-level derivation. *)

open Rfview_relalg
module Core = Rfview_core
module Db = Rfview_engine.Database

(* Checker-verify every bound plan and translation-validate every
   rewrite pass while the suite runs. *)
let () = Rfview_analysis.Verify.enable ()
module Advisor = Rfview_engine.Advisor
module Matview = Rfview_engine.Matview
module Parser = Rfview_sql.Parser

let sorted_rows r =
  Array.to_list (Relation.rows r) |> List.sort Row.compare

(* naive substring replacement, for retargeting generated SQL in tests *)
let replace_all s ~from ~into =
  let fl = String.length from in
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i >= String.length s then ()
    else if i + fl <= String.length s && String.sub s i fl = from then begin
      Buffer.add_string buf into;
      go (i + fl)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let check_same_bag what a b =
  if not (Relation.equal_bag a b) then
    Alcotest.failf "%s:@.left:@.%s@.right:@.%s" what
      (Relation.render (Relation.sorted_by_all a))
      (Relation.render (Relation.sorted_by_all b))

(* ---- Fixtures ---- *)

let db_with_seq data =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE seq (pos INT, val FLOAT)");
  if data <> [] then
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO seq VALUES %s"
            (String.concat ", "
               (List.mapi (fun i v -> Printf.sprintf "(%d, %g)" (i + 1) v) data))));
  db

(* Store a complete materialized sequence (with header and trailer) in a
   [matseq] table, as the derivation patterns require (§3.2). *)
let add_matseq db (seq : Core.Seqdata.t) =
  ignore (Db.exec db "CREATE TABLE matseq (pos INT, val FLOAT)");
  let lo = Core.Seqdata.stored_lo seq and hi = Core.Seqdata.stored_hi seq in
  let values =
    List.init (hi - lo + 1) (fun i ->
        Printf.sprintf "(%d, %g)" (lo + i) (Core.Seqdata.get seq (lo + i)))
  in
  ignore (Db.exec db (Printf.sprintf "INSERT INTO matseq VALUES %s" (String.concat ", " values)))

(* ---- DDL / DML ---- *)

let test_ddl_dml_roundtrip () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT, b VARCHAR, c DATE)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 'x', DATE '2002-02-26')");
  ignore (Db.exec db "INSERT INTO t (b, a) VALUES ('y', 2)");
  let r = Db.query db "SELECT a, b, c FROM t ORDER BY a" in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality r);
  let second = (Relation.rows r).(1) in
  Alcotest.(check bool) "missing column null" true (Value.is_null (Row.get second 2));
  ignore (Db.exec db "UPDATE t SET a = a + 10 WHERE b = 'x'");
  let r = Db.query db "SELECT a FROM t ORDER BY a" in
  Alcotest.(check bool) "updated" true
    (List.map (fun row -> Value.to_int (Row.get row 0)) (sorted_rows r) = [ 2; 11 ]);
  ignore (Db.exec db "DELETE FROM t WHERE a = 2");
  Alcotest.(check int) "deleted" 1 (Relation.cardinality (Db.query db "SELECT a FROM t"));
  ignore (Db.exec db "DROP TABLE t");
  Alcotest.(check bool) "gone" true
    (match Db.query db "SELECT a FROM t" with
     | exception Rfview_planner.Binder.Bind_error _ -> true
     | _ -> false)

let test_duplicate_table_rejected () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  Alcotest.(check bool) "duplicate" true
    (match Db.exec db "CREATE TABLE t (a INT)" with
     | exception Rfview_engine.Catalog.Catalog_error _ -> true
     | _ -> false)

let test_plain_view_expansion () =
  let db = db_with_seq [ 1.; 2.; 3. ] in
  ignore (Db.exec db "CREATE VIEW doubled AS SELECT pos, val * 2 AS v FROM seq");
  let r = Db.query db "SELECT v FROM doubled WHERE pos > 1 ORDER BY v" in
  Alcotest.(check bool) "view works" true
    (List.map (fun row -> Value.to_float (Row.get row 0)) (sorted_rows r) = [ 4.; 6. ])

(* ---- Materialized sequence views: incremental maintenance ---- *)

let view_sql frame_sql =
  Printf.sprintf
    "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER BY pos %s) \
     AS s FROM seq"
    frame_sql

let test_matview_initial_contents () =
  let db = db_with_seq [ 1.; 2.; 3.; 4. ] in
  ignore (Db.exec db (view_sql "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"));
  Alcotest.(check bool) "incremental state established" true
    (Db.is_incrementally_maintained db "v");
  let r = Db.query db "SELECT s FROM v ORDER BY pos" in
  Alcotest.(check bool) "window values" true
    (Array.to_list (Relation.column_values r 0) |> List.map Value.to_float
     = [ 3.; 6.; 9.; 7. ])

let full_refresh_reference db =
  (* re-run the view definition directly *)
  Db.query db
    "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 \
     FOLLOWING) AS s FROM seq"

let test_matview_incremental_insert_delete_update () =
  let db = db_with_seq [ 5.; 1.; 4. ] in
  ignore (Db.exec db (view_sql "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"));
  (* interior insert: pos 2 shifts ranks of later rows in ORDER BY pos *)
  ignore (Db.exec db "INSERT INTO seq VALUES (2, 10)");
  check_same_bag "after insert" (Db.query db "SELECT * FROM v") (full_refresh_reference db);
  ignore (Db.exec db "UPDATE seq SET val = 7 WHERE pos = 3");
  check_same_bag "after update" (Db.query db "SELECT * FROM v") (full_refresh_reference db);
  ignore (Db.exec db "DELETE FROM seq WHERE pos = 1");
  check_same_bag "after delete" (Db.query db "SELECT * FROM v") (full_refresh_reference db);
  Alcotest.(check bool) "still incremental" true (Db.is_incrementally_maintained db "v")

let test_matview_partitioned () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE tx (grp INT, pos INT, amount FLOAT)");
  ignore
    (Db.exec db
       "INSERT INTO tx VALUES (1, 1, 10), (1, 2, 20), (2, 1, 100), (2, 2, 200)");
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW vp AS SELECT grp, pos, SUM(amount) OVER (PARTITION \
        BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM tx");
  Alcotest.(check bool) "incremental" true (Db.is_incrementally_maintained db "vp");
  ignore (Db.exec db "INSERT INTO tx VALUES (2, 3, 300), (3, 1, 7)");
  let reference =
    Db.query db
      "SELECT grp, pos, SUM(amount) OVER (PARTITION BY grp ORDER BY pos ROWS \
       UNBOUNDED PRECEDING) AS s FROM tx"
  in
  check_same_bag "partitioned maintenance" (Db.query db "SELECT * FROM vp") reference

(* The partition table keys by SQL equality, as the partition map
   orders keys: rows keyed INT 1 and FLOAT 1.0 are one partition.  (A
   table column holds one type, so only a relation built by hand mixes
   them.) *)
let test_matview_partition_keys () =
  let schema =
    Schema.make
      [ Schema.column "g" Dtype.Float; Schema.column "pos" Dtype.Int;
        Schema.column "val" Dtype.Float ]
  in
  let base =
    Relation.make schema
      [ [| Value.Int 1; Value.Int 1; Value.Float 10. |];
        [| Value.Float 1.; Value.Int 2; Value.Float 20. |];
        [| Value.Float 2.; Value.Int 1; Value.Float 5. |] ]
  in
  let spec =
    { Matview.source = "t"; partition = [ "g" ]; order_col = "pos"; value_col = "val";
      agg = Aggregate.Sum; frame = Core.Frame.Cumulative;
      items = [ (Some "g", "g"); (Some "pos", "pos"); (None, "s") ] }
  in
  let out_schema =
    Schema.make
      [ Schema.column "g" Dtype.Float; Schema.column "pos" Dtype.Int;
        Schema.column "s" Dtype.Float ]
  in
  let st = Matview.init_state spec ~base ~out_schema in
  let parts = Matview.partitions st in
  Alcotest.(check int) "two partitions" 2 (List.length parts);
  Alcotest.(check (list int)) "every row kept" [ 2; 1 ]
    (List.map (fun p -> Array.length (Matview.partition_rows p)) parts)

let test_matview_fallback_on_nulls () =
  (* NULL in the value column: the incremental path must decline and the
     view must still be correct via full refresh *)
  let db = db_with_seq [ 1.; 2. ] in
  ignore (Db.exec db (view_sql "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"));
  ignore (Db.exec db "INSERT INTO seq (pos) VALUES (3)");
  Alcotest.(check bool) "fell back" false (Db.is_incrementally_maintained db "v");
  let reference =
    Db.query db
      "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 \
       FOLLOWING) AS s FROM seq"
  in
  check_same_bag "still correct" (Db.query db "SELECT * FROM v") reference

(* Randomized DML stream: incremental contents must always equal a full
   recomputation of the definition.  Positions are kept unique (duplicate
   ORDER BY keys make window results tie-order-dependent, in real SQL
   engines as much as here), so ops are abstract and materialized against
   the live position set inside the property. *)
type dml_op =
  | Op_insert of int * int  (* position choice seed, value *)
  | Op_delete of int
  | Op_update_val of int * int
  | Op_move of int * int    (* existing choice seed, new position seed *)

let arb_dml_stream =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Op_insert (p, v) -> Printf.sprintf "ins(%d,%d)" p v
             | Op_delete p -> Printf.sprintf "del(%d)" p
             | Op_update_val (p, v) -> Printf.sprintf "upd(%d,%d)" p v
             | Op_move (p, d) -> Printf.sprintf "mov(%d,%d)" p d)
           ops))
    QCheck.Gen.(
      let op =
        frequency
          [
            (4, map (fun (p, v) -> Op_insert (p, v)) (pair (int_range 0 50) (int_range (-9) 9)));
            (2, map (fun p -> Op_delete p) (int_range 0 50));
            (2, map (fun (p, v) -> Op_update_val (p, v)) (pair (int_range 0 50) (int_range (-9) 9)));
            (1, map (fun (p, d) -> Op_move (p, d)) (pair (int_range 0 50) (int_range 0 50)));
          ]
      in
      list_size (int_range 1 12) op)

let prop_matview_dml_stream ops =
  let db = db_with_seq [ 3.; 1.; 2. ] in
  ignore (Db.exec db (view_sql "ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING"));
  let positions = ref [ 1; 2; 3 ] (* sorted unique *) in
  let pick seed =
    match !positions with
    | [] -> None
    | ps -> Some (List.nth ps (seed mod List.length ps))
  in
  let fresh seed =
    let rec go c = if List.mem c !positions then go (c + 1) else c in
    go (1 + (seed mod 60))
  in
  let sql_of op =
    match op with
    | Op_insert (seed, v) ->
      let p = fresh seed in
      positions := List.sort compare (p :: !positions);
      Some (Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" p v)
    | Op_delete seed ->
      (match pick seed with
       | None -> None
       | Some p ->
         positions := List.filter (fun q -> q <> p) !positions;
         Some (Printf.sprintf "DELETE FROM seq WHERE pos = %d" p))
    | Op_update_val (seed, v) ->
      (match pick seed with
       | None -> None
       | Some p -> Some (Printf.sprintf "UPDATE seq SET val = %d WHERE pos = %d" v p))
    | Op_move (seed, dseed) ->
      (match pick seed with
       | None -> None
       | Some p ->
         let d = fresh dseed in
         positions := List.sort compare (d :: List.filter (fun q -> q <> p) !positions);
         Some (Printf.sprintf "UPDATE seq SET pos = %d WHERE pos = %d" d p))
  in
  List.for_all
    (fun op ->
      match sql_of op with
      | None -> true
      | Some sql ->
        ignore (Db.exec db sql);
        let reference =
          Db.query db
            "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
             AND 2 FOLLOWING) AS s FROM seq"
        in
        Relation.equal_bag (Db.query db "SELECT * FROM v") reference)
    ops

(* ---- Relational derivation patterns through the engine ---- *)

(* Compare the generated pattern SQL (over the materialized view table)
   with the direct computation of the target sequence, at body positions. *)
let pattern_matches ~n ~lx ~hx ~ly ~hy sql_of : (unit, string) result =
  let data = Array.init n (fun i -> float_of_int ((i * 7 mod 11) - 5)) in
  let raw = Core.Seqdata.raw_of_array data in
  let view = Core.Compute.sequence (Core.Frame.sliding ~l:lx ~h:hx) raw in
  let target = Core.Compute.sequence (Core.Frame.sliding ~l:ly ~h:hy) raw in
  let db = Db.create () in
  add_matseq db view;
  let result = Db.query db (sql_of ()) in
  (* index the result by position *)
  let tbl = Hashtbl.create 64 in
  Relation.iter
    (fun row -> Hashtbl.replace tbl (Value.to_int (Row.get row 0)) (Row.get row 1))
    result;
  let bad = ref None in
  for k = 1 to n do
    if !bad = None then
      match Hashtbl.find_opt tbl k with
      | None -> bad := Some (Printf.sprintf "missing position %d" k)
      | Some v ->
        let expected = Core.Seqdata.get target k in
        let got = Value.to_float v in
        if Float.abs (expected -. got) > 1e-6 then
          bad := Some (Printf.sprintf "position %d: expected %g, got %g" k expected got)
  done;
  match !bad with None -> Ok () | Some m -> Error m

let check_pattern ~n ~lx ~hx ~ly ~hy sql_of =
  match pattern_matches ~n ~lx ~hx ~ly ~hy sql_of with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_maxoa_pattern_disjunctive () =
  check_pattern ~n:40 ~lx:2 ~hx:1 ~ly:4 ~hy:1 (fun () ->
      Core.Sqlgen.maxoa ~lx:2 ~h:1 ~ly:4 `Disjunctive)

let test_maxoa_pattern_union () =
  check_pattern ~n:40 ~lx:2 ~hx:1 ~ly:4 ~hy:1 (fun () ->
      Core.Sqlgen.maxoa ~lx:2 ~h:1 ~ly:4 `Union)

let test_minoa_pattern_disjunctive () =
  check_pattern ~n:40 ~lx:2 ~hx:1 ~ly:3 ~hy:2 (fun () ->
      Core.Sqlgen.minoa ~lx:2 ~hx:1 ~ly:3 ~hy:2 `Disjunctive)

let test_minoa_pattern_union () =
  check_pattern ~n:40 ~lx:2 ~hx:1 ~ly:3 ~hy:2 (fun () ->
      Core.Sqlgen.minoa ~lx:2 ~hx:1 ~ly:3 ~hy:2 `Union)

let test_minoa_pattern_colliding_residues () =
  (* ∆l + ∆h a multiple of the view window size: the two residue classes
     coincide and the signed-CASE form must still be exact *)
  check_pattern ~n:30 ~lx:1 ~hx:1 ~ly:3 ~hy:2 (fun () ->
      Core.Sqlgen.minoa ~lx:1 ~hx:1 ~ly:3 ~hy:2 `Disjunctive)

let test_minoa_shrink () =
  (* MinOA can also shrink windows *)
  check_pattern ~n:25 ~lx:2 ~hx:2 ~ly:1 ~hy:0 (fun () ->
      Core.Sqlgen.minoa ~lx:2 ~hx:2 ~ly:1 ~hy:0 `Disjunctive)

(* Random pattern check across window shapes and variants. *)
let arb_pattern_case =
  QCheck.make
    ~print:(fun (n, lx, hx, dl, dh, alg) ->
      Printf.sprintf "n=%d view=(%d,%d) dl=%d dh=%d %s" n lx hx dl dh alg)
    QCheck.Gen.(
      let* n = int_range 1 30 in
      let* lx = int_range 0 3 in
      let* hx = int_range 0 3 in
      let* alg = oneofl [ "maxoa-d"; "maxoa-u"; "minoa-d"; "minoa-u" ] in
      match alg with
      | "maxoa-d" | "maxoa-u" ->
        let cap = lx + hx in
        if cap = 0 then return (n, 0, 1, 1, 0, alg)
        else
          let* dl = int_range 1 cap in
          return (n, lx, hx, dl, 0, alg)
      | _ ->
        let* dl = int_range (-lx) 4 in
        let* dh = int_range (-hx) 4 in
        if dl = 0 && dh = 0 then return (n, lx, hx, 1, 0, alg)
        else return (n, lx, hx, dl, dh, alg))

let prop_pattern (n, lx, hx, dl, dh, alg) =
  let ly = lx + dl and hy = hx + dh in
  pattern_matches ~n ~lx ~hx ~ly ~hy (fun () ->
      match alg with
      | "maxoa-d" -> Core.Sqlgen.maxoa ~lx ~h:hx ~ly `Disjunctive
      | "maxoa-u" -> Core.Sqlgen.maxoa ~lx ~h:hx ~ly `Union
      | "minoa-d" -> Core.Sqlgen.minoa ~lx ~hx ~ly ~hy `Disjunctive
      | _ -> Core.Sqlgen.minoa ~lx ~hx ~ly ~hy `Union)
  = Ok ()

let test_fig4_reconstruction () =
  (* raw values from a cumulative view through the engine *)
  let data = Array.init 20 (fun i -> float_of_int ((i * 5 mod 7) - 3)) in
  let raw = Core.Seqdata.raw_of_array data in
  let view = Core.Compute.sequence Core.Frame.Cumulative raw in
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE matseq (pos INT, val FLOAT)");
  ignore
    (Db.exec db
       (Printf.sprintf "INSERT INTO matseq VALUES %s"
          (String.concat ", "
             (List.init 20 (fun i ->
                  Printf.sprintf "(%d, %g)" (i + 1) (Core.Seqdata.get view (i + 1)))))));
  let r = Db.query db (Core.Sqlgen.fig4_reconstruct ()) in
  let tbl = Hashtbl.create 32 in
  Relation.iter
    (fun row -> Hashtbl.replace tbl (Value.to_int (Row.get row 0)) (Row.get row 1))
    r;
  Array.iteri
    (fun i expected ->
      match Hashtbl.find_opt tbl (i + 1) with
      | Some v when Float.abs (Value.to_float v -. expected) <= 1e-9 -> ()
      | _ -> Alcotest.failf "raw value %d not reconstructed" (i + 1))
    data

(* ---- Advisor ---- *)

let test_advisor_exact_and_derivable () =
  let db = db_with_seq [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ] in
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW v21 AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS \
        BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq");
  let q_sql =
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 \
     FOLLOWING) AS s FROM seq"
  in
  let q = Parser.query q_sql in
  (match Advisor.answer db q with
   | None -> Alcotest.fail "expected a derivation"
   | Some (result, proposal) ->
     Alcotest.(check string) "view" "v21" proposal.Advisor.view_name;
     check_same_bag "derived = direct" result (Db.query db q_sql));
  (* a MIN view only supports MaxOA-compatible growth *)
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW vmin AS SELECT pos, MIN(val) OVER (ORDER BY pos ROWS \
        BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq");
  let qmin_sql =
    "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 \
     FOLLOWING) AS s FROM seq"
  in
  (match Advisor.answer db (Parser.query qmin_sql) with
   | None -> Alcotest.fail "expected MIN derivation"
   | Some (result, proposal) ->
     Alcotest.(check string) "min view" "vmin" proposal.Advisor.view_name;
     Alcotest.(check string) "strategy" "MaxOA-minmax"
       (Core.Derive.strategy_name proposal.Advisor.strategy);
     check_same_bag "min derived" result (Db.query db qmin_sql))

let test_advisor_avg_count_from_sum () =
  let db = db_with_seq [ 2.; 4.; 6.; 8. ] in
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW vs AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS \
        BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq");
  List.iter
    (fun agg ->
      let sql =
        Printf.sprintf
          "SELECT pos, %s(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 \
           FOLLOWING) AS s FROM seq"
          agg
      in
      match Advisor.answer db (Parser.query sql) with
      | None -> Alcotest.failf "%s not derivable from SUM view" agg
      | Some (result, _) -> check_same_bag (agg ^ " from SUM view") result (Db.query db sql))
    [ "AVG"; "COUNT"; "SUM" ]

let test_advisor_no_view () =
  let db = db_with_seq [ 1.; 2. ] in
  Alcotest.(check bool) "no views, no proposal" true
    (Advisor.answer db
       (Parser.query
          "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s \
           FROM seq")
     = None)

let test_advisor_rejects_incompatible () =
  let db = db_with_seq [ 1.; 2.; 3. ] in
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW vmin AS SELECT pos, MIN(val) OVER (ORDER BY pos ROWS \
        BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq");
  (* window shrinking is not derivable from a MIN view *)
  Alcotest.(check bool) "shrink not derivable" true
    (Advisor.answer db
       (Parser.query
          "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW AND \
           CURRENT ROW) AS s FROM seq")
     = None);
  (* SUM query from MIN view is not derivable *)
  Alcotest.(check bool) "agg mismatch" true
    (Advisor.answer db
       (Parser.query
          "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 \
           FOLLOWING) AS s FROM seq")
     = None)

let test_advisor_relational_sql_agrees () =
  (* the Fig. 10/13 SQL the advisor proposes must compute the same window
     column as the direct query, at body positions *)
  let db = db_with_seq [ 2.; 7.; 1.; 8.; 2.; 8.; 1.; 8. ] in
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW v21 AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS \
        BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq");
  let q_sql =
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 \
     FOLLOWING) AS s FROM seq"
  in
  match Advisor.proposals db (Parser.query q_sql) with
  | (p, _, _) :: _ ->
    (match p.Advisor.relational_sql with
     | None -> Alcotest.fail "expected a relational pattern"
     | Some pattern_sql ->
       (* note: the pattern reads the *view table*; the view stores only
          body positions, so completeness is approximated — load a
          complete matseq copy instead *)
       let raw =
         Rfview_core.Seqdata.raw_of_array [| 2.; 7.; 1.; 8.; 2.; 8.; 1.; 8. |]
       in
       let view = Rfview_core.Compute.sequence (Rfview_core.Frame.sliding ~l:2 ~h:1) raw in
       let db2 = Db.create () in
       add_matseq db2 view;
       let pattern_sql2 =
         (* retarget the generated SQL from the view name to matseq *)
         replace_all pattern_sql ~from:"v21" ~into:"matseq"
       in
       let result = Db.query db2 pattern_sql2 in
       let tbl = Hashtbl.create 16 in
       Relation.iter
         (fun row -> Hashtbl.replace tbl (Value.to_int (Row.get row 0)) (Row.get row 1))
         result;
       let direct = Db.query db q_sql in
       Relation.iter
         (fun row ->
           let k = Value.to_int (Row.get row 0) in
           match Hashtbl.find_opt tbl k with
           | Some v when Value.compare v (Row.get row 1) = 0 -> ()
           | _ -> Alcotest.failf "pattern disagrees at position %d" k)
         direct)
  | [] -> Alcotest.fail "expected a proposal"

let test_advisor_rejects_interleaved_partitions () =
  (* partitioning reduction must be refused when the partitions' order
     ranges interleave (concatenation would not be the global order) *)
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE tx (m INT, pos INT, amount FLOAT)");
  ignore
    (Db.exec db
       "INSERT INTO tx VALUES (1, 1, 1), (1, 5, 2), (2, 2, 3), (2, 6, 4)");
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW vint AS SELECT m, pos, SUM(amount) OVER (PARTITION \
        BY m ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM tx");
  Alcotest.(check bool) "interleaved rejected" true
    (Advisor.answer db
       (Parser.query
          "SELECT pos, SUM(amount) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 \
           FOLLOWING) AS s FROM tx")
     = None)

let test_advisor_partition_reduction () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE tx (m INT, pos INT, amount FLOAT)");
  (* partition column m is a prefix of the global order: concatenation is sound *)
  ignore
    (Db.exec db
       "INSERT INTO tx VALUES (1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 4, 4), (2, 5, 5), \
        (3, 6, 6), (3, 7, 7), (3, 8, 8)");
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW vpart AS SELECT m, pos, SUM(amount) OVER (PARTITION \
        BY m ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM tx");
  let q_sql =
    "SELECT pos, SUM(amount) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 \
     FOLLOWING) AS s FROM tx"
  in
  match Advisor.answer db (Parser.query q_sql) with
  | None -> Alcotest.fail "expected partitioning reduction"
  | Some (result, proposal) ->
    Alcotest.(check bool) "reduced" true proposal.Advisor.partition_reduced;
    (* compare only the window column keyed by pos: the reduced answer
       lays out only the query's items *)
    check_same_bag "partition reduction result" result (Db.query db q_sql)

(* ---- CSV ---- *)

module Csv = Rfview_engine.Csv

let test_csv_roundtrip () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT, b VARCHAR, c FLOAT, d DATE)");
  ignore
    (Db.exec db
       "INSERT INTO t VALUES (1, 'plain', 1.5, DATE '2002-02-26'), (2, 'comma, \
        quote\"', -3.25, NULL)");
  ignore (Db.exec db "INSERT INTO t (a) VALUES (3)");
  let text = Csv.to_string (Db.query db "SELECT * FROM t ORDER BY a") in
  let db2 = Db.create () in
  ignore (Db.exec db2 "CREATE TABLE t (a INT, b VARCHAR, c FLOAT, d DATE)");
  let n = Csv.import_string db2 ~table:"t" text in
  Alcotest.(check int) "imported rows" 3 n;
  check_same_bag "roundtrip" (Db.query db "SELECT * FROM t") (Db.query db2 "SELECT * FROM t")

let test_csv_parsing () =
  Alcotest.(check (list (list string))) "quoting"
    [ [ "a"; "b,c" ]; [ "d\"e"; "f\ng" ] ]
    (Csv.parse "a,\"b,c\"\r\n\"d\"\"e\",\"f\ng\"\n");
  Alcotest.(check (list (list string))) "empty fields"
    [ [ "1"; ""; "3" ] ]
    (Csv.parse "1,,3\n");
  Alcotest.(check bool) "unterminated rejected" true
    (match Csv.parse "\"oops" with exception Csv.Csv_error _ -> true | _ -> false)

let test_csv_header_mapping () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT, b VARCHAR)");
  (* columns out of order, one missing *)
  let n = Csv.import_string db ~table:"t" "b\nhello\nworld\n" in
  Alcotest.(check int) "rows" 2 n;
  let r = Db.query db "SELECT a, b FROM t ORDER BY b" in
  Alcotest.(check bool) "a null" true (Value.is_null (Row.get (Relation.rows r).(0) 0));
  Alcotest.(check bool) "bad column rejected" true
    (match Csv.import_string db ~table:"t" "nope\nx\n" with
     | exception Csv.Csv_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "bad int rejected" true
    (match Csv.import_string db ~table:"t" "a\nnot_an_int\n" with
     | exception Csv.Csv_error _ -> true
     | _ -> false)

(* ---- EXPLAIN ANALYZE ---- *)

let test_explain_analyze () =
  let db = db_with_seq [ 1.; 2.; 3. ] in
  match
    Db.exec db
      "EXPLAIN ANALYZE SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED \
       PRECEDING) AS s FROM seq"
  with
  | Db.Done profile ->
    let contains needle =
      let nl = String.length needle and hl = String.length profile in
      let rec go i = i + nl <= hl && (String.sub profile i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "has window node" true (contains "Window [SUM]");
    Alcotest.(check bool) "has scan node" true (contains "Scan seq");
    Alcotest.(check bool) "has cardinalities" true (contains "3 rows")
  | Db.Relation _ -> Alcotest.fail "expected profile text"

(* GROUP BY and DISTINCT key by SQL equality: INT 1 and FLOAT 1.0 are
   one key over a UNION ALL of INT 1, 2 and FLOAT 1.0, 3.5.  COALESCE
   types the INT operand FLOAT while its values stay INTs, so the
   operands' schemas agree (a bare INT-FLOAT union, which gives the
   same answer, is an RF109 error to the plan checker). *)
let test_group_distinct_sql_equality () =
  let db = Db.create () in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [ "CREATE TABLE ia (v INT)"; "CREATE TABLE fb (v FLOAT)";
      "INSERT INTO ia VALUES (1), (2)"; "INSERT INTO fb VALUES (1.0), (3.5)" ];
  let distinct =
    Db.query db
      "SELECT DISTINCT v FROM (SELECT COALESCE(v, 0.0) AS v FROM ia UNION ALL SELECT v \
       FROM fb) u"
  in
  Alcotest.(check int) "DISTINCT: 3 rows" 3 (Relation.cardinality distinct);
  let grouped =
    Db.query db
      "SELECT v, COUNT(*) AS n FROM (SELECT COALESCE(v, 0.0) AS v FROM ia UNION ALL \
       SELECT v FROM fb) u GROUP BY v"
  in
  Alcotest.(check int) "GROUP BY: 3 groups" 3 (Relation.cardinality grouped);
  Alcotest.(check (list string)) "first key of each group, and its count"
    [ "1 2"; "2 1"; "3.5 1" ]
    (List.map
       (fun row -> Value.to_string row.(0) ^ " " ^ Value.to_string row.(1))
       (Relation.to_list grouped))

(* The paper's Table 2 derivation (Fig. 10, MaxOA by UNION ALL) over
   303 stored positions, as the read bench runs it. *)
let derive_db () =
  let db = Db.create () in
  add_matseq db
    (Core.Compute.sequence (Core.Frame.sliding ~l:2 ~h:1)
       (Core.Seqdata.raw_of_array (Array.init 300 (fun i -> float_of_int ((i * 37) mod 23)))));
  ignore (Db.exec db "CREATE INDEX matseq_pos ON matseq (pos)");
  (db, Core.Sqlgen.maxoa ~lx:2 ~h:1 ~ly:4 `Union)

(* EXPLAIN ANALYZE of the derive query: every node's rows, in pre-order,
   and a self time (inclusive minus the direct children's, as
   warebench's operator split takes it) that is never negative. *)
let test_derive_profile () =
  let db, sql = derive_db () in
  let q = match Parser.statement sql with Rfview_sql.Ast.St_query q -> q | _ -> assert false in
  let module Ph = Rfview_planner.Physical in
  let _, profile = Ph.execute_analyze (Db.catalog_view db) (Db.plan_query db q) in
  let branch join_rows =
    [ ("Project", join_rows); ("Join [hash]", join_rows); ("Alias s1", 303);
      ("Scan matseq", 303); ("Alias s2", 303); ("Scan matseq", 303) ]
  in
  Alcotest.(check (list (pair string int))) "labels and rows"
    ([ ("Project", 303); ("LeftOuterJoin [hash]", 303); ("Alias s", 303);
       ("Scan matseq", 303); ("Alias c", 299); ("Project", 299); ("Aggregate", 299);
       ("Alias u", 22_500); ("UnionAll", 22_500) ]
     @ branch 11_325 @ branch 11_175)
    (List.map (fun (e : Ph.profile_entry) -> (e.label, e.rows)) profile);
  let a = Array.of_list profile in
  Array.iteri
    (fun i (e : Ph.profile_entry) ->
      let children = ref 0. and j = ref (i + 1) in
      while !j < Array.length a && a.(!j).depth > e.depth do
        if a.(!j).depth = e.depth + 1 then children := !children +. a.(!j).seconds;
        incr j
      done;
      if e.seconds -. !children < 0. then
        Alcotest.failf "%s (entry %d): self time %g s" e.label i (e.seconds -. !children))
    a

(* A snapshot answers EXPLAIN and EXPLAIN ANALYZE of a query as one
   [plan] column, a row per line; other statements stay refused. *)
let test_snapshot_explain () =
  let db, sql = derive_db () in
  let sn = Db.snapshot db in
  Fun.protect
    ~finally:(fun () -> Db.release db sn)
    (fun () ->
      let lines r = List.map (fun row -> Value.to_string row.(0)) (Relation.to_list r) in
      let analyzed = Db.Snapshot.query sn ("EXPLAIN ANALYZE " ^ sql) in
      Alcotest.(check (list string)) "one plan column" [ "plan" ]
        (Schema.names (Relation.schema analyzed));
      Alcotest.(check int) "one line per node" 21 (Relation.cardinality analyzed);
      Alcotest.(check bool) "the union's rows" true
        (List.exists
           (fun l -> String.trim (String.sub l 0 40) = "UnionAll" && String.length l > 50)
           (lines analyzed));
      let plain = lines (Db.Snapshot.query sn ("EXPLAIN " ^ sql)) in
      Alcotest.(check bool) "the physical plan" true (List.mem "== physical ==" plain);
      Alcotest.(check bool) "the same text as the live EXPLAIN" true
        (match Db.exec db ("EXPLAIN " ^ sql) with
         | Db.Done text -> String.concat "\n" plain ^ "\n" = text
         | Db.Relation _ -> false);
      match Db.Snapshot.query sn "EXPLAIN INSERT INTO matseq VALUES (0, 0)" with
      | _ -> Alcotest.fail "a snapshot must refuse EXPLAIN of a write"
      | exception Db.Engine_error _ -> ())

(* ---- Query cache (paper §3's caching motivation) ---- *)

module Cache = Rfview_engine.Cache

let test_cache_hit_miss () =
  let db = db_with_seq [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ] in
  let cache = Cache.create db in
  let q frame =
    Printf.sprintf
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN %s) AS s FROM seq" frame
  in
  (* first query: miss, admitted *)
  let r1, o1 = Cache.query cache (q "2 PRECEDING AND 1 FOLLOWING") in
  (match o1 with
   | Cache.Miss_cached _ -> ()
   | o -> Alcotest.failf "expected miss, got %s" (Cache.describe_outcome o));
  (* identical query again: hit via copy *)
  let r2, o2 = Cache.query cache (q "2 PRECEDING AND 1 FOLLOWING") in
  (match o2 with
   | Cache.Hit _ -> ()
   | o -> Alcotest.failf "expected hit, got %s" (Cache.describe_outcome o));
  check_same_bag "copy hit" r1 r2;
  (* wider window: hit by derivation, equal to direct execution *)
  let r3, o3 = Cache.query cache (q "3 PRECEDING AND 2 FOLLOWING") in
  (match o3 with
   | Cache.Hit p ->
     Alcotest.(check bool) "derived, not copied" true
       (Rfview_core.Derive.strategy_name p.Advisor.strategy <> "copy")
   | o -> Alcotest.failf "expected derivation hit, got %s" (Cache.describe_outcome o));
  check_same_bag "derived result" r3 (Db.query db (q "3 PRECEDING AND 2 FOLLOWING"));
  (* non-window query bypasses *)
  let _, o4 = Cache.query cache "SELECT pos FROM seq" in
  Alcotest.(check bool) "bypass" true (o4 = Cache.Bypass);
  let s = Cache.stats cache in
  Alcotest.(check (pair int int)) "stats" (2, 1) (s.Cache.hits, s.Cache.misses);
  Alcotest.(check int) "bypasses" 1 s.Cache.bypasses

let test_cache_eviction () =
  let db = db_with_seq [ 1.; 2.; 3.; 4. ] in
  let cache = Cache.create ~capacity:2 db in
  let q l =
    Printf.sprintf
      "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN %d PRECEDING AND \
       CURRENT ROW) AS s FROM seq"
      l
  in
  (* MIN views cannot serve shrinking queries, so each is a fresh miss *)
  ignore (Cache.query cache (q 3));
  ignore (Cache.query cache (q 2));
  ignore (Cache.query cache (q 1));
  Alcotest.(check int) "capacity respected" 2 (List.length (Cache.entries cache));
  (* the newest entries survive; results remain correct *)
  let r, _ = Cache.query cache (q 1) in
  check_same_bag "still correct" r (Db.query db (q 1))

let test_cache_stale_after_dml () =
  (* cache entries are materialized views: DML propagates to them, so a
     hit after DML reflects the new data *)
  let db = db_with_seq [ 1.; 2.; 3. ] in
  let cache = Cache.create db in
  let q = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq" in
  ignore (Cache.query cache q);
  ignore (Db.exec db "UPDATE seq SET val = 10 WHERE pos = 2");
  let r, o = Cache.query cache q in
  (match o with
   | Cache.Hit _ -> ()
   | o -> Alcotest.failf "expected hit, got %s" (Cache.describe_outcome o));
  check_same_bag "fresh data" r (Db.query db q)

(* ---- Suite ---- *)

let () =
  Alcotest.run "engine"
    [
      ( "ddl-dml",
        [
          Alcotest.test_case "roundtrip" `Quick test_ddl_dml_roundtrip;
          Alcotest.test_case "duplicate rejected" `Quick test_duplicate_table_rejected;
          Alcotest.test_case "plain view" `Quick test_plain_view_expansion;
        ] );
      ( "matview",
        [
          Alcotest.test_case "initial contents" `Quick test_matview_initial_contents;
          Alcotest.test_case "insert/update/delete" `Quick
            test_matview_incremental_insert_delete_update;
          Alcotest.test_case "partitioned" `Quick test_matview_partitioned;
          Alcotest.test_case "partition keys by SQL equality" `Quick test_matview_partition_keys;
          Alcotest.test_case "fallback on NULLs" `Quick test_matview_fallback_on_nulls;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:100 ~name:"random DML stream" arb_dml_stream
               prop_matview_dml_stream);
        ] );
      ( "patterns",
        [
          Alcotest.test_case "MaxOA disjunctive" `Quick test_maxoa_pattern_disjunctive;
          Alcotest.test_case "MaxOA union" `Quick test_maxoa_pattern_union;
          Alcotest.test_case "MinOA disjunctive" `Quick test_minoa_pattern_disjunctive;
          Alcotest.test_case "MinOA union" `Quick test_minoa_pattern_union;
          Alcotest.test_case "MinOA colliding residues" `Quick
            test_minoa_pattern_colliding_residues;
          Alcotest.test_case "MinOA shrink" `Quick test_minoa_shrink;
          Alcotest.test_case "Fig.4 reconstruction" `Quick test_fig4_reconstruction;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:60 ~name:"random patterns" arb_pattern_case
               prop_pattern);
        ] );
      ( "advisor",
        [
          Alcotest.test_case "exact + derivable" `Quick test_advisor_exact_and_derivable;
          Alcotest.test_case "AVG/COUNT from SUM" `Quick test_advisor_avg_count_from_sum;
          Alcotest.test_case "no view" `Quick test_advisor_no_view;
          Alcotest.test_case "rejects incompatible" `Quick test_advisor_rejects_incompatible;
          Alcotest.test_case "partitioning reduction" `Quick
            test_advisor_partition_reduction;
          Alcotest.test_case "interleaved partitions rejected" `Quick
            test_advisor_rejects_interleaved_partitions;
          Alcotest.test_case "proposed relational SQL agrees" `Quick
            test_advisor_relational_sql_agrees;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "parsing" `Quick test_csv_parsing;
          Alcotest.test_case "header mapping" `Quick test_csv_header_mapping;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
          Alcotest.test_case "derive profile" `Quick test_derive_profile;
          Alcotest.test_case "EXPLAIN on a snapshot" `Quick test_snapshot_explain;
          Alcotest.test_case "GROUP BY and DISTINCT by SQL equality" `Quick
            test_group_distinct_sql_equality;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss/derive" `Quick test_cache_hit_miss;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "fresh after DML" `Quick test_cache_stale_after_dml;
        ] );
    ]
