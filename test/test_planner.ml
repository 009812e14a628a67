(* Tests of the planner: binding, physical join selection, the Fig. 2
   window → self-join rewrite, and end-to-end execution through the
   engine facade. *)

open Rfview_relalg
module Engine = Rfview_engine
module Db = Rfview_engine.Database

(* Checker-verify every bound plan and translation-validate every
   rewrite pass while the suite runs. *)
let () = Rfview_analysis.Verify.enable ()

let set_window_mode db mode =
  Db.reconfigure db { (Db.config db) with Db.window_mode = mode }

let set_window_strategy db strategy =
  Db.reconfigure db { (Db.config db) with Db.window_strategy = strategy }

let fresh_db_with_seq ?(name = "seq") data =
  let db = Db.create () in
  ignore (Db.exec db (Printf.sprintf "CREATE TABLE %s (pos INT, val FLOAT)" name));
  if data <> [] then
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO %s VALUES %s" name
            (String.concat ", "
               (List.mapi (fun i v -> Printf.sprintf "(%d, %g)" (i + 1) v) data))));
  db

let ints_of_col r i =
  Array.to_list (Relation.column_values r i) |> List.map Value.to_int

let sorted_pairs r =
  Array.to_list (Relation.rows r)
  |> List.map (fun row -> (Value.to_int (Row.get row 0), Value.to_float (Row.get row 1)))
  |> List.sort compare

(* ---- Binding & execution basics ---- *)

let test_select_where_order () =
  let db = fresh_db_with_seq [ 10.; 20.; 30.; 40. ] in
  let r = Db.query db "SELECT pos, val FROM seq WHERE val > 15 ORDER BY pos DESC" in
  Alcotest.(check (list int)) "filtered and ordered" [ 4; 3; 2 ] (ints_of_col r 0)

let test_expressions_in_select () =
  let db = fresh_db_with_seq [ 1.; 2. ] in
  let r =
    Db.query db
      "SELECT pos * 10 + 1 AS x, CASE WHEN pos = 1 THEN 'one' ELSE 'other' END AS t \
       FROM seq ORDER BY x"
  in
  Alcotest.(check (list int)) "computed" [ 11; 21 ] (ints_of_col r 0);
  Alcotest.(check string) "case" "one"
    (Value.to_string (Row.get (Relation.rows r).(0) 1))

let test_group_having () =
  let db = fresh_db_with_seq [ 5.; 5.; 7.; 7.; 7. ] in
  let r =
    Db.query db
      "SELECT val, COUNT(*) AS n, SUM(pos) AS s FROM seq GROUP BY val HAVING COUNT(*) \
       > 2 ORDER BY val"
  in
  Alcotest.(check int) "one group" 1 (Relation.cardinality r);
  Alcotest.(check (list int)) "count" [ 3 ] (ints_of_col r 1);
  Alcotest.(check (list int)) "sum pos" [ 12 ] (ints_of_col r 2)

let test_global_aggregate () =
  let db = fresh_db_with_seq [ 1.; 2.; 3. ] in
  let r = Db.query db "SELECT SUM(val) AS s, COUNT(*) AS n, AVG(val) AS a FROM seq" in
  let row = (Relation.rows r).(0) in
  Alcotest.(check bool) "sum" true (Value.to_float (Row.get row 0) = 6.);
  Alcotest.(check int) "count" 3 (Value.to_int (Row.get row 1));
  Alcotest.(check bool) "avg" true (Value.to_float (Row.get row 2) = 2.)

let test_join_and_alias () =
  let db = fresh_db_with_seq [ 1.; 2.; 3. ] in
  let r =
    Db.query db
      "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos = s1.pos + 1 ORDER BY 1"
  in
  Alcotest.(check (list int)) "left side" [ 1; 2 ] (ints_of_col r 0);
  Alcotest.(check (list int)) "right side" [ 2; 3 ] (ints_of_col r 1)

let test_left_join_coalesce () =
  let db = fresh_db_with_seq [ 1.; 2.; 3. ] in
  let r =
    Db.query db
      "SELECT s.pos, COALESCE(c.val, 0) AS v FROM seq s LEFT OUTER JOIN (SELECT pos, \
       val FROM seq WHERE pos = 2) c ON c.pos = s.pos ORDER BY s.pos"
  in
  Alcotest.(check bool) "unmatched filled" true
    (List.map snd (sorted_pairs r) = [ 0.; 2.; 0. ])

let test_subquery_union () =
  let db = fresh_db_with_seq [ 1.; 2. ] in
  let r =
    Db.query db
      "SELECT pos, SUM(v) AS s FROM (SELECT pos, val AS v FROM seq UNION ALL SELECT \
       pos, val * 10 AS v FROM seq) u GROUP BY pos ORDER BY pos"
  in
  Alcotest.(check bool) "summed union" true
    (List.map snd (sorted_pairs r) = [ 11.; 22. ])

let test_order_by_alias_and_ordinal () =
  let db = fresh_db_with_seq [ 3.; 1.; 2. ] in
  let r1 = Db.query db "SELECT pos, val AS v FROM seq ORDER BY v" in
  Alcotest.(check (list int)) "by alias" [ 2; 3; 1 ] (ints_of_col r1 0);
  let r2 = Db.query db "SELECT pos, val FROM seq ORDER BY 2 DESC" in
  Alcotest.(check (list int)) "by ordinal" [ 1; 3; 2 ] (ints_of_col r2 0)

let test_bind_errors () =
  let db = fresh_db_with_seq [ 1. ] in
  let fails sql =
    match Db.query db sql with
    | exception Rfview_planner.Binder.Bind_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown column" true (fails "SELECT nope FROM seq");
  Alcotest.(check bool) "unknown table" true (fails "SELECT 1 FROM nope");
  Alcotest.(check bool) "ambiguous" true
    (fails "SELECT pos FROM seq s1, seq s2 WHERE s1.pos = s2.pos");
  Alcotest.(check bool) "agg in where" true
    (fails "SELECT pos FROM seq WHERE SUM(val) > 1");
  Alcotest.(check bool) "non-grouped column" true
    (fails "SELECT pos, SUM(val) FROM seq GROUP BY val")

(* A UNION of an INT and a FLOAT column is a bind error, as it is to
   the plan checker (RF109): the answer would be typed INT and hold
   FLOAT 3.5. *)
let test_union_type_mismatch () =
  let db = Db.create () in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [ "CREATE TABLE ia (v INT)"; "CREATE TABLE fb (v FLOAT)";
      "INSERT INTO ia VALUES (1), (2)"; "INSERT INTO fb VALUES (1.0), (3.5)" ];
  List.iter
    (fun sql ->
      match Db.exec db sql with
      | exception Rfview_planner.Binder.Bind_error _ -> ()
      | _ -> Alcotest.failf "bound: %s" sql)
    [
      "SELECT DISTINCT v FROM (SELECT v FROM ia UNION ALL SELECT v FROM fb) u";
      "SELECT v, COUNT(*) AS n FROM (SELECT v FROM ia UNION ALL SELECT v FROM fb) u GROUP BY v";
    ]

(* ---- Physical plan selection ---- *)

let test_plan_selection () =
  let db = fresh_db_with_seq [ 1.; 2.; 3.; 4.; 5. ] in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* no index: nested loop for the range self join *)
  let e1 =
    Db.explain db
      "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE s2.pos BETWEEN s1.pos - 1 \
       AND s1.pos + 1 GROUP BY s1.pos"
  in
  Alcotest.(check bool) "nested loop without index" true (contains e1 "nested-loop");
  (* equality: hash join *)
  let e2 =
    Db.explain db "SELECT s1.pos FROM seq s1, seq s2 WHERE MOD(s1.pos, 3) = MOD(s2.pos, 3)"
  in
  Alcotest.(check bool) "hash join on computed keys" true (contains e2 "hash");
  (* with index: index range join *)
  ignore (Db.exec db "CREATE INDEX seq_pos ON seq (pos)");
  let e3 =
    Db.explain db
      "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE s2.pos BETWEEN s1.pos - 1 \
       AND s1.pos + 1 GROUP BY s1.pos"
  in
  Alcotest.(check bool) "index range join" true (contains e3 "index(seq.pos range)");
  (* disjunctive predicate: nested loop even with the index *)
  let e4 =
    Db.explain db
      "SELECT s1.pos FROM seq s1, seq s2 WHERE (s2.pos = s1.pos) OR (s2.pos = s1.pos + 1)"
  in
  Alcotest.(check bool) "disjunction forces nested loop" true (contains e4 "nested-loop");
  (* IN probe *)
  let e5 =
    Db.explain db
      "SELECT s1.pos FROM seq s1, seq s2 WHERE s2.pos IN (s1.pos - 1, s1.pos, s1.pos + 1)"
  in
  Alcotest.(check bool) "IN probe uses index" true (contains e5 "index(seq.pos in")

let test_join_results_same_with_and_without_index () =
  let data = List.init 30 (fun i -> float_of_int ((i * 7 mod 13) - 5)) in
  let sql =
    "SELECT s1.pos AS pos, SUM(s2.val) AS val FROM seq s1, seq s2 WHERE s2.pos \
     BETWEEN s1.pos - 2 AND s1.pos + 1 GROUP BY s1.pos"
  in
  let db1 = fresh_db_with_seq data in
  let r1 = Db.query db1 sql in
  let db2 = fresh_db_with_seq data in
  ignore (Db.exec db2 "CREATE INDEX seq_pos ON seq (pos)");
  let r2 = Db.query db2 sql in
  Alcotest.(check bool) "same result" true (Relation.equal_bag r1 r2)

(* ---- Window execution and the Fig. 2 rewrite ---- *)

let window_queries =
  [
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS w FROM seq";
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) \
     AS w FROM seq";
    "SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) \
     AS w FROM seq";
    "SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND CURRENT \
     ROW) AS w FROM seq";
    "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) \
     AS w FROM seq";
    "SELECT pos, val, SUM(val) OVER (PARTITION BY MOD(pos, 3) ORDER BY pos ROWS \
     UNBOUNDED PRECEDING) AS w FROM seq";
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS a, SUM(val) \
     OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS b FROM seq";
  ]

let test_native_equals_self_join () =
  let data = List.init 25 (fun i -> float_of_int ((i * 11 mod 17) - 8)) in
  List.iter
    (fun sql ->
      let db = fresh_db_with_seq data in
      set_window_mode db `Native;
      let native = Db.query db sql in
      set_window_mode db `Self_join;
      let simulated = Db.query db sql in
      if not (Relation.equal_bag native simulated) then
        Alcotest.failf "rewrite mismatch for: %s@.native:@.%s@.simulated:@.%s" sql
          (Relation.render (Relation.sorted_by_all native))
          (Relation.render (Relation.sorted_by_all simulated)))
    window_queries

let test_self_join_rewrite_qcheck =
  QCheck.Test.make ~count:60 ~name:"native = self-join (random data)"
    QCheck.(
      make
        Gen.(
          let* n = int_range 0 30 in
          let* vals = list_size (return n) (map float_of_int (int_range (-20) 20)) in
          let* l = int_range 0 4 in
          let* h = int_range 0 4 in
          let* cum = bool in
          let* partitioned = bool in
          return (vals, l, h, cum, partitioned)))
    (fun (vals, l, h, cum, partitioned) ->
      let frame =
        if cum then "ROWS UNBOUNDED PRECEDING"
        else Printf.sprintf "ROWS BETWEEN %d PRECEDING AND %d FOLLOWING" l h
      in
      let partition = if partitioned then "PARTITION BY MOD(pos, 4) " else "" in
      let sql =
        Printf.sprintf
          "SELECT pos, SUM(val) OVER (%sORDER BY pos %s) AS w FROM seq" partition frame
      in
      let db = fresh_db_with_seq vals in
      set_window_mode db `Native;
      let native = Db.query db sql in
      set_window_mode db `Self_join;
      let simulated = Db.query db sql in
      Relation.equal_bag native simulated)

let test_ranking_sql () =
  let db = fresh_db_with_seq [ 30.; 10.; 30.; 20. ] in
  let r =
    Db.query db
      "SELECT pos, RANK() OVER (ORDER BY val) AS rk, ROW_NUMBER() OVER (ORDER BY val \
       DESC) AS rn, DENSE_RANK() OVER (ORDER BY val) AS dr FROM seq ORDER BY pos"
  in
  let col i = Array.to_list (Relation.column_values r i) |> List.map Value.to_int in
  Alcotest.(check (list int)) "rank" [ 3; 1; 3; 2 ] (col 1);
  Alcotest.(check (list int)) "row_number desc" [ 1; 4; 2; 3 ] (col 2);
  Alcotest.(check (list int)) "dense_rank" [ 3; 1; 3; 2 ] (col 3);
  (* TOP(n) analysis: rank in a subquery, filter outside *)
  let top =
    Db.query db
      "SELECT pos, val FROM (SELECT pos, val, RANK() OVER (ORDER BY val DESC) AS rk \
       FROM seq) t WHERE rk <= 2 ORDER BY val DESC, pos"
  in
  Alcotest.(check (list int)) "top-2 by value" [ 1; 3 ] (ints_of_col top 0);
  (* ranking functions reject frames and require ORDER BY *)
  let fails sql =
    match Db.query db sql with
    | exception Rfview_planner.Binder.Bind_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "frame rejected" true
    (fails "SELECT RANK() OVER (ORDER BY val ROWS UNBOUNDED PRECEDING) FROM seq");
  Alcotest.(check bool) "order required" true
    (fails "SELECT RANK() OVER (PARTITION BY val) FROM seq")

let test_navigation_sql () =
  let db = fresh_db_with_seq [ 10.; 20.; 30.; 40. ] in
  let r =
    Db.query db
      "SELECT pos, LAG(val) OVER (ORDER BY pos) AS prev, LEAD(val, 2) OVER (ORDER BY \
       pos) AS nxt2, FIRST_VALUE(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
       AND 1 FOLLOWING) AS fv, LAST_VALUE(val) OVER (ORDER BY pos ROWS UNBOUNDED \
       PRECEDING) AS lv FROM seq ORDER BY pos"
  in
  let col i = Array.to_list (Relation.column_values r i) in
  Alcotest.(check bool) "lag" true
    (col 1 = [ Value.Null; Value.Float 10.; Value.Float 20.; Value.Float 30. ]);
  Alcotest.(check bool) "lead 2" true
    (col 2 = [ Value.Float 30.; Value.Float 40.; Value.Null; Value.Null ]);
  Alcotest.(check bool) "first_value" true
    (col 3 = [ Value.Float 10.; Value.Float 10.; Value.Float 20.; Value.Float 30. ]);
  Alcotest.(check bool) "last_value cumulative" true
    (col 4 = [ Value.Float 10.; Value.Float 20.; Value.Float 30.; Value.Float 40. ]);
  (* day-over-day delta: the classic LAG idiom *)
  let d =
    Db.query db
      "SELECT val - LAG(val) OVER (ORDER BY pos) AS delta FROM seq ORDER BY pos"
  in
  Alcotest.(check bool) "delta" true
    (Array.to_list (Relation.column_values d 0)
    = [ Value.Null; Value.Float 10.; Value.Float 10.; Value.Float 10. ]);
  let fails sql =
    match Db.query db sql with
    | exception Rfview_planner.Binder.Bind_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "lag without order" true
    (fails "SELECT LAG(val) OVER (PARTITION BY pos) FROM seq");
  Alcotest.(check bool) "bad offset" true
    (fails "SELECT LAG(val, val) OVER (ORDER BY pos) FROM seq")

(* Both strategies print the same rows, constructors included: on a tie
   between an Int and an equal Float, MIN keeps the first row of the
   frame under either strategy. *)
let test_window_strategy_equivalence () =
  let data = List.init 40 (fun i -> float_of_int ((i * 13 mod 23) - 11)) in
  let db = fresh_db_with_seq data in
  ignore (Db.exec db "CREATE TABLE t (pos INT, x INT)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 1), (2, 1), (3, 1)");
  List.iter
    (fun sql ->
      let rendered strategy =
        set_window_strategy db strategy;
        Relation.render ~max_rows:max_int (Db.query db sql)
      in
      Alcotest.(check string) sql (rendered Window.Naive) (rendered Window.Incremental))
    [
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 \
       FOLLOWING) AS w FROM seq";
      "SELECT pos, MIN(CASE WHEN pos = 2 THEN 1.0 ELSE 1 END) OVER (ORDER BY pos \
       ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS m FROM t";
    ]

let () =
  Alcotest.run "planner"
    [
      ( "basics",
        [
          Alcotest.test_case "select/where/order" `Quick test_select_where_order;
          Alcotest.test_case "expressions" `Quick test_expressions_in_select;
          Alcotest.test_case "group/having" `Quick test_group_having;
          Alcotest.test_case "global aggregate" `Quick test_global_aggregate;
          Alcotest.test_case "join + alias" `Quick test_join_and_alias;
          Alcotest.test_case "left join + coalesce" `Quick test_left_join_coalesce;
          Alcotest.test_case "subquery + union" `Quick test_subquery_union;
          Alcotest.test_case "order by alias/ordinal" `Quick test_order_by_alias_and_ordinal;
          Alcotest.test_case "bind errors" `Quick test_bind_errors;
          Alcotest.test_case "UNION operand types" `Quick test_union_type_mismatch;
        ] );
      ( "physical",
        [
          Alcotest.test_case "plan selection" `Quick test_plan_selection;
          Alcotest.test_case "index equivalence" `Quick
            test_join_results_same_with_and_without_index;
        ] );
      ( "window",
        [
          Alcotest.test_case "native = self-join (fixed)" `Quick test_native_equals_self_join;
          QCheck_alcotest.to_alcotest test_self_join_rewrite_qcheck;
          Alcotest.test_case "strategy equivalence" `Quick test_window_strategy_equivalence;
          Alcotest.test_case "ranking functions" `Quick test_ranking_sql;
          Alcotest.test_case "navigation functions" `Quick test_navigation_sql;
        ] );
    ]
