(* Tests of the logical optimizer (predicate pushdown) and of the
   engine's error handling (failure injection). *)

open Rfview_relalg
module Db = Rfview_engine.Database
module P = Rfview_planner

(* Translation-validate every optimizer/rewrite pass and checker-verify
   every bound plan while the suite runs. *)
let () = Rfview_analysis.Verify.enable ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let db3 () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE a (x INT, u INT)");
  ignore (Db.exec db "CREATE TABLE b (y INT, v INT)");
  ignore (Db.exec db "CREATE TABLE c (z INT, w INT)");
  ignore (Db.exec db "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)");
  ignore (Db.exec db "INSERT INTO b VALUES (1, 100), (2, 200), (4, 400)");
  ignore (Db.exec db "INSERT INTO c VALUES (1, 7), (3, 9)");
  db

(* ---- Pushdown shapes ---- *)

let test_pushdown_into_join () =
  let db = db3 () in
  let e = Db.explain db "SELECT x FROM a, b WHERE x = y AND u > 15" in
  (* the equality reached the join (hash), the left-only filter sank below *)
  Alcotest.(check bool) "hash join chosen" true (contains e "[hash]");
  Alcotest.(check bool) "filter below join" true
    (contains e "Filter (($1 > 15))" || contains e "Filter ($1 > 15)")

(* A one-sided range probe reads a fixed fraction of the inner table per
   outer row: each MaxOA union branch (s2.pos <= s1.pos - 4 AND
   MOD(s1.pos, 4) = MOD(s2.pos, 4)) hashes on its MOD key instead of
   probing the ordered pos index.  The Fig. 2 self-join's BETWEEN is a
   two-sided range and keeps the index. *)
let test_one_sided_range_hashes () =
  let db = Db.create () in
  let module Core = Rfview_core in
  let raw =
    Core.Seqdata.raw_of_array (Array.init 300 (fun i -> float_of_int ((i * 7 mod 11) - 5)))
  in
  Rfview_workload.Seqgen.create_matseq_table ~indexed:true db
    (Core.Compute.sequence (Core.Frame.sliding ~l:2 ~h:1) raw);
  let count hay needle =
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length hay then acc
      else go (i + 1) (if String.sub hay i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let maxoa = Db.explain db (Core.Sqlgen.maxoa ~table:"matseq" ~lx:2 ~h:1 ~ly:4 `Union) in
  Alcotest.(check int) "MaxOA union branches hash" 2 (count maxoa " Join [hash]");
  Alcotest.(check int) "no index probe" 0 (count maxoa "[index(");
  let fig2 =
    Db.explain db (Core.Sqlgen.fig2_self_join ~table:"matseq" (Core.Frame.sliding ~l:2 ~h:1))
  in
  Alcotest.(check bool) "Fig. 2 keeps the index" true
    (contains fig2 "Join [index(matseq.pos range)]")

let test_pushdown_three_way () =
  let db = db3 () in
  let r =
    Db.query db
      "SELECT x, v, w FROM a, b, c WHERE x = y AND x = z ORDER BY x"
  in
  Alcotest.(check int) "rows" 1 (Relation.cardinality r);
  let row = (Relation.rows r).(0) in
  Alcotest.(check int) "x" 1 (Value.to_int (Row.get row 0));
  Alcotest.(check int) "v" 100 (Value.to_int (Row.get row 1));
  Alcotest.(check int) "w" 7 (Value.to_int (Row.get row 2))

let test_left_join_where_not_pushed () =
  (* a WHERE predicate on the nullable side must not become an ON
     predicate (it filters after padding) *)
  let db = db3 () in
  let with_where =
    Db.query db
      "SELECT x, v FROM a LEFT OUTER JOIN b ON x = y WHERE v > 150"
  in
  Alcotest.(check int) "where filters padded rows" 1 (Relation.cardinality with_where);
  let on_pred =
    Db.query db "SELECT x, v FROM a LEFT OUTER JOIN b ON x = y AND v > 150"
  in
  Alcotest.(check int) "on keeps all left rows" 3 (Relation.cardinality on_pred)

(* Structural checks: where do WHERE conjuncts land around a LEFT OUTER
   join after pushdown?  Only predicates on the preserved (left) side may
   sink below the join; anything touching the nullable side must stay in
   a Filter above it, or padded rows would be judged before padding. *)
let optimized_plan db sql =
  P.Optimize.optimize (P.Binder.bind_query (Db.binder_catalog db) (Rfview_sql.Parser.query sql))

let rec find_left_outer (p : P.Logical.t) : P.Logical.t option =
  match p with
  | P.Logical.Join { kind = Joinop.Left_outer; _ } -> Some p
  | P.Logical.Scan _ -> None
  | P.Logical.Filter { input; _ }
  | P.Logical.Project { input; _ }
  | P.Logical.Window_op { input; _ }
  | P.Logical.Number { input; _ }
  | P.Logical.Sort { input; _ }
  | P.Logical.Distinct input
  | P.Logical.Limit { input; _ }
  | P.Logical.Aggregate { input; _ }
  | P.Logical.Alias { input; _ } -> find_left_outer input
  | P.Logical.Join { left; right; _ } | P.Logical.Union_all { left; right } ->
    (match find_left_outer left with Some _ as r -> r | None -> find_left_outer right)

let rec filter_above_left_outer (p : P.Logical.t) : bool =
  match p with
  | P.Logical.Filter { input; _ } -> find_left_outer input <> None
  | P.Logical.Project { input; _ }
  | P.Logical.Window_op { input; _ }
  | P.Logical.Number { input; _ }
  | P.Logical.Sort { input; _ }
  | P.Logical.Distinct input
  | P.Logical.Limit { input; _ }
  | P.Logical.Aggregate { input; _ }
  | P.Logical.Alias { input; _ } -> filter_above_left_outer input
  | P.Logical.Scan _ | P.Logical.Join _ | P.Logical.Union_all _ -> false

let left_input_filtered plan =
  match find_left_outer plan with
  | Some (P.Logical.Join { left; _ }) ->
    let rec has_filter = function
      | P.Logical.Filter _ -> true
      | P.Logical.Alias { input; _ } -> has_filter input
      | _ -> false
    in
    has_filter left
  | _ -> false

let test_left_outer_pushdown_shapes () =
  let db = db3 () in
  (* left-only conjunct: sinks below the join, no residual filter *)
  let p =
    optimized_plan db
      "SELECT x, v FROM a LEFT OUTER JOIN b ON x = y WHERE u > 15"
  in
  Alcotest.(check bool) "left conjunct sinks below join" true
    (left_input_filtered p);
  Alcotest.(check bool) "no residual filter above join" false
    (filter_above_left_outer p);
  (* right-side conjunct: must stay in a Filter above the join *)
  let p =
    optimized_plan db
      "SELECT x, v FROM a LEFT OUTER JOIN b ON x = y WHERE v > 150"
  in
  Alcotest.(check bool) "right conjunct stays above join" true
    (filter_above_left_outer p);
  Alcotest.(check bool) "right conjunct did not sink left" false
    (left_input_filtered p);
  (* mixed conjunct (references both sides): also stays above *)
  let p =
    optimized_plan db
      "SELECT x, v FROM a LEFT OUTER JOIN b ON x = y WHERE u + v > 100"
  in
  Alcotest.(check bool) "mixed conjunct stays above join" true
    (filter_above_left_outer p);
  Alcotest.(check bool) "mixed conjunct did not sink left" false
    (left_input_filtered p);
  (* split: the left part sinks, the rest stays above *)
  let p =
    optimized_plan db
      "SELECT x, v FROM a LEFT OUTER JOIN b ON x = y WHERE u > 15 AND v > 150"
  in
  Alcotest.(check bool) "split: left part sinks" true (left_input_filtered p);
  Alcotest.(check bool) "split: right part stays above" true
    (filter_above_left_outer p)

(* Random conjunctive queries: the optimizer must not change results. *)
let prop_pushdown_preserves_semantics =
  QCheck.Test.make ~count:200 ~name:"pushdown preserves results"
    QCheck.(
      make
        ~print:(fun (c1, c2, c3) -> Printf.sprintf "%s AND %s AND %s" c1 c2 c3)
        Gen.(
          let atom =
            oneofl
              [ "a.x = b.y"; "a.x < b.y"; "a.u > 15"; "b.v <= 200"; "a.x + 1 = b.y";
                "MOD(a.u, 3) = MOD(b.v, 3)"; "a.x BETWEEN 1 AND 2"; "b.y IN (1, 2)";
                "a.x = 2 OR b.y = 1"; "TRUE" ]
          in
          triple atom atom atom))
    (fun (c1, c2, c3) ->
      let sql =
        Printf.sprintf "SELECT a.x, b.y FROM a, b WHERE %s AND %s AND %s" c1 c2 c3
      in
      (* reference: force nested loops and no index by a fresh db without
         indexes and hash joins disabled *)
      let db1 = db3 () in
      Db.reconfigure db1 { (Db.config db1) with Db.hash_join = false };
      let reference = Db.query db1 sql in
      let db2 = db3 () in
      ignore (Db.exec db2 "CREATE INDEX bi ON b (y)");
      let optimized = Db.query db2 sql in
      Relation.equal_bag reference optimized)

(* INT and FLOAT keys of equal value (0 and -0.0 included) join under
   every strategy: the hash join and the hash index key by Value.equal,
   as the ordered index and the nested loop compare. *)
let test_mixed_numeric_keys () =
  let single = "SELECT a.x, b.y FROM a, b WHERE a.x = b.y" in
  let double = "SELECT a.x, b.y FROM a, b WHERE a.x = b.y AND a.u = b.v" in
  let run ?index ?(nested = false) ~plan sql =
    let db = Db.create () in
    ignore (Db.exec db "CREATE TABLE a (x INT, u INT)");
    ignore (Db.exec db "CREATE TABLE b (y FLOAT, v FLOAT)");
    ignore (Db.exec db "INSERT INTO a VALUES (0, 1), (1, 1), (2, 2), (3, 2), (NULL, 1)");
    ignore (Db.exec db "INSERT INTO b VALUES (-0.0, 1), (1.0, 1), (2.5, 2), (3.0, 1), (NULL, 1)");
    Option.iter (fun using -> ignore (Db.exec db ("CREATE INDEX by_y ON b (y) " ^ using))) index;
    if nested then
      Db.reconfigure db { (Db.config db) with Db.hash_join = false; index_join = false };
    Alcotest.(check bool) (sql ^ " plan " ^ plan) true (contains (Db.explain db sql) plan);
    Db.query db sql
  in
  let check what expected actual =
    if not (Relation.equal_bag expected actual) then
      Alcotest.failf "%s:@.expected:@.%s@.got:@.%s" what (Relation.render expected)
        (Relation.render actual)
  in
  let reference = run ~nested:true ~plan:"Join [nested-loop]" single in
  Alcotest.(check int) "nested loop rows" 3 (Relation.cardinality reference);
  check "hash join" reference (run ~plan:"Join [hash]" single);
  check "hash index" reference
    (run ~index:"USING HASH" ~plan:"Join [index(b.y eq)]" single);
  check "ordered index" reference
    (run ~index:"USING ORDERED" ~plan:"Join [index(b.y eq)]" single);
  let reference = run ~nested:true ~plan:"Join [nested-loop]" double in
  Alcotest.(check int) "two-key nested loop rows" 2 (Relation.cardinality reference);
  check "two-key hash join" reference (run ~plan:"Join [hash]" double)

(* ---- Failure injection ---- *)

let test_engine_errors () =
  let db = db3 () in
  let engine_fails sql =
    match Db.exec db sql with
    | exception Db.Engine_error _ -> true
    | exception Rfview_engine.Catalog.Catalog_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "insert arity" true
    (engine_fails "INSERT INTO a (x) VALUES (1, 2)");
  Alcotest.(check bool) "insert unknown column" true
    (engine_fails "INSERT INTO a (nope) VALUES (1)");
  Alcotest.(check bool) "incompatible type" true
    (engine_fails "INSERT INTO a VALUES ('text', 1)");
  Alcotest.(check bool) "unknown table update" true
    (engine_fails "UPDATE nope SET x = 1");
  Alcotest.(check bool) "duplicate index" true
    (ignore (Db.exec db "CREATE INDEX i1 ON a (x)");
     engine_fails "CREATE INDEX i1 ON a (x)");
  Alcotest.(check bool) "index on unknown column" true
    (engine_fails "CREATE INDEX i2 ON a (nope)");
  Alcotest.(check bool) "refresh unknown view" true
    (engine_fails "REFRESH MATERIALIZED VIEW nope")

let test_runtime_type_errors () =
  let db = db3 () in
  let fails sql =
    match Db.query db sql with
    | exception Value.Type_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "division by zero" true (fails "SELECT x / 0 FROM a");
  Alcotest.(check bool) "mod by zero" true (fails "SELECT MOD(x, 0) FROM a");
  (* ill-typed expressions are rejected statically, before execution *)
  Alcotest.(check bool) "string arithmetic" true
    (match Db.query db "SELECT 'a' + 1 FROM a" with
     | exception P.Binder.Bind_error _ -> true
     | _ -> false)

let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Rfview_engine.Catalog.Catalog_error _ -> ()

let test_view_dependency_behaviour () =
  (* DROP is RESTRICT: a base table cannot go while a materialized view
     reads it, and the view keeps serving and refreshing *)
  let db = db3 () in
  ignore (Db.exec db "CREATE MATERIALIZED VIEW mv AS SELECT x FROM a");
  refused "DROP TABLE a under mv" (fun () -> Db.exec db "DROP TABLE a");
  Alcotest.(check int) "mv still served" 3
    (Relation.cardinality (Db.query db "SELECT * FROM mv"));
  ignore (Db.exec db "INSERT INTO a VALUES (4, 40)");
  ignore (Db.exec db "REFRESH MATERIALIZED VIEW mv");
  Alcotest.(check int) "mv maintained and refreshed" 4
    (Relation.cardinality (Db.query db "SELECT * FROM mv"));
  (* once the reader is gone, so can the table be *)
  ignore (Db.exec db "DROP VIEW mv");
  ignore (Db.exec db "DROP TABLE a")

(* A view over a view: w reads v reads seq.  Neither input may be
   dropped under its reader, as a statement or inside a batch, and a
   refusal inside a batch rolls the whole batch back. *)
let vv_db () =
  let db = Db.create () in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [
      "CREATE TABLE seq (pos INT, val FLOAT)";
      "INSERT INTO seq VALUES (1, 1.0), (2, 2.0), (3, 3.0)";
      "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER BY pos \
       ROWS UNBOUNDED PRECEDING) AS s FROM seq";
      "CREATE MATERIALIZED VIEW w AS SELECT pos, s FROM v";
    ];
  db

let count db sql = Relation.cardinality (Db.query db sql)

let test_drop_restrict () =
  let db = vv_db () in
  refused "DROP VIEW v under w" (fun () -> Db.exec db "DROP VIEW v");
  refused "DROP TABLE seq under v" (fun () -> Db.exec db "DROP TABLE seq");
  (* w is still maintained through v *)
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 10.0)");
  Alcotest.(check int) "w follows the insert" 4 (count db "SELECT * FROM w");
  Alcotest.(check bool) "w not stale" false (Db.is_stale db "w");
  ignore (Db.exec db "REFRESH MATERIALIZED VIEW w");
  (* a refusal inside a batch rolls the whole batch back *)
  (match
     Db.with_batch db (fun () ->
         ignore (Db.exec db "INSERT INTO seq VALUES (5, 20.0)");
         ignore (Db.exec db "DROP VIEW v"))
   with
   | () -> Alcotest.fail "batch survived a refused DROP"
   | exception Rfview_engine.Catalog.Catalog_error _ -> ());
  Alcotest.(check int) "batch insert rolled back" 4 (count db "SELECT * FROM seq");
  Alcotest.(check int) "w rolled back" 4 (count db "SELECT * FROM w");
  (* readers go first, then their inputs *)
  ignore (Db.exec db "DROP VIEW w");
  ignore (Db.exec db "DROP VIEW v");
  ignore (Db.exec db "DROP TABLE seq")

(* A plain view binds at creation: an unknown relation is refused and
   leaves the catalog as it was. *)
let test_plain_view_binds () =
  let db = db3 () in
  let names () =
    List.sort compare
      (List.map
         (fun (v : Rfview_engine.Catalog.view) -> v.Rfview_engine.Catalog.view_name)
         (Rfview_engine.Catalog.all_views (Db.catalog db)))
  in
  let before = names () in
  (match Db.exec db "CREATE VIEW pv AS SELECT pos FROM nosuch" with
   | _ -> Alcotest.fail "a plain view over a missing table was accepted"
   | exception P.Binder.Bind_error _ -> ());
  Alcotest.(check (list string)) "catalog unchanged" before (names ());
  Alcotest.(check (list string)) "no reader recorded" []
    (List.map
       (fun (v : Rfview_engine.Catalog.view) -> v.Rfview_engine.Catalog.view_name)
       (Rfview_engine.Catalog.readers (Db.catalog db) "nosuch"));
  (* a plain view over a table reads it: DROP is refused through it *)
  ignore (Db.exec db "CREATE VIEW pa AS SELECT x FROM a");
  refused "DROP TABLE a under pa" (fun () -> Db.exec db "DROP TABLE a")

let () =
  Alcotest.run "optimize"
    [
      ( "pushdown",
        [
          Alcotest.test_case "into join" `Quick test_pushdown_into_join;
          Alcotest.test_case "three-way" `Quick test_pushdown_three_way;
          Alcotest.test_case "one-sided range joins hash" `Quick test_one_sided_range_hashes;
          Alcotest.test_case "left join semantics" `Quick test_left_join_where_not_pushed;
          Alcotest.test_case "mixed INT/FLOAT join keys" `Quick test_mixed_numeric_keys;
          Alcotest.test_case "left outer pushdown shapes" `Quick
            test_left_outer_pushdown_shapes;
          QCheck_alcotest.to_alcotest prop_pushdown_preserves_semantics;
        ] );
      ( "failures",
        [
          Alcotest.test_case "engine errors" `Quick test_engine_errors;
          Alcotest.test_case "runtime type errors" `Quick test_runtime_type_errors;
          Alcotest.test_case "view dependencies" `Quick test_view_dependency_behaviour;
          Alcotest.test_case "DROP is RESTRICT" `Quick test_drop_restrict;
          Alcotest.test_case "plain view binds" `Quick test_plain_view_binds;
        ] );
    ]
