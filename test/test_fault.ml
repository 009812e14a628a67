(* Robustness tests: the fault-injection registry, statement-level
   atomicity (undo-logged rollback), view quarantine with lazy healing,
   cache degradation, script error reporting and the chaos harness.

   Alcotest runs suites sequentially, so the global fault registry is
   safe to share; every test resets it on entry and exit. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Catalog = Rfview_engine.Catalog
module Cache = Rfview_engine.Cache
module Csv = Rfview_engine.Csv
module Fault = Rfview_engine.Fault
module Chaos = Rfview_workload.Chaos

let with_clean_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

let check_same_bag what a b =
  if not (Relation.equal_bag a b) then
    Alcotest.failf "%s:@.left:@.%s@.right:@.%s" what
      (Relation.render (Relation.sorted_by_all a))
      (Relation.render (Relation.sorted_by_all b))

(* ---- Fixtures ---- *)

(* seq(pos, val) with unique positions, carrying one incrementally
   maintained cumulative-SUM view [v]. *)
let db_with_view data =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE seq (pos INT, val FLOAT)");
  if data <> [] then
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO seq VALUES %s"
            (String.concat ", "
               (List.mapi (fun i v -> Printf.sprintf "(%d, %g)" (i + 1) v) data))));
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER BY \
        pos ROWS UNBOUNDED PRECEDING) AS s FROM seq");
  db

let recompute db =
  Db.run_query db (Catalog.view (Db.catalog db) "v").Catalog.definition

(* ---- Registry and policies ---- *)

let test_site = Fault.define "test.site"

let fires f = match f () with _ -> false | exception Fault.Injected _ -> true

let test_policy_always () =
  with_clean_faults (fun () ->
      Fault.hit test_site;
      Alcotest.(check int) "unarmed hit counted" 1 (Fault.hits "test.site");
      Alcotest.(check int) "unarmed never fires" 0 (Fault.fired "test.site");
      Fault.arm "test.site" Fault.Always;
      Alcotest.(check bool) "armed" true (Fault.is_armed "test.site");
      Alcotest.(check bool) "fires" true (fires (fun () -> Fault.hit test_site));
      Alcotest.(check bool) "fires again" true (fires (fun () -> Fault.hit test_site));
      Alcotest.(check int) "fired counted" 2 (Fault.fired "test.site");
      Fault.disarm "test.site";
      Alcotest.(check bool) "quiet after disarm" false
        (fires (fun () -> Fault.hit test_site)))

let test_policy_nth () =
  with_clean_faults (fun () ->
      Fault.arm "test.site" (Fault.Nth 3);
      let pattern = List.init 5 (fun _ -> fires (fun () -> Fault.hit test_site)) in
      Alcotest.(check (list bool)) "fires exactly on the 3rd hit, once"
        [ false; false; true; false; false ] pattern;
      Alcotest.(check int) "fired once" 1 (Fault.fired "test.site"))

let test_policy_probability_deterministic () =
  with_clean_faults (fun () ->
      let sample () =
        Fault.arm "test.site" (Fault.Probability { p = 0.5; seed = 123 });
        List.init 50 (fun _ -> fires (fun () -> Fault.hit test_site))
      in
      let a = sample () and b = sample () in
      Alcotest.(check (list bool)) "same seed, same pattern" a b;
      Alcotest.(check bool) "p=0.5 fires sometimes" true (List.mem true a);
      Alcotest.(check bool) "p=0.5 passes sometimes" true (List.mem false a);
      Fault.arm "test.site" (Fault.Probability { p = 0.; seed = 123 });
      Alcotest.(check bool) "p=0 never fires" false
        (List.mem true (List.init 20 (fun _ -> fires (fun () -> Fault.hit test_site)))))

let test_with_suspended () =
  with_clean_faults (fun () ->
      Fault.arm "test.site" Fault.Always;
      let before = Fault.hits "test.site" in
      Fault.with_suspended (fun () -> Fault.hit test_site);
      Alcotest.(check int) "suspended hit still counted" (before + 1)
        (Fault.hits "test.site");
      Alcotest.(check int) "suspended hit never fires" 0 (Fault.fired "test.site");
      Alcotest.(check bool) "fires once resumed" true
        (fires (fun () -> Fault.hit test_site)))

let test_arm_validation () =
  with_clean_faults (fun () ->
      let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
      Alcotest.(check bool) "unknown site" true
        (invalid (fun () -> Fault.arm "no.such.site" Fault.Always));
      Alcotest.(check bool) "nth < 1" true
        (invalid (fun () -> Fault.arm "test.site" (Fault.Nth 0)));
      Alcotest.(check bool) "p > 1" true
        (invalid (fun () -> Fault.arm "test.site" (Fault.Probability { p = 1.5; seed = 0 }))))

let test_parse_spec () =
  let ok spec expected =
    match Fault.parse_spec spec with
    | Ok got ->
      Alcotest.(check (pair string string))
        spec
        (fst expected, Fault.describe_policy (snd expected))
        (fst got, Fault.describe_policy (snd got))
    | Error e -> Alcotest.failf "%s: unexpected error %s" spec e
  in
  let err spec =
    match Fault.parse_spec spec with
    | Ok _ -> Alcotest.failf "%s: expected an error" spec
    | Error _ -> ()
  in
  ok "database.apply_insert:always" ("database.apply_insert", Fault.Always);
  ok "x.y:nth=7" ("x.y", Fault.Nth 7);
  ok "x.y:p=0.25@99" ("x.y", Fault.Probability { p = 0.25; seed = 99 });
  ok "x.y:p=0.25" ("x.y", Fault.Probability { p = 0.25; seed = 0 });
  err "no-colon";
  err ":always";
  err "x.y:sometimes";
  err "x.y:nth=0";
  err "x.y:nth=many";
  err "x.y:p=1.5";
  err "x.y:p=0.5@x"

(* ---- Statement atomicity: rollback at every site ---- *)

(* Every (site, statement) pair that can abort a statement: under
   [`Abort] degradation an injected fault must leave the database
   fingerprint-identical, and the same statement must succeed once the
   site is disarmed. *)
let rollback_cases =
  (* [mutates]: whether a successful run changes the fingerprint
     (REFRESH of a fresh view is an idempotent no-op) *)
  [
    ("database.apply_insert", "INSERT INTO seq VALUES (10, 99)", true);
    ("database.apply_delete", "DELETE FROM seq WHERE pos = 1", true);
    ("database.apply_update", "UPDATE seq SET val = 99 WHERE pos = 2", true);
    ("database.propagate_view", "INSERT INTO seq VALUES (10, 99)", true);
    ("database.refresh_view", "REFRESH MATERIALIZED VIEW v", false);
    ("matview.init_state",
     "CREATE MATERIALIZED VIEW v2 AS SELECT pos, val, MIN(val) OVER (ORDER BY \
      pos ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS m FROM seq", true);
    ("matview.apply_shared", "INSERT INTO seq VALUES (10, 99)", true);
    ("matview.apply_shared", "DELETE FROM seq WHERE pos = 1", true);
    ("matview.apply_shared", "UPDATE seq SET val = 99 WHERE pos = 2", true);
  ]

let test_rollback_per_site () =
  with_clean_faults (fun () ->
      List.iter
        (fun (site, sql, mutates) ->
          let db = db_with_view [ 1.; 2.; 3.; 4. ] in
          Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
          let before = Chaos.fingerprint db in
          Fault.arm site Fault.Always;
          (match Db.exec db sql with
           | _ -> Alcotest.failf "%s: statement should have aborted" site
           | exception _ -> ());
          Alcotest.(check bool)
            (site ^ ": site actually fired") true
            (Fault.fired site > 0);
          Alcotest.(check string)
            (site ^ ": rollback left the db bit-identical") before
            (Chaos.fingerprint db);
          Fault.disarm site;
          ignore (Db.exec db sql);
          Alcotest.(check bool)
            (site ^ ": statement applies once disarmed") mutates
            (Chaos.fingerprint db <> before);
          (* the views must be consistent after the successful run *)
          check_same_bag (site ^ ": view consistent")
            (Db.query db "SELECT * FROM v") (recompute db))
        rollback_cases)

let test_csv_load_atomic () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2. ] in
      let before = Chaos.fingerprint db in
      Fault.arm "csv.load_row" (Fault.Nth 2);
      (match Csv.import_string db ~table:"seq" "pos,val\n5,50\n6,60\n" with
       | _ -> Alcotest.fail "import should have aborted"
       | exception Fault.Injected "csv.load_row" -> ());
      Alcotest.(check string) "no partial load" before (Chaos.fingerprint db);
      Fault.disarm "csv.load_row";
      Alcotest.(check int) "import succeeds once disarmed" 2
        (Csv.import_string db ~table:"seq" "pos,val\n5,50\n6,60\n");
      check_same_bag "view refreshed by the load"
        (Db.query db "SELECT * FROM v") (recompute db))

let test_ddl_rollback () =
  (* DDL joins the same undo scope: a CREATE whose initial view
     computation faults must not leave the name behind. *)
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2. ] in
      Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
      Fault.arm "matview.init_state" Fault.Always;
      (match
         Db.exec db "CREATE MATERIALIZED VIEW broken AS SELECT pos, val, SUM(val) \
                     OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq"
       with
       | _ -> Alcotest.fail "create should have aborted"
       | exception _ -> ());
      Alcotest.(check bool) "name not taken" true
        (Catalog.find_view (Db.catalog db) "broken" = None);
      Fault.disarm "matview.init_state";
      ignore
        (Db.exec db "CREATE MATERIALIZED VIEW broken AS SELECT pos, val, SUM(val) \
                     OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq");
      Alcotest.(check bool) "name reusable after rollback" true
        (Catalog.find_view (Db.catalog db) "broken" <> None))

(* ---- Quarantine and lazy healing ---- *)

let test_quarantine_and_heal () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      Fault.arm "matview.apply_shared" Fault.Always;
      (* default [`Quarantine]: the statement succeeds, the view goes stale *)
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
      Alcotest.(check int) "base row applied" 4
        (Relation.cardinality (Db.query db "SELECT * FROM seq"));
      Alcotest.(check bool) "view quarantined" true (Db.is_stale db "v");
      Alcotest.(check (list string)) "stale_views lists it" [ "v" ] (Db.stale_views db);
      Fault.disarm "matview.apply_shared";
      (* the next read heals by full refresh *)
      let r = Db.query db "SELECT * FROM v" in
      Alcotest.(check bool) "healed by the read" false (Db.is_stale db "v");
      check_same_bag "healed contents correct" r (recompute db);
      (* once healed, incremental maintenance works again *)
      ignore (Db.exec db "INSERT INTO seq VALUES (5, 50)");
      Alcotest.(check bool) "stays fresh" false (Db.is_stale db "v");
      check_same_bag "maintained after healing"
        (Db.query db "SELECT * FROM v") (recompute db))

let test_quarantine_isolates_views () =
  (* only the faulting view is quarantined; others stay fresh *)
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      ignore
        (Db.exec db
           "CREATE MATERIALIZED VIEW w AS SELECT pos, val, MIN(val) OVER (ORDER \
            BY pos ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS m FROM seq");
      (* fire only on the first propagation of the statement: one view
         quarantines, the other maintains normally *)
      Fault.arm "database.propagate_view" (Fault.Nth 1);
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
      Alcotest.(check int) "exactly one view stale" 1 (List.length (Db.stale_views db));
      List.iter
        (fun (view : Catalog.view) ->
          if not view.Catalog.stale then
            match view.Catalog.contents with
            | Some c ->
              check_same_bag (view.Catalog.view_name ^ " fresh and correct") c
                (Db.run_query db view.Catalog.definition)
            | None -> Alcotest.fail "materialized view without contents")
        (Catalog.all_views (Db.catalog db)))

(* ---- Cache degradation ---- *)

let cache_q frame =
  Printf.sprintf
    "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN %s) AS s FROM seq"
    frame

let test_cache_derive_fault_bypasses () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 3.; 1.; 4.; 1.; 5. ] in
      let cache = Cache.create db in
      let _, o1 = Cache.query cache (cache_q "3 PRECEDING AND 2 FOLLOWING") in
      (match o1 with
       | Cache.Miss_cached _ -> ()
       | o -> Alcotest.failf "expected a miss, got %s" (Cache.describe_outcome o));
      Alcotest.(check int) "one entry" 1 (List.length (Cache.entries cache));
      Fault.arm "cache.derive_answer" Fault.Always;
      let q = cache_q "2 PRECEDING AND 1 FOLLOWING" in
      let r, o = Cache.query cache q in
      Alcotest.(check bool) "degrades to a bypass" true (o = Cache.Bypass);
      Alcotest.(check bool) "site fired" true (Fault.fired "cache.derive_answer" > 0);
      check_same_bag "bypass answer still correct" r
        (Fault.with_suspended (fun () -> Db.query db q));
      Alcotest.(check (list string)) "faulting entry evicted" [] (Cache.entries cache);
      Alcotest.(check int) "counted as bypass" 1 (Cache.stats cache).Cache.bypasses)

let test_cache_admit_fault_bypasses () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      let cache = Cache.create db in
      Fault.arm "cache.admit" Fault.Always;
      let q = cache_q "1 PRECEDING AND 1 FOLLOWING" in
      let r, o = Cache.query cache q in
      Alcotest.(check bool) "degrades to a bypass" true (o = Cache.Bypass);
      check_same_bag "result still correct" r
        (Fault.with_suspended (fun () -> Db.query db q));
      Alcotest.(check (list string)) "nothing admitted" [] (Cache.entries cache);
      Fault.disarm "cache.admit";
      (* no residue: the same query now admits normally *)
      let _, o2 = Cache.query cache q in
      (match o2 with
       | Cache.Miss_cached _ -> ()
       | o -> Alcotest.failf "expected a miss, got %s" (Cache.describe_outcome o)))

let test_cache_fifo_eviction () =
  let db = db_with_view [ 1.; 2.; 3.; 4. ] in
  let cache = Cache.create ~capacity:2 db in
  let q l =
    Printf.sprintf
      "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN %d PRECEDING AND \
       CURRENT ROW) AS m FROM seq" l
  in
  let admit l =
    match Cache.query cache (q l) with
    | _, Cache.Miss_cached name -> name
    | _, o -> Alcotest.failf "expected a miss, got %s" (Cache.describe_outcome o)
  in
  (* MIN views cannot serve shrinking frames, so each is a fresh miss *)
  let e1 = admit 3 and e2 = admit 2 and e3 = admit 1 in
  Alcotest.(check (list string)) "oldest evicted first, order kept" [ e2; e3 ]
    (Cache.entries cache);
  Alcotest.(check bool) "evicted entry's view dropped" true
    (Catalog.find_view (Db.catalog db) e1 = None)

(* ---- Script errors ---- *)

let test_script_error_context () =
  let db = Db.create () in
  (match
     Db.exec_script db
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); INSERT INTO missing \
        VALUES (2); INSERT INTO t VALUES (3)"
   with
   | _ -> Alcotest.fail "script should have failed"
   | exception Db.Script_error { index; sql; cause } ->
     Alcotest.(check int) "1-based statement index" 3 index;
     Alcotest.(check string) "failing SQL text" "INSERT INTO missing VALUES (2)" sql;
     (match cause with
      | Catalog.Catalog_error _ -> ()
      | e -> Alcotest.failf "unexpected cause %s" (Printexc.to_string e)));
  (* statements are atomic individually: everything before the failure
     persists, the failing statement left nothing behind *)
  Alcotest.(check int) "prior statements persisted" 1
    (Relation.cardinality (Db.query db "SELECT * FROM t"))

(* ---- Rollback idempotence (property) ---- *)

let prop_sites =
  [
    "database.apply_insert"; "database.apply_delete"; "database.apply_update";
    "database.propagate_view"; "database.refresh_view"; "matview.init_state";
    "matview.apply_shared";
  ]

(* A short random DML stream; values are integers so SQL text round-trips
   exactly. *)
let gen_stream seed =
  let prng = Rfview_workload.Prng.create ~seed in
  List.init 12 (fun _ ->
      match Rfview_workload.Prng.int prng 8 with
      | 0 | 1 | 2 | 3 ->
        Printf.sprintf "INSERT INTO seq VALUES (%d, %d)"
          (Rfview_workload.Prng.int_range prng ~lo:1 ~hi:15)
          (Rfview_workload.Prng.int_range prng ~lo:(-9) ~hi:9)
      | 4 | 5 ->
        Printf.sprintf "UPDATE seq SET val = %d WHERE pos = %d"
          (Rfview_workload.Prng.int_range prng ~lo:(-9) ~hi:9)
          (Rfview_workload.Prng.int_range prng ~lo:1 ~hi:15)
      | 6 ->
        Printf.sprintf "DELETE FROM seq WHERE pos = %d"
          (Rfview_workload.Prng.int_range prng ~lo:1 ~hi:15)
      | _ -> "REFRESH MATERIALIZED VIEW v")

(* After any single injected fault, every statement either applied fully
   (db equals a fault-free twin) or not at all (db fingerprint
   unchanged). *)
let prop_rollback_idempotent (site_idx, nth, seed) =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      let twin = db_with_view [ 1.; 2.; 3. ] in
      Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
      Fault.arm (List.nth prop_sites site_idx) (Fault.Nth nth);
      List.for_all
        (fun sql ->
          let before = Chaos.fingerprint db in
          match Db.exec db sql with
          | _ ->
            Fault.with_suspended (fun () -> ignore (Db.exec twin sql));
            let ok = Chaos.fingerprint db = Chaos.fingerprint twin in
            if not ok then
              QCheck.Test.fail_reportf "partial application of %S" sql;
            ok
          | exception _ ->
            let ok = Chaos.fingerprint db = before in
            if not ok then QCheck.Test.fail_reportf "dirty rollback of %S" sql;
            ok)
        (gen_stream seed))

let arb_fault_case =
  QCheck.make
    QCheck.Gen.(
      let* site_idx = int_range 0 (List.length prop_sites - 1) in
      let* nth = int_range 1 8 in
      let* seed = int_range 0 10_000 in
      return (site_idx, nth, seed))
    ~print:(fun (site_idx, nth, seed) ->
      Printf.sprintf "site=%s nth=%d seed=%d" (List.nth prop_sites site_idx) nth seed)

let qtest ?(count = 150) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---- Chunked storage under DML (qcheck) ----

   Tables are stored in chunks of at most 256 rows with per-chunk zones;
   UPDATE and DELETE read only the chunks their WHERE's zones admit and
   copy only the chunks they change, INSERT only the tail chunk.  Under
   random statement streams over a table of several chunks — keys moved
   across chunks, NULLs, OR/NOT predicates, and statements failed by an
   injected fault after the change, so rolled back by the undo log —
   the table stays row-for-row and bit-for-bit what a flat row array
   gives under the same statements (evaluated on every row, unpruned),
   its fingerprint is that of the oracle's rows loaded afresh, and a
   snapshot taken before each statement still reads the rows before
   it. *)

type chunk_dml =
  | C_insert of Row.t list
  | C_update of (string * Expr.t) * (string * int * Expr.t) (* WHERE, SET column *)
  | C_delete of string * Expr.t

let chunk_table = "CREATE TABLE t (k INT, v FLOAT, w INT)"
let chunk_floats = [ -1.25; 0.5; 2.; 3.75; 10.5 ]

let gen_chunk_where =
  let open QCheck.Gen in
  let k = int_range (-30) 2_800 in
  let cmp col name op sym c =
    (Printf.sprintf "%s %s %d" name sym c, Expr.Binop (op, Expr.Col col, Expr.Const (Value.Int c)))
  in
  let atom =
    oneof
      [
        map (cmp 0 "k" Expr.Eq "=") k;
        map (cmp 0 "k" Expr.Lt "<") k;
        map (cmp 0 "k" Expr.Ge ">=") k;
        map (cmp 2 "w" Expr.Eq "=") (int_range 0 9);
        map2
          (fun a len ->
            ( Printf.sprintf "k BETWEEN %d AND %d" a (a + len),
              Expr.Between (Expr.Col 0, Expr.Const (Value.Int a), Expr.Const (Value.Int (a + len))) ))
          k (int_range 0 60);
        return ("w IS NULL", Expr.Is_null (Expr.Col 2));
        map
          (fun f ->
            (Printf.sprintf "v > %s" (Value.to_sql (Value.Float f)),
             Expr.Binop (Expr.Gt, Expr.Col 1, Expr.Const (Value.Float f))))
          (oneofl chunk_floats);
      ]
  in
  let combine name op (sa, ea) (sb, eb) =
    (Printf.sprintf "(%s) %s (%s)" sa name sb, Expr.Binop (op, ea, eb))
  in
  frequency
    [
      (3, atom);
      (3, map2 (combine "AND" Expr.And) atom atom);
      (2, map2 (combine "OR" Expr.Or) atom atom);
      (1, map (fun (sa, ea) -> (Printf.sprintf "NOT (%s)" sa, Expr.Unop (Expr.Not, ea))) atom);
    ]

let gen_chunk_row =
  QCheck.Gen.(
    map3
      (fun k v w -> [| Value.Int k; Value.Float v; w |])
      (int_range 0 2_800) (oneofl chunk_floats)
      (frequency [ (1, return Value.Null); (5, map (fun w -> Value.Int w) (int_range 0 9)) ]))

let gen_chunk_dml =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun rows -> C_insert rows) (list_size (int_range 1 40) gen_chunk_row));
      ( 3,
        map2
          (fun where set -> C_update (where, set))
          gen_chunk_where
          (oneofl
             [
               ("v = v + 1.5", 1, Expr.Binop (Expr.Add, Expr.Col 1, Expr.Const (Value.Float 1.5)));
               ("k = k + 700", 0, Expr.Binop (Expr.Add, Expr.Col 0, Expr.Const (Value.Int 700)));
               ("k = k - 260", 0, Expr.Binop (Expr.Sub, Expr.Col 0, Expr.Const (Value.Int 260)));
               ("w = NULL", 2, Expr.Const Value.Null);
               ("w = 4", 2, Expr.Const (Value.Int 4));
             ]) );
      (2, map (fun (sql, e) -> C_delete (sql, e)) gen_chunk_where);
    ]

(* initial rows, then statements each paired with whether a fault fails it *)
let arb_chunk_stream =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (n, stmts) ->
      Printf.sprintf "%d rows; %s" n
        (String.concat "; "
           (List.map
              (fun (d, fail) ->
                (match d with
                 | C_insert rows -> Printf.sprintf "INSERT %d rows" (List.length rows)
                 | C_update ((w, _), (set, _, _)) -> Printf.sprintf "UPDATE SET %s WHERE %s" set w
                 | C_delete (w, _) -> Printf.sprintf "DELETE WHERE %s" w)
                ^ if fail then " (fault)" else "")
              stmts)))
    (pair (int_range 200 900)
       (list_size (int_range 4 14) (pair gen_chunk_dml (frequency [ (4, return false); (1, return true) ]))))

let chunk_values_sql rows =
  String.concat ", "
    (List.map
       (fun row ->
         "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_sql row)) ^ ")")
       rows)

let rows_same_bits a b =
  let same x y =
    match (x, y) with
    | Value.Float f, Value.Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
    | _ -> Value.equal x y
  in
  List.length a = List.length b
  && List.for_all2 (fun r s -> Array.length r = Array.length s && Array.for_all2 same r s) a b

let prop_chunked_dml (n, stmts) =
  with_clean_faults (fun () ->
      let db = Db.create () in
      ignore (Db.exec db chunk_table);
      (* a multi-chunk table in key order, so the zones are tight *)
      let initial =
        List.init n (fun i ->
            [| Value.Int (i * 3); Value.Float (List.nth chunk_floats (i mod 5));
               (if i mod 11 = 0 then Value.Null else Value.Int (i mod 10)) |])
      in
      ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES %s" (chunk_values_sql initial)));
      let table () =
        match Db.exec db "SELECT * FROM t" with
        | Db.Relation r -> Relation.to_list r
        | Db.Done m -> QCheck.Test.fail_reportf "SELECT answered %s" m
      in
      let oracle = ref initial in
      List.iteri
        (fun i (dml, fail) ->
          let sql, apply, site =
            match dml with
            | C_insert rows ->
              ( Printf.sprintf "INSERT INTO t VALUES %s" (chunk_values_sql rows),
                (fun old -> old @ rows),
                "database.apply_insert" )
            | C_update ((where, pred), (set, col, e)) ->
              ( Printf.sprintf "UPDATE t SET %s WHERE %s" set where,
                List.map (fun row ->
                    if Expr.holds row pred then begin
                      let fresh = Array.copy row in
                      fresh.(col) <- Expr.eval row e;
                      fresh
                    end
                    else row),
                "database.apply_update" )
            | C_delete (where, pred) ->
              ( Printf.sprintf "DELETE FROM t WHERE %s" where,
                List.filter (fun row -> not (Expr.holds row pred)),
                "database.apply_delete" )
          in
          let before = Db.snapshot db and prior = !oracle in
          if fail then Fault.arm site Fault.Always;
          (match Db.exec db sql with
           | _ -> if fail then QCheck.Test.fail_reportf "statement %d: the fault did not fire" i
           | exception Fault.Injected _ when fail -> ());
          Fault.disarm_all ();
          if not fail then oracle := apply prior;
          if not (rows_same_bits (table ()) !oracle) then
            QCheck.Test.fail_reportf "statement %d (%s): the table differs from the flat oracle" i sql;
          if not (rows_same_bits (Relation.to_list (Db.Snapshot.query before "SELECT * FROM t")) prior)
          then QCheck.Test.fail_reportf "statement %d (%s): an earlier snapshot changed" i sql;
          Db.Snapshot.close before)
        stmts;
      let fresh = Db.create () in
      ignore (Db.exec fresh chunk_table);
      if !oracle <> [] then
        ignore (Db.exec fresh (Printf.sprintf "INSERT INTO t VALUES %s" (chunk_values_sql !oracle)));
      String.equal (Db.fingerprint db) (Db.fingerprint fresh))

(* ---- Chaos harness ---- *)

let test_chaos_clean () =
  with_clean_faults (fun () ->
      let r = Chaos.run () in
      Alcotest.(check int) "all statements attempted" r.Chaos.statements
        Chaos.default_config.Chaos.ops;
      Alcotest.(check int) "nothing failed without injection" 0 r.Chaos.failed;
      Alcotest.(check int) "nothing quarantined without injection" 0 r.Chaos.quarantines;
      Alcotest.(check bool) "cache exercised" true (r.Chaos.cache_probes > 0);
      Alcotest.(check bool) "cache hits observed" true (r.Chaos.cache_hits > 0);
      (* the no-injection run must not fire a single site *)
      List.iter
        (fun site -> Alcotest.(check int) (site ^ " quiet") 0 (Fault.fired site))
        (Fault.sites ()))

(* Sweep every registered site across policies and stream seeds until
   each has fired at least once inside a consistent run — the tentpole
   acceptance bar: every site fired, every invariant held. *)
let test_chaos_sweep_all_sites () =
  with_clean_faults (fun () ->
      let policies =
        [ Fault.Nth 1; Fault.Nth 3; Fault.Probability { p = 0.4; seed = 7 } ]
      in
      let seeds = [ 11; 23; 47; 91 ] in
      (* durability sites (wal, checkpoint, recover, io prefixes) are
         only reachable through a durable database directory, and
         replication sites (ship, replica prefixes) only through a feed
         pipeline; test_crash.ml's crash matrix, test_replica.ml and
         test_storage.ml apply the same fired-at-least-once bar to
         them *)
      let durability_site site =
        List.exists
          (fun p -> String.length site > String.length p && String.sub site 0 (String.length p) = p)
          [ "wal."; "checkpoint."; "recover."; "ship."; "replica."; "io." ]
      in
      List.iter
        (fun site ->
          if site <> "test.site" && not (durability_site site) then begin
            List.iter
              (fun policy ->
                List.iter
                  (fun seed ->
                    if Fault.fired site = 0 then
                      ignore
                        (Chaos.run
                           ~config:{ Chaos.default_config with Chaos.seed }
                           ~inject:(site, policy) ()))
                  seeds)
              policies;
            Alcotest.(check bool) (site ^ " fired during the sweep") true
              (Fault.fired site > 0)
          end)
        (Fault.sites ()))

(* ---- Undo with nested/overlapping snapshots ----

   Restore actions are absolute snapshots, so logging the same table
   twice in one statement (e.g. a DML apply followed by a full-refresh
   fallback) must still roll back to the oldest snapshot — and a replay
   interrupted partway (a double fault during rollback) must be safely
   restartable without re-corrupting already-restored rows. *)

module Undo = Rfview_engine.Undo

let test_undo_overlapping_snapshots () =
  let state = ref [| 1; 2; 3 |] in
  let u = Undo.create () in
  let snap1 = !state in
  Undo.log u (fun () -> state := snap1);
  state := Array.append !state [| 4 |];
  let snap2 = !state in
  Undo.log u (fun () -> state := snap2) (* second snapshot, same object *);
  state := [| 0 |];
  Undo.rollback u;
  Alcotest.(check (array int)) "oldest snapshot wins" [| 1; 2; 3 |] !state;
  Alcotest.(check int) "log cleared" 0 (Undo.depth u)

let test_undo_double_fault_rollback () =
  let state = ref [| 1; 2; 3 |] in
  let u = Undo.create () in
  let snap1 = !state in
  Undo.log u (fun () -> state := snap1);
  state := [| 1; 2; 3; 4 |];
  let snap2 = !state in
  let fault = ref true in
  Undo.log u (fun () ->
      state := snap2;
      if !fault then begin
        fault := false;
        failwith "transient restore fault"
      end);
  state := [| 99 |];
  (match Undo.rollback u with
   | () -> Alcotest.fail "first rollback should have faulted"
   | exception Failure _ -> ());
  (* the interrupted log is still intact: the retry replays the absolute
     snapshots from the newest again and lands on the oldest state *)
  Undo.rollback u;
  Alcotest.(check (array int)) "retry restores the pre-statement rows"
    [| 1; 2; 3 |] !state;
  Alcotest.(check int) "log cleared after the retry" 0 (Undo.depth u)

(* Engine-level overlap: INSERT NULL makes incremental maintenance fall
   back to a full refresh inside the same statement, so the view is
   snapshotted twice (once by the maintain path, once by the refresh);
   faulting after both with [`Abort] must roll back through both
   restores to the exact pre-statement state. *)
let test_undo_overlapping_view_snapshots () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
      let before = Chaos.fingerprint db in
      Fault.arm "matview.init_state" Fault.Always;
      (match Db.exec db "INSERT INTO seq VALUES (10, NULL)" with
       | _ -> Alcotest.fail "statement should have aborted"
       | exception Fault.Injected "matview.init_state" -> ());
      Fault.disarm "matview.init_state";
      Alcotest.(check string) "identical after overlapped rollback" before
        (Chaos.fingerprint db))

(* Quarantine every view at once: [stale_views] must list them in
   deterministic case-insensitive name order regardless of hashtable
   iteration order. *)
let test_stale_views_sorted () =
  with_clean_faults (fun () ->
      let db = Db.create () in
      ignore (Db.exec db "CREATE TABLE seq (pos INT, val FLOAT)");
      List.iter
        (fun name ->
          ignore
            (Db.exec db
               (Printf.sprintf
                  "CREATE MATERIALIZED VIEW %s AS SELECT pos, val, SUM(val) \
                   OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq"
                  name)))
        [ "Beta"; "alpha"; "GAMMA"; "delta" ];
      Fault.arm "database.propagate_view" Fault.Always;
      ignore (Db.exec db "INSERT INTO seq VALUES (1, 10)");
      Fault.disarm "database.propagate_view";
      Alcotest.(check (list string)) "case-insensitive name order"
        [ "alpha"; "Beta"; "delta"; "GAMMA" ] (Db.stale_views db))

(* ---- Batched delta maintenance ----

   The group-commit path must be observationally identical to per-row
   maintenance: same final state (bit-identical fingerprint), one
   propagation per dependent view per batch instead of per statement,
   and cache entries that never serve a pre-batch answer after commit. *)

let test_batch_vs_per_row () =
  with_clean_faults (fun () ->
      let stream = gen_stream 42 in
      let per_row = db_with_view [ 1.; 2.; 3. ] in
      List.iter (fun sql -> ignore (Db.exec per_row sql)) stream;
      let batched = db_with_view [ 1.; 2.; 3. ] in
      Db.with_batch batched (fun () ->
          List.iter (fun sql -> ignore (Db.exec batched sql)) stream);
      Alcotest.(check string) "batched state bit-identical to per-row"
        (Chaos.fingerprint per_row) (Chaos.fingerprint batched))

(* Random streams, random chunking: running the stream in [with_batch]
   chunks of any size must land on exactly the per-row state. *)
let prop_batch_equivalence (seed, chunk) =
  with_clean_faults (fun () ->
      let stream = Array.of_list (gen_stream seed) in
      let n = Array.length stream in
      let per_row = db_with_view [ 1.; 2.; 3. ] in
      Array.iter (fun sql -> ignore (Db.exec per_row sql)) stream;
      let batched = db_with_view [ 1.; 2.; 3. ] in
      let i = ref 0 in
      while !i < n do
        let last = min n (!i + chunk) in
        Db.with_batch batched (fun () ->
            for j = !i to last - 1 do
              ignore (Db.exec batched stream.(j))
            done);
        i := last
      done;
      let ok = Chaos.fingerprint per_row = Chaos.fingerprint batched in
      if not ok then
        QCheck.Test.fail_reportf "batched (chunk=%d) diverged from per-row" chunk;
      ok)

let arb_batch_case =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* chunk = int_range 1 12 in
      return (seed, chunk))
    ~print:(fun (seed, chunk) -> Printf.sprintf "seed=%d chunk=%d" seed chunk)

let test_batch_propagates_once_per_view () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      ignore
        (Db.exec db
           "CREATE MATERIALIZED VIEW v2 AS SELECT pos, val, MIN(val) OVER \
            (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS m FROM seq");
      let inserts lo =
        List.iter
          (fun i ->
            ignore (Db.exec db (Printf.sprintf "INSERT INTO seq VALUES (%d, 1)" (lo + i))))
          [ 0; 1; 2; 3 ]
      in
      let base = Fault.hits "database.propagate_view" in
      inserts 10;
      Alcotest.(check int) "per-row: one propagation per view per statement"
        (base + 8) (Fault.hits "database.propagate_view");
      let base = Fault.hits "database.propagate_view" in
      Db.with_batch db (fun () -> inserts 20);
      Alcotest.(check int) "batched: one propagation per view per batch"
        (base + 2) (Fault.hits "database.propagate_view");
      check_same_bag "view fresh after the batch" (recompute db)
        (Db.query db "SELECT * FROM v"))

(* Cache entries are materialized views maintained by the same
   propagation, so a batch commit refreshes them exactly once — and a
   post-commit hit must equal uncached execution, never the pre-batch
   answer.  A mid-batch probe must already see the buffered rows (reads
   force an early flush). *)
let test_batch_cache_freshness () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      let cache = Cache.create ~capacity:4 db in
      let seed_sql =
        "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
         AND 2 FOLLOWING) AS s FROM seq"
      in
      (match Cache.query cache seed_sql with
       | _, Cache.Miss_cached _ -> ()
       | _, o -> Alcotest.failf "seed not admitted: %s" (Cache.describe_outcome o));
      let pre_batch, _ = Cache.query cache seed_sql in
      Db.with_batch db (fun () ->
          ignore (Db.exec db "INSERT INTO seq VALUES (4, 10), (5, 20)");
          (* mid-batch: the probe must see the buffered rows *)
          let mid, _ = Cache.query cache seed_sql in
          check_same_bag "mid-batch cache answer is fresh" mid
            (Db.run_query db (Rfview_sql.Parser.query seed_sql)));
      let post, outcome = Cache.query cache seed_sql in
      (match outcome with
       | Cache.Hit _ -> ()
       | o -> Alcotest.failf "post-commit probe missed: %s" (Cache.describe_outcome o));
      check_same_bag "post-commit hit equals uncached execution" post
        (Db.run_query db (Rfview_sql.Parser.query seed_sql));
      if Relation.equal_bag post pre_batch then
        Alcotest.fail "post-commit hit served the pre-batch answer")

(* Every public live read inside a batch sees the batch's pending
   writes.  Each read below follows an INSERT it has not seen
   propagated yet, so a read that skipped its flush serves the
   pre-insert view. *)
let test_batch_reads_see_pending_writes () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      ignore (Db.exec db "CREATE INDEX v_pos ON v (pos)");
      ignore (Db.exec db "CREATE TABLE probe (pos INT)");
      ignore
        (Db.exec db
           ("INSERT INTO probe VALUES "
           ^ String.concat ", " (List.init 20 (fun i -> Printf.sprintf "(%d)" (i + 1)))));
      let join_sql = "SELECT p.pos, v.s FROM probe p, v WHERE p.pos = v.pos" in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      if not (contains (Db.explain db join_sql) "index(v.pos") then
        Alcotest.fail "the probe join does not use the view index";
      (* a quarantined view: healed by its first read inside the batch *)
      Fault.arm "matview.apply_shared" Fault.Always;
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
      Fault.disarm "matview.apply_shared";
      Alcotest.(check bool) "v quarantined before the batch" true (Db.is_stale db "v");
      let cache = Cache.create ~capacity:4 db in
      let cached_sql =
        "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
         AND 1 FOLLOWING) AS s FROM seq"
      in
      ignore (Cache.query cache cached_sql);
      let v_sql = "SELECT * FROM v" in
      let v_query = Rfview_sql.Parser.query v_sql in
      let n = ref 4 in
      let insert () =
        incr n;
        ignore
          (Db.exec db (Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" !n (10 * !n)))
      in
      let fresh what r = check_same_bag what r (recompute db) in
      Db.with_batch db (fun () ->
          insert ();
          fresh "quarantined view healed mid-batch" (Db.query db v_sql);
          Alcotest.(check bool) "healed" false (Db.is_stale db "v");
          insert ();
          fresh "query after the heal" (Db.query db v_sql);
          insert ();
          fresh "run_query" (Db.run_query db v_query);
          insert ();
          let plan = Db.plan_query db v_query in
          fresh "plan_query + execute"
            (Rfview_planner.Physical.execute (Db.catalog_view db) plan);
          insert ();
          (match Db.exec db ("EXPLAIN ANALYZE " ^ v_sql) with
           | Db.Done profile ->
             if not (contains profile (Printf.sprintf "%10d rows" !n)) then
               Alcotest.failf "EXPLAIN ANALYZE missed the pending rows:@.%s" profile
           | Db.Relation _ -> Alcotest.fail "expected profile text");
          insert ();
          let cached, _ = Cache.query cache cached_sql in
          check_same_bag "Cache.query" cached
            (Db.run_query db (Rfview_sql.Parser.query cached_sql));
          insert ();
          (match Db.view_state db "v" with
           | Some st -> fresh "view_state" (Rfview_engine.Matview.render st)
           | None -> Alcotest.fail "v lost its incremental state");
          insert ();
          Alcotest.(check int) "index join over the view index" !n
            (Relation.cardinality (Db.query db join_sql)));
      fresh "after the batch" (Db.query db v_sql))

(* ---- Views of views ----

   A materialized view that reads another view, directly ([w] over the
   sequence view [v], [u] over [w]) or through a plain view ([m2] over
   [pv]), stays equal to its definition: after a single statement,
   inside a batch, after a statement a fault rolled back, and in a
   snapshot.  [u] sorts before [w], so refreshing readers in name order
   instead of dependency order would leave [u] behind. *)

let views_of_views_db () =
  let db = db_with_view [ 1.; 2.; 3. ] in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [
      "CREATE MATERIALIZED VIEW w AS SELECT pos, s FROM v WHERE pos > 1";
      "CREATE MATERIALIZED VIEW u AS SELECT pos, s FROM w WHERE pos > 2";
      "CREATE VIEW pv AS SELECT pos, val FROM seq";
      "CREATE MATERIALIZED VIEW m2 AS SELECT a.pos, a.val FROM pv a LEFT OUTER \
       JOIN pv b ON a.pos = b.pos";
    ];
  db

let check_views_of_views what db ~u ~w ~m2 =
  List.iter
    (fun (name, expected) ->
      let view = Catalog.view (Db.catalog db) name in
      Alcotest.(check bool) (Printf.sprintf "%s: %s not stale" what name) false
        view.Catalog.stale;
      Alcotest.(check bool) (Printf.sprintf "%s: %s not derived-maintained" what name)
        false (Db.is_derived_maintained db name);
      match view.Catalog.contents with
      | Some c ->
        Alcotest.(check int) (Printf.sprintf "%s: %s rows" what name) expected
          (Relation.cardinality c);
        check_same_bag (Printf.sprintf "%s: %s equals its definition" what name) c
          (Db.run_query db view.Catalog.definition)
      | None -> Alcotest.failf "%s: %s has no contents" what name)
    [ ("u", u); ("w", w); ("m2", m2) ]

let test_views_of_views_statement () =
  with_clean_faults (fun () ->
      let db = views_of_views_db () in
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 10.0)");
      check_views_of_views "after an INSERT" db ~u:2 ~w:3 ~m2:4;
      ignore (Db.exec db "UPDATE seq SET val = 7.0 WHERE pos = 2");
      ignore (Db.exec db "DELETE FROM seq WHERE pos = 1");
      check_views_of_views "after UPDATE and DELETE" db ~u:2 ~w:3 ~m2:3)

let test_views_of_views_batch () =
  with_clean_faults (fun () ->
      let db = views_of_views_db () in
      Db.with_batch db (fun () ->
          ignore (Db.exec db "INSERT INTO seq VALUES (4, 10.0)");
          Alcotest.(check int) "mid-batch read of w" 3
            (Relation.cardinality (Db.query db "SELECT * FROM w"));
          ignore (Db.exec db "INSERT INTO seq VALUES (5, 20.0)"));
      check_views_of_views "after the batch" db ~u:3 ~w:4 ~m2:5)

let test_views_of_views_rollback () =
  with_clean_faults (fun () ->
      let db = views_of_views_db () in
      Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
      (* the refresh of a reader fails: the whole statement rolls back *)
      Fault.arm "database.refresh_view" Fault.Always;
      (match Db.exec db "INSERT INTO seq VALUES (4, 10.0)" with
       | _ -> Alcotest.fail "the statement survived a failed view refresh"
       | exception Fault.Injected _ -> ());
      Fault.disarm "database.refresh_view";
      Alcotest.(check int) "base row rolled back" 3
        (Relation.cardinality (Db.query db "SELECT * FROM seq"));
      check_views_of_views "after the rollback" db ~u:1 ~w:2 ~m2:3;
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 10.0)");
      check_views_of_views "after the retry" db ~u:2 ~w:3 ~m2:4)

let test_views_of_views_snapshot () =
  with_clean_faults (fun () ->
      let db = views_of_views_db () in
      let before = Db.snapshot db in
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 10.0)");
      let after = Db.snapshot db in
      let count sn name =
        Relation.cardinality (Db.Snapshot.query sn ("SELECT * FROM " ^ name))
      in
      let counts sn = List.map (count sn) [ "u"; "w"; "m2" ] in
      Alcotest.(check (list int)) "snapshot before the INSERT" [ 1; 2; 3 ]
        (counts before);
      Alcotest.(check (list int)) "snapshot after the INSERT" [ 2; 3; 4 ]
        (counts after);
      Db.Snapshot.close before;
      Db.Snapshot.close after)

let test_chaos_batched_clean () =
  with_clean_faults (fun () ->
      let r = Chaos.run ~config:{ Chaos.default_config with Chaos.batch = 4 } () in
      Alcotest.(check int) "all statements attempted" r.Chaos.statements
        Chaos.default_config.Chaos.ops;
      Alcotest.(check int) "nothing failed without injection" 0 r.Chaos.failed;
      Alcotest.(check int) "nothing quarantined without injection" 0
        r.Chaos.quarantines;
      Alcotest.(check bool) "cache exercised" true (r.Chaos.cache_probes > 0))

(* ---- Site coverage per harness ----

   Each chaos harness at its default config must reach every site on its
   list, so a change to the shared stream driver cannot quietly drop a
   path. *)

let engine_sites =
  [
    "csv.load_row";
    "database.apply_delete";
    "database.apply_insert";
    "database.apply_update";
    "database.propagate_view";
    "database.refresh_view";
    "matview.apply_derived";
    "matview.apply_shared";
    "matview.init_state";
  ]

let durable_sites =
  engine_sites
  @ [
      "checkpoint.install";
      "checkpoint.write";
      "io.fsync";
      "io.rename";
      "io.truncate";
      "io.write";
      "recover.replay";
      "wal.append";
      "wal.fsync";
    ]

let harness_sites =
  [
    ( "run",
      engine_sites @ [ "cache.admit"; "cache.derive_answer" ],
      fun () -> ignore (Chaos.run ()) );
    ( "run_crash",
      durable_sites,
      fun () -> ignore (Chaos.run_crash ~dir:(Temp_dirs.fresh "sites_crash") ()) );
    ( "run_replica",
      durable_sites @ [ "replica.apply"; "ship.append"; "ship.fsync" ],
      fun () -> ignore (Chaos.run_replica ~dir:(Temp_dirs.fresh "sites_replica") ()) );
    ( "run_storage",
      durable_sites @ [ "ship.append"; "ship.fsync" ],
      fun () -> ignore (Chaos.run_storage ~dir:(Temp_dirs.fresh "sites_storage") ()) );
  ]

let test_harness_sites (harness, sites, run) () =
  with_clean_faults (fun () ->
      run ();
      List.iter
        (fun site ->
          if Fault.hits site = 0 then Alcotest.failf "%s never reached %s" harness site)
        sites)

let () =
  Temp_dirs.run "fault"
    [
      ( "registry",
        [
          Alcotest.test_case "always" `Quick test_policy_always;
          Alcotest.test_case "nth" `Quick test_policy_nth;
          Alcotest.test_case "probability deterministic" `Quick
            test_policy_probability_deterministic;
          Alcotest.test_case "with_suspended" `Quick test_with_suspended;
          Alcotest.test_case "arm validation" `Quick test_arm_validation;
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "rollback at every site" `Quick test_rollback_per_site;
          Alcotest.test_case "csv load atomic" `Quick test_csv_load_atomic;
          Alcotest.test_case "ddl rollback" `Quick test_ddl_rollback;
          Alcotest.test_case "script error context" `Quick test_script_error_context;
          qtest "rollback idempotence" arb_fault_case prop_rollback_idempotent;
          qtest ~count:60 "chunked DML equals a flat-array oracle" arb_chunk_stream
            prop_chunked_dml;
        ] );
      ( "undo",
        [
          Alcotest.test_case "overlapping snapshots" `Quick
            test_undo_overlapping_snapshots;
          Alcotest.test_case "double fault during rollback" `Quick
            test_undo_double_fault_rollback;
          Alcotest.test_case "overlapping view snapshots" `Quick
            test_undo_overlapping_view_snapshots;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "quarantine and lazy heal" `Quick test_quarantine_and_heal;
          Alcotest.test_case "quarantine isolates views" `Quick
            test_quarantine_isolates_views;
          Alcotest.test_case "stale_views deterministic order" `Quick
            test_stale_views_sorted;
        ] );
      ( "cache degradation",
        [
          Alcotest.test_case "derivation fault bypasses" `Quick
            test_cache_derive_fault_bypasses;
          Alcotest.test_case "admission fault bypasses" `Quick
            test_cache_admit_fault_bypasses;
          Alcotest.test_case "fifo eviction" `Quick test_cache_fifo_eviction;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "clean run, no site fires" `Quick test_chaos_clean;
          Alcotest.test_case "sweep fires every site" `Slow test_chaos_sweep_all_sites;
          Alcotest.test_case "batched clean run" `Quick test_chaos_batched_clean;
        ] );
      ( "site coverage",
        List.map
          (fun ((harness, _, _) as case) ->
            Alcotest.test_case harness `Quick (test_harness_sites case))
          harness_sites );
      ( "batched maintenance",
        [
          Alcotest.test_case "batch equals per-row" `Quick test_batch_vs_per_row;
          Alcotest.test_case "one propagation per view per batch" `Quick
            test_batch_propagates_once_per_view;
          Alcotest.test_case "cache fresh across a batch commit" `Quick
            test_batch_cache_freshness;
          Alcotest.test_case "public reads see pending writes" `Quick
            test_batch_reads_see_pending_writes;
          qtest ~count:100 "batch/per-row equivalence" arb_batch_case
            prop_batch_equivalence;
        ] );
      ( "views of views",
        [
          Alcotest.test_case "single statement" `Quick test_views_of_views_statement;
          Alcotest.test_case "batch" `Quick test_views_of_views_batch;
          Alcotest.test_case "fault-rolled-back statement" `Quick
            test_views_of_views_rollback;
          Alcotest.test_case "snapshot read" `Quick test_views_of_views_snapshot;
        ] );
    ]
