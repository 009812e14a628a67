(* MVCC snapshot tests: version publishing at commit points, snapshot
   isolation (a snapshot never observes later writes, open batches, or
   rolled-back statements), the bounded retained-version window with
   pin-survival, snapshot-local healing of quarantined views with heal
   and index memos shared per version, live and snapshot reads agreeing
   row for row under every execution configuration, the
   [Rfview.Snapshot] façade, and a concurrent chaos harness proving
   that every snapshot read from a reader domain is bit-identical to
   the true historical state at its reported LSN.

   Domain count for the concurrent suites comes from RFVIEW_TEST_DOMAINS
   (default 4) — CI runs the suite at 1 and at 4. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Fault = Rfview_engine.Fault
module Session = Rfview.Session
module Snapshot = Rfview.Snapshot

let test_domains =
  match Sys.getenv_opt "RFVIEW_TEST_DOMAINS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let with_clean_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

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

let count db sql = Relation.cardinality (Db.query db sql)
let snap_count sn sql = Relation.cardinality (Db.Snapshot.query sn sql)

(* ---- Version publishing ---- *)

let test_publish_on_commit () =
  let db = Db.create () in
  Alcotest.(check (list int)) "fresh db has version 0" [ 0 ]
    (Db.retained_lsns db);
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  ignore (Db.exec db "INSERT INTO t VALUES (1)");
  Alcotest.(check (list int)) "one version per commit, newest first"
    [ 2; 1; 0 ] (Db.retained_lsns db);
  (* a failed statement publishes nothing *)
  (try ignore (Db.exec db "INSERT INTO nope VALUES (1)") with _ -> ());
  Alcotest.(check (list int)) "rollback publishes nothing" [ 2; 1; 0 ]
    (Db.retained_lsns db)

let test_batch_is_one_version () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  Db.with_batch db (fun () ->
      ignore (Db.exec db "INSERT INTO t VALUES (1)");
      ignore (Db.exec db "INSERT INTO t VALUES (2)");
      ignore (Db.exec db "INSERT INTO t VALUES (3)"));
  Alcotest.(check (list int)) "whole batch is one commit point" [ 2; 1; 0 ]
    (Db.retained_lsns db)

(* ---- Snapshot isolation ---- *)

let test_snapshot_isolation () =
  let db = db_with_view [ 1.; 2.; 3. ] in
  let sn = Db.snapshot db in
  let fp_before = Db.fingerprint db in
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  ignore (Db.exec db "DELETE FROM seq WHERE pos = 1");
  Alcotest.(check int) "snapshot sees the old base" 3
    (snap_count sn "SELECT * FROM seq");
  Alcotest.(check int) "snapshot sees the old view" 3
    (snap_count sn "SELECT * FROM v");
  Alcotest.(check string) "snapshot fingerprint is the historical state"
    fp_before (Db.Snapshot.fingerprint sn);
  Alcotest.(check int) "live database moved on" 3
    (count db "SELECT * FROM seq");
  Db.release db sn

let test_snapshot_at_and_stale () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  for i = 1 to 20 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  (* default window is 8: version 1 has been evicted *)
  (match Db.snapshot_at db ~lsn:1 with
   | Ok _ -> Alcotest.fail "evicted version must not be snapshottable"
   | Error v ->
     Alcotest.(check int) "violation reports the wanted lsn" 1 v.applied_lsn;
     Alcotest.(check int) "violation reports the tip" 21 v.tip_lsn;
     Alcotest.(check int) "lag in records" 20 v.lag.records);
  (* a retained lsn is exact *)
  let lsn = List.nth (Db.retained_lsns db) 2 in
  (match Db.snapshot_at db ~lsn with
   | Error _ -> Alcotest.fail "retained version must be snapshottable"
   | Ok sn ->
     Alcotest.(check int) "exact lsn" lsn (Db.Snapshot.lsn sn);
     Alcotest.(check int) "historical cardinality" (lsn - 1)
       (snap_count sn "SELECT * FROM t");
     Db.Snapshot.close sn)

let test_retain_window_and_pins () =
  let db = Db.create () in
  Db.set_retain db 2;
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  let sn = Db.snapshot db in
  (* push the pinned version far past the window *)
  for i = 1 to 10 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  Alcotest.(check (list int)) "window keeps the newest two plus the pin"
    [ 11; 10; 1 ] (Db.retained_lsns db);
  Alcotest.(check int) "pinned snapshot still serves" 0
    (snap_count sn "SELECT * FROM t");
  Db.Snapshot.close sn;
  ignore (Db.exec db "INSERT INTO t VALUES (99)");
  Alcotest.(check (list int)) "unpinned version swept on the next commit"
    [ 12; 11 ] (Db.retained_lsns db);
  Alcotest.(check bool) "set_retain validates" true
    (match Db.set_retain db 0 with
     | () -> false
     | exception Invalid_argument _ -> true
     | exception Db.Engine_error _ -> true)

let test_close_under_active_snapshot () =
  (* regression: releasing resources under an open snapshot must not
     invalidate it *)
  let db = db_with_view [ 1.; 2. ] in
  let sn = Db.snapshot db in
  Db.close db;
  Alcotest.(check int) "snapshot survives Db.close" 2
    (snap_count sn "SELECT * FROM seq");
  (* double release is idempotent *)
  Db.release db sn;
  Db.release db sn;
  Alcotest.(check bool) "released" true (Db.Snapshot.released sn);
  (match snap_count sn "SELECT * FROM seq" with
   | _ -> Alcotest.fail "closed snapshot must refuse queries"
   | exception Db.Engine_error _ -> ())

let test_snapshot_read_only () =
  let db = db_with_view [ 1. ] in
  let sn = Db.snapshot db in
  (match Db.Snapshot.query sn "INSERT INTO seq VALUES (9, 9)" with
   | _ -> Alcotest.fail "snapshot must refuse writes"
   | exception Db.Engine_error _ -> ());
  Alcotest.(check int) "nothing was written" 1 (count db "SELECT * FROM seq");
  Db.release db sn

let test_snapshot_local_heal () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      Fault.arm "matview.apply_shared" Fault.Always;
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
      Fault.disarm "matview.apply_shared";
      Alcotest.(check (list string)) "view is quarantined" [ "v" ]
        (Db.stale_views db);
      let sn = Db.snapshot db in
      (* the snapshot heals its own frozen copy... *)
      Alcotest.(check int) "snapshot read heals locally" 4
        (snap_count sn "SELECT * FROM v");
      (* ...without touching the live database *)
      Alcotest.(check (list string)) "live view is still quarantined" [ "v" ]
        (Db.stale_views db);
      Db.release db sn)

(* A commit re-renders only the partitions it touched; the rest of the
   new contents shares rows with the versions before it.  A pinned
   snapshot must still see its own state of the touched partition, and
   the tip must differ from it in that partition only. *)
let test_partition_sharing_isolation () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE seq (grp INT, pos INT, val FLOAT)");
  ignore
    (Db.exec db
       (Printf.sprintf "INSERT INTO seq VALUES %s"
          (String.concat ", "
             (List.init 12 (fun i ->
                  Printf.sprintf "(%d, %d, %d)" ((i mod 3) + 1) (i / 3) (i * 5))))));
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW v AS SELECT grp, pos, val, SUM(val) OVER \
        (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 \
        FOLLOWING) AS s FROM seq");
  let rows rel = Array.to_list (Relation.rows rel) in
  let in_grp g row = Value.equal (Row.get row 0) (Value.Int g) in
  let sn = Db.snapshot db in
  let fp_before = Db.Snapshot.fingerprint sn in
  let before = rows (Db.Snapshot.query sn "SELECT * FROM v") in
  ignore (Db.exec db "UPDATE seq SET val = 1000 WHERE grp = 2 AND pos = 1");
  let pinned = rows (Db.Snapshot.query sn "SELECT * FROM v") in
  let tip = rows (Db.query db "SELECT * FROM v") in
  Alcotest.(check bool) "pinned snapshot keeps the old rows, in order" true
    (List.equal Row.equal before pinned);
  Alcotest.(check string) "pinned fingerprint unchanged" fp_before
    (Db.Snapshot.fingerprint sn);
  let outside g l = List.filter (fun r -> not (in_grp g r)) l in
  let inside g l = List.filter (in_grp g) l in
  Alcotest.(check bool) "other partitions identical at the tip" true
    (List.equal Row.equal (outside 2 before) (outside 2 tip));
  Alcotest.(check int) "touched partition keeps its size"
    (List.length (inside 2 before)) (List.length (inside 2 tip));
  Alcotest.(check bool) "touched partition changed at the tip" false
    (List.equal Row.equal (inside 2 before) (inside 2 tip));
  Db.release db sn

(* ---- One read path: the live and snapshot sources agree ---- *)

(* An indexed base table, a materialized sequence view carrying a hash
   view index, a plain view over that matview, and a quarantined matview
   over a second table: every kind of relation the two sources resolve
   differently. *)
let read_path_fixture config =
  let db = Db.create ~config () in
  let run sql = ignore (Db.exec db sql) in
  let rows n f = String.concat ", " (List.init n (fun i -> f (i + 1))) in
  run "CREATE TABLE seq (pos INT, val FLOAT)";
  run "CREATE INDEX seq_pos ON seq (pos)";
  run
    (Printf.sprintf "INSERT INTO seq VALUES %s"
       (rows 40 (fun i -> Printf.sprintf "(%d, %d)" i ((i * 37) mod 23))));
  run
    "CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) OVER (ORDER BY \
     pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq";
  run "CREATE INDEX matseq_pos ON matseq (pos) USING HASH";
  run "CREATE VIEW recent AS SELECT pos, val FROM matseq WHERE pos > 30";
  run "CREATE TABLE keys (k INT)";
  run "INSERT INTO keys VALUES (3), (17), (40), (1000)";
  run "CREATE TABLE q (pos INT, val FLOAT)";
  run "INSERT INTO q VALUES (1, 5), (2, 7), (3, 1)";
  run
    "CREATE MATERIALIZED VIEW qcum AS SELECT pos, val, SUM(val) OVER (ORDER \
     BY pos ROWS UNBOUNDED PRECEDING) AS c FROM q";
  with_clean_faults (fun () ->
      Fault.arm "matview.apply_shared" Fault.Always;
      run "INSERT INTO q VALUES (4, 40)");
  Alcotest.(check (list string)) "qcum is quarantined" [ "qcum" ]
    (Db.stale_views db);
  db

let heal_sql = "SELECT * FROM qcum"
let index_sql = "SELECT k.k, s.pos, s.val FROM keys k JOIN seq s ON s.pos = k.k"

let read_path_queries =
  let maxoa = Rfview_core.Sqlgen.maxoa ~lx:2 ~h:1 ~ly:4 in
  [
    ("Table 1 window",
     Rfview_core.Sqlgen.native_window (Rfview_core.Frame.sliding ~l:2 ~h:2));
    ("Table 2 MaxOA union", maxoa `Union);
    ("Table 2 MaxOA join", maxoa `Disjunctive);
    ("index lookup", index_sql);
    ("view-index lookup",
     "SELECT k.k, m.pos, m.val FROM keys k JOIN matseq m ON m.pos = k.k");
    ("plain view", "SELECT * FROM recent");
    ("quarantined view", heal_sql);
  ]

let rows_of rel = Array.to_list (Relation.rows rel)

let check_same_relation what expected actual =
  Alcotest.(check bool) (what ^ ": same schema") true
    (Schema.equal (Relation.schema expected) (Relation.schema actual));
  Alcotest.(check bool) (what ^ ": same rows, same order") true
    (List.equal Row.equal (rows_of expected) (rows_of actual))

let configs =
  List.concat_map
    (fun window_mode ->
      List.concat_map
        (fun window_strategy ->
          List.concat_map
            (fun hash_join ->
              List.map
                (fun index_join ->
                  { Db.default_config with
                    window_mode; window_strategy; hash_join; index_join })
                [ true; false ])
            [ true; false ])
        [ Window.Naive; Window.Incremental ])
    [ `Native; `Self_join ]

let test_live_vs_snapshot () =
  Alcotest.(check int) "all 16 configurations" 16 (List.length configs);
  List.iter
    (fun (cfg : Db.config) ->
      let db = read_path_fixture cfg in
      (* pinned before any live read heals qcum in place *)
      let sn = Db.snapshot db in
      List.iter
        (fun (name, sql) ->
          let q = Rfview_sql.Parser.query sql in
          let what =
            Printf.sprintf "%s [%s, %s, hash=%b, index=%b]" name
              (match cfg.window_mode with
               | `Native -> "native"
               | `Self_join -> "self-join")
              (match cfg.window_strategy with
               | Window.Naive -> "naive"
               | Window.Incremental -> "incremental")
              cfg.hash_join cfg.index_join
          in
          check_same_relation what (Db.Snapshot.run_query sn q)
            (Db.run_query db q))
        read_path_queries;
      Db.release db sn)
    configs

(* ---- Memos live on the version ---- *)

let test_version_shares_heal () =
  let db = read_path_fixture Db.default_config in
  let a = Db.snapshot db and b = Db.snapshot db in
  Alcotest.(check int) "one LSN" (Db.Snapshot.lsn a) (Db.Snapshot.lsn b);
  let ra = Db.Snapshot.query a heal_sql in
  Alcotest.(check int) "the heal sees every row of q" 4 (Relation.cardinality ra);
  check_same_relation "second snapshot of the LSN" ra (Db.Snapshot.query b heal_sql);
  Alcotest.(check (list string)) "live view stays stale" [ "qcum" ]
    (Db.stale_views db);
  Db.release db a;
  Db.release db b

let test_memo_never_crosses_lsns () =
  let db = read_path_fixture Db.default_config in
  let pinned = Db.snapshot db in
  let finds_1000 sn =
    List.exists
      (fun row -> Value.equal (Row.get row 1) (Value.Int 1000))
      (rows_of (Db.Snapshot.query sn index_sql))
  in
  Alcotest.(check bool) "not there before the insert" false (finds_1000 pinned);
  ignore (Db.exec db "INSERT INTO seq VALUES (1000, 1)");
  let tip = Db.snapshot db in
  Alcotest.(check bool) "a new LSN" true
    (Db.Snapshot.lsn tip > Db.Snapshot.lsn pinned);
  Alcotest.(check bool) "the tip's index finds the new row" true (finds_1000 tip);
  Alcotest.(check bool) "the pinned version's index does not" false
    (finds_1000 pinned);
  Db.release db pinned;
  Db.release db tip

(* [test_domains] reader domains race on one pinned version's cold
   memos; every answer must equal the single-domain answer computed on
   an identical fixture. *)
let test_concurrent_memo () =
  let expected =
    let db = read_path_fixture Db.default_config in
    let sn = Db.snapshot db in
    let answers = (Db.Snapshot.query sn heal_sql, Db.Snapshot.query sn index_sql) in
    Db.release db sn;
    answers
  in
  Alcotest.(check int) "the single-domain heal sees every row of q" 4
    (Relation.cardinality (fst expected));
  let db = read_path_fixture Db.default_config in
  let sn = Db.snapshot db in
  let same a b = List.equal Row.equal (rows_of a) (rows_of b) in
  let reader () =
    let wrong = ref 0 in
    for _ = 1 to 100 do
      if not (same (Db.Snapshot.query sn heal_sql) (fst expected)) then incr wrong;
      if not (same (Db.Snapshot.query sn index_sql) (snd expected)) then incr wrong
    done;
    !wrong
  in
  let readers = List.init test_domains (fun _ -> Domain.spawn reader) in
  let wrong = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  Db.release db sn;
  Alcotest.(check int) "every answer equals the single-domain answer" 0 wrong;
  Alcotest.(check (list string)) "live view stays stale" [ "qcum" ]
    (Db.stale_views db)

(* ---- The façade: Session.query as snapshot-at-tip, Rfview.Snapshot ---- *)

let session_fixture () =
  let s = Session.open_in_memory () in
  (match
     Session.exec_script s
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); INSERT INTO t \
        VALUES (2)"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Session.describe_error e));
  s

let test_session_query_snapshot_sugar () =
  let s = session_fixture () in
  (match Session.query s "SELECT * FROM t" with
   | Ok rel -> Alcotest.(check int) "quiescent read" 2 (Relation.cardinality rel)
   | Error e -> Alcotest.fail (Session.describe_error e));
  (* read-your-writes inside a batch: the direct path, not a snapshot *)
  Session.with_batch s (fun () ->
      (match Session.exec s "INSERT INTO t VALUES (3)" with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Session.describe_error e));
      match Session.query s "SELECT * FROM t" with
      | Ok rel ->
        Alcotest.(check int) "batch read sees its own writes" 3
          (Relation.cardinality rel)
      | Error e -> Alcotest.fail (Session.describe_error e));
  (* but a snapshot taken mid-batch must not *)
  Session.with_batch s (fun () ->
      (match Session.exec s "INSERT INTO t VALUES (4)" with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Session.describe_error e));
      let sn = Snapshot.snapshot s in
      (match Snapshot.query sn "SELECT * FROM t" with
       | Ok rel ->
         Alcotest.(check int) "snapshot mid-batch sees the pre-batch state" 3
           (Relation.cardinality rel)
       | Error e -> Alcotest.fail (Session.describe_error e));
      Snapshot.close sn)

(* EXPLAIN answers the same relation on the snapshot path and, inside
   a batch, on the direct path *)
let test_session_query_explain () =
  let s = session_fixture () in
  let plan sql =
    match Session.query s sql with
    | Ok rel ->
      Alcotest.(check (list string)) "one plan column" [ "plan" ]
        (Schema.names (Relation.schema rel));
      List.map (fun row -> Value.to_string row.(0)) (Relation.to_list rel)
    | Error e -> Alcotest.fail (Session.describe_error e)
  in
  let sql = "EXPLAIN SELECT a FROM t WHERE a > 1" in
  let analyze = "EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1" in
  let quiescent = plan sql in
  let quiescent_analyze = List.length (plan analyze) in
  Alcotest.(check bool) "the physical plan" true (List.mem "== physical ==" quiescent);
  Session.with_batch s (fun () ->
      Alcotest.(check (list string)) "EXPLAIN in a batch" quiescent (plan sql);
      Alcotest.(check int) "EXPLAIN ANALYZE in a batch" quiescent_analyze
        (List.length (plan analyze)))

let test_facade_snapshot_at_stale_error () =
  let s = session_fixture () in
  for i = 10 to 30 do
    ignore (Session.exec s (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  match Snapshot.at s ~lsn:1 with
  | Ok _ -> Alcotest.fail "evicted lsn must be refused"
  | Error (Session.Stale v) ->
    Alcotest.(check bool) "describe mentions staleness" true
      (String.length (Rfview.Staleness.describe v) > 0);
    Alcotest.(check int) "violation lsn" 1 v.applied_lsn
  | Error e -> Alcotest.fail (Session.describe_error e)

(* ---- qcheck: a snapshot never observes an open batch ---- *)

let prop_snapshot_never_sees_open_batch (values : int list) =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  ignore (Db.exec db "INSERT INTO t VALUES (0)");
  let before_rows = count db "SELECT * FROM t" in
  let before_lsns = Db.retained_lsns db in
  let tip = List.hd before_lsns in
  Db.with_batch db (fun () ->
      List.iter
        (fun v ->
          ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" v));
          (* snapshot mid-batch: must be the pre-batch commit point *)
          let sn = Db.snapshot db in
          if Db.Snapshot.lsn sn <> tip then
            QCheck.Test.fail_reportf
              "mid-batch snapshot at lsn %d, expected pre-batch tip %d"
              (Db.Snapshot.lsn sn) tip;
          let seen = snap_count sn "SELECT * FROM t" in
          if seen <> before_rows then
            QCheck.Test.fail_reportf
              "mid-batch snapshot sees %d rows, pre-batch state had %d" seen
              before_rows;
          Db.release db sn)
        values);
  (* after commit, a fresh snapshot sees everything *)
  let sn = Db.snapshot db in
  let seen = snap_count sn "SELECT * FROM t" in
  Db.release db sn;
  seen = before_rows + List.length values

let arb_batch_values =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 8) (int_range 0 1000))
    ~print:(fun l -> String.concat "," (List.map string_of_int l))

let qtest ~count name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---- Concurrent chaos: every read is a true historical state ---- *)

(* One writer domain commits random mutations; [test_domains] reader
   domains concurrently snapshot and compare fingerprints against an
   oracle of true historical states.  The oracle is built from a shadow
   database executing the identical statement sequence one step AHEAD
   of the primary, so by the time a version is snapshottable its
   expected fingerprint is already recorded.  Shadow and primary run
   with [`Abort] degradation so both stay deterministic. *)
let test_concurrent_chaos () =
  let mk () =
    let db =
      Db.create ~config:{ Db.default_config with degradation = `Abort } ()
    in
    ignore (Db.exec db "CREATE TABLE seq (pos INT, val FLOAT)");
    ignore
      (Db.exec db
         "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER \
          BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq");
    db
  in
  let primary = mk () and shadow = mk () in
  let steps = 60 in
  let statement i =
    match i mod 5 with
    | 0 | 1 | 2 -> Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" i (i * 10)
    | 3 -> Printf.sprintf "DELETE FROM seq WHERE pos = %d" (i - 3)
    | _ -> Printf.sprintf "UPDATE seq SET val = %d WHERE pos = %d" (i * 7) (i - 2)
  in
  let oracle : (int, string) Hashtbl.t = Hashtbl.create 128 in
  let omu = Mutex.create () in
  let record_shadow () =
    let sn = Db.snapshot shadow in
    let lsn = Db.Snapshot.lsn sn and fp = Db.Snapshot.fingerprint sn in
    Db.release shadow sn;
    Mutex.lock omu;
    Hashtbl.replace oracle lsn fp;
    Mutex.unlock omu
  in
  record_shadow ();
  let done_flag = Atomic.make false in
  let wrong = Atomic.make 0 and reads = Atomic.make 0 in
  let reader () =
    while not (Atomic.get done_flag) do
      let sn = Db.snapshot primary in
      let lsn = Db.Snapshot.lsn sn in
      let fp = Db.Snapshot.fingerprint sn in
      (* consistency of two reads of the same snapshot *)
      let n1 = snap_count sn "SELECT * FROM seq" in
      let n2 = snap_count sn "SELECT * FROM seq" in
      Db.release primary sn;
      let expected =
        Mutex.lock omu;
        let e = Hashtbl.find_opt oracle lsn in
        Mutex.unlock omu;
        e
      in
      (match expected with
       | Some efp when efp = fp && n1 = n2 -> ()
       | Some _ | None -> Atomic.incr wrong);
      Atomic.incr reads
    done
  in
  let readers = List.init test_domains (fun _ -> Domain.spawn reader) in
  for i = 1 to steps do
    let sql = statement i in
    ignore (Db.exec shadow sql);
    record_shadow ();
    ignore (Db.exec primary sql);
    if i mod 10 = 0 then
      (* batched mutations exercise the single-commit-point path *)
      let batch =
        [ Printf.sprintf "INSERT INTO seq VALUES (%d, 1)" (1000 + i);
          Printf.sprintf "INSERT INTO seq VALUES (%d, 2)" (2000 + i) ]
      in
      begin
        Db.with_batch shadow (fun () ->
            List.iter (fun s -> ignore (Db.exec shadow s)) batch);
        record_shadow ();
        Db.with_batch primary (fun () ->
            List.iter (fun s -> ignore (Db.exec primary s)) batch)
      end
  done;
  Atomic.set done_flag true;
  List.iter Domain.join readers;
  Alcotest.(check int) "zero wrong reads" 0 (Atomic.get wrong);
  Alcotest.(check bool)
    (Printf.sprintf "readers made progress (%d reads)" (Atomic.get reads))
    true
    (Atomic.get reads > 0);
  Alcotest.(check string) "primary ended at the shadow's final state"
    (Db.fingerprint shadow) (Db.fingerprint primary)

let () =
  Alcotest.run "mvcc"
    [
      ( "versions",
        [
          Alcotest.test_case "publish on commit" `Quick test_publish_on_commit;
          Alcotest.test_case "batch is one version" `Quick
            test_batch_is_one_version;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "snapshot_at exact + stale" `Quick
            test_snapshot_at_and_stale;
          Alcotest.test_case "retain window + pins" `Quick
            test_retain_window_and_pins;
          Alcotest.test_case "close under active snapshot" `Quick
            test_close_under_active_snapshot;
          Alcotest.test_case "read-only" `Quick test_snapshot_read_only;
          Alcotest.test_case "snapshot-local heal" `Quick
            test_snapshot_local_heal;
          Alcotest.test_case "partition sharing keeps pins isolated" `Quick
            test_partition_sharing_isolation;
          Alcotest.test_case "snapshots of one LSN share heals" `Quick
            test_version_shares_heal;
          Alcotest.test_case "index memo never crosses LSNs" `Quick
            test_memo_never_crosses_lsns;
          Alcotest.test_case "reader domains share one version's memos"
            `Quick test_concurrent_memo;
        ] );
      ( "read path",
        [
          Alcotest.test_case "live vs snapshot under 16 configs" `Quick
            test_live_vs_snapshot;
        ] );
      ( "facade",
        [
          Alcotest.test_case "Session.query is snapshot-at-tip" `Quick
            test_session_query_snapshot_sugar;
          Alcotest.test_case "Session.query answers EXPLAIN on both paths" `Quick
            test_session_query_explain;
          Alcotest.test_case "Snapshot.at stale error" `Quick
            test_facade_snapshot_at_stale_error;
          qtest ~count:100 "snapshot never sees an open batch"
            arb_batch_values prop_snapshot_never_sees_open_batch;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case
            (Printf.sprintf "chaos: %d reader domain(s), zero wrong reads"
               test_domains)
            `Slow test_concurrent_chaos;
        ] );
    ]
