(* Replication tests: record compression, WAL prefix-monotone replay,
   the checkpoint epoch protocol under back-to-back install crashes,
   feed/ship/replica round trips, stale-bounded reads, divergence
   quarantine + resync, promotion, and the replication chaos matrix.

   Like the crash suite, every test works in its own directory under the
   run's temporary root (Temp_dirs); replicas live purely in memory and consume feed
   files. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Checkpoint = Rfview_engine.Checkpoint
module Compress = Rfview_engine.Compress
module Fault = Rfview_engine.Fault
module Wal = Rfview_engine.Wal
module Feed = Rfview_replica.Feed
module Ship = Rfview_replica.Ship
module Replica = Rfview_replica.Replica
module Chaos = Rfview_workload.Chaos

let with_clean_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

(* A fresh (emptied) database directory per test. *)
let fresh_dir name = Temp_dirs.fresh ("rdb_" ^ name)

let wal_path dir = Filename.concat dir "log.wal"

let check_same_bag what a b =
  if not (Relation.equal_bag a b) then
    Alcotest.failf "%s:@.left:@.%s@.right:@.%s" what
      (Relation.render (Relation.sorted_by_all a))
      (Relation.render (Relation.sorted_by_all b))

let check_same_state what primary replica =
  Alcotest.(check string) what (Db.fingerprint primary) (Db.fingerprint replica)

let setup_sql =
  [
    "CREATE TABLE seq (pos INT, val FLOAT)";
    "INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)";
    "CREATE MATERIALIZED VIEW v_cum AS SELECT pos, val, SUM(val) OVER (ORDER BY \
     pos ROWS UNBOUNDED PRECEDING) AS s FROM seq";
  ]

let setup db = List.iter (fun sql -> ignore (Db.exec db sql)) setup_sql

let qtest ?(count = 60) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---- Compression ---- *)

(* Mix of low-entropy (compressible) and arbitrary strings. *)
let arb_blob =
  let open QCheck in
  let low_entropy =
    Gen.(
      map
        (fun (n, pattern) ->
          let b = Buffer.create (n * String.length pattern) in
          for _ = 1 to n do
            Buffer.add_string b pattern
          done;
          Buffer.contents b)
        (pair (int_range 0 200) (string_size ~gen:(char_range 'a' 'd') (int_range 1 9))))
  in
  make
    ~print:(fun s -> Printf.sprintf "%d bytes: %S" (String.length s) s)
    Gen.(oneof [ low_entropy; string_size (int_range 0 500) ])

let prop_compress_roundtrip s =
  let z = Compress.compress s in
  String.equal (Compress.decompress z ~expected:(String.length s)) s

let prop_pack_roundtrip s =
  let buf = Buffer.create 64 in
  Compress.pack buf s;
  let r = Wal.Codec.reader (Buffer.contents buf) in
  let back =
    Compress.unpack
      ~get_int:(fun () -> Wal.Codec.get_int r)
      ~get_char:(fun () -> Wal.Codec.get_char r)
      ~get_bytes:(Wal.Codec.get_raw r)
  in
  String.equal back s && Wal.Codec.at_end r

let test_compress_shrinks_batches () =
  (* a batch of many near-identical rows must compress *)
  let rows =
    Array.init 200 (fun i -> [| Value.Int (i mod 7); Value.Float 42.0 |])
  in
  let records =
    List.init 8 (fun _ -> Wal.Insert { table = "seq"; rows })
  in
  let batch = Wal.Batch records in
  let payload = Wal.payload_of_record batch in
  let plain =
    List.fold_left (fun n r -> n + String.length (Wal.payload_of_record r)) 0 records
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch payload %d < member payloads %d" (String.length payload) plain)
    true
    (String.length payload < plain / 2);
  (* and decode back to the identical record *)
  Alcotest.(check bool) "roundtrip" true (Wal.record_of_payload payload = batch)

let test_small_batch_stays_raw () =
  let batch = Wal.Batch [ Wal.Statement "REFRESH MATERIALIZED VIEW v_cum" ] in
  Alcotest.(check bool) "roundtrip" true
    (Wal.record_of_payload (Wal.payload_of_record batch) = batch)

(* ---- WAL detailed scan (the wal-info backend) ---- *)

let test_scan_detail_flags_damage () =
  let dir = fresh_dir "scan_detail" in
  let db = Db.open_durable dir in
  setup db;
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  Db.close db;
  let path = wal_path dir in
  let before = Wal.scan_detail path in
  Alcotest.(check bool) "all CRCs ok" true
    (List.for_all (fun (e : Wal.entry) -> e.Wal.e_crc_ok) before.Wal.d_entries);
  Alcotest.(check bool) "all decoded" true
    (List.for_all (fun (e : Wal.entry) -> e.Wal.e_record <> None) before.Wal.d_entries);
  Alcotest.(check (option int)) "no torn tail" None before.Wal.d_torn;
  (* flip one payload byte of the third record *)
  let victim = List.nth before.Wal.d_entries 2 in
  let at = victim.Wal.e_offset + 8 + ((victim.Wal.e_bytes - 8) / 2) in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd at Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd at Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let after = Wal.scan_detail path in
  Alcotest.(check int) "same entry count"
    (List.length before.Wal.d_entries)
    (List.length after.Wal.d_entries);
  List.iteri
    (fun i (e : Wal.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "entry %d crc" i)
        (i <> 2) e.Wal.e_crc_ok)
    after.Wal.d_entries;
  (* a garbage short tail is reported by offset, not raised *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x42\x42\x42";
  close_out oc;
  let torn = Wal.scan_detail path in
  Alcotest.(check (option int)) "torn offset" (Some after.Wal.d_size) torn.Wal.d_torn

(* ---- Prefix-monotone replay (qcheck) ----

   Run a stream of single statements and group-committed batches on a
   durable directory, recording the state fingerprint at every record
   count.  Then: truncating the WAL to ANY byte length and replaying
   the surviving records must land exactly on the state at that record
   count — never between two commits, never anything else. *)

let prefix_fixture =
  lazy
    (let dir = fresh_dir "prefix_src" in
     let db = Db.open_durable dir in
     let history = Hashtbl.create 32 in
     let remember () = Hashtbl.replace history (Db.lsn db) (Db.fingerprint db) in
     remember ();
     List.iter
       (fun sql ->
         ignore (Db.exec db sql);
         remember ())
       setup_sql;
     let ops =
       [
         `One "INSERT INTO seq VALUES (4, 40)";
         `One "UPDATE seq SET val = 21 WHERE pos = 2";
         `Batch [ "INSERT INTO seq VALUES (5, 50)"; "DELETE FROM seq WHERE pos = 1";
                  "INSERT INTO seq VALUES (6, 60)" ];
         `One "INSERT INTO seq VALUES (7, NULL)";
         `Batch [ "UPDATE seq SET val = 0 WHERE pos = 5"; "INSERT INTO seq VALUES (8, 80)" ];
         `One "REFRESH MATERIALIZED VIEW v_cum";
         `One "DELETE FROM seq WHERE pos = 4";
       ]
     in
     List.iter
       (fun op ->
         (match op with
          | `One sql -> ignore (Db.exec db sql)
          | `Batch sqls ->
            Db.with_batch db (fun () ->
                List.iter (fun sql -> ignore (Db.exec db sql)) sqls));
         remember ())
       ops;
     Db.close db;
     let data =
       let ic = open_in_bin (wal_path dir) in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     in
     (data, history))

let prop_prefix_monotone cut =
  let data, history = Lazy.force prefix_fixture in
  let cut = cut mod (String.length data + 1) in
  let dir = fresh_dir "prefix_cut" in
  let path = wal_path dir in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin path in
  output_string oc (String.sub data 0 cut);
  close_out oc;
  match Wal.scan path with
  | exception Wal.Wal_error _ ->
    (* the Begin record itself was cut: recovery would install a fresh
       log — the empty state, which is not in this fixture's history.
       The Begin frame spans 8 header bytes plus the length its own
       length field declares. *)
    let begin_frame =
      8 + Int32.to_int (String.get_int32_le data 0)
    in
    cut < begin_frame
  | scan ->
    let db = Db.create () in
    List.iter (Db.apply_record db) scan.Wal.records;
    let k = List.length scan.Wal.records in
    (match Hashtbl.find_opt history k with
     | None -> QCheck.Test.fail_reportf "no commit boundary at %d records" k
     | Some fp ->
       String.equal (Db.fingerprint db) fp
       || QCheck.Test.fail_reportf
            "replaying %d of the records (cut at byte %d) left a state that is \
             not the recorded boundary state"
            k cut)

(* ---- Checkpoint epoch protocol: back-to-back install crashes ----

   [checkpoint.install] fires between the checkpoint rename and the WAL
   reset: the directory then holds the NEW checkpoint beside the OLD
   (stale) log.  Recovery must restore the newest durable epoch and
   discard the stale log — and must keep doing so when the same crash
   hits twice in a row. *)

let test_double_install_crash () =
  with_clean_faults @@ fun () ->
  let dir = fresh_dir "install_crash" in
  let db = ref (Db.open_durable dir) in
  setup !db;
  ignore (Db.exec !db "INSERT INTO seq VALUES (4, 40)");
  let expect_1 = Db.query !db "SELECT pos, val FROM seq" in
  Fault.arm "checkpoint.install" Fault.Always;
  (match Db.checkpoint !db with
   | () -> Alcotest.fail "checkpoint survived an armed install site"
   | exception Fault.Injected _ -> ());
  (* crash #1: new checkpoint (epoch 1) + stale epoch-0 log on disk *)
  Db.close !db;
  Fault.disarm "checkpoint.install";
  let db1, (r1 : Db.recovery_report) = Db.recover dir in
  db := db1;
  Alcotest.(check (option int)) "first recovery sees epoch 1" (Some 1)
    r1.Db.checkpoint_epoch;
  Alcotest.(check int) "stale log discarded: nothing replayed" 0 r1.Db.replayed;
  check_same_bag "state after crash 1" expect_1
    (Db.query !db "SELECT pos, val FROM seq");
  (* more committed work, then the same crash again *)
  ignore (Db.exec !db "INSERT INTO seq VALUES (5, 50)");
  let expect_2 = Db.query !db "SELECT pos, val FROM seq" in
  Fault.arm "checkpoint.install" Fault.Always;
  (match Db.checkpoint !db with
   | () -> Alcotest.fail "second checkpoint survived the armed site"
   | exception Fault.Injected _ -> ());
  Db.close !db;
  Fault.disarm "checkpoint.install";
  let db2, (r2 : Db.recovery_report) = Db.recover dir in
  db := db2;
  Alcotest.(check (option int)) "second recovery sees epoch 2" (Some 2)
    r2.Db.checkpoint_epoch;
  Alcotest.(check int) "stale epoch-1 log discarded" 0 r2.Db.replayed;
  check_same_bag "state after crash 2" expect_2
    (Db.query !db "SELECT pos, val FROM seq");
  (* the LSN must have carried through both checkpoint headers *)
  ignore (Db.exec !db "INSERT INTO seq VALUES (6, 60)");
  Alcotest.(check bool) "lsn monotone across epochs" true (Db.lsn !db > 0);
  Db.close !db

(* ---- Byte-triggered checkpoints (log compaction) ---- *)

let test_checkpoint_on_bytes () =
  let dir = fresh_dir "ckpt_bytes" in
  let db = Db.open_durable dir in
  setup db;
  Db.set_checkpoint_bytes db (Some 2048);
  Alcotest.(check int) "no checkpoint yet" 0 (Db.epoch db);
  for i = 1 to 200 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" (i + 10) i))
  done;
  Alcotest.(check bool) "byte threshold compacted the log" true (Db.epoch db > 0);
  let size = (Unix.stat (wal_path dir)).Unix.st_size in
  Alcotest.(check bool)
    (Printf.sprintf "replay suffix stays bounded (%d bytes)" size)
    true (size < 3 * 2048);
  let lsn = Db.lsn db in
  let expect = Db.query db "SELECT pos, val FROM seq" in
  Db.close db;
  let db', _ = Db.recover dir in
  Alcotest.(check int) "lsn restored across compaction" lsn (Db.lsn db');
  check_same_bag "state after compaction" expect (Db.query db' "SELECT pos, val FROM seq");
  Db.close db'

(* ---- Ship + replica round trips ---- *)

let test_ship_and_poll () =
  let dir = fresh_dir "ship_basic" in
  let db = Db.open_durable dir in
  setup db;
  let ship = Ship.create db in
  Ship.attach ship ~name:"r0" ~path:(Filename.concat dir "feed0");
  let rep = Replica.attach ~name:"r0" ~feed:(Filename.concat dir "feed0") () in
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  check_same_state "after initial sync" db (Replica.database rep);
  Alcotest.(check int) "replica at the tip" (Db.lsn db) (Replica.applied_lsn rep);
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  Db.with_batch db (fun () ->
      ignore (Db.exec db "INSERT INTO seq VALUES (5, 50)");
      ignore (Db.exec db "UPDATE seq SET val = 11 WHERE pos = 1"));
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  check_same_state "after incremental ship" db (Replica.database rep);
  Alcotest.(check int) "tip again" (Db.lsn db) (Replica.applied_lsn rep);
  Ship.close ship;
  Db.close db

(* A DROP refused under a reader (RESTRICT) reaches no WAL record:
   the replica stays equal to the primary across it. *)
let test_refused_drop_ships_nothing () =
  let dir = fresh_dir "restrict" in
  let db = Db.open_durable dir in
  setup db;
  ignore (Db.exec db "CREATE MATERIALIZED VIEW w AS SELECT pos, s FROM v_cum");
  let ship = Ship.create db in
  Ship.attach ship ~name:"r0" ~path:(Filename.concat dir "feed0");
  let rep = Replica.attach ~name:"r0" ~feed:(Filename.concat dir "feed0") () in
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  check_same_state "before the refused DROP" db (Replica.database rep);
  let lsn = Db.lsn db in
  List.iter
    (fun sql ->
      match Db.exec db sql with
      | _ -> Alcotest.failf "%s: accepted under a reader" sql
      | exception Rfview_engine.Catalog.Catalog_error _ -> ())
    [ "DROP VIEW v_cum"; "DROP TABLE seq" ];
  Alcotest.(check int) "nothing logged" lsn (Db.lsn db);
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  check_same_state "after the refused DROP" db (Replica.database rep);
  Alcotest.(check int) "replica at the tip" (Db.lsn db) (Replica.applied_lsn rep);
  Ship.close ship;
  Db.close db

let test_bootstrap_from_artifact () =
  let dir = fresh_dir "ship_bootstrap" in
  let db = Db.open_durable dir in
  setup db;
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  Db.checkpoint db;
  ignore (Db.exec db "INSERT INTO seq VALUES (5, 50)");
  (* the feed starts with the checkpoint artifact, then the suffix *)
  let ship = Ship.create db in
  Ship.attach ship ~name:"late" ~path:(Filename.concat dir "feed_late");
  ignore (Ship.pump ship);
  let rep = Replica.attach ~name:"late" ~feed:(Filename.concat dir "feed_late") () in
  ignore (Replica.poll rep);
  check_same_state "bootstrap + suffix" db (Replica.database rep);
  Alcotest.(check int) "tip" (Db.lsn db) (Replica.applied_lsn rep);
  (* a replica that falls behind the compaction horizon is re-seeded *)
  ignore (Db.exec db "INSERT INTO seq VALUES (6, 60)");
  Db.checkpoint db;
  ignore (Db.exec db "INSERT INTO seq VALUES (7, 70)");
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  check_same_state "across the compaction horizon" db (Replica.database rep);
  Ship.close ship;
  Db.close db

let test_stale_bounded_reads () =
  let dir = fresh_dir "stale_reads" in
  let db = Db.open_durable dir in
  setup db;
  let feed = Filename.concat dir "feed0" in
  let ship = Ship.create db in
  Ship.attach ship ~name:"r0" ~path:feed;
  let rep = Replica.attach ~name:"r0" ~feed () in
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  let at_sync = Replica.applied_lsn rep in
  (* primary moves on; the replica is not pumped *)
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  ignore (Db.exec db "INSERT INTO seq VALUES (5, 50)");
  let tip = Db.lsn db in
  (match Replica.read rep ~tip ~max_records:0 "SELECT pos, val FROM seq" with
   | Error (Replica.Stale { applied_lsn; tip_lsn; lag }) ->
     Alcotest.(check int) "stale applied lsn" at_sync applied_lsn;
     Alcotest.(check int) "stale tip" tip tip_lsn;
     Alcotest.(check int) "record lag" (tip - at_sync) lag.Rfview_engine.Staleness.records
   | Ok _ -> Alcotest.fail "bound 0 served a lagging read"
   | Error (Replica.Unavailable m) -> Alcotest.failf "unavailable: %s" m);
  (* a loose bound serves the OLD state, tagged honestly *)
  (match Replica.read rep ~tip ~max_records:10 "SELECT pos, val FROM seq" with
   | Ok (rel, at) ->
     Alcotest.(check int) "tagged with the applied lsn" at_sync at;
     Alcotest.(check int) "historical row count" 3 (Relation.cardinality rel)
   | Error _ -> Alcotest.fail "bound 10 refused");
  (* catching up makes the tight bound pass *)
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  (match Replica.read rep ~tip ~max_records:0 "SELECT pos, val FROM seq" with
   | Ok (rel, at) ->
     Alcotest.(check int) "at the tip" tip at;
     Alcotest.(check int) "fresh row count" 5 (Relation.cardinality rel)
   | Error _ -> Alcotest.fail "caught-up replica refused a bound-0 read");
  Ship.close ship;
  Db.close db

let test_divergence_quarantine_and_resync () =
  let dir = fresh_dir "diverge" in
  let db = Db.open_durable dir in
  setup db;
  let feed = Filename.concat dir "feed0" in
  let ship = Ship.create db in
  Ship.attach ship ~name:"r0" ~path:feed;
  let rep = Replica.attach ~name:"r0" ~feed () in
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  (* corrupt the replica silently: a write that never came off the feed *)
  ignore (Db.exec (Replica.database rep) "INSERT INTO seq VALUES (99, 1)");
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  (match Replica.status rep with
   | Replica.Quarantined { reason; _ } ->
     Alcotest.(check bool)
       (Printf.sprintf "reason mentions divergence: %s" reason)
       true
       (String.length reason > 0)
   | _ -> Alcotest.fail "diverged replica did not quarantine");
  (match Replica.read rep ~tip:(Db.lsn db) "SELECT pos, val FROM seq" with
   | Error (Replica.Unavailable _) -> ()
   | _ -> Alcotest.fail "quarantined replica served a read");
  (* repair: fresh tip artifact, rebootstrap, fingerprint-clean *)
  Ship.resync ship ~name:"r0";
  ignore (Replica.poll rep);
  (match Replica.status rep with
   | Replica.Ready -> ()
   | _ -> Alcotest.fail "resync did not heal the replica");
  check_same_state "after resync" db (Replica.database rep);
  Ship.close ship;
  Db.close db

let test_promote () =
  let dir = fresh_dir "promote" in
  let db = Db.open_durable dir in
  setup db;
  let feed = Filename.concat dir "feed0" in
  let ship = Ship.create db in
  Ship.attach ship ~name:"r0" ~path:feed;
  let rep = Replica.attach ~name:"r0" ~feed () in
  ignore (Ship.pump ship);
  ignore (Replica.poll rep);
  let shipped_state = Db.query db "SELECT pos, val FROM seq" in
  let shipped_lsn = Db.lsn db in
  (* the primary commits a tail that is never pumped, then dies *)
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  Ship.close ship;
  Db.close db;
  let pdir = Filename.concat dir "promoted" in
  if Sys.file_exists pdir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat pdir f))
      (Sys.readdir pdir);
  let promoted = Replica.promote rep ~dir:pdir in
  check_same_bag "promoted state = shipped history" shipped_state
    (Db.query promoted "SELECT pos, val FROM seq");
  Alcotest.(check int) "promoted lsn continues the history" shipped_lsn
    (Db.lsn promoted);
  (* the new primary accepts writes and survives its own recovery *)
  ignore (Db.exec promoted "INSERT INTO seq VALUES (5, 50)");
  let expect = Db.query promoted "SELECT pos, val FROM seq" in
  Db.close promoted;
  let back, _ = Db.recover pdir in
  check_same_bag "promoted directory recovers" expect
    (Db.query back "SELECT pos, val FROM seq");
  Alcotest.(check bool) "lsn still ahead of the shipped history" true
    (Db.lsn back > shipped_lsn);
  Db.close back

(* Every replication fault site must inject cleanly and leave the
   pipeline retryable: a faulted pump truncates its partial entry back
   off, a faulted bootstrap leaves the replica able to retry. *)
let test_replica_fault_sites () =
  with_clean_faults @@ fun () ->
  let dir = fresh_dir "rep_sites" in
  let db = Db.open_durable dir in
  setup db;
  let feed = Filename.concat dir "feed0" in
  let ship = Ship.create db in
  (* a checkpoint first, so the feed leads with a bootstrap artifact *)
  Db.checkpoint db;
  Ship.attach ship ~name:"r0" ~path:feed;
  (* ship.fsync: the pump fails after writing; retry ships cleanly *)
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  Fault.arm "ship.fsync" (Fault.Nth 1);
  (match Ship.pump ship with
   | _ -> Alcotest.fail "pump survived an armed ship.fsync"
   | exception Fault.Injected _ -> ());
  Fault.disarm "ship.fsync";
  Alcotest.(check bool) "ship.fsync fired" true (Fault.fired "ship.fsync" > 0);
  ignore (Ship.pump ship);
  (* replica.bootstrap: the first poll dies mid-bootstrap; the retry
     must bootstrap from the same artifact *)
  Fault.arm "replica.bootstrap" (Fault.Nth 1);
  let rep = Replica.attach ~name:"r0" ~feed () in
  (match Replica.poll rep with
   | _ -> Alcotest.fail "poll survived an armed replica.bootstrap"
   | exception Fault.Injected _ -> ());
  Fault.disarm "replica.bootstrap";
  Alcotest.(check bool) "replica.bootstrap fired" true
    (Fault.fired "replica.bootstrap" > 0);
  ignore (Replica.poll rep);
  check_same_state "retry after both faults" db (Replica.database rep);
  Ship.close ship;
  Db.close db

(* ---- The replication chaos matrix ---- *)

let chaos_seeds = [ 3; 7; 11; 19; 23; 31; 42; 57; 71; 88; 101; 123 ]

let run_chaos_matrix seeds ~batch ~full =
  with_clean_faults @@ fun () ->
  let dir = fresh_dir "replica_chaos" in
  let reports =
    List.map
      (fun seed ->
        let config =
          { Chaos.default_replica_config with Chaos.rp_seed = seed; rp_batch = batch }
        in
        Chaos.run_replica ~config ~dir ())
      seeds
  in
  let total f = List.fold_left (fun a r -> a + f r) 0 reports in
  let positive what f = Alcotest.(check bool) (what ^ " exercised") true (total f > 0) in
  positive "statements" (fun r -> r.Chaos.rp_statements);
  positive "pumps" (fun r -> r.Chaos.rp_pumps);
  positive "deliveries" (fun r -> r.Chaos.rp_deliveries);
  positive "verified reads" (fun r -> r.Chaos.rp_reads);
  if full then begin
    (* event-type coverage is only statistically certain over the large
       seed matrix; the smaller batched run just checks consistency *)
    positive "stale refusals" (fun r -> r.Chaos.rp_stale_reads);
    positive "replica kills" (fun r -> r.Chaos.rp_kills);
    positive "feed corruptions" (fun r -> r.Chaos.rp_corruptions);
    positive "quarantines" (fun r -> r.Chaos.rp_quarantines);
    positive "resyncs" (fun r -> r.Chaos.rp_resyncs);
    positive "primary crashes" (fun r -> r.Chaos.rp_primary_crashes);
    positive "compactions" (fun r -> r.Chaos.rp_compactions);
    positive "interrupted pumps" (fun r -> r.Chaos.rp_ship_faults);
    positive "interrupted polls" (fun r -> r.Chaos.rp_apply_faults);
    (* the fired-at-least-once bar for the replication sites the matrix
       arms (the sweep in test_fault.ml excludes them by prefix) *)
    Alcotest.(check bool) "ship.append fired" true (Fault.fired "ship.append" > 0);
    Alcotest.(check bool) "replica.apply fired" true
      (Fault.fired "replica.apply" > 0)
  end

let test_replica_chaos_matrix () = run_chaos_matrix chaos_seeds ~batch:0 ~full:true
let test_replica_chaos_batched () =
  run_chaos_matrix [ 5; 29; 63 ] ~batch:4 ~full:false

let () =
  Temp_dirs.run "replica"
    [
      ( "compression",
        [
          qtest ~count:200 "compress/decompress roundtrip" arb_blob
            prop_compress_roundtrip;
          qtest ~count:200 "pack/unpack roundtrip" arb_blob prop_pack_roundtrip;
          Alcotest.test_case "batches compress" `Quick test_compress_shrinks_batches;
          Alcotest.test_case "small batches stay raw" `Quick test_small_batch_stays_raw;
        ] );
      ( "wal",
        [
          Alcotest.test_case "scan_detail flags damage" `Quick
            test_scan_detail_flags_damage;
          qtest ~count:120 "prefix-monotone replay"
            QCheck.(int_range 0 100_000)
            prop_prefix_monotone;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "double install crash" `Quick test_double_install_crash;
          Alcotest.test_case "byte-triggered compaction" `Quick
            test_checkpoint_on_bytes;
        ] );
      ( "replica",
        [
          Alcotest.test_case "ship and poll" `Quick test_ship_and_poll;
          Alcotest.test_case "refused DROP ships nothing" `Quick
            test_refused_drop_ships_nothing;
          Alcotest.test_case "bootstrap from artifact" `Quick
            test_bootstrap_from_artifact;
          Alcotest.test_case "stale-bounded reads" `Quick test_stale_bounded_reads;
          Alcotest.test_case "divergence quarantine + resync" `Quick
            test_divergence_quarantine_and_resync;
          Alcotest.test_case "promote" `Quick test_promote;
          Alcotest.test_case "fault sites inject cleanly" `Quick
            test_replica_fault_sites;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "replication matrix" `Slow test_replica_chaos_matrix;
          Alcotest.test_case "batched replication stream" `Slow
            test_replica_chaos_batched;
        ] );
    ]
