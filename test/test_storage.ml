(* Storage-fault tests: the Io seam and its simulated disk, disk-full
   degraded mode, typed truncate errors, the artifact scrubber,
   cross-source repair, and the storage-fault chaos matrix.

   The simulated disk (Io.Sim) and the fault registry are global state:
   every test resets both on entry and exit. *)

module Db = Rfview_engine.Database
module Fault = Rfview_engine.Fault
module Io = Rfview_engine.Io
module Wal = Rfview_engine.Wal
module Checkpoint = Rfview_engine.Checkpoint
module Compress = Rfview_engine.Compress
module Scrub = Rfview_engine.Scrub
module Feed = Rfview_replica.Feed
module Ship = Rfview_replica.Ship
module Repair = Rfview_replica.Repair
module Chaos = Rfview_workload.Chaos

let with_sim f =
  Fault.reset ();
  Io.Sim.reset ();
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Io.Sim.reset ())
    f

(* A fresh (created, emptied) directory per test. *)
let fresh_dir name = Temp_dirs.fresh ~create:true ("tsto_" ^ name)

let wal_path dir = Filename.concat dir "log.wal"

let setup_sql =
  [
    "CREATE TABLE seq (pos INT, val FLOAT)";
    "INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)";
    "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER BY \
     pos ROWS UNBOUNDED PRECEDING) AS s FROM seq";
  ]

let build dir =
  let db = Db.open_durable dir in
  List.iter (fun sql -> ignore (Db.exec db sql)) setup_sql;
  db

(* An in-memory twin that executed exactly the committed statements:
   the oracle every durable state is compared against. *)
let twin_with extra =
  let db = Db.create () in
  List.iter (fun sql -> ignore (Db.exec db sql)) (setup_sql @ extra);
  db

let check_fp what expected actual =
  if Chaos.fingerprint expected <> Chaos.fingerprint actual then
    Alcotest.failf "%s: state does not match the oracle twin" what

(* Retry a write until the degraded session resumes (the space probe
   runs every [probe_backoff]-th rejection, capped at 64, so a bounded
   number of retries always reaches it once the disk is healthy). *)
let resume_with db sql =
  let lifted = ref false in
  for _ = 1 to 200 do
    if not !lifted then
      match Db.exec db sql with
      | _ -> lifted := true
      | exception Db.Degraded_error _ -> ()
  done;
  Alcotest.(check bool) "degraded mode lifted" true !lifted

(* ---- The simulated disk ---- *)

let test_sim_budget_torn () =
  with_sim (fun () ->
      let dir = fresh_dir "sim_budget" in
      let path = Filename.concat dir "f" in
      Io.Sim.set_budget (Some 5);
      let f = Io.openf path ~mode:Io.Create_trunc in
      (match Io.write f "0123456789" with
       | () -> Alcotest.fail "write succeeded past the budget"
       | exception Io.Io_error { kind = Io.Enospc; op = "write"; _ } -> ());
      Io.close f;
      (* the affordable prefix landed: exactly a torn write on a full
         disk *)
      Alcotest.(check int) "torn prefix landed" 5 (Io.file_size path);
      Io.Sim.set_budget None;
      let f = Io.openf path ~mode:Io.Append in
      Io.write f "abc";
      Io.fsync f;
      Io.close f;
      Alcotest.(check int) "writes resume once the budget clears" 8
        (Io.file_size path))

let test_sim_crash_durable_length () =
  with_sim (fun () ->
      let dir = fresh_dir "sim_crash" in
      let path = Filename.concat dir "f" in
      let f = Io.openf path ~mode:Io.Create_trunc in
      Io.write f "durable";
      Io.fsync f;
      Io.write f "-lost";
      Io.close f;
      Alcotest.(check int) "all bytes on disk before the cut" 12
        (Io.file_size path);
      Io.Sim.crash ();
      Alcotest.(check int) "unsynced bytes lost at the power cut" 7
        (Io.file_size path);
      Alcotest.(check string) "the durable prefix survives" "durable"
        (Io.read_file path))

let test_sim_bit_flip () =
  with_sim (fun () ->
      let dir = fresh_dir "sim_flip" in
      let path = Filename.concat dir "f" in
      let payload = String.make 64 'x' in
      Io.Sim.set_flip ~p:1.0 ~seed:42;
      let f = Io.openf path ~mode:Io.Create_trunc in
      Io.write f payload;
      Io.close f;
      Io.Sim.clear_flip ();
      Alcotest.(check bool) "a flip was recorded" true (Io.Sim.flips () >= 1);
      Alcotest.(check bool) "the stored bytes differ silently" true
        (Io.read_file path <> payload))

(* The io.* sites speak the same SITE:POLICY grammar as every other
   fault site, and the injected error's kind is chosen by the Sim. *)
let test_io_site_via_grammar () =
  with_sim (fun () ->
      (match Fault.parse_spec "io.write:nth=1" with
       | Ok (site, policy) -> Fault.arm site policy
       | Error m -> Alcotest.fail m);
      Io.Sim.set_error_kind Io.Enospc;
      let dir = fresh_dir "sim_grammar" in
      let path = Filename.concat dir "f" in
      let f = Io.openf path ~mode:Io.Create_trunc in
      (match Io.write f "x" with
       | () -> Alcotest.fail "armed io.write did not fire"
       | exception Io.Io_error { kind = Io.Enospc; _ } -> ());
      (* nth=1 fires once: the retry goes through *)
      Io.write f "y";
      Io.close f;
      Alcotest.(check int) "retry landed" 1 (Io.file_size path))

(* ---- Disk-full degraded mode ---- *)

let test_enospc_degrade_resume () =
  with_sim (fun () ->
      let dir = fresh_dir "enospc" in
      let db = build dir in
      Io.Sim.set_budget (Some 4);
      (match Db.exec db "INSERT INTO seq VALUES (4, 40)" with
       | _ -> Alcotest.fail "statement committed on a full disk"
       | exception Db.Degraded_error _ -> ());
      (match Db.health db with
       | Db.Degraded _ -> ()
       | Db.Healthy -> Alcotest.fail "ENOSPC did not enter degraded mode");
      (* reads keep serving the pre-failure state *)
      check_fp "reads while degraded" (twin_with []) db;
      (* more writes are rejected while the probe keeps failing *)
      for _ = 1 to 3 do
        match Db.exec db "INSERT INTO seq VALUES (4, 40)" with
        | _ -> Alcotest.fail "degraded session accepted a write"
        | exception Db.Degraded_error _ -> ()
      done;
      (match Db.health db with
       | Db.Degraded { rejected_writes; _ } ->
         Alcotest.(check bool) "rejections counted" true (rejected_writes >= 3)
       | Db.Healthy -> Alcotest.fail "left degraded mode with the disk full");
      (* free the disk: the probe lifts the mode and the retry commits *)
      Io.Sim.set_budget None;
      resume_with db "INSERT INTO seq VALUES (4, 40)";
      (match Db.health db with
       | Db.Healthy -> ()
       | Db.Degraded { reason; _ } -> Alcotest.failf "still degraded: %s" reason);
      let expected = twin_with [ "INSERT INTO seq VALUES (4, 40)" ] in
      check_fp "after resume" expected db;
      Db.close db;
      let db', _ = Db.recover dir in
      check_fp "after recovery" expected db';
      Db.close db')

(* The checkpoint-install hazard: the checkpoint artifact is already
   durable when the fresh-WAL install fails.  Appending to the
   old-epoch log would silently lose records at recovery, so the lift
   must finish the install first. *)
let test_checkpoint_install_degrades () =
  with_sim (fun () ->
      let dir = fresh_dir "pending_fresh" in
      let db = build dir in
      (* rename #1 installs the checkpoint artifact, rename #2 installs
         the fresh log: fail the second *)
      Io.Sim.set_error_kind Io.Eio;
      Fault.arm "io.rename" (Fault.Nth 2);
      (match Db.checkpoint db with
       | () -> Alcotest.fail "checkpoint succeeded with io.rename armed"
       | exception Db.Degraded_error _ -> ());
      Fault.disarm "io.rename";
      (match Db.health db with
       | Db.Degraded _ -> ()
       | Db.Healthy -> Alcotest.fail "failed install did not enter degraded mode");
      resume_with db "INSERT INTO seq VALUES (5, 50)";
      Alcotest.(check int) "the fresh epoch was installed by the lift" 1
        (Db.epoch db);
      Db.close db;
      let db', r = Db.recover dir in
      Alcotest.(check (option int)) "recovery starts from the new checkpoint"
        (Some 1) r.Db.checkpoint_epoch;
      check_fp "post-recovery"
        (twin_with [ "INSERT INTO seq VALUES (5, 50)" ])
        db';
      Db.close db')

(* The rollback hazard: the commit fails AND the truncate-back fails,
   leaving the rejected record on the log.  A later synced commit would
   make it durable — so the session must degrade and the lift must chop
   it off before accepting writes again. *)
let test_failed_rollback_degrades () =
  with_sim (fun () ->
      let dir = fresh_dir "rollback_fail" in
      let db = build dir in
      Io.Sim.set_error_kind Io.Eio;
      Fault.arm "io.fsync" (Fault.Nth 1);
      Fault.arm "io.truncate" Fault.Always;
      (match Db.exec db "INSERT INTO seq VALUES (9, 90)" with
       | _ -> Alcotest.fail "statement committed under a failing fsync"
       | exception _ -> ());
      Fault.disarm "io.fsync";
      Fault.disarm "io.truncate";
      (match Db.health db with
       | Db.Degraded _ -> ()
       | Db.Healthy -> Alcotest.fail "torn rollback did not enter degraded mode");
      resume_with db "INSERT INTO seq VALUES (4, 40)";
      Db.close db;
      (* the rejected (9, 90) must NOT replay: the lift chopped it *)
      let db', _ = Db.recover dir in
      check_fp "rejected record stayed off the log"
        (twin_with [ "INSERT INTO seq VALUES (4, 40)" ])
        db';
      Db.close db')

(* ---- Typed truncate errors ---- *)

let test_truncate_back_typed_error () =
  with_sim (fun () ->
      let dir = fresh_dir "trunc_err" in
      let path = wal_path dir in
      let w = Wal.create path ~epoch:0 in
      let pos = Wal.position w in
      Wal.append w (Wal.Statement "CREATE TABLE t (x INT)");
      Fault.arm "io.truncate" Fault.Always;
      (match Wal.truncate_back w pos with
       | () -> Alcotest.fail "truncate_back succeeded with io.truncate armed"
       | exception Wal.Truncate_error { path = p; target; detail } ->
         Alcotest.(check string) "path carried" path p;
         Alcotest.(check int) "target offset carried" pos target;
         Alcotest.(check bool) "detail present" true (String.length detail > 0));
      Fault.disarm "io.truncate";
      Wal.truncate_back w pos;
      Alcotest.(check int) "retry chopped the record" pos (Wal.position w);
      Wal.close w)

(* ---- The io.* sweep ----

   Every seam site, under both error kinds: the faulting operation
   either rolls back cleanly or leaves the session in typed degraded
   mode (never half-applied), and after recovery the directory
   reproduces exactly the committed statements. *)

let test_io_site_sweep () =
  let cases =
    [
      ("io.write", Fault.Nth 1, `Statement);
      ("io.fsync", Fault.Nth 1, `Statement);
      ("io.rename", Fault.Nth 1, `Checkpoint);
      ("io.rename", Fault.Nth 2, `Checkpoint) (* the fresh-WAL install *);
      ("io.truncate", Fault.Always, `Rollback) (* fires during rollback *);
    ]
  in
  List.iteri
    (fun i (site, policy, driver) ->
      List.iter
        (fun kind ->
          with_sim (fun () ->
              let what =
                Printf.sprintf "%s/%s" site
                  (match kind with Io.Enospc -> "enospc" | Io.Eio -> "eio")
              in
              let dir = fresh_dir (Printf.sprintf "sweep%d" i) in
              let db = build dir in
              Io.Sim.set_error_kind kind;
              (match driver with
               | `Rollback -> Fault.arm "io.write" (Fault.Nth 1)
               | _ -> ());
              Fault.arm site policy;
              let stmt = "INSERT INTO seq VALUES (6, 60)" in
              let applied =
                match driver with
                | `Statement | `Rollback ->
                  (match Db.exec db stmt with
                   | _ -> true
                   | exception _ -> false)
                | `Checkpoint ->
                  (match Db.checkpoint db with () -> () | exception _ -> ());
                  false
              in
              Fault.disarm site;
              (match driver with
               | `Rollback -> Fault.disarm "io.write"
               | _ -> ());
              (* live state: fully applied or fully rolled back *)
              check_fp
                (what ^ ": live state")
                (twin_with (if applied then [ stmt ] else []))
                db;
              (* if the fault dropped the session to degraded mode,
                 drive the resume so recovery sees a consistent log *)
              let retried =
                match Db.health db with
                | Db.Healthy -> false
                | Db.Degraded _ ->
                  resume_with db stmt;
                  true
              in
              Db.close db;
              let db', _ = Db.recover dir in
              check_fp
                (what ^ ": post-recovery")
                (twin_with (if applied || retried then [ stmt ] else []))
                db';
              Db.close db'))
        [ Io.Enospc; Io.Eio ])
    cases

(* ---- Sweeping stale temp files ---- *)

let test_tmp_sweep_at_open () =
  with_sim (fun () ->
      let dir = fresh_dir "sweep_tmp" in
      let db = build dir in
      Db.close db;
      let stray = Filename.concat dir "checkpoint.tmp" in
      let oc = open_out_bin stray in
      output_string oc "half-written junk";
      close_out oc;
      let r = Repair.scrub dir in
      Alcotest.(check bool) "scrub reports the stray tmp" true
        (List.exists
           (fun (d : Scrub.damage) -> d.Scrub.d_kind = Scrub.Stray_tmp)
           r.Scrub.damage);
      let db', rep = Db.recover dir in
      Alcotest.(check (list string)) "swept (and reported) at open" [ stray ]
        rep.Db.swept;
      Alcotest.(check bool) "stray file removed" false (Sys.file_exists stray);
      Db.close db')

let test_feed_tmp_sweep () =
  with_sim (fun () ->
      let fdir = fresh_dir "sweep_feed" in
      let feed = Filename.concat fdir "f.feed" in
      let db = build (fresh_dir "sweep_feed_db") in
      let sh = Ship.create db in
      Ship.attach sh ~name:"f" ~path:feed;
      Ship.close sh;
      Db.close db;
      let ftmp = feed ^ ".tmp" in
      let oc = open_out_bin ftmp in
      output_string oc "x";
      close_out oc;
      let w = Feed.open_append feed in
      Feed.close w;
      Alcotest.(check bool) "feed open sweeps its .tmp sibling" false
        (Sys.file_exists ftmp))

(* ---- Pinned artifact bytes ----

   A fixed script on a durable database, shipped to one feed: DDL, DML,
   a compressed batch, a checkpoint, then more DML.  The md5 of the
   checkpoint, the log and the feed pin the frame layout and every
   record codec: a change meant to move a byte updates these pins and
   says why. *)

let pinned_ddl =
  [
    "CREATE TABLE sales (day DATE, region VARCHAR, qty INT, amount FLOAT)";
    "CREATE INDEX sales_day ON sales (day)";
    "CREATE MATERIALIZED VIEW running AS SELECT region, day, SUM(amount) OVER \
     (PARTITION BY region ORDER BY day ROWS UNBOUNDED PRECEDING) AS total FROM sales";
    "INSERT INTO sales VALUES (DATE '2024-01-01', 'north', 3, 10.5), (DATE '2024-01-02', \
     'north', NULL, -0.0), (DATE '2024-01-01', 'south', 7, 2.25)";
    "UPDATE sales SET amount = 11.75 WHERE region = 'north' AND qty = 3";
  ]

let pinned_after =
  [
    "DELETE FROM sales WHERE region = 'south' AND qty = 7";
    "INSERT INTO sales VALUES (DATE '2024-02-01', 'east', 1, 1e-3)";
  ]

let test_pinned_artifact_bytes () =
  with_sim (fun () ->
      let dir = fresh_dir "pinned" in
      let feed = Filename.concat (fresh_dir "pinned_feed") "f.feed" in
      let db = Db.open_durable dir in
      let sh = Ship.create db in
      Ship.attach sh ~name:"f" ~path:feed;
      let exec sql = ignore (Db.exec db sql) in
      List.iter exec pinned_ddl;
      Db.with_batch db (fun () ->
          for i = 1 to 24 do
            exec
              (Printf.sprintf "INSERT INTO sales VALUES (DATE '2024-01-%02d', 'west', %d, %d.5)"
                 i i (i * 3))
          done);
      Db.checkpoint db;
      List.iter exec pinned_after;
      ignore (Ship.pump sh);
      Ship.close sh;
      Db.close db;
      let md5 path = Digest.to_hex (Digest.string (Io.read_file path)) in
      Alcotest.(check (list string)) "checkpoint, log and feed md5"
        [ "4f42e1c9263b6877b1cf4a3e6b449d16"; "4d933de60c2a0b21ee229b5f2b193d8f";
          "c1c4267e640abf8d3c5589e21a5e906d" ]
        [ md5 (Filename.concat dir "checkpoint"); md5 (wal_path dir); md5 feed ])

(* ---- Hostile bytes ----

   Every decoder fed CRC-valid frames around hostile payloads returns
   normally or raises its own typed error: never [Invalid_argument],
   never a huge allocation. *)

let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* One CRC-valid frame holding an [s] record whose string claims
   [max_int - 3] bytes: the codec's bounds check must not overflow. *)
let test_huge_string_length () =
  let path = wal_path (fresh_dir "huge_len") in
  let b = Bytes.create 9 in
  Bytes.set b 0 's';
  Bytes.set_int64_le b 1 (Int64.of_int (max_int - 3));
  let begin_frame = Wal.frame (Wal.Begin 1) in
  write_file path (begin_frame ^ Wal.frame_payload (Bytes.to_string b));
  let s = Wal.scan path in
  Alcotest.(check bool) "scan: torn at the hostile record" true s.Wal.torn;
  Alcotest.(check int) "scan: no record after BEGIN" 0 (List.length s.Wal.records);
  Alcotest.(check int) "scan: valid prefix is BEGIN" (String.length begin_frame)
    s.Wal.valid_bytes;
  match (Wal.scan_detail path).Wal.d_entries with
  | [ _; e ] ->
    Alcotest.(check bool) "scan_detail: CRC matches" true e.Wal.e_crc_ok;
    Alcotest.(check bool) "scan_detail: undecodable" true (e.Wal.e_record = None)
  | es -> Alcotest.failf "scan_detail: %d entries, expected 2" (List.length es)

(* Valid payloads of every decoder, to mutate: WAL records (a plain and
   a compressed batch among them), the frames of a real checkpoint and
   of a real feed; also that checkpoint's bytes, the base a mutated
   frame is spliced into. *)
let hostile_corpus =
  lazy
    (let open Rfview_relalg in
     let row i =
       [| Value.Int i; Value.Float (float_of_int i /. 4.); Value.String "north"; Value.Null;
          Value.Date (19_000 + i); Value.Bool (i mod 2 = 0) |]
     in
     let rows = Array.init 3 row in
     let records =
       Wal.
         [
           Begin 3;
           Statement "CREATE TABLE t (a INT)";
           Insert { table = "t"; rows };
           Delete { table = "t"; rows };
           Update { table = "t"; pairs = Array.map (fun r -> (r, row 9)) rows };
           Load { table = "t"; rows };
           Batch [ Insert { table = "t"; rows = [| row 1 |] } ];
           Batch (List.init 12 (fun i -> Insert { table = "t"; rows = [| row i |] }));
         ]
     in
     let dir = fresh_dir "hostile" in
     let feed = Filename.concat dir "f.feed" in
     let db = build dir in
     let sh = Ship.create db in
     Ship.attach sh ~name:"f" ~path:feed;
     ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
     ignore (Ship.pump sh);
     Ship.close sh;
     Db.checkpoint db;
     Db.close db;
     let checkpoint = Io.read_file (Filename.concat dir "checkpoint") in
     let payloads data = List.map (fun f -> f.Wal.f_payload) (fst (Wal.frames data)) in
     ( List.map Wal.payload_of_record records @ payloads checkpoint
       @ payloads (Io.read_file feed),
       checkpoint ))

let hostile_dir = lazy (fresh_dir "hostile_run")

(* counts and lengths a hostile payload may claim *)
let extremes = [ max_int; max_int - 3; min_int; -1; 1 lsl 30; 1 lsl 40; 255 ]

let gen_hostile =
  QCheck.Gen.delay @@ fun () ->
  let open QCheck.Gen in
  let corpus, _ = Lazy.force hostile_corpus in
  let set_byte p i c =
    let b = Bytes.of_string p in
    if i < Bytes.length b then Bytes.set b i c;
    Bytes.to_string b
  in
  let set_int p i v =
    let b = Bytes.of_string p in
    if i + 8 <= Bytes.length b then Bytes.set_int64_le b i (Int64.of_int v);
    Bytes.to_string b
  in
  let mutate p =
    let n = String.length p in
    frequency
      [
        (3, map2 (set_byte p) (int_bound n) char);
        (3, map2 (set_int p) (int_bound n) (oneofl extremes));
        (1, map (fun k -> String.sub p 0 k) (int_bound n));
      ]
  in
  let rec mutations k p = if k = 0 then return p else mutate p >>= mutations (k - 1) in
  frequency
    [
      (1, string_size ~gen:char (int_bound 64));
      (4, triple (oneofl corpus) (int_range 1 3) unit >>= fun (p, k, ()) -> mutations k p);
    ]

(* [f ()] returns normally or raises an exception [typed] accepts *)
let only what typed f =
  match f () with
  | _ -> ()
  | exception e when typed e -> ()
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let prop_hostile_frames payload =
  let _, checkpoint = Lazy.force hostile_corpus in
  let framed = Wal.frame_payload payload in
  let dir = Lazy.force hostile_dir in
  let wal = wal_path dir and feed = Filename.concat dir "f.feed" in
  (match Wal.frames framed with
   | [ { Wal.f_crc_ok = true; _ } ], None -> ()
   | _ -> QCheck.Test.fail_reportf "the walker lost a well-formed frame");
  only "Wal.frames on raw bytes" (fun _ -> false) (fun () -> Wal.frames payload);
  let decode = function Wal.Codec.Decode _ -> true | _ -> false in
  only "Wal.record_of_payload" decode (fun () -> Wal.record_of_payload payload);
  let wal_error = function Wal.Wal_error _ -> true | _ -> false in
  List.iter
    (fun data ->
      write_file wal data;
      only "Wal.scan" wal_error (fun () -> Wal.scan wal);
      only "Wal.scan_detail" wal_error (fun () -> Wal.scan_detail wal))
    [ framed; Wal.frame (Wal.Begin 1) ^ framed ];
  (* the hostile frame alone, and in place of each of a real
     checkpoint's frames *)
  let frames = fst (Wal.frames checkpoint) in
  let spliced i =
    String.concat ""
      (List.mapi (fun j f -> if i = j then framed else Wal.frame_payload f.Wal.f_payload) frames)
  in
  List.iter
    (fun data ->
      only "Checkpoint.read_bytes"
        (function Checkpoint.Corrupt _ -> true | _ -> false)
        (fun () -> Checkpoint.read_bytes data))
    (framed :: List.init (List.length frames) spliced);
  write_file feed framed;
  only "Feed.read_from"
    (function Feed.Corrupt _ -> true | _ -> false)
    (fun () -> Feed.read_from feed ~offset:0);
  let r = Wal.Codec.reader payload in
  only "Compress.unpack"
    (function Compress.Corrupt _ | Wal.Codec.Decode _ -> true | _ -> false)
    (fun () ->
      Compress.unpack
        ~get_int:(fun () -> Wal.Codec.get_int r)
        ~get_char:(fun () -> Wal.Codec.get_char r)
        ~get_bytes:(Wal.Codec.get_raw r));
  true

let hostile_frames_property =
  QCheck.Test.make ~count:400 ~name:"hostile frames get typed errors"
    (QCheck.make ~print:(fun p -> Printf.sprintf "%S" p) gen_hostile)
    prop_hostile_frames

(* ---- Cross-source WAL repair (the acceptance criterion) ---- *)

let test_wal_rebuild_from_feed () =
  with_sim (fun () ->
      let dir = fresh_dir "rebuild" in
      let fdir = fresh_dir "rebuild_feed" in
      let feed = Filename.concat fdir "f.feed" in
      let db = build dir in
      let sh = Ship.create db in
      Ship.attach sh ~name:"f" ~path:feed;
      Db.checkpoint db;
      ignore (Db.exec db "INSERT INTO seq VALUES (7, 70)");
      ignore (Db.exec db "UPDATE seq SET val = 11 WHERE pos = 1");
      ignore (Ship.pump sh);
      Ship.close sh;
      Db.close db;
      let pristine = Io.read_file (wal_path dir) in
      (* a suffix of the log vanishes mid-frame, "deleted by hand" *)
      let f = Io.openf (wal_path dir) ~mode:Io.Write in
      Io.ftruncate f (String.length pristine - 3);
      Io.close f;
      let before = Repair.scrub ~feeds:[ feed ] dir in
      Alcotest.(check bool) "scrub sees the chop" false (Scrub.clean before);
      let outcome = Repair.repair ~feeds:[ feed ] dir in
      Alcotest.(check bool) "after-scrub clean" true
        (Scrub.clean outcome.Repair.o_after);
      Alcotest.(check bool) "rebuilt from the feed, fingerprint-verified" true
        (List.exists
           (function
             | Repair.Rebuilt_wal { verified; _ } -> verified
             | _ -> false)
           outcome.Repair.o_actions);
      Alcotest.(check string) "bit-identical rebuild" pristine
        (Io.read_file (wal_path dir));
      (* deleting the whole file rebuilds too *)
      Io.remove (wal_path dir);
      let outcome2 = Repair.repair ~feeds:[ feed ] dir in
      Alcotest.(check bool) "after-scrub clean (deleted log)" true
        (Scrub.clean outcome2.Repair.o_after);
      Alcotest.(check string) "bit-identical after whole-file deletion"
        pristine
        (Io.read_file (wal_path dir));
      let db', _ = Db.recover dir in
      check_fp "recovered state"
        (twin_with
           [
             "INSERT INTO seq VALUES (7, 70)";
             "UPDATE seq SET val = 11 WHERE pos = 1";
           ])
        db';
      Db.close db')

(* ---- Scrub property ---- *)

(* Run a short random DML stream, checkpoint, leave a nonempty WAL
   suffix, and close: the directory must scrub clean.  Then flip one
   random byte in one artifact: the scrubber must report damage, all of
   it against exactly that artifact. *)
let random_dml_dir ~seed ~batch =
  let dir = fresh_dir "qscrub" in
  let db = Db.open_durable dir in
  List.iter (fun sql -> ignore (Db.exec db sql)) setup_sql;
  let state = ref ((seed land 0x3fffffff) + 1) in
  let next n =
    state := (!state * 48271) mod 0x7fffffff;
    !state mod n
  in
  let exec_one () =
    let pos = 1 + next 20 and v = next 100 in
    let sql =
      match next 4 with
      | 0 | 1 -> Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" pos v
      | 2 -> Printf.sprintf "UPDATE seq SET val = %d WHERE pos = %d" v pos
      | _ -> Printf.sprintf "DELETE FROM seq WHERE pos = %d" pos
    in
    ignore (Db.exec db sql)
  in
  for _ = 1 to 4 do
    if batch > 1 then
      Db.with_batch db (fun () ->
          for _ = 1 to batch do
            exec_one ()
          done)
    else exec_one ()
  done;
  Db.checkpoint db;
  for _ = 1 to 3 do
    exec_one ()
  done;
  Db.close db;
  dir

let scrub_flip_property =
  QCheck.Test.make ~count:25
    ~name:"scrub: clean after checkpoint; one flip names exactly its artifact"
    QCheck.(triple small_nat small_nat bool)
    (fun (seed, off_seed, batched) ->
      with_sim (fun () ->
          let dir = random_dml_dir ~seed ~batch:(if batched then 3 else 0) in
          let r = Repair.scrub dir in
          if not (Scrub.clean r) then
            QCheck.Test.fail_reportf "dirty after a clean shutdown: %s"
              (Scrub.describe r);
          let target =
            if off_seed mod 2 = 0 then wal_path dir
            else Filename.concat dir "checkpoint"
          in
          let bytes = Io.read_file target in
          let at = ((off_seed * 7919) + seed) mod String.length bytes in
          let f = Io.openf target ~mode:Io.Write in
          Io.pwrite f ~at (String.make 1 (Char.chr (Char.code bytes.[at] lxor 0xff)));
          Io.close f;
          let r' = Repair.scrub dir in
          if Scrub.clean r' then
            QCheck.Test.fail_reportf "flip at byte %d of %s went undetected" at
              target;
          List.iter
            (fun (d : Scrub.damage) ->
              let p = Scrub.path_of_artifact d.Scrub.d_artifact in
              if p <> target then
                QCheck.Test.fail_reportf
                  "flip in %s reported against %s:@.%s" target p
                  (Scrub.describe r'))
            r'.Scrub.damage;
          true))

(* ---- The storage chaos matrix ---- *)

let test_storage_chaos_matrix () =
  with_sim (fun () ->
      let reports =
        List.map
          (fun seed ->
            Chaos.run_storage
              ~config:
                {
                  Chaos.st_seed = seed;
                  st_ops = 40;
                  st_event_every = 6;
                  st_checkpoint_every = 11;
                  st_batch = (if seed mod 3 = 0 then 4 else 0);
                }
              ~dir:(fresh_dir (Printf.sprintf "chaos%d" seed))
              ())
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
      in
      let total f = List.fold_left (fun a r -> a + f r) 0 reports in
      (* aggregated across the matrix, every storage event and every
         recovery path must actually have been exercised *)
      let nonzero what f =
        if total f <= 0 then Alcotest.failf "matrix never exercised %s" what
      in
      Alcotest.(check bool) "statements ran" true
        (total (fun r -> r.Chaos.st_statements) >= 12 * 40);
      nonzero "io.* faults" (fun r -> r.Chaos.st_io_faults);
      nonzero "ENOSPC episodes" (fun r -> r.Chaos.st_enospc);
      nonzero "degraded-mode rejections" (fun r -> r.Chaos.st_degraded_writes);
      nonzero "probe resumes" (fun r -> r.Chaos.st_resumes);
      nonzero "power cuts" (fun r -> r.Chaos.st_crashes);
      nonzero "corruptions" (fun r -> r.Chaos.st_corruptions);
      nonzero "scrub findings" (fun r -> r.Chaos.st_scrub_findings);
      nonzero "WAL repairs" (fun r -> r.Chaos.st_repairs);
      nonzero "feed reseeds" (fun r -> r.Chaos.st_reseeds);
      nonzero "oracle checks" (fun r -> r.Chaos.st_checks))

let () =
  Temp_dirs.run "storage"
    [
      ( "simulated disk",
        [
          Alcotest.test_case "budget: torn write + ENOSPC" `Quick
            test_sim_budget_torn;
          Alcotest.test_case "crash loses unsynced bytes" `Quick
            test_sim_crash_durable_length;
          Alcotest.test_case "seeded bit flips" `Quick test_sim_bit_flip;
          Alcotest.test_case "io.* via the fault grammar" `Quick
            test_io_site_via_grammar;
        ] );
      ( "degraded mode",
        [
          Alcotest.test_case "ENOSPC degrades, probe resumes" `Quick
            test_enospc_degrade_resume;
          Alcotest.test_case "failed fresh-WAL install" `Quick
            test_checkpoint_install_degrades;
          Alcotest.test_case "failed rollback truncate" `Quick
            test_failed_rollback_degrades;
        ] );
      ( "typed errors",
        [
          Alcotest.test_case "Truncate_error carries path and target" `Quick
            test_truncate_back_typed_error;
        ] );
      ( "io site sweep",
        [ Alcotest.test_case "every site x both kinds" `Quick test_io_site_sweep ] );
      ( "scrub & repair",
        [
          Alcotest.test_case "stale tmp swept at open" `Quick
            test_tmp_sweep_at_open;
          Alcotest.test_case "feed tmp swept at open" `Quick test_feed_tmp_sweep;
          Alcotest.test_case "WAL rebuilt from feed, bit-identical" `Quick
            test_wal_rebuild_from_feed;
          QCheck_alcotest.to_alcotest scrub_flip_property;
        ] );
      ( "artifact bytes",
        [ Alcotest.test_case "pinned md5 of every artifact" `Quick test_pinned_artifact_bytes ] );
      ( "decoder fuzz",
        [
          Alcotest.test_case "max_int - 3 string length" `Quick test_huge_string_length;
          QCheck_alcotest.to_alcotest hostile_frames_property;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "storage matrix" `Slow test_storage_chaos_matrix;
        ] );
    ]
