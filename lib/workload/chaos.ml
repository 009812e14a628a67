(* The chaos harness: randomized DML streams against a shadow oracle,
   with faults injected at the engine's registered sites.

   One stream driver runs all four harnesses.  Its statements are
   INSERT/UPDATE/DELETE/CSV-load/REFRESH over a (grp, pos, val) table
   carrying five materialized views; a *shadow oracle* — a row list to
   which a statement's effect is applied only when the engine reports
   success — tracks what the table must contain.  The driver owns the
   setup, the one PRNG that draws both the statements and the layer's
   events (a seed fixes the whole run), the oracle and its rollback when
   a group-commit chunk fails, the chunk loop, and one check after every
   chunk, with injection suspended: the base table equals the oracle,
   every non-stale view equals full recomputation, and reading a stale
   (quarantined) view heals it to exactly the recomputed contents.

   Each harness is a fault layer adding its handle, its events after a
   chunk and its final phase (detailed in its section below):
   - [run]: in memory, one site armed for the whole run, cache probes;
   - [run_crash]: a durable directory, five crash variants, a final
     kill and recovery;
   - [run_replica]: a durable primary shipped to replica feeds, reads
     checked at their LSN, replica/feed/primary events, failover;
   - [run_storage]: a durable primary on the simulated disk, storage
     events, a final scrub and recovery.

   Any violation raises [Divergence].  Nothing here depends on the test
   framework, so the harness also serves examples and the CLI. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Catalog = Rfview_engine.Catalog
module Cache = Rfview_engine.Cache
module Csv = Rfview_engine.Csv
module Fault = Rfview_engine.Fault
module Io = Rfview_engine.Io
module Scrub = Rfview_engine.Scrub
module Parser = Rfview_sql.Parser
module Replica = Rfview_replica.Replica
module Ship = Rfview_replica.Ship
module Feed = Rfview_replica.Feed
module Repair = Rfview_replica.Repair

exception Divergence of string

let divergence fmt = Format.kasprintf (fun s -> raise (Divergence s)) fmt

type config = {
  seed : int;
  ops : int;               (* length of the DML stream *)
  cache_every : int;       (* probe the cache every Nth statement *)
  batch : int;             (* > 1: group-commit chunks of this many
                              statements; checks at chunk boundaries *)
}

let default_config = { seed = 11; ops = 60; cache_every = 5; batch = 0 }

type report = {
  statements : int;        (* statements attempted *)
  failed : int;            (* statements that raised (and rolled back) *)
  quarantines : int;       (* views observed stale after a statement *)
  heals : int;             (* stale views healed by a read *)
  cache_probes : int;
  cache_hits : int;
  checks : int;            (* invariant checkpoints passed *)
}

(* ---- Schema and views ---- *)

let setup_sql =
  [
    "CREATE TABLE seq (grp INT, pos INT, val FLOAT)";
    "CREATE MATERIALIZED VIEW v_cum AS SELECT grp, pos, val, SUM(val) OVER \
     (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq";
    "CREATE MATERIALIZED VIEW v_avg AS SELECT pos, val, AVG(val) OVER \
     (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS a FROM seq";
    "CREATE MATERIALIZED VIEW v_min AS SELECT pos, val, MIN(val) OVER \
     (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS m FROM seq";
    (* derived-delta views (DESIGN.md §14): a static dimension table, a
       join view and a GROUP BY view, so generalized IVM runs under the
       same fault sites, sanitizer checks and crash harness as the
       sequence machinery *)
    "CREATE TABLE dim (grp INT, tag VARCHAR)";
    "INSERT INTO dim VALUES (1, 'low'), (2, 'mid'), (3, 'high')";
    "CREATE MATERIALIZED VIEW v_tag AS SELECT s.grp AS grp, s.pos AS pos, \
     s.val AS val, d.tag AS tag FROM seq s JOIN dim d ON s.grp = d.grp";
    "CREATE MATERIALIZED VIEW v_tot AS SELECT grp, SUM(val) AS total, \
     COUNT(*) AS n FROM seq GROUP BY grp";
  ]

(* the query whose cache entry the probes derive from, and two probes
   derivable from it (same frame; contained frame) *)
let cache_seed_query =
  "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 \
   FOLLOWING) AS s FROM seq"

let cache_probe_queries =
  [
    cache_seed_query;
    "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 \
     FOLLOWING) AS s FROM seq";
  ]

(* ---- The DML stream ---- *)

type op =
  | Insert of { grp : int; pos : int; value : float }
  | Insert_null of { grp : int; pos : int }  (* exercises the full-refresh fallback *)
  | Update of { pos : int; value : float }
  | Delete of { pos : int }
  | Load_csv of (int * int * float) list
  | Refresh of string

(* Integer-valued floats only: their SQL and CSV text round-trips
   exactly, keeping oracle and engine bit-identical. *)
let gen_value prng = float_of_int (Prng.int_range prng ~lo:(-50) ~hi:50)
let gen_pos prng = Prng.int_range prng ~lo:1 ~hi:20
let gen_grp prng = Prng.int_range prng ~lo:1 ~hi:3

let gen_op prng : op =
  match Prng.int prng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
    Insert { grp = gen_grp prng; pos = gen_pos prng; value = gen_value prng }
  | 7 | 8 | 9 | 10 -> Update { pos = gen_pos prng; value = gen_value prng }
  | 11 | 12 | 13 -> Delete { pos = gen_pos prng }
  | 14 | 15 ->
    let n = Prng.int_range prng ~lo:1 ~hi:4 in
    Load_csv
      (List.init n (fun _ -> (gen_grp prng, gen_pos prng, gen_value prng)))
  | 16 -> Insert_null { grp = gen_grp prng; pos = gen_pos prng }
  | _ -> Refresh (Prng.choose prng [ "v_cum"; "v_avg"; "v_min"; "v_tag"; "v_tot" ])

let sql_of_op = function
  | Insert { grp; pos; value } ->
    Printf.sprintf "INSERT INTO seq VALUES (%d, %d, %g)" grp pos value
  | Insert_null { grp; pos } ->
    Printf.sprintf "INSERT INTO seq VALUES (%d, %d, NULL)" grp pos
  | Update { pos; value } ->
    Printf.sprintf "UPDATE seq SET val = %g WHERE pos = %d" value pos
  | Delete { pos } -> Printf.sprintf "DELETE FROM seq WHERE pos = %d" pos
  | Load_csv _ -> "(csv load)"
  | Refresh name -> Printf.sprintf "REFRESH MATERIALIZED VIEW %s" name

(* ---- The shadow oracle ----

   Plain rows in engine insertion order; every constructor mirrors the
   engine's statement semantics exactly. *)

let row grp pos value : Row.t = [| Value.Int grp; Value.Int pos; value |]

let apply_oracle (rows : Row.t list) (op : op) : Row.t list =
  match op with
  | Insert { grp; pos; value } -> rows @ [ row grp pos (Value.Float value) ]
  | Insert_null { grp; pos } -> rows @ [ row grp pos Value.Null ]
  | Update { pos; value } ->
    List.map
      (fun r ->
        if Value.equal (Row.get r 1) (Value.Int pos) then
          [| Row.get r 0; Row.get r 1; Value.Float value |]
        else r)
      rows
  | Delete { pos } ->
    List.filter (fun r -> not (Value.equal (Row.get r 1) (Value.Int pos))) rows
  | Load_csv batch ->
    rows @ List.map (fun (g, p, v) -> row g p (Value.Float v)) batch
  | Refresh _ -> rows

let csv_of_batch batch =
  "grp,pos,val\n"
  ^ String.concat ""
      (List.map (fun (g, p, v) -> Printf.sprintf "%d,%d,%g\n" g p v) batch)

(* ---- Invariant checks ---- *)

let schema_seq =
  Schema.make
    [
      Schema.column "grp" Dtype.Int;
      Schema.column "pos" Dtype.Int;
      Schema.column "val" Dtype.Float;
    ]

let check_base db (oracle : Row.t list) ~context =
  let actual = Db.query db "SELECT grp, pos, val FROM seq" in
  let expected = Relation.of_array schema_seq (Array.of_list oracle) in
  if not (Relation.equal_bag actual expected) then
    divergence "%s: base table diverged from the shadow oracle\nengine:\n%s\noracle:\n%s"
      context
      (Relation.render (Relation.sorted_by_all actual))
      (Relation.render (Relation.sorted_by_all expected))

let check_views db ~context =
  List.iter
    (fun (v : Catalog.view) ->
      if v.Catalog.materialized && not v.Catalog.stale then
        match v.Catalog.contents with
        | None -> divergence "%s: view %s has no contents" context v.Catalog.view_name
        | Some contents ->
          let recomputed = Db.run_query db v.Catalog.definition in
          if not (Relation.equal_bag contents recomputed) then
            divergence
              "%s: non-stale view %s diverged from full recomputation\nstored:\n%s\nrecomputed:\n%s"
              context v.Catalog.view_name
              (Relation.render (Relation.sorted_by_all contents))
              (Relation.render (Relation.sorted_by_all recomputed)))
    (Catalog.all_views (Db.catalog db))

(* ---- The stream driver ---- *)

type stream = {
  prng : Prng.t;
  mutable db : Db.t;             (* the current handle; recovery swaps it *)
  mutable oracle : Row.t list;   (* the base table at the last commit *)
  mutable statements : int;      (* statements attempted *)
  mutable failed : int;          (* statements and chunks that raised *)
  mutable quarantines : int;     (* views seen stale at a check *)
  mutable heals : int;           (* stale views healed by a check *)
  mutable checks : int;          (* checks passed *)
}

(* The invariants, with injection suspended: they must observe the
   state a fault left behind, not re-trigger it.  Reading a stale view
   must heal it (lazy full refresh) to exactly its recomputation. *)
let check s ~context =
  Fault.with_suspended (fun () ->
      let stale = Db.stale_views s.db in
      check_base s.db s.oracle ~context;
      check_views s.db ~context;
      List.iter
        (fun name ->
          let read = Db.query s.db (Printf.sprintf "SELECT * FROM %s" name) in
          if Db.is_stale s.db name then
            divergence "%s: reading stale view %s did not heal it" context name;
          let v = Catalog.view (Db.catalog s.db) name in
          if not (Relation.equal_bag read (Db.run_query s.db v.Catalog.definition)) then
            divergence "%s: healed view %s diverged from full recomputation" context name)
        stale;
      s.quarantines <- s.quarantines + List.length stale;
      s.heals <- s.heals + List.length stale;
      s.checks <- s.checks + 1)

(* What a fault layer adds to the stream. *)
type 'report layer = {
  after_chunk : crossed:(int -> bool) -> last:int -> context:string -> unit;
      (* the layer's events after the chunk ending at statement [last];
         [crossed p]: a period-[p] boundary lies inside the chunk (at
         chunk size 1, exactly [last mod p = 0]) *)
  finish : unit -> 'report;      (* the final phase *)
  close : unit -> unit;          (* teardown besides the handle *)
}

(* Run the setup on [db], build the layer over the stream, then run
   [ops] statements: one per chunk at [batch <= 1], else [Db.with_batch]
   chunks of [batch] (group commit).  [check] and the layer's events
   follow every chunk and happen nowhere else, so a crash never finds an
   open batch: the directory holds the whole chunk (one WAL batch
   record) or none of it. *)
let drive ~seed ~ops ~batch db (layer : stream -> 'report layer) : 'report =
  List.iter (fun sql -> ignore (Db.exec db sql)) setup_sql;
  let s =
    {
      prng = Prng.create ~seed;
      db;
      oracle = [];
      statements = 0;
      failed = 0;
      quarantines = 0;
      heals = 0;
      checks = 0;
    }
  in
  let close = ref ignore in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      !close ();
      try Db.close s.db with _ -> ())
  @@ fun () ->
  let l = layer s in
  close := l.close;
  let last_sql = ref "(none)" in
  let exec_op () =
    let op = gen_op s.prng in
    last_sql := sql_of_op op;
    (match
       match op with
       | Load_csv batch ->
         ignore (Csv.import_string s.db ~table:"seq" (csv_of_batch batch))
       | op -> ignore (Db.exec s.db (sql_of_op op))
     with
     | () -> s.oracle <- apply_oracle s.oracle op
     | exception _ -> s.failed <- s.failed + 1);
    s.statements <- s.statements + 1
  in
  let i = ref 1 in
  while !i <= ops do
    let chunk = if batch <= 1 then 1 else min batch (ops - !i + 1) in
    let first = !i and last = !i + chunk - 1 in
    let oracle0 = s.oracle in
    (match
       if chunk = 1 then exec_op ()
       else Db.with_batch s.db (fun () -> for _ = first to last do exec_op () done)
     with
     | () -> ()
     | exception _ ->
       (* a commit-time failure rolls the whole chunk back; the oracle
          must forget the chunk with it *)
       s.oracle <- oracle0;
       s.failed <- s.failed + 1);
    let context =
      if chunk = 1 then Printf.sprintf "op %d (%s)" first !last_sql
      else Printf.sprintf "ops %d-%d (batch; last: %s)" first last !last_sql
    in
    check s ~context;
    l.after_chunk ~crossed:(fun p -> p > 0 && last / p > (first - 1) / p) ~last ~context;
    i := last + 1
  done;
  l.finish ()

(* ---- The in-memory layer: [run] ----

   An in-memory database, one site optionally armed for the whole run,
   and a derivation cache probed with faults live (the cache must
   degrade, never corrupt) against uncached execution (suspended). *)

let run ?(config = default_config) ?inject ?(sanitize = false) () : report =
  (* the differential sanitizer hooks into plan_query, so enabling it
     here covers every query the harness runs: cache probes, view
     recomputation checks and heal reads *)
  let sanitize_was = Rfview_analysis.Sanitize.enabled () in
  if sanitize then Rfview_analysis.Sanitize.enable ();
  Fun.protect
    ~finally:(fun () ->
      if sanitize && not sanitize_was then Rfview_analysis.Sanitize.disable ())
  @@ fun () ->
  let db = Db.create () in
  let cache = Cache.create ~capacity:4 db in
  drive ~seed:config.seed ~ops:config.ops ~batch:config.batch db @@ fun s ->
  (* seed the cache so probes can hit by derivation *)
  ignore (Cache.query cache cache_seed_query);
  Option.iter (fun (site, policy) -> Fault.arm site policy) inject;
  let probes = ref 0 and hits = ref 0 in
  {
    (* a batched chunk probes when it crossed a probe point — after its
       commit, so a hit must never serve a pre-batch answer *)
    after_chunk =
      (fun ~crossed ~last ~context:_ ->
        if crossed config.cache_every then
          List.iter
            (fun sql ->
              let result, outcome = Cache.query cache sql in
              let reference =
                Fault.with_suspended (fun () -> Db.run_query s.db (Parser.query sql))
              in
              if not (Relation.equal_bag result reference) then
                divergence "op %d: cache answer diverged from uncached execution (%s)"
                  last
                  (Cache.describe_outcome outcome);
              incr probes;
              match outcome with Cache.Hit _ -> incr hits | _ -> ())
            cache_probe_queries);
    finish =
      (fun () : report ->
        {
          statements = s.statements;
          failed = s.failed;
          quarantines = s.quarantines;
          heals = s.heals;
          cache_probes = !probes;
          cache_hits = !hits;
          checks = s.checks;
        });
    close = ignore;
  }

(* ---- The crash layer: [run_crash] ----

   A durable directory with simulated crashes: the process never dies,
   the in-memory handle is simply abandoned (per-statement fsync makes
   that an accurate kill model) and the directory reopened through
   recovery.  Crash variants also tear the WAL tail mid-record, arm the
   wal/checkpoint/recovery fault sites, and crash between checkpoints —
   after every recovery the database must equal the oracle at the last
   committed statement. *)

type crash_config = {
  cc_seed : int;
  cc_ops : int;              (* statements across the whole run *)
  cc_crash_every : int;      (* crash once per this many statements *)
  cc_checkpoint_every : int; (* checkpoint period in statements; 0 = never *)
  cc_batch : int;            (* > 1: group-commit chunks of this size *)
}

let default_crash_config =
  { cc_seed = 7; cc_ops = 80; cc_crash_every = 7; cc_checkpoint_every = 11;
    cc_batch = 0 }

type crash_report = {
  cr_statements : int;
  cr_crashes : int;           (* crash + recovery cycles *)
  cr_torn : int;              (* recoveries that truncated a torn tail *)
  cr_wal_faults : int;        (* statements rejected by armed wal sites *)
  cr_checkpoints : int;       (* successful checkpoints *)
  cr_checkpoint_faults : int; (* checkpoint attempts killed by the site *)
  cr_recover_faults : int;    (* first recovery attempts killed mid-replay *)
  cr_replayed : int;          (* WAL records replayed across recoveries *)
  cr_quarantined : int;       (* views restored in quarantine *)
  cr_heals : int;
}

(* Remove a previous run's files so the directory starts empty (the
   engine creates the directory itself if missing). *)
let fresh_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if not (Sys.is_directory p) then Sys.remove p)
      (Sys.readdir dir)

let run_crash ?(config = default_crash_config) ~dir () : crash_report =
  let module Wal = Rfview_engine.Wal in
  fresh_dir dir;
  drive ~seed:config.cc_seed ~ops:config.cc_ops ~batch:config.cc_batch
    (Db.open_durable dir)
  @@ fun s ->
  let report =
    ref
      {
        cr_statements = 0;
        cr_crashes = 0;
        cr_torn = 0;
        cr_wal_faults = 0;
        cr_checkpoints = 0;
        cr_checkpoint_faults = 0;
        cr_recover_faults = 0;
        cr_replayed = 0;
        cr_quarantined = 0;
        cr_heals = 0;
      }
  in
  let bump f = report := f !report in
  (* Abandon the handle, reopen [dir] and fold the recovery report into
     the counters; the recovered database must match the oracle at the
     last commit. *)
  let recover ~context =
    Db.close s.db;
    let db, (r : Db.recovery_report) = Db.recover dir in
    s.db <- db;
    bump (fun c ->
        {
          c with
          cr_crashes = c.cr_crashes + 1;
          cr_torn = (c.cr_torn + if r.Db.torn then 1 else 0);
          cr_replayed = c.cr_replayed + r.Db.replayed;
          cr_quarantined = c.cr_quarantined + List.length r.Db.quarantined;
        });
    check s ~context;
    r
  in
  let crash variant i =
    let context = Printf.sprintf "crash after op %d (variant %d)" i variant in
    match variant with
    | 0 ->
      (* clean kill: abandon the handle, recover from disk *)
      ignore (recover ~context)
    | 1 ->
      (* torn write: a strict prefix of a valid frame lands on the log
         tail — recovery must truncate it, not replay it *)
      Db.close s.db;
      let frame = Wal.frame (Wal.Statement "CREATE TABLE torn_marker (x INT)") in
      let cut = 1 + Prng.int s.prng (String.length frame - 1) in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "log.wal")
      in
      output_string oc (String.sub frame 0 cut);
      close_out oc;
      let r = recover ~context in
      if not r.Db.torn then
        divergence "%s: recovery did not report the torn tail" context;
      if Catalog.find_table (Db.catalog s.db) "torn_marker" <> None then
        divergence "%s: recovery replayed a torn record" context
    | 2 ->
      (* durability failure: an armed WAL site must reject the statement
         (rolled back, not on disk) — the oracle is not updated *)
      let site = Prng.choose s.prng [ "wal.append"; "wal.fsync" ] in
      Fault.arm site Fault.Always;
      (match Db.exec s.db "INSERT INTO seq VALUES (1, 99, 5)" with
       | _ -> divergence "%s: statement committed with %s armed" context site
       | exception _ -> bump (fun c -> { c with cr_wal_faults = c.cr_wal_faults + 1 }));
      Fault.disarm site;
      check s ~context;
      ignore (recover ~context)
    | 3 ->
      (* checkpoint crash: the write faults partway, the temp file is
         discarded — the previous checkpoint plus the longer WAL must
         still recover the oracle state *)
      let nth = 1 + Prng.int s.prng 6 in
      Fault.arm "checkpoint.write" (Fault.Nth nth);
      (match Db.checkpoint s.db with
       | () -> bump (fun c -> { c with cr_checkpoints = c.cr_checkpoints + 1 })
       | exception _ ->
         bump (fun c -> { c with cr_checkpoint_faults = c.cr_checkpoint_faults + 1 }));
      Fault.disarm "checkpoint.write";
      ignore (recover ~context)
    | _ ->
      (* recovery-time fault: replay dies mid-WAL on the first attempt;
         a retry with the site disarmed must succeed cleanly *)
      Db.close s.db;
      Fault.arm "recover.replay" (Fault.Nth 1);
      let first = try Some (Db.recover dir) with Db.Recovery_error _ -> None in
      Fault.disarm "recover.replay";
      (match first with
       | Some (db, _) ->
         (* an empty WAL suffix replays nothing, so the site never fires *)
         s.db <- db;
         bump (fun c -> { c with cr_crashes = c.cr_crashes + 1 });
         check s ~context
       | None ->
         bump (fun c -> { c with cr_recover_faults = c.cr_recover_faults + 1 });
         ignore (recover ~context))
  in
  {
    after_chunk =
      (fun ~crossed ~last ~context:_ ->
        if crossed config.cc_checkpoint_every then begin
          Db.checkpoint s.db;
          bump (fun c -> { c with cr_checkpoints = c.cr_checkpoints + 1 })
        end;
        if crossed config.cc_crash_every then crash (Prng.int s.prng 5) last);
    (* final kill + recovery: the directory alone must reproduce the
       oracle *)
    finish =
      (fun () ->
        ignore (recover ~context:"final recovery");
        { !report with cr_statements = s.statements; cr_heals = s.heals });
    close = ignore;
  }

(* Pump a shipping primary's records to its feeds (the replica and
   storage layers); a pump never fails outside an armed site. *)
let pump_feeds ship ~context =
  try Ship.pump ship
  with e -> divergence "%s: pump failed: %s" context (Printexc.to_string e)

(* Recover a shipping primary in [pdir] (LSNs carry across recovery) and
   reattach each [(name, path)] feed where it stopped; returns the new
   shipper. *)
let reopen_primary s ~pdir ?(checkpoint_bytes = 0) feeds =
  let db, _ = Db.recover pdir in
  s.db <- db;
  if checkpoint_bytes > 0 then Db.set_checkpoint_bytes db (Some checkpoint_bytes);
  let ship = Ship.create db in
  List.iter (fun (name, path) -> Ship.reattach ship ~name ~path) feeds;
  ship

(* ---- The replica layer: [run_replica] ----

   A durable primary shipped through per-replica feeds (Rfview_replica)
   while the layer records the oracle's row list *at every commit
   boundary*, keyed by the primary's LSN.  Every read served by any
   replica is tagged with an LSN; the layer asserts it equals the
   oracle's state at exactly that LSN — a replica may be stale, it may
   never be wrong.

   Chaos events between chunks: kill a replica (rebuilt from the feed
   alone: checkpoint artifact + record suffix), corrupt an unconsumed
   feed entry (the replica must quarantine, then heal via
   [Ship.resync]), lag a replica (its bounded reads must refuse with
   [Stale]), arm [replica.apply] (the interrupted poll must resume
   exactly), arm [ship.append] (the half-shipped entry must come back
   off the feed), and crash + recover the primary (LSNs must carry
   across recovery, the shipper reattaching every feed).

   The run ends with failover: the primary dies with an unshipped tail,
   the freshest replica is promoted, and the promoted directory must
   hold the oracle state at the promoted LSN — losing at most the tail
   that was never pumped. *)

type replica_config = {
  rp_seed : int;
  rp_ops : int;               (* statements across the whole run *)
  rp_replicas : int;          (* feeds fanned out *)
  rp_pump_every : int;        (* ship once per this many statements *)
  rp_read_every : int;        (* replica read once per this many *)
  rp_event_every : int;       (* chaos event once per this many *)
  rp_checkpoint_bytes : int;  (* primary log-compaction threshold; 0 = off *)
  rp_batch : int;             (* > 1: group-commit chunks of this size *)
  rp_max_lag : int;           (* staleness bound for bounded reads *)
}

let default_replica_config =
  {
    rp_seed = 23;
    rp_ops = 60;
    rp_replicas = 3;
    rp_pump_every = 2;
    rp_read_every = 3;
    rp_event_every = 9;
    rp_checkpoint_bytes = 16 * 1024;
    rp_batch = 0;
    rp_max_lag = 4;
  }

type replica_report = {
  rp_statements : int;
  rp_pumps : int;
  rp_deliveries : int;        (* (record, feed) deliveries shipped *)
  rp_reads : int;             (* replica reads served and verified *)
  rp_stale_reads : int;       (* reads refused by the staleness bound *)
  rp_kills : int;             (* replica kill + feed-rebootstrap cycles *)
  rp_corruptions : int;       (* feed entries corrupted *)
  rp_quarantines : int;       (* replica quarantines observed *)
  rp_resyncs : int;           (* resync artifacts shipped *)
  rp_ship_faults : int;       (* pumps interrupted by ship.* sites *)
  rp_apply_faults : int;      (* polls interrupted by replica.apply *)
  rp_primary_crashes : int;   (* mid-run primary crash + reattach cycles *)
  rp_compactions : int;       (* byte-triggered checkpoints observed *)
  rp_promoted_lsn : int;      (* failover: LSN the promoted replica held *)
  rp_lost_tail : int;         (* failover: records lost with the primary *)
}

(* One replica plus its harness bookkeeping. *)
type rep_slot = {
  rs_name : string;
  rs_path : string;
  mutable rs_rep : Replica.t;
  mutable rs_lag_until : int; (* skip polls until this op index *)
  mutable rs_corrupted : bool; (* this feed was damaged at some point *)
}

let run_replica ?(config = default_replica_config) ~dir () : replica_report =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let pdir = Filename.concat dir "primary" in
  let promoted_dir = Filename.concat dir "promoted" in
  fresh_dir pdir;
  fresh_dir promoted_dir;
  drive ~seed:config.rp_seed ~ops:config.rp_ops ~batch:config.rp_batch
    (Db.open_durable pdir)
  @@ fun s ->
  let report =
    ref
      {
        rp_statements = 0;
        rp_pumps = 0;
        rp_deliveries = 0;
        rp_reads = 0;
        rp_stale_reads = 0;
        rp_kills = 0;
        rp_corruptions = 0;
        rp_quarantines = 0;
        rp_resyncs = 0;
        rp_ship_faults = 0;
        rp_apply_faults = 0;
        rp_primary_crashes = 0;
        rp_compactions = 0;
        rp_promoted_lsn = 0;
        rp_lost_tail = 0;
      }
  in
  let bump f = report := f !report in
  if config.rp_checkpoint_bytes > 0 then
    Db.set_checkpoint_bytes s.db (Some config.rp_checkpoint_bytes);
  let ship = ref (Ship.create s.db) in
  let slots =
    List.init config.rp_replicas (fun i ->
        let rs_name = Printf.sprintf "r%d" i in
        let rs_path = Filename.concat dir ("feed_" ^ rs_name) in
        Ship.attach !ship ~name:rs_name ~path:rs_path;
        {
          rs_name;
          rs_path;
          rs_rep = Replica.attach ~name:rs_name ~feed:rs_path ();
          rs_lag_until = 0;
          rs_corrupted = false;
        })
  in
  (* the oracle's row list at every commit boundary, keyed by LSN; only
     at chunk boundaries, since inside a batch the LSN has not advanced
     yet and mid-batch states would overwrite the boundary state *)
  let history : (int, Row.t list) Hashtbl.t = Hashtbl.create 64 in
  let remember () = Hashtbl.replace history (Db.lsn s.db) s.oracle in
  remember ();
  let last_pump_tip = ref 0 in
  let pump ~context =
    let n = pump_feeds !ship ~context in
    last_pump_tip := Db.lsn s.db;
    bump (fun r -> { r with rp_pumps = r.rp_pumps + 1; rp_deliveries = r.rp_deliveries + n })
  in
  (* a poll never fails outside an armed site *)
  let poll slot ~context =
    try ignore (Replica.poll slot.rs_rep)
    with e ->
      divergence "%s: poll of %s failed: %s" context slot.rs_name (Printexc.to_string e)
  in
  (* Heal a quarantined replica, if it is one: the quarantine is
     legitimate iff its feed really was damaged; ship a fresh tip
     artifact, re-poll, and demand it comes back Ready (the artifact
     carries a fingerprint, so a wrong rebuild would re-quarantine).
     Says whether the replica was quarantined. *)
  let repair slot ~context =
    match Replica.status slot.rs_rep with
    | Replica.Ready | Replica.Syncing -> false
    | Replica.Quarantined { reason; _ } ->
      if not slot.rs_corrupted then
        divergence "%s: replica %s quarantined without feed damage (%s)" context
          slot.rs_name reason;
      bump (fun r -> { r with rp_quarantines = r.rp_quarantines + 1 });
      Ship.resync !ship ~name:slot.rs_name;
      bump (fun r -> { r with rp_resyncs = r.rp_resyncs + 1 });
      last_pump_tip := Db.lsn s.db;
      poll slot ~context;
      (match Replica.status slot.rs_rep with
       | Replica.Ready -> ()
       | Replica.Syncing -> divergence "%s: %s still syncing after resync" context slot.rs_name
       | Replica.Quarantined { reason; _ } ->
         divergence "%s: %s still quarantined after resync: %s" context slot.rs_name reason);
      true
  in
  (* kill: abandon the replica object; the rebuilt one must bootstrap
     from the feed alone *)
  let rebootstrap slot ~context =
    slot.rs_rep <- Replica.attach ~name:slot.rs_name ~feed:slot.rs_path ();
    slot.rs_lag_until <- 0;
    poll slot ~context;
    repair slot ~context
  in
  let check_replica_read slot ~context ~tip =
    if (not (repair slot ~context)) && Replica.status slot.rs_rep = Replica.Ready then begin
      let bound = Prng.int s.prng (config.rp_max_lag + 1) in
      let kind, sql =
        if Prng.int s.prng 3 = 0 then (`Tot, "SELECT * FROM v_tot")
        else (`Base, "SELECT grp, pos, val FROM seq")
      in
      (match Replica.read slot.rs_rep ~tip ~max_records:bound sql with
       | Ok (rel, at) ->
         (match Hashtbl.find_opt history at with
          | None ->
            divergence "%s: %s served a read at lsn %d, not a committed state"
              context slot.rs_name at
          | Some rows ->
            let expected =
              match kind with
              | `Base -> Relation.of_array schema_seq (Array.of_list rows)
              | `Tot ->
                (* evaluate the view's definition over the historical rows *)
                let scratch = Db.create () in
                ignore (Db.exec scratch "CREATE TABLE seq (grp INT, pos INT, val FLOAT)");
                Db.load_table scratch ~table:"seq" (Array.of_list rows);
                Db.query scratch
                  "SELECT grp, SUM(val) AS total, COUNT(*) AS n FROM seq GROUP BY grp"
            in
            if not (Relation.equal_bag rel expected) then
              divergence
                "%s: %s read at lsn %d is not the historical state\nserved:\n%s\nexpected:\n%s"
                context slot.rs_name at
                (Relation.render (Relation.sorted_by_all rel))
                (Relation.render (Relation.sorted_by_all expected));
            if tip - at > bound then
              divergence "%s: %s served lag %d past the bound %d" context
                slot.rs_name (tip - at) bound;
            bump (fun r -> { r with rp_reads = r.rp_reads + 1 }))
       | Error (Replica.Stale { applied_lsn; tip_lsn; _ }) ->
         if tip_lsn - applied_lsn <= bound then
           divergence "%s: %s refused a read within the bound (lag %d <= %d)"
             context slot.rs_name (tip_lsn - applied_lsn) bound;
         bump (fun r -> { r with rp_stale_reads = r.rp_stale_reads + 1 })
       | Error (Replica.Unavailable reason) ->
         divergence "%s: ready replica %s refused a read: %s" context slot.rs_name
           reason)
    end
  in
  let chaos_event ~context i =
    let slot = List.nth slots (Prng.int s.prng (List.length slots)) in
    match Prng.int s.prng 6 with
    | 0 ->
      ignore (rebootstrap slot ~context);
      bump (fun r -> { r with rp_kills = r.rp_kills + 1 })
    | 1 ->
      (* corrupt a payload byte of the feed's LAST entry (its CRC then
         mismatches), abandon the replica and rebootstrap it from the
         damaged feed: the walk must end on the damage and quarantine,
         never serve state derived from it; resync must heal *)
      let items, _ = Feed.read_from slot.rs_path ~offset:0 in
      (match List.rev items with
       | [] -> () (* empty feed: nothing to damage *)
       | (_, finish) :: earlier ->
         let start = match earlier with [] -> 0 | (_, f) :: _ -> f in
         let at = start + 8 + Prng.int s.prng (max 1 (finish - start - 8)) in
         let fd = Unix.openfile slot.rs_path [ Unix.O_RDWR ] 0o644 in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with _ -> ())
           (fun () ->
             ignore (Unix.lseek fd at Unix.SEEK_SET);
             let b = Bytes.create 1 in
             ignore (Unix.read fd b 0 1);
             Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
             ignore (Unix.lseek fd at Unix.SEEK_SET);
             ignore (Unix.write fd b 0 1));
         slot.rs_corrupted <- true;
         bump (fun r -> { r with rp_corruptions = r.rp_corruptions + 1 });
         if not (rebootstrap slot ~context) then
           divergence "%s: %s consumed a corrupt feed entry without quarantining"
             context slot.rs_name)
    | 2 ->
      (* lag: stop polling this replica for a stretch — its bounded
         reads must refuse once the primary moves past the bound *)
      slot.rs_lag_until <- i + config.rp_event_every
    | 3 ->
      (* the poll is interrupted before a record applies; the next poll
         must resume exactly where it stopped.  Pump first so the feed
         actually has unconsumed entries to trip over. *)
      pump ~context;
      Fault.arm "replica.apply" (Fault.Nth 1);
      (match Replica.poll slot.rs_rep with
       | _ -> ()
       | exception Fault.Injected _ ->
         bump (fun r -> { r with rp_apply_faults = r.rp_apply_faults + 1 }));
      Fault.disarm "replica.apply";
      poll slot ~context
    | 4 ->
      (* the pump is interrupted mid-entry; the partial entry must be
         truncated back off and the retry must ship cleanly *)
      Fault.arm "ship.append" (Fault.Nth 1);
      (match Ship.pump !ship with
       | _ -> last_pump_tip := Db.lsn s.db
       | exception Fault.Injected _ ->
         bump (fun r -> { r with rp_ship_faults = r.rp_ship_faults + 1 }));
      Fault.disarm "ship.append";
      pump ~context
    | _ ->
      (* primary crash: recover the directory and reattach every feed *)
      Db.close s.db;
      Ship.close !ship;
      ship :=
        reopen_primary s ~pdir ~checkpoint_bytes:config.rp_checkpoint_bytes
          (List.map (fun slot -> (slot.rs_name, slot.rs_path)) slots);
      bump (fun r -> { r with rp_primary_crashes = r.rp_primary_crashes + 1 })
  in
  (* first sync: every replica bootstraps to the setup state *)
  pump ~context:"initial sync";
  List.iter (fun slot -> poll slot ~context:"initial sync") slots;
  let last_epoch = ref (Db.epoch s.db) in
  let note_compactions () =
    let e = Db.epoch s.db in
    if e > !last_epoch then begin
      bump (fun r -> { r with rp_compactions = r.rp_compactions + (e - !last_epoch) });
      last_epoch := e
    end
    else if e < !last_epoch then last_epoch := e
  in
  (* ---- failover ----
     Heal every quarantined replica while the primary still lives, then
     kill the primary with its unshipped tail and promote the freshest
     replica.  The promoted directory must reproduce the oracle at the
     promoted LSN — at most the unpumped tail is lost. *)
  let failover () =
    let context = "failover" in
    List.iter
      (fun slot ->
        if slot.rs_lag_until > 0 then slot.rs_lag_until <- 0;
        poll slot ~context;
        ignore (repair slot ~context))
      slots;
    let tip = Db.lsn s.db in
    Db.close s.db;
    Ship.close !ship;
    (* the freshest replica not in quarantine; the first of equals *)
    let winner =
      match
        List.filter
          (fun slot ->
            match Replica.status slot.rs_rep with Replica.Quarantined _ -> false | _ -> true)
          slots
      with
      | [] -> divergence "failover: no promotable replica"
      | first :: rest ->
        List.fold_left
          (fun best slot ->
            if Replica.applied_lsn best.rs_rep >= Replica.applied_lsn slot.rs_rep then best
            else slot)
          first rest
    in
    let promoted_lsn = Replica.applied_lsn winner.rs_rep in
    if promoted_lsn < !last_pump_tip then
      divergence "failover: promoted lsn %d lost shipped history (pumped to %d)"
        promoted_lsn !last_pump_tip;
    let promoted = Replica.promote winner.rs_rep ~dir:promoted_dir in
    (match Hashtbl.find_opt history promoted_lsn with
     | None -> divergence "promoted state: promoted lsn %d has no oracle state" promoted_lsn
     | Some rows -> check_base promoted rows ~context:"promoted state");
    (* the promoted primary must accept writes and recover on its own *)
    ignore (Db.exec promoted "INSERT INTO seq VALUES (1, 98, 4)");
    let after = Hashtbl.find history promoted_lsn @ [ row 1 98 (Value.Float 4.) ] in
    check_base promoted after ~context:"promoted write";
    Db.close promoted;
    let reopened, _ = Db.recover promoted_dir in
    check_base reopened after ~context:"promoted recovery";
    check_views reopened ~context:"promoted recovery";
    Db.close reopened;
    {
      !report with
      rp_statements = s.statements;
      rp_promoted_lsn = promoted_lsn;
      rp_lost_tail = tip - promoted_lsn;
    }
  in
  {
    after_chunk =
      (fun ~crossed ~last ~context ->
        remember ();
        note_compactions ();
        if crossed config.rp_pump_every then begin
          pump ~context;
          List.iter
            (fun slot -> if slot.rs_lag_until <= last then poll slot ~context)
            slots
        end;
        if crossed config.rp_read_every then
          List.iter
            (fun slot -> check_replica_read slot ~context ~tip:(Db.lsn s.db))
            slots;
        if crossed config.rp_event_every then chaos_event ~context last);
    finish = failover;
    close = (fun () -> Ship.close !ship);
  }

(* ---- State fingerprint (rollback-idempotence checks) ----

   A textual dump of everything a statement may mutate: table rows in
   physical order, view contents, quarantine flags and the rendered
   incremental states.  Two fingerprints are equal iff the logical
   database states are bit-identical. *)

let fingerprint (db : Db.t) : string =
  let buf = Buffer.create 1024 in
  let cat = Db.catalog db in
  Catalog.all_tables cat
  |> List.sort (fun (a : Catalog.table) b -> compare a.Catalog.table_name b.Catalog.table_name)
  |> List.iter (fun (tbl : Catalog.table) ->
         Buffer.add_string buf (Printf.sprintf "table %s\n" tbl.Catalog.table_name);
         Buffer.add_string buf (Relation.render (Catalog.table_relation tbl)));
  Catalog.all_views cat
  |> List.sort (fun (a : Catalog.view) b -> compare a.Catalog.view_name b.Catalog.view_name)
  |> List.iter (fun (v : Catalog.view) ->
         Buffer.add_string buf
           (Printf.sprintf "view %s stale=%b incremental=%b\n" v.Catalog.view_name
              v.Catalog.stale
              (Db.is_incrementally_maintained db v.Catalog.view_name));
         match v.Catalog.contents with
         | Some r -> Buffer.add_string buf (Relation.render r)
         | None -> ());
  Buffer.contents buf

(* The same dump for a façade session (the engine handle stays inside
   this library). *)
let fingerprint_session s =
  fingerprint ((Rfview.Session.Unsafe.database [@alert "-unsafe"]) s)

(* ---- The storage layer: [run_storage] ----

   A durable primary whose every disk byte moves through the Io seam,
   with the simulated-disk backend driving the faults the other layers
   cannot express: disk-full episodes (a byte budget that tears writes),
   power cuts that lose every unsynced byte, and silent media corruption
   that only the scrubber can see.  One feed is kept pumped to the
   primary's tip so the cross-source repair path has a peer to rebuild
   from; every WAL rebuild is checked for *bit*-identity against a copy
   taken before the damage (the codec is canonical, so anything less is
   a wrong rebuild).  The central assertion is the usual one: the
   database is never silently wrong — committed statements survive
   every event, failed ones roll back completely, and damage is always
   *reported* before it is repaired. *)

type storage_config = {
  st_seed : int;
  st_ops : int;               (* statements across the whole run *)
  st_event_every : int;       (* storage event once per this many *)
  st_checkpoint_every : int;  (* checkpoint period in statements; 0 = never *)
  st_batch : int;             (* > 1: group-commit chunks of this size *)
}

let default_storage_config =
  { st_seed = 31; st_ops = 60; st_event_every = 8; st_checkpoint_every = 13;
    st_batch = 0 }

type storage_report = {
  st_statements : int;
  st_io_faults : int;         (* armed io.* faults: statement rolled back *)
  st_enospc : int;            (* disk-full episodes entered *)
  st_degraded_writes : int;   (* writes rejected while degraded *)
  st_resumes : int;           (* degraded -> healthy via the space probe *)
  st_crashes : int;           (* power cuts (lost unsynced bytes) survived *)
  st_corruptions : int;       (* artifact bytes the harness damaged *)
  st_scrub_findings : int;    (* damage items the scrubber reported *)
  st_repairs : int;           (* WAL rebuilds / truncations performed *)
  st_reseeds : int;           (* feeds re-seeded from the primary *)
  st_checks : int;            (* invariant checkpoints passed *)
}

let run_storage ?(config = default_storage_config) ~dir () : storage_report =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let pdir = Filename.concat dir "primary" in
  fresh_dir pdir;
  let feed_path = Filename.concat dir "storage.feed" in
  if Sys.file_exists feed_path then Sys.remove feed_path;
  let wal = Filename.concat pdir "log.wal" in
  Fault.disarm_all ();
  Io.Sim.reset ();
  drive ~seed:config.st_seed ~ops:config.st_ops ~batch:config.st_batch
    (Db.open_durable pdir)
  @@ fun s ->
  let report =
    ref
      {
        st_statements = 0;
        st_io_faults = 0;
        st_enospc = 0;
        st_degraded_writes = 0;
        st_resumes = 0;
        st_crashes = 0;
        st_corruptions = 0;
        st_scrub_findings = 0;
        st_repairs = 0;
        st_reseeds = 0;
        st_checks = 0;
      }
  in
  let bump f = report := f !report in
  let ship = ref (Ship.create s.db) in
  Ship.attach !ship ~name:"storage" ~path:feed_path;
  (* keep the feed at the tip: it is the repair peer, so it must carry
     every record (and a fingerprint there) before damage strikes *)
  let pump ~context = ignore (pump_feeds !ship ~context) in
  (* close everything so the offline tools (scrub, repair, Sim.crash)
     own the directory *)
  let shutdown () =
    Ship.close !ship;
    Db.close s.db
  in
  let reopen ~context =
    ship := reopen_primary s ~pdir [ ("storage", feed_path) ];
    check s ~context
  in
  let scrub_counting () =
    let r = Repair.scrub ~feeds:[ feed_path ] pdir in
    let found = List.length r.Scrub.damage in
    bump (fun c -> { c with st_scrub_findings = c.st_scrub_findings + found });
    r
  in
  (* silent media corruption: XOR one byte in place, through the
     positioned-write primitive that bypasses the simulation *)
  let flip_byte path ~at =
    let bytes = Io.read_file path in
    let c = Char.chr (Char.code bytes.[at] lxor 0xff) in
    let f = Io.openf path ~mode:Io.Write in
    Fun.protect
      ~finally:(fun () -> Io.close f)
      (fun () -> Io.pwrite f ~at (String.make 1 c));
    bump (fun r -> { r with st_corruptions = r.st_corruptions + 1 })
  in
  (* the damaged directory must (1) scrub dirty, (2) repair to a clean
     scrub, and (3) — when the WAL was the victim — end up bit-identical
     to the bytes it held before the damage *)
  let repair_and_verify ~context ~pristine_wal =
    let before = scrub_counting () in
    if Scrub.clean before then
      divergence "%s: scrub missed the damage" context;
    let outcome = Repair.repair ~feeds:[ feed_path ] pdir in
    if not (Scrub.clean outcome.Repair.o_after) then
      divergence "%s: damage survived repair: %s" context
        (Scrub.describe outcome.Repair.o_after);
    (match pristine_wal with
     | Some bytes ->
       if Io.read_file wal <> bytes then
         divergence "%s: repaired WAL is not bit-identical to the pre-damage log"
           context
     | None -> ());
    List.iter
      (function
        | Repair.Rebuilt_wal _ | Repair.Truncated_wal _ ->
          bump (fun r -> { r with st_repairs = r.st_repairs + 1 })
        | Repair.Reseeded_feed _ ->
          bump (fun r -> { r with st_reseeds = r.st_reseeds + 1 })
        | Repair.Swept_tmp _ -> ())
      outcome.Repair.o_actions
  in
  let storage_event ~context =
    match Prng.int s.prng 6 with
    | 0 ->
      (* a one-shot EIO at a seam site: the statement must fail, roll
         back completely, and NOT drop the session to degraded mode
         (only ENOSPC is a disk-state condition worth waiting out) *)
      let site = Prng.choose s.prng [ "io.write"; "io.fsync" ] in
      Io.Sim.set_error_kind Io.Eio;
      Fault.arm site (Fault.Nth 1);
      (match Db.exec s.db "INSERT INTO seq VALUES (2, 99, 6)" with
       | _ -> divergence "%s: statement committed with %s armed" context site
       | exception Db.Degraded_error _ ->
         divergence "%s: an EIO fault must not enter degraded mode" context
       | exception _ ->
         bump (fun r -> { r with st_io_faults = r.st_io_faults + 1 }));
      Fault.disarm site;
      check s ~context
    | 1 ->
      (* disk full: the commit tears, rolls back, and the session drops
         to read-only degraded mode; once space frees, the backoff
         probe must lift it and the retried statement must commit *)
      Io.Sim.set_budget (Some (Prng.int s.prng 16));
      (match Db.exec s.db "INSERT INTO seq VALUES (3, 99, 7)" with
       | _ -> divergence "%s: statement committed on a full disk" context
       | exception Db.Degraded_error _ ->
         bump (fun r -> { r with st_enospc = r.st_enospc + 1 })
       | exception e ->
         divergence "%s: expected Degraded_error on ENOSPC, got %s" context
           (Printexc.to_string e));
      (match Db.health s.db with
       | Db.Degraded _ -> ()
       | Db.Healthy ->
         divergence "%s: ENOSPC did not enter degraded mode" context);
      (* reads keep serving the pre-failure state while degraded *)
      Fault.with_suspended (fun () -> check_base s.db s.oracle ~context);
      (* further writes are rejected while the probe keeps failing *)
      for _ = 1 to 2 do
        match Db.exec s.db "INSERT INTO seq VALUES (3, 99, 7)" with
        | _ -> divergence "%s: degraded session accepted a write" context
        | exception Db.Degraded_error _ ->
          bump (fun r -> { r with st_degraded_writes = r.st_degraded_writes + 1 })
      done;
      (* free the disk: within the probe backoff bound (capped at 64
         rejections between probes) a retried write must go through *)
      Io.Sim.set_budget None;
      let rec retry attempts =
        if attempts = 0 then
          divergence "%s: degraded mode never lifted after space freed" context;
        match Db.exec s.db "INSERT INTO seq VALUES (1, 7, 3)" with
        | _ -> s.oracle <- apply_oracle s.oracle (Insert { grp = 1; pos = 7; value = 3. })
        | exception Db.Degraded_error _ -> retry (attempts - 1)
      in
      retry 200;
      (match Db.health s.db with
       | Db.Healthy -> bump (fun r -> { r with st_resumes = r.st_resumes + 1 })
       | Db.Degraded { reason; _ } ->
         divergence "%s: still degraded after a committed write: %s" context
           reason);
      check s ~context
    | 2 ->
      (* power cut: abandon everything, lose every unsynced byte.  The
         engine fsyncs per commit, so recovery reproduces the oracle
         and the scrubber finds only frame-aligned artifacts. *)
      shutdown ();
      Io.Sim.crash ();
      let r = scrub_counting () in
      if not (Scrub.clean r) then
        divergence "%s: artifacts damaged after a power cut: %s" context
          (Scrub.describe r);
      bump (fun rep -> { rep with st_crashes = rep.st_crashes + 1 });
      reopen ~context
    | (3 | 5) as event ->
      (* bit rot that only the scrubber sees.  In the log, the feed
         carries the affected records: the rebuilt log must be
         bit-identical to the pre-damage bytes.  In the feed, repair
         re-seeds it from the (healthy) primary and the shipper resumes
         on the fresh artifact. *)
      let path = if event = 3 then wal else feed_path in
      pump ~context;
      shutdown ();
      let pristine = Io.read_file path in
      if String.length pristine > 0 then begin
        flip_byte path ~at:(Prng.int s.prng (String.length pristine));
        repair_and_verify ~context
          ~pristine_wal:(if event = 3 then Some pristine else None)
      end;
      reopen ~context
    | _ ->
      (* the WAL deleted outright: with a checkpoint on disk the
         scrubber reports the hole and repair rebuilds the whole
         suffix from the feed, bit-identical *)
      if Db.epoch s.db = 0 then Db.checkpoint s.db;
      pump ~context;
      shutdown ();
      let pristine = Io.read_file wal in
      Io.remove wal;
      bump (fun r -> { r with st_corruptions = r.st_corruptions + 1 });
      repair_and_verify ~context ~pristine_wal:(Some pristine);
      reopen ~context
  in
  {
    after_chunk =
      (fun ~crossed ~last:_ ~context ->
        if crossed config.st_checkpoint_every then Db.checkpoint s.db;
        pump ~context;
        if crossed config.st_event_every then storage_event ~context);
    (* final: the directory must scrub clean and, alone, reproduce the
       oracle *)
    finish =
      (fun () ->
        pump ~context:"final pump";
        shutdown ();
        let r = scrub_counting () in
        if not (Scrub.clean r) then
          divergence "final scrub: %s" (Scrub.describe r);
        let db, _ = Db.recover pdir in
        s.db <- db;
        check_base s.db s.oracle ~context:"final recovery";
        check_views s.db ~context:"final recovery";
        { !report with st_statements = s.statements; st_checks = s.checks });
    close =
      (fun () ->
        Io.Sim.reset ();
        try Ship.close !ship with _ -> ());
  }
