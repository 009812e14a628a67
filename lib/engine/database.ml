(* The database facade: parse → bind → (rewrite) → plan → execute, plus
   DDL/DML with materialized-view maintenance.

   [window_mode] selects how reporting functions execute — the contrast of
   the paper's Table 1:
   - [`Native]: the built-in window operator ("existing reporting
     functionality inside the database engine");
   - [`Self_join]: rewrite every window function into the relational
     self-join simulation of Fig. 2 before planning. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast
module Parser = Rfview_sql.Parser
module Pretty = Rfview_sql.Pretty
module P = Rfview_planner
module Verify = Rfview_analysis.Verify

exception Engine_error of string

let engine_error fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

(* A script statement failed: 1-based index and SQL text of the culprit,
   so multi-statement failures are locatable. *)
exception Script_error of { index : int; sql : string; cause : exn }

let () =
  Printexc.register_printer (function
    | Script_error { index; sql; cause } ->
      Some
        (Printf.sprintf "statement %d (%s): %s" index sql
           (Printexc.to_string cause))
    | _ -> None)

(* A durable database directory could not be brought back to a usable
   state (structural checkpoint corruption, a failing WAL replay). *)
exception Recovery_error of string

let recovery_error fmt = Format.kasprintf (fun s -> raise (Recovery_error s)) fmt

(* Refusals print as their message, so a [Script_error] or
   [Recovery_error] wrapping one reads plainly. *)
let () =
  Printexc.register_printer (function
    | Recovery_error m -> Some (Printf.sprintf "recovery error: %s" m)
    | Engine_error m | Catalog.Catalog_error m -> Some m
    | _ -> None)

(* ---- Fault-injection sites (see Fault) ---- *)

let site_apply_insert = Fault.define "database.apply_insert"
let site_apply_delete = Fault.define "database.apply_delete"
let site_apply_update = Fault.define "database.apply_update"
let site_propagate = Fault.define "database.propagate_view"
let site_refresh = Fault.define "database.refresh_view"
let site_replay = Fault.define "recover.replay"

(* Between the checkpoint rename and the WAL reset: a crash here leaves
   a new checkpoint beside a stale log, which recovery must discard. *)
let site_install = Fault.define "checkpoint.install"

type window_mode =
  [ `Native
  | `Self_join
  ]

(* What happens when maintaining one materialized view fails mid
   statement:
   - [`Quarantine] (default): the view is marked stale and dropped from
     incremental maintenance; the statement succeeds; the next read of
     the view triggers a full refresh.
   - [`Abort]: the exception propagates and the whole statement rolls
     back. *)
type degradation =
  [ `Quarantine
  | `Abort
  ]

(* Exceptions the degradation policies may absorb.  Verification
   failures are bugs, not environmental faults — never absorb them. *)
let recoverable_exn = function
  | Verify.Not_preserved _ | Out_of_memory | Stack_overflow -> false
  | _ -> true

(* All tuning knobs in one record, taken at open time; [reconfigure]
   swaps the whole record. *)
type config = {
  window_mode : window_mode;
  window_strategy : Window.strategy;
  hash_join : bool;
  index_join : bool;
  degradation : degradation;
  share_scans : bool;
      (* drive all sequence views of a certified scan-share class from
         one shared partition iterator during batch maintenance *)
}

let default_config =
  {
    window_mode = `Native;
    window_strategy = Window.Incremental;
    hash_join = true;
    index_join = true;
    degradation = `Quarantine;
    share_scans = true;
  }

type view_index = {
  vi_view : string;
  vi_column : string;
  vi_kind : Index.kind;
  mutable vi_built : Index.t option;
}

(* Attached by [open_durable]/[recover]: the WAL writer for the database
   directory.  [epoch] matches the current checkpoint generation (0
   before the first checkpoint); [appended] counts records in the
   current log and drives [checkpoint_every]; [base_lsn] is the global
   record count the current log starts at (the checkpoint's lsn), so
   [base_lsn + appended] is the database's log sequence number. *)
type durability = {
  dir : string;
  mutable wal : Wal.writer;
  mutable epoch : int;
  mutable base_lsn : int;
  mutable appended : int;
  mutable checkpoint_every : int option;
  mutable checkpoint_bytes : int option;
  (* Disk-full degraded mode (see [check_degraded] below): while
     [degraded] is [Some reason] every write is rejected with
     [Degraded_error] and reads keep serving; a space probe runs every
     [probe_backoff]-th rejection and lifts the mode once it succeeds. *)
  mutable degraded : string option;
  mutable rejected : int;
  mutable probe_backoff : int;
  mutable probe_countdown : int;
  mutable pending_fresh : (int * int) option;
      (* (epoch, lsn) of a checkpoint that became durable but whose
         fresh WAL could not be installed: appending to the old-epoch
         log would silently lose those records at recovery (stale-epoch
         logs are discarded), so the probe must finish the install
         before the session leaves degraded mode *)
  mutable pending_truncate : int option;
      (* byte offset a failed commit could not be truncated back to: the
         rolled-back record is still on the log, and a later synced
         commit would make it durable — recovery would then replay a
         statement the session rejected.  The probe must chop it off
         before the session leaves degraded mode. *)
}

(* An open batch scope: the accumulated delta plus the undo log that
   spans the whole batch (each statement's scope is absorbed into it on
   success, so an aborted batch rolls everything back together). *)
type batch = {
  mutable b_delta : Delta.t;
  b_undo : Undo.t;
}

type result =
  | Relation of Relation.t
  | Done of string

(* ---- MVCC version store ----

   Every commit point (top-level statement success, batch commit,
   recovery) publishes an immutable, LSN-stamped version of the logical
   state.  Publication is pointer capture, never a deep copy: table
   contents are replaced wholesale by every mutation path
   ([Catalog.set_rows]) and materialized-view contents are replaced by
   fresh [Relation.t] values ([Matview.render], [run_query]), so a
   captured pointer can never observe a later write.  A relation is a
   sequence of row chunks, and no chunk is written after it is built:
   DML ([Relation.edit], [Relation.append_rows]) copies the chunks it
   changes into fresh ones and shares the rest, and [Matview.render]
   returns the chunks of the view state's segments, of which an edit
   rebuilds only those it reaches.  So every version, the undo log and
   the view states may hold the same chunks and rows.  Readers acquire
   versions under [mv_mu] from any domain; the single writer publishes
   under the same mutex.  The retained window keeps the last
   [mv_retain] versions acquirable; older versions survive exactly as
   long as an active snapshot pins them ([v_refs]). *)

type vtable = {
  vt_name : string;
  vt_rows : Relation.t; (* frozen: the stored relation at commit *)
  vt_indexes : (string * Index.kind) list; (* column, kind *)
}

type vview = {
  vv_name : string;
  vv_materialized : bool;
  vv_definition : Ast.query;
  vv_contents : Relation.t option; (* frozen rendering at commit *)
  vv_stale : bool;
}

type version = {
  v_lsn : int;
  v_tables : vtable list;
  v_views : vview list;
  v_view_indexes : (string * string * Index.kind) list; (* view, column, kind *)
  v_cfg : config;
  mutable v_refs : int; (* active snapshots; guarded by [mv_mu] *)
  (* Read-path memos shared by every snapshot of this version: heals of
     stale matviews and built indexes ("rel\tcol"), both guarded by
     [v_mu].  Only readers touch them; the writer never does. *)
  v_mu : Mutex.t;
  v_heal : (string, Relation.t) Hashtbl.t;
  v_index_memo : (string, Index.t option) Hashtbl.t;
}

type mvcc = {
  mv_mu : Mutex.t;
  mutable mv_versions : version list; (* newest first *)
  mutable mv_retain : int; (* acquirable window size *)
  mutable mv_seq : int; (* commit counter: the LSN surrogate in memory *)
  mutable mv_dirty : bool; (* a mutation happened since the last publish *)
}

type t = {
  catalog : Catalog.t;
  view_states : (string, Matview.state) Hashtbl.t; (* incremental seq views *)
  derived_views : (string, Matview.Derived.t) Hashtbl.t;
      (* views maintained by derived delta plans (generalized IVM) *)
  view_indexes : (string, view_index) Hashtbl.t;    (* keyed by index name *)
  mutable cfg : config;
  mutable undo : Undo.t option; (* Some while a statement is executing *)
  mutable batch : batch option; (* Some while a batch scope is open *)
  mutable durable : durability option;
  mutable wal_pending : Wal.record list; (* this scope's records, reversed *)
  mvcc : mvcc;
}

let default_retain = 8

let mark_dirty db = db.mvcc.mv_dirty <- true

let capture_version db ~lsn : version =
  {
    v_lsn = lsn;
    v_tables =
      Catalog.all_tables db.catalog
      |> List.map (fun (tbl : Catalog.table) ->
             {
               vt_name = tbl.Catalog.table_name;
               vt_rows = tbl.Catalog.rows;
               vt_indexes =
                 List.map
                   (fun (i : Catalog.index_def) -> (i.Catalog.column, i.Catalog.kind))
                   tbl.Catalog.indexes;
             });
    v_views =
      Catalog.all_views db.catalog
      |> List.map (fun (v : Catalog.view) ->
             {
               vv_name = v.Catalog.view_name;
               vv_materialized = v.Catalog.materialized;
               vv_definition = v.Catalog.definition;
               vv_contents = v.Catalog.contents;
               vv_stale = v.Catalog.stale;
             });
    v_view_indexes =
      Hashtbl.fold
        (fun _ vi acc -> (vi.vi_view, vi.vi_column, vi.vi_kind) :: acc)
        db.view_indexes [];
    v_cfg = db.cfg;
    v_refs = 0;
    v_mu = Mutex.create ();
    v_heal = Hashtbl.create 4;
    v_index_memo = Hashtbl.create 4;
  }

(* Drop versions past the acquirable window, except those an active
   snapshot still pins.  Caller holds [mv_mu]. *)
let sweep_versions mv =
  let rec keep i = function
    | [] -> []
    | v :: rest ->
      if i < mv.mv_retain || v.v_refs > 0 then v :: keep (i + 1) rest
      else keep (i + 1) rest
  in
  mv.mv_versions <- keep 0 mv.mv_versions

(* Publish the current state as a fresh version if anything changed
   since the last publish.  Called by the single writer at commit
   points only (never mid-scope).  A commit that appended no WAL
   record — a heal-on-read refresh — replaces the head version in
   place: same LSN, newer (logically equal) state. *)
let publish_version db =
  let mv = db.mvcc in
  if mv.mv_dirty && db.batch = None && db.undo = None then begin
    let tip =
      match db.durable with
      | Some d -> d.base_lsn + d.appended
      | None -> mv.mv_seq
    in
    let v = capture_version db ~lsn:tip in
    Mutex.lock mv.mv_mu;
    mv.mv_seq <- mv.mv_seq + 1;
    (match mv.mv_versions with
     | head :: rest when head.v_lsn = tip -> mv.mv_versions <- v :: rest
     | vs -> mv.mv_versions <- v :: vs);
    sweep_versions mv;
    mv.mv_dirty <- false;
    Mutex.unlock mv.mv_mu
  end

(* Throw away every published version and re-publish the current state;
   recovery and promotion call this once the real LSN is known (replay
   publishes under surrogate sequence numbers). *)
let reset_versions db =
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  mv.mv_versions <- [];
  mv.mv_seq <- 0;
  Mutex.unlock mv.mv_mu;
  mv.mv_dirty <- true;
  publish_version db

let create ?(config = default_config) () =
  let db =
    {
      catalog = Catalog.create ();
      view_states = Hashtbl.create 8;
      derived_views = Hashtbl.create 8;
      view_indexes = Hashtbl.create 8;
      cfg = config;
      undo = None;
      batch = None;
      durable = None;
      wal_pending = [];
      mvcc =
        {
          mv_mu = Mutex.create ();
          mv_versions = [];
          mv_retain = default_retain;
          mv_seq = 0;
          mv_dirty = true;
        };
    }
  in
  (* version 0: the empty database is snapshottable from the start *)
  publish_version db;
  db

let reconfigure db config = db.cfg <- config
let config db = db.cfg

let key = String.lowercase_ascii

(* Install a view's incremental states, [None] removing one: the §2.3
   sequence state and the derived delta plan. *)
let set_states db name state derived =
  let k = key name in
  (match state with
   | Some s -> Hashtbl.replace db.view_states k s
   | None -> Hashtbl.remove db.view_states k);
  match derived with
  | Some d -> Hashtbl.replace db.derived_views k d
  | None -> Hashtbl.remove db.derived_views k

(* Does a view currently have an incremental maintenance state?  Either
   flavor counts: the §2.3 sequence machinery or a derived delta plan. *)
let is_incrementally_maintained db name =
  Hashtbl.mem db.view_states (key name) || Hashtbl.mem db.derived_views (key name)

(* ---- The undo log ----

   Each mutation below first logs a restore action (an absolute snapshot
   of the object about to change) into the statement's undo log; see
   Undo.  [with_undo] brackets one statement: on success the log is
   dropped, on any exception it is replayed and the exception re-raised,
   so [exec] is all-or-nothing.  Nested statements (EXPLAIN wrapping,
   cache admission inside a query) join the enclosing statement's log. *)

let log_undo db restore =
  match db.undo with
  | Some u -> Undo.log u restore
  | None -> ()

(* ---- WAL commit protocol ----

   Mutations queue logical records on [wal_pending] as they execute
   (deltas carry the exact rows, DDL its SQL text).  The outermost
   [with_undo] flushes the queue to the WAL and fsyncs *inside* the undo
   scope: the statement is committed iff its records are durable.  A
   failing append/fsync truncates the partial record back off the log
   and rolls the whole statement back — disk and memory agree either
   way.  During recovery [durable] is [None], so replay re-queues
   nothing. *)

let wal_log db record = if db.durable <> None then db.wal_pending <- record :: db.wal_pending

let wal_log_stmt db (stmt : Ast.statement) =
  match stmt with
  | Ast.St_create_table _ | Ast.St_create_index _ | Ast.St_create_view _
  | Ast.St_drop_table _ | Ast.St_drop_view _ | Ast.St_refresh_view _ ->
    wal_log db (Wal.Statement (Pretty.statement stmt))
  | _ -> ()

(* ---- Disk-full degraded mode ----

   ENOSPC during a WAL append or a checkpoint must not corrupt state
   and must not kill the session: the failed write rolls back, the
   session enters a typed read-only mode (reads keep serving, every
   write raises [Degraded_error]), and a cheap space probe — run with
   exponential backoff, counted in rejected writes — lifts the mode
   once the disk has room again. *)

exception Degraded_error of { reason : string }

type health = Healthy | Degraded of { reason : string; rejected_writes : int }

let wal_path dir = Filename.concat dir "log.wal"

let max_probe_backoff = 64

let enter_degraded d reason =
  if d.degraded = None then begin
    d.degraded <- Some reason;
    d.rejected <- 0;
    d.probe_backoff <- 1;
    d.probe_countdown <- 1
  end

(* Can the disk take writes again?  A tiny write+fsync to a scratch
   file: cheap, and exercises the same failure surface as a commit. *)
let probe_space d =
  let path = Filename.concat d.dir ".space-probe" in
  match
    let f = Io.openf path ~mode:Io.Create_trunc in
    Fun.protect
      ~finally:(fun () -> Io.close f)
      (fun () ->
        Io.write f (String.make 64 'p');
        Io.fsync f)
  with
  | () ->
    Io.remove path;
    true
  | exception (Io.Io_error _ | Unix.Unix_error _) ->
    Io.remove path;
    false

(* Leaving degraded mode may have unfinished business: a rolled-back
   record that could not be truncated off the log, or a checkpoint that
   became durable while its fresh WAL never got installed.  Finish both
   first — otherwise recovery would replay a rejected statement, or
   silently drop everything appended since (the old-epoch log is
   discarded). *)
let lift_degraded d =
  (match d.pending_truncate with
   | Some pos ->
     Wal.truncate_back d.wal pos;
     d.pending_truncate <- None
   | None -> ());
  (match d.pending_fresh with
   | Some (epoch', lsn') ->
     Wal.close d.wal;
     d.wal <- Wal.create (wal_path d.dir) ~epoch:epoch';
     d.epoch <- epoch';
     d.base_lsn <- lsn';
     d.appended <- 0;
     d.pending_fresh <- None
   | None -> ());
  d.degraded <- None;
  d.rejected <- 0;
  d.probe_backoff <- 1;
  d.probe_countdown <- 1

(* Gate at the head of every write path.  No-op while healthy; while
   degraded, every call counts as a rejected write, and every
   [probe_backoff]-th rejection runs the space probe (backoff doubles
   up to [max_probe_backoff] while the disk stays full). *)
let check_degraded d =
  match d.degraded with
  | None -> ()
  | Some reason ->
    d.rejected <- d.rejected + 1;
    d.probe_countdown <- d.probe_countdown - 1;
    if d.probe_countdown <= 0 then begin
      if probe_space d then
        match lift_degraded d with
        | () -> ()
        | exception e ->
          (* the pending truncate / fresh-WAL install failed: stay
             degraded *)
          d.probe_backoff <- min (d.probe_backoff * 2) max_probe_backoff;
          d.probe_countdown <- d.probe_backoff;
          if recoverable_exn e then
            raise (Degraded_error { reason })
          else raise e
      else begin
        d.probe_backoff <- min (d.probe_backoff * 2) max_probe_backoff;
        d.probe_countdown <- d.probe_backoff;
        raise (Degraded_error { reason })
      end
    end
    else raise (Degraded_error { reason })

let health db =
  match db.durable with
  | Some d ->
    (match d.degraded with
     | Some reason -> Degraded { reason; rejected_writes = d.rejected }
     | None -> Healthy)
  | None -> Healthy

let is_enospc = function
  | Io.Io_error { kind = Io.Enospc; _ } -> true
  | Unix.Unix_error (Unix.ENOSPC, _, _) -> true
  | _ -> false

let flush_wal db =
  match db.durable with
  | Some d when db.wal_pending <> [] ->
    check_degraded d;
    let records = List.rev db.wal_pending in
    db.wal_pending <- [];
    let pos = Wal.position d.wal in
    (try
       List.iter (Wal.append d.wal) records;
       Wal.sync d.wal;
       d.appended <- d.appended + List.length records
     with e ->
       (try Wal.truncate_back d.wal pos
        with Wal.Truncate_error _ ->
          (* the rolled-back record is still on the log, and a later
             synced commit would make it durable: stop writing until
             the probe chops it off *)
          d.pending_truncate <- Some pos;
          enter_degraded d "WAL rollback failed: a rejected record is still on the log");
       if is_enospc e then begin
         enter_degraded d "WAL commit failed: disk full";
         raise (Degraded_error { reason = "WAL commit failed: disk full" })
       end;
       raise e)
  | _ -> db.wal_pending <- []

(* ---- Checkpoint ---- *)

let checkpoint db =
  if db.batch <> None then engine_error "checkpoint: a batch is open";
  match db.durable with
  | None -> engine_error "checkpoint: database has no directory (open it with open_durable)"
  | Some d ->
    check_degraded d;
    let epoch' = d.epoch + 1 in
    let by_name name_of a b = String.compare (key (name_of a)) (key (name_of b)) in
    let tables =
      Catalog.all_tables db.catalog
      |> List.sort (by_name (fun (t : Catalog.table) -> t.Catalog.table_name))
      |> List.map (fun (t : Catalog.table) ->
             {
               Checkpoint.t_name = t.Catalog.table_name;
               t_schema = t.Catalog.schema;
               t_rows = Relation.rows t.Catalog.rows;
             })
    in
    let index name table column kind =
      Pretty.statement
        (Ast.St_create_index { name; table; column; ordered = kind = Index.Ordered })
    in
    let index_ddl =
      (Catalog.all_tables db.catalog
      |> List.sort (by_name (fun (t : Catalog.table) -> t.Catalog.table_name))
      |> List.concat_map (fun (t : Catalog.table) ->
             t.Catalog.indexes
             |> List.sort (by_name (fun (i : Catalog.index_def) -> i.Catalog.index_name))
             |> List.map (fun (i : Catalog.index_def) ->
                    index i.Catalog.index_name t.Catalog.table_name i.Catalog.column
                      i.Catalog.kind)))
      @ (Hashtbl.fold (fun name vi acc -> (name, vi) :: acc) db.view_indexes []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (name, vi) -> index name vi.vi_view vi.vi_column vi.vi_kind))
    in
    let views =
      Catalog.all_views db.catalog
      |> List.map (fun (v : Catalog.view) ->
             {
               Checkpoint.v_name = v.Catalog.view_name;
               v_materialized = v.Catalog.materialized;
               v_sql = Pretty.query v.Catalog.definition;
               v_state =
                 (if not v.Catalog.materialized then `None
                  else
                    `Snap
                      {
                        Checkpoint.s_stale = v.Catalog.stale;
                        s_contents = v.Catalog.contents;
                        s_incremental =
                          is_incrementally_maintained db v.Catalog.view_name;
                      });
             })
    in
    let lsn = d.base_lsn + d.appended in
    (try Checkpoint.write ~dir:d.dir ~lsn ~epoch:epoch' ~tables ~index_ddl ~views
     with e when is_enospc e ->
       (* the tmp file is already removed; the old checkpoint + WAL are
          intact, but the disk is full: stop taking writes *)
       enter_degraded d "checkpoint failed: disk full";
       raise (Degraded_error { reason = "checkpoint failed: disk full" }));
    (* The snapshot is durable: install a fresh log for the new epoch.
       From here on a failure is dangerous, not just inconvenient —
       appending to the old-epoch log would be silently discarded at
       recovery (its epoch is behind the new checkpoint's).  Any
       failure therefore enters degraded mode carrying the pending
       install, which the space probe finishes before lifting it. *)
    (try
       Fault.hit site_install;
       let old = d.wal in
       let wal = Wal.create (wal_path d.dir) ~epoch:epoch' in
       (try Wal.close old with _ -> ());
       d.wal <- wal;
       d.epoch <- epoch';
       d.base_lsn <- lsn;
       d.appended <- 0
     with
     | Fault.Injected _ as e ->
       (* a bare armed [checkpoint.install] simulates a crash here; the
          harness closes and recovers, which handles the stale log *)
       raise e
     | e when recoverable_exn e ->
       let reason =
         Printf.sprintf "fresh WAL install failed after checkpoint: %s"
           (Printexc.to_string e)
       in
       enter_degraded d reason;
       d.pending_fresh <- Some (epoch', lsn);
       raise (Degraded_error { reason }))

(* A failed automatic checkpoint is degradation, not an error: the old
   checkpoint and the (longer) WAL still recover the same state. *)
let maybe_auto_checkpoint db =
  match db.durable with
  | Some d ->
    let by_count =
      match d.checkpoint_every with Some n -> d.appended >= n | None -> false
    in
    let by_bytes =
      (* accumulated WAL bytes, the compaction trigger: a handful of huge
         batch records should compact as eagerly as many small ones *)
      match d.checkpoint_bytes with
      | Some b -> d.appended > 0 && Wal.position d.wal >= b
      | None -> false
    in
    if by_count || by_bytes then
      (try checkpoint db with e when recoverable_exn e -> ())
  | None -> ()

(* The commit protocol of an outermost scope, a statement's or a
   batch's: run [f] with [u] as the scope's undo log, make its queued
   WAL records durable ([durable]), then close the scope ([leave]),
   commit the undo log, publish a version and maybe checkpoint.  On any
   exception nothing of the scope survives: its records are dropped and
   the undo log rolls back. *)
let commit_scope db u ~leave ~durable f =
  db.wal_pending <- [];
  match
    let result = f () in
    durable db;
    result
  with
  | result ->
    leave ();
    Undo.commit u;
    publish_version db;
    maybe_auto_checkpoint db;
    result
  | exception e ->
    leave ();
    db.wal_pending <- [];
    Undo.rollback u;
    (* rollback restored the state the head version captured *)
    db.mvcc.mv_dirty <- false;
    raise e

let with_undo db f =
  match db.undo, db.batch with
  | Some _, _ -> f () (* nested: join the enclosing statement *)
  | None, Some b ->
    (* inside a batch: the statement gets its own scope so it stays
       individually atomic, but on success the scope folds into the
       batch's log and the WAL records stay queued for the batch's
       group commit (no flush, no sync, no checkpoint here) *)
    let u = Undo.create () in
    db.undo <- Some u;
    let mark = db.wal_pending in
    (match f () with
     | result ->
       db.undo <- None;
       Undo.absorb b.b_undo u;
       result
     | exception e ->
       db.undo <- None;
       db.wal_pending <- mark;
       Undo.rollback u;
       raise e)
  | None, None ->
    let u = Undo.create () in
    db.undo <- Some u;
    commit_scope db u ~leave:(fun () -> db.undo <- None) ~durable:flush_wal f

(* Snapshot a table: its rows array plus the built caches of its
   secondary indexes. *)
let log_table db (tbl : Catalog.table) =
  mark_dirty db;
  let rows = tbl.Catalog.rows in
  let indexes = tbl.Catalog.indexes in
  let builts = List.map (fun (i : Catalog.index_def) -> (i, i.Catalog.built)) indexes in
  log_undo db (fun () ->
      tbl.Catalog.rows <- rows;
      tbl.Catalog.indexes <- indexes;
      List.iter (fun ((i : Catalog.index_def), b) -> i.Catalog.built <- b) builts)

(* The indexes declared on view [name], with their names. *)
let indexes_on db name =
  Hashtbl.fold
    (fun iname vi acc -> if key vi.vi_view = key name then (iname, vi) :: acc else acc)
    db.view_indexes []

(* Snapshot a materialized view: contents, quarantine flag, incremental
   maintenance state (its records copied: maintenance reassigns their
   fields but never writes into the row arrays, raw data or sequences
   they hold, so the copy shares those; derived-plan states are
   immutable, so their binding suffices) and index caches. *)
let log_view db (v : Catalog.view) =
  mark_dirty db;
  let contents = v.Catalog.contents in
  let stale = v.Catalog.stale in
  let state =
    Option.map Matview.copy_state
      (Hashtbl.find_opt db.view_states (key v.Catalog.view_name))
  in
  let derived = Hashtbl.find_opt db.derived_views (key v.Catalog.view_name) in
  let builts =
    List.map (fun (_, vi) -> (vi, vi.vi_built)) (indexes_on db v.Catalog.view_name)
  in
  log_undo db (fun () ->
      v.Catalog.contents <- contents;
      v.Catalog.stale <- stale;
      set_states db v.Catalog.view_name state derived;
      List.iter (fun (vi, b) -> vi.vi_built <- b) builts)

(* ---- The read path: one reader, two sources ----

   A query reads four things: base tables, materialized-view contents,
   plain-view definitions and indexes.  A [source] resolves them, and
   one reader (bind → window rewrite → optimize → verify → plan →
   execute) runs over either [live_source], the mutable catalog, or
   [version_source], one published version.  The two differ in exactly
   three deliberate ways:
   - the live source heals quarantined views in place, by the full
     refresh its caller passes in ([refresh_view_full]);
   - the version source heals into the version's memo and never writes
     back, so every snapshot of one LSN shares heals and built indexes;
   - only the live source runs the differential sanitizer hook: it
     executes against a process-global mutable hook and is not
     domain-safe. *)

type source = {
  src_cfg : config;
  src_table : string -> Relation.t option;
  src_matview : string -> Relation.t option; (* contents, healed if stale *)
  src_view : string -> Ast.query option; (* plain views only *)
  src_index : table:string -> column:string -> Index.t option;
  src_sanitize : bool;
}

let relation src name =
  match src.src_table name with
  | Some _ as r -> r
  | None -> src.src_matview name

let binder_of src : P.Binder.catalog =
  {
    P.Binder.resolve_table =
      (fun name -> Option.map Relation.schema (relation src name));
    resolve_view = src.src_view;
  }

let catalog_of src : P.Physical.catalog_view =
  {
    P.Physical.table_contents =
      (fun name ->
        match relation src name with
        | Some r -> r
        | None -> engine_error "unknown relation %s" name);
    table_index = src.src_index;
  }

let physical_opts (cfg : config) : P.Physical.options =
  {
    P.Physical.window_strategy = cfg.window_strategy;
    enable_hash_join = cfg.hash_join;
    enable_index_join = cfg.index_join;
  }

(* Check and plan a logical plan: the tail of every query, and the
   whole pipeline of a derived-maintenance sub-plan. *)
let plan_logical src ~context logical =
  if Verify.enabled () then Verify.check_plan ~context logical;
  let cat = catalog_of src in
  (* differential sanitizer (no-op unless Sanitize.enable installed it);
     its sub-plan executions must not consume injected-fault budget *)
  if src.src_sanitize then
    Fault.with_suspended (fun () -> P.Hooks.sanitize ~catalog:cat logical);
  P.Physical.plan ~opts:(physical_opts src.src_cfg) cat logical

(* The bound plan, the rewritten and optimized plan, and its physical
   plan (EXPLAIN prints all three). *)
let plan_source src (q : Ast.query) =
  let bound = P.Binder.bind_query (binder_of src) q in
  if Verify.enabled () then Verify.check_plan ~context:"bound plan" bound;
  let optimized =
    P.Optimize.optimize
      (match src.src_cfg.window_mode with
       | `Native -> bound
       | `Self_join -> P.Rewrite.window_to_self_join bound)
  in
  (bound, optimized, plan_logical src ~context:"optimized plan" optimized)

let run_source src (q : Ast.query) : Relation.t =
  let _, _, physical = plan_source src q in
  P.Physical.execute (catalog_of src) physical

(* An index of [kind] over [r]'s rows, keyed on [column] if it exists. *)
let index_on kind r column =
  Option.map
    (fun ci -> Index.build kind r ~key_col:ci)
    (Schema.find_opt (Relation.schema r) column)

let view_contents db ~heal name =
  match Catalog.find_view db.catalog name with
  | Some v when v.Catalog.materialized ->
    (* quarantined views heal on first read *)
    if v.Catalog.stale then heal v;
    (match v.Catalog.contents with
     | Some r -> Some r
     | None -> engine_error "materialized view %s has no contents" name)
  | _ -> None

let view_index db ~heal ~view ~column =
  match
    List.find_opt (fun (_, vi) -> key vi.vi_column = key column) (indexes_on db view)
  with
  | None -> None
  | Some (_, { vi_built = Some b; _ }) -> Some b
  | Some (_, vi) ->
    let b =
      Option.bind (view_contents db ~heal view) (fun r -> index_on vi.vi_kind r column)
    in
    vi.vi_built <- b;
    b

let live_source db ~heal =
  {
    src_cfg = db.cfg;
    src_table =
      (fun name ->
        Option.map Catalog.table_relation (Catalog.find_table db.catalog name));
    src_matview = view_contents db ~heal;
    src_view =
      (fun name ->
        match Catalog.find_view db.catalog name with
        | Some v when not v.Catalog.materialized -> Some v.Catalog.definition
        | _ -> None);
    src_index =
      (fun ~table ~column ->
        match Catalog.table_index db.catalog ~table ~column with
        | Some idx -> Some idx
        | None -> view_index db ~heal ~view:table ~column);
    src_sanitize = true;
  }

let rec version_source v =
  (* compute outside the lock (heals nest); racing domains compute
     equal values, first one in wins *)
  let memo tbl k compute =
    match Mutex.protect v.v_mu (fun () -> Hashtbl.find_opt tbl k) with
    | Some x -> x
    | None ->
      let x = compute () in
      Mutex.protect v.v_mu (fun () ->
          match Hashtbl.find_opt tbl k with
          | Some x' -> x'
          | None ->
            Hashtbl.replace tbl k x;
            x)
  in
  let find_table name =
    List.find_opt (fun vt -> key vt.vt_name = key name) v.v_tables
  in
  let find_view name =
    List.find_opt (fun vv -> key vv.vv_name = key name) v.v_views
  in
  let table_rel vt = vt.vt_rows in
  let matview name =
    match find_view name with
    | Some vv when vv.vv_materialized ->
      if vv.vv_stale then
        Some
          (memo v.v_heal (key name) (fun () ->
               Relation.store (run_source (version_source v) vv.vv_definition)))
      else (
        match vv.vv_contents with
        | Some r -> Some r
        | None -> engine_error "materialized view %s has no contents" name)
    | _ -> None
  in
  {
    src_cfg = v.v_cfg;
    src_table = (fun name -> Option.map table_rel (find_table name));
    src_matview = matview;
    src_view =
      (fun name ->
        match find_view name with
        | Some vv when not vv.vv_materialized -> Some vv.vv_definition
        | _ -> None);
    (* build on demand the index the live path would have: one declared
       on a frozen table, or a view index over the frozen contents *)
    src_index =
      (fun ~table ~column ->
        memo v.v_index_memo (key table ^ "\t" ^ key column) (fun () ->
            match find_table table with
            | Some vt ->
              (match
                 List.find_opt (fun (col, _) -> key col = key column) vt.vt_indexes
               with
               | Some (_, kind) -> index_on kind (table_rel vt) column
               | None -> None)
            | None ->
              (match
                 List.find_opt
                   (fun (view, col, _) -> key view = key table && key col = key column)
                   v.v_view_indexes
               with
               | Some (_, _, kind) ->
                 Option.bind (matview table) (fun r -> index_on kind r column)
               | None -> None)));
    src_sanitize = false;
  }

let invalidate_view_indexes db name =
  List.iter (fun (_, vi) -> vi.vi_built <- None) (indexes_on db name)

(* ---- View maintenance ---- *)

(* Attempt to install a derived delta-plan maintenance state for a view
   the sequence machinery does not cover (generalized IVM).  The
   derivation must succeed AND its independent incrementality
   certificate (Ivmcert) must be valid — the engine never trusts one
   without the other.  Under the self-join window mode a windowed plan
   is not installed: the rewritten refresh path and the native
   partition recompute could disagree bit-wise.  A plan that reads a
   materialized view is not installed either: no delta names a view,
   so the plan would never run (the maintenance walk refreshes such a
   view in full).  Returns whether a state was installed. *)
let try_derive db src (v : Catalog.view) =
  match
    let logical = P.Binder.bind_query (binder_of src) v.Catalog.definition in
    match P.Deriv.derive logical with
    | Error _ -> None
    | Ok rules ->
      if
        List.exists (fun s -> Catalog.find_view db.catalog s <> None) (P.Deriv.sources rules)
        || (not
              (Rfview_analysis.Ivmcert.valid
                 (Rfview_analysis.Ivmcert.certify ~view:v.Catalog.view_name logical)))
        || (P.Deriv.has_window rules && db.cfg.window_mode = `Self_join)
      then None
      else Some (Matview.Derived.make rules)
  with
  | Some der ->
    Hashtbl.replace db.derived_views (key v.Catalog.view_name) der;
    true
  | None -> false
  | exception e when recoverable_exn e -> false

(* A §2.3 sequence state over the current rows of a sequence view's
   base table; [None] when the machinery cannot hold them. *)
let seq_state db (v : Catalog.view) ~out_schema =
  Option.bind v.Catalog.scan (fun { Catalog.sc_seq = spec; _ } ->
      Option.bind (Catalog.find_table db.catalog spec.Matview.source) (fun tbl ->
          try Some (Matview.init_state spec ~base:tbl.Catalog.rows ~out_schema)
          with Matview.Not_maintainable _ -> None))

(* Recompute a materialized view and (re)install its incremental
   state.  The recomputation reads through the live source, whose heal
   is this same refresh: a quarantined view the definition reads is
   refreshed first. *)
let rec refresh_view_full db (v : Catalog.view) =
  Fault.hit site_refresh;
  log_view db v;
  let src = live db in
  let contents = Relation.store (run_source src v.Catalog.definition) in
  v.Catalog.contents <- Some contents;
  v.Catalog.stale <- false;
  invalidate_view_indexes db v.Catalog.view_name;
  (* (re)try to establish an incremental state: the §2.3 sequence
     machinery first, the derived delta plans for everything else *)
  set_states db v.Catalog.view_name None None;
  match seq_state db v ~out_schema:(Relation.schema contents) with
  | Some state ->
    let rendered = Matview.render state in
    (* translation validation of the derivation rewrite: the
       incremental core representation must reproduce the view
       contents the full recomputation just produced *)
    Verify.check_view_maintenance ~view:v.Catalog.view_name
      ~context:"the incremental sequence state" ~incremental:rendered
      ~recomputed:contents;
    (* serve the state's rendering, so a refresh and incremental
       maintenance leave the same physical row order behind — wide
       deltas fall back to this path *)
    v.Catalog.contents <- Some rendered;
    Hashtbl.replace db.view_states (key v.Catalog.view_name) state
  | None -> ignore (try_derive db src v)

(* The live source.  Maintenance reads through it directly; a public
   read flushes the open batch's delta first ([run_query] below). *)
and live db = live_source db ~heal:(refresh_view_full db)

(* Quarantine a view whose maintenance faulted mid statement: drop the
   (possibly half-applied) incremental state and mark the contents
   stale; the next read triggers a full refresh.  The base-table change
   stands — a quarantined view is late, never wrong. *)
let quarantine_view db (v : Catalog.view) =
  mark_dirty db;
  set_states db v.Catalog.view_name None None;
  v.Catalog.stale <- true;
  invalidate_view_indexes db v.Catalog.view_name

(* ---- Scan sharing ----

   Sequence views over the same base table whose live states agree on
   the resolved (partition columns, order column) scan key keep
   bit-identical ordered base structure, so one shared partition
   iterator can drive them all — the redundant re-scan that
   [Rfview_analysis.Share] flags as RF401.  Exactly like [try_derive],
   the mechanism is certificate-gated: the catalog groups the views by
   scan key and numbers their static sharing certificates once, at DDL
   time; a group's live members (fresh, not derived, with a state)
   form one class when they all carry the same certificate class.
   Every other live member, and every member when [share_scans] is
   off, is a class of one. *)
let live_classes db group =
  let live =
    List.filter_map
      (fun ((v : Catalog.view), cert) ->
        let k = key v.Catalog.view_name in
        if v.Catalog.stale || Hashtbl.mem db.derived_views k then None
        else Option.map (fun st -> (cert, (v, st))) (Hashtbl.find_opt db.view_states k))
      group
  in
  match live with
  | (Some c, _) :: rest
    when db.cfg.share_scans && List.for_all (fun (c', _) -> c' = Some c) rest ->
    [ List.map snd live ]
  | _ -> List.map (fun (_, m) -> [ m ]) live

(* Maintain one view: under [`Quarantine] a recoverable failure
   quarantines the view instead of failing the change set. *)
let maintain_view db (v : Catalog.view) step =
  match
    Fault.hit site_propagate;
    log_view db v;
    step ()
  with
  | () -> ()
  | exception e when db.cfg.degradation = `Quarantine && recoverable_exn e ->
    quarantine_view db v

(* ---- Derived delta-plan maintenance ----

   Views under Planner.Deriv maintenance are updated once per change
   set, against the *full* consolidated delta: the join rule's cross
   term couples the per-table deltas, so per-table propagation would be
   wrong for multi-table views.  The evaluation environment routes
   sub-plan evaluation through the standard physical pipeline (checked
   and sanitized like any query plan) and reads deltas out of the
   consolidated batch delta. *)

let signed_of_td (td : Delta.table_delta) : (Row.t * int) list =
  List.map (fun r -> (r, 1)) td.Delta.inserted
  @ List.map (fun r -> (r, -1)) td.Delta.deleted
  @ List.concat_map (fun (o, n) -> [ (o, -1); (n, 1) ]) td.Delta.updated

let deriv_env db (d : Delta.t) : P.Deriv.env =
  {
    P.Deriv.delta_of =
      (fun table ->
        match Delta.find d table with
        | None -> []
        | Some td -> signed_of_td td);
    eval =
      (fun logical ->
        let src = live db in
        P.Physical.execute (catalog_of src)
          (plan_logical src ~context:"derived maintenance sub-plan" logical));
    window_strategy = db.cfg.window_strategy;
  }

(* A derived view against the whole change set: a delta at least as
   wide as its sources gains nothing over recomputation, so it takes the
   refresh path. *)
let apply_derived db (d : Delta.t) (v : Catalog.view) der =
  let sum f = List.fold_left (fun acc t -> acc + Option.fold ~none:0 ~some:f t) 0 in
  let sources = Matview.Derived.sources der in
  let weight = sum Delta.weight (List.map (Delta.find d) sources) in
  let size =
    sum
      (fun (tbl : Catalog.table) -> Relation.cardinality tbl.Catalog.rows)
      (List.map (Catalog.find_table db.catalog) sources)
  in
  match v.Catalog.contents with
  | Some contents when weight < size ->
    (match Matview.Derived.apply_batch der ~env:(deriv_env db d) ~contents with
     | contents' ->
       (* translation validation: the derived delta plan must agree with
          recomputing the definition *)
       if Verify.enabled () then
         Verify.check_view_maintenance ~view:v.Catalog.view_name
           ~context:"derived delta maintenance" ~incremental:contents'
           ~recomputed:(run_source (live db) v.Catalog.definition);
       v.Catalog.contents <- Some (Relation.store contents');
       invalidate_view_indexes db v.Catalog.view_name
     | exception P.Deriv.Divergence _ -> refresh_view_full db v)
  | _ -> refresh_view_full db v

(* A sequence view's share class and the class's merge plan with its
   table's delta, built once per class per change set and memoized
   under every member: a member quarantined mid-walk leaves the plan of
   the others alone.  [None]: a delta at least as wide as the
   (post-change) base table, or a plan stage that cannot merge — each
   member refreshes in full. *)
let class_plan db plans (d : Delta.t) (v : Catalog.view) state =
  match Hashtbl.find_opt plans (key v.Catalog.view_name) with
  | Some cp -> cp
  | None ->
    let table = state.Matview.spec.Matview.source in
    (* [v] is live, and a state implies a share candidate *)
    let members =
      Catalog.share_groups db.catalog ~table
      |> List.concat_map (live_classes db)
      |> List.find (List.exists (fun ((u : Catalog.view), _) -> u == v))
    in
    let plan =
      match Delta.find d table with
      | Some td
        when Delta.weight td
             < Relation.cardinality (Catalog.table db.catalog table).Catalog.rows -> (
        try
          Some
            ( Matview.shared_plan (List.map snd members) ~inserts:td.Delta.inserted
                ~deletes:td.Delta.deleted ~updates:td.Delta.updated,
              td )
        with Matview.Not_maintainable _ -> None)
      | _ -> None
    in
    List.iter
      (fun ((u : Catalog.view), _) ->
        Hashtbl.replace plans (key u.Catalog.view_name) (members, plan))
      members;
    (members, plan)

(* Replay a class plan into one member; no plan, a full refresh. *)
let apply_plan db (v : Catalog.view) state (members, plan) =
  match plan with
  | None -> refresh_view_full db v
  | Some (plan, (td : Delta.table_delta)) -> (
    try
      let solo =
        if Verify.enabled () && List.length members > 1 then
          Some (Matview.copy_state state)
        else None
      in
      Matview.apply_shared plan state;
      let rendered = Matview.render state in
      (match solo with
       | Some s ->
         (* differential validation: the shared scan must land
            bit-identically where the member's own scan lands *)
         Matview.apply_batch s ~inserts:td.Delta.inserted ~deletes:td.Delta.deleted
           ~updates:td.Delta.updated;
         P.Hooks.validate_shared_scan ~view:v.Catalog.view_name ~shared:rendered
           ~per_view:(Matview.render s)
       | None -> ());
      (* translation validation: incremental maintenance must agree with
         recomputing the view definition *)
      if Verify.enabled () then
        Verify.check_view_maintenance ~view:v.Catalog.view_name
          ~context:"incremental sequence maintenance" ~incremental:rendered
          ~recomputed:(run_source (live db) v.Catalog.definition);
      v.Catalog.contents <- Some rendered;
      invalidate_view_indexes db v.Catalog.view_name
    with Matview.Not_maintainable _ -> refresh_view_full db v)

(* ---- The maintenance walk ----

   One change set maintains its views in one walk over the catalog's
   maintenance order (inputs before readers).  A view is due when one
   of its resolved inputs changed: a table the delta names, or a view
   due earlier in the walk.  A due view maintains by its share class's
   plan (a sequence view), by its derived delta plan against the whole
   consolidated delta (per-table propagation would double-count the
   dA |x| dB cross term of a join), or else by a full refresh — the
   path of every view that reads a view, since no delta names one.  A
   quarantined view is skipped but still counts as changed: its
   readers refresh, and reading it heals it first. *)
let propagate_delta db (d : Delta.t) =
  let changed = Hashtbl.create 8 in
  List.iter
    (fun t -> if Delta.find d t <> None then Hashtbl.replace changed t ())
    (Delta.tables d);
  let plans = Hashtbl.create 4 in
  List.iter
    (fun ((v : Catalog.view), upstream) ->
      let k = key v.Catalog.view_name in
      if List.exists (Hashtbl.mem changed) upstream then begin
        Hashtbl.replace changed k ();
        if not v.Catalog.stale then
          match
            Hashtbl.find_opt db.derived_views k, Hashtbl.find_opt db.view_states k
          with
          | Some der, _ -> maintain_view db v (fun () -> apply_derived db d v der)
          | None, Some state ->
            let cp = class_plan db plans d v state in
            maintain_view db v (fun () -> apply_plan db v state cp)
          | None, None -> maintain_view db v (fun () -> refresh_view_full db v)
      end)
    (Catalog.maintenance_order db.catalog)

(* ---- Batch scopes ----

   Inside [with_batch] the DML apply functions record their change into
   the batch's delta instead of propagating immediately; [flush_delta]
   consolidates and propagates once per dependent view (and runs early
   whenever a public read or a DDL statement needs fresh views
   mid-batch).  The batch's WAL records are framed as one [Wal.Batch]
   record and fsynced once — the group commit. *)

(* Record one statement's change ([record] adds it to a delta): into
   the open batch's delta, or as a delta of its own propagated at once.
   Either way the views see the same consolidated delta shape, and a
   statement that matched nothing records nothing. *)
let record_or_propagate db record =
  match db.batch with
  | Some b ->
    let d = b.b_delta in
    log_undo db (fun () -> b.b_delta <- d);
    b.b_delta <- record d
  | None -> propagate_delta db (record Delta.empty)

(* Propagate the open batch's delta.  Mid-statement it joins the
   statement's scope; between statements it is a statement of its own
   within the batch ([with_undo]), so a failure restores the delta. *)
let flush_delta db =
  match db.batch with
  | Some b when not (Delta.is_empty b.b_delta) ->
    with_undo db (fun () ->
        let d = b.b_delta in
        log_undo db (fun () -> b.b_delta <- d);
        b.b_delta <- Delta.empty;
        propagate_delta db d)
  | _ -> ()

let commit_batch db =
  flush_delta db;
  (match db.wal_pending with
   | [] | [ _ ] -> () (* zero/one record: keep the unwrapped framing *)
   | records -> db.wal_pending <- [ Wal.Batch (List.rev records) ]);
  flush_wal db

let with_batch db f =
  match db.batch, db.undo with
  | Some _, _ | _, Some _ -> f () (* nested or mid-statement: join *)
  | None, None ->
    let b = { b_delta = Delta.empty; b_undo = Undo.create () } in
    db.batch <- Some b;
    commit_scope db b.b_undo ~leave:(fun () -> db.batch <- None) ~durable:commit_batch f

(* ---- Public live reads ----

   A public read flushes the open batch's delta first, so it sees every
   write of the batch.  Maintenance never needs to: it reads through
   [live] while it propagates a delta, and [flush_delta] empties the
   batch's delta before propagating it. *)

let run_query db (q : Ast.query) : Relation.t =
  flush_delta db;
  run_source (live db) q

let plan_query db (q : Ast.query) : P.Physical.t =
  flush_delta db;
  let _, _, physical = plan_source (live db) q in
  physical

let binder_catalog db =
  flush_delta db;
  binder_of (live db)

let catalog_view db =
  flush_delta db;
  catalog_of (live db)

(* ---- DML ---- *)

let const_scalar (e : Ast.expr) : Value.t =
  let bound = P.Binder.bind_scalar (Schema.make []) e in
  Expr.eval [||] bound

(* Coerce a value to a column's declared type where a lossless conversion
   exists (integer literals into FLOAT columns, ISO strings into DATE
   columns, ...); incompatible values are rejected. *)
let coerce_value ty (v : Value.t) : Value.t =
  match ty, v with
  | _, Value.Null -> Value.Null
  | Dtype.Float, Value.Int i -> Value.Float (float_of_int i)
  | Dtype.Int, Value.Float f when Float.is_integer f -> Value.Int (int_of_float f)
  | Dtype.Date, Value.String s ->
    (match Value.parse_date s with
     | Some d -> Value.Date d
     | None -> engine_error "invalid date value '%s'" s)
  | Dtype.Int, Value.Int _
  | Dtype.Float, Value.Float _
  | Dtype.Bool, Value.Bool _
  | Dtype.String, Value.String _
  | Dtype.Date, Value.Date _ -> v
  | ty, v ->
    engine_error "value %s is not compatible with type %s" (Value.to_string v)
      (Dtype.to_string ty)

(* Apply an insert delta: shared by [exec_insert] and WAL replay, so a
   replayed statement takes exactly the committed statement's path. *)
let insert_rows db ~table (new_rows : Row.t list) =
  let tbl = Catalog.table db.catalog table in
  log_table db tbl;
  Catalog.set_rows tbl (Relation.append_rows tbl.Catalog.rows (Array.of_list new_rows));
  Fault.hit site_apply_insert;
  wal_log db (Wal.Insert { table; rows = Array.of_list new_rows });
  record_or_propagate db (fun d -> Delta.insert d ~table new_rows)

let exec_insert db ~table ~columns ~rows =
  let tbl = Catalog.table db.catalog table in
  let schema = tbl.Catalog.schema in
  let arity = Schema.arity schema in
  let col_positions =
    if columns = [] then List.init arity Fun.id
    else
      List.map
        (fun c ->
          match Schema.find_opt schema c with
          | Some i -> i
          | None -> engine_error "table %s has no column %s" table c)
        columns
  in
  let new_rows =
    List.map
      (fun exprs ->
        if List.length exprs <> List.length col_positions then
          engine_error "INSERT arity mismatch for table %s" table;
        let row = Array.make arity Value.Null in
        List.iter2
          (fun pos e ->
            row.(pos) <- coerce_value (Schema.col schema pos).Schema.ty (const_scalar e))
          col_positions exprs;
        row)
      rows
  in
  insert_rows db ~table new_rows;
  Done (Printf.sprintf "INSERT %d" (List.length new_rows))

(* Shared apply steps for update/delete deltas (statement path and WAL
   replay).  [rows]/[kept] is the table's full new contents, sharing
   every chunk the change left alone; [pairs]/[deleted] the delta that
   maintains dependent views and the log. *)
let update_rows db ~table ~rows ~pairs =
  let tbl = Catalog.table db.catalog table in
  log_table db tbl;
  Catalog.set_rows tbl rows;
  Fault.hit site_apply_update;
  wal_log db (Wal.Update { table; pairs = Array.of_list pairs });
  record_or_propagate db (fun d -> Delta.update d ~table pairs)

let delete_rows db ~table ~kept ~deleted =
  let tbl = Catalog.table db.catalog table in
  log_table db tbl;
  Catalog.set_rows tbl kept;
  Fault.hit site_apply_delete;
  wal_log db (Wal.Delete { table; rows = Array.of_list deleted });
  record_or_propagate db (fun d -> Delta.delete d ~table deleted)

(* Chunk rewrites for [Relation.edit], [None] when they change
   nothing.  [without doomed] drops the rows [doomed] picks, in order;
   [rewriting f] replaces each row [f] maps to [Some row'], in order,
   in a copy of the chunk. *)
let without doomed chunk =
  let kept = ref [] and hit = ref false in
  Array.iter (fun row -> if doomed row then hit := true else kept := row :: !kept) chunk;
  if !hit then Some (Array.of_list (List.rev !kept)) else None

let rewriting f chunk =
  let copy = ref None in
  Array.iteri
    (fun i row ->
      match f row with
      | Some row' ->
        let c = match !copy with Some c -> c | None -> Array.copy chunk in
        c.(i) <- row';
        copy := Some c
      | None -> ())
    chunk;
  !copy

let exec_update db ~table ~assignments ~where =
  let tbl = Catalog.table db.catalog table in
  let schema = tbl.Catalog.schema in
  let pred =
    match where with
    | None -> Expr.Const (Value.Bool true)
    | Some w -> P.Binder.bind_scalar schema w
  in
  let assigns =
    List.map
      (fun (c, e) ->
        match Schema.find_opt schema c with
        | Some i ->
          (i, (Schema.col schema i).Schema.ty, Expr.compile (P.Binder.bind_scalar schema e))
        | None -> engine_error "table %s has no column %s" table c)
      assignments
  in
  let holds = Expr.compile_pred pred in
  let pairs = ref [] in
  (* [WHERE] runs only on the chunks its zones admit, and only the
     chunks holding a matched row are copied *)
  let rows =
    Relation.edit tbl.Catalog.rows ~admit:[ Expr.int_ranges pred ]
      (rewriting (fun row ->
           if holds row then begin
             let fresh = Array.copy row in
             List.iter (fun (i, ty, f) -> fresh.(i) <- coerce_value ty (f row)) assigns;
             pairs := (row, fresh) :: !pairs;
             Some fresh
           end
           else None))
  in
  update_rows db ~table ~rows ~pairs:(List.rev !pairs);
  Done (Printf.sprintf "UPDATE %d" (List.length !pairs))

let exec_delete db ~table ~where =
  let tbl = Catalog.table db.catalog table in
  let schema = tbl.Catalog.schema in
  let pred =
    match where with
    | None -> Expr.Const (Value.Bool true)
    | Some w -> P.Binder.bind_scalar schema w
  in
  let holds = Expr.compile_pred pred in
  let deleted = ref [] and ndeleted = ref 0 in
  (* as for UPDATE: only admitted chunks are read, only hit ones copied *)
  let kept =
    Relation.edit tbl.Catalog.rows ~admit:[ Expr.int_ranges pred ]
      (without (fun row ->
           let hit = holds row in
           if hit then begin
             deleted := row :: !deleted;
             incr ndeleted
           end;
           hit))
  in
  delete_rows db ~table ~kept ~deleted:(List.rev !deleted);
  Done (Printf.sprintf "DELETE %d" !ndeleted)

(* ---- Statements ---- *)

(* Execute one statement inside the enclosing undo scope; the public
   [exec_statement] below brackets this with [with_undo], so every entry
   is all-or-nothing. *)
let rec exec_statement_in_scope db (stmt : Ast.statement) : result =
  (* reads, and DDL that creates, refreshes or drops relations, must
     observe views consistent with every earlier statement of the batch *)
  (match stmt with
   | Ast.St_query _ | Ast.St_explain _ | Ast.St_explain_analyze _
   | Ast.St_create_view _ | Ast.St_refresh_view _ | Ast.St_drop_table _
   | Ast.St_drop_view _ -> flush_delta db
   | _ -> ());
  let result =
    match stmt with
  | Ast.St_query q -> Relation (run_source (live db) q)
  | Ast.St_create_table { name; columns } ->
    let schema =
      Schema.make
        (List.map (fun c -> Schema.column c.Ast.col_name c.Ast.col_type) columns)
    in
    let _ = Catalog.create_table db.catalog ~name ~schema in
    mark_dirty db;
    log_undo db (fun () -> Catalog.forget_table db.catalog name);
    Done (Printf.sprintf "CREATE TABLE %s" name)
  | Ast.St_create_index { name; table; column; ordered } ->
    let kind = if ordered then Index.Ordered else Index.Hash in
    (match Catalog.find_table db.catalog table with
     | Some tbl ->
       log_table db tbl;
       Catalog.create_index db.catalog ~name ~table ~column ~kind
     | None when Catalog.find_view db.catalog table <> None ->
       if Hashtbl.mem db.view_indexes (key name) then
         engine_error "index %s already exists" name;
       Hashtbl.replace db.view_indexes (key name)
         { vi_view = table; vi_column = column; vi_kind = kind; vi_built = None };
       mark_dirty db;
       log_undo db (fun () -> Hashtbl.remove db.view_indexes (key name))
     | None -> engine_error "unknown relation %s" table);
    Done (Printf.sprintf "CREATE INDEX %s" name)
  | Ast.St_create_view { name; materialized; query } ->
    (* a plain view binds here, a materialized one in its refresh below:
       no view can name a relation that does not exist *)
    if not materialized then
      ignore (P.Binder.bind_query (binder_of (live db)) query);
    let v = Catalog.create_view db.catalog ~name ~materialized ~definition:query in
    mark_dirty db;
    log_undo db (fun () ->
        Catalog.forget_view db.catalog name;
        set_states db name None None);
    if materialized then refresh_view_full db v;
    Done (Printf.sprintf "CREATE %sVIEW %s" (if materialized then "MATERIALIZED " else "") name)
  | Ast.St_insert { table; columns; rows } -> exec_insert db ~table ~columns ~rows
  | Ast.St_update { table; assignments; where } -> exec_update db ~table ~assignments ~where
  | Ast.St_delete { table; where } -> exec_delete db ~table ~where
  | Ast.St_drop_table { name; if_exists } ->
    let dropped = Catalog.find_table db.catalog name in
    Catalog.drop_table db.catalog ~name ~if_exists;
    Option.iter (fun t -> log_undo db (fun () -> Catalog.restore_table db.catalog t)) dropped;
    mark_dirty db;
    Done (Printf.sprintf "DROP TABLE %s" name)
  | Ast.St_drop_view { name; if_exists } ->
    let dropped = Catalog.find_view db.catalog name in
    Catalog.drop_view db.catalog ~name ~if_exists;
    Option.iter
      (fun v ->
        let state = Hashtbl.find_opt db.view_states (key name) in
        let derived = Hashtbl.find_opt db.derived_views (key name) in
        let indexes = indexes_on db name in
        set_states db name None None;
        List.iter (fun (iname, _) -> Hashtbl.remove db.view_indexes iname) indexes;
        log_undo db (fun () ->
            Catalog.restore_view db.catalog v;
            set_states db name state derived;
            List.iter (fun (i, vi) -> Hashtbl.replace db.view_indexes i vi) indexes))
      dropped;
    mark_dirty db;
    Done (Printf.sprintf "DROP VIEW %s" name)
  | Ast.St_refresh_view name ->
    refresh_view_full db (Catalog.view db.catalog name);
    Done (Printf.sprintf "REFRESH %s" name)
  | Ast.St_explain inner ->
    (match inner with
     | Ast.St_query q ->
       let bound, optimized, physical = plan_source (live db) q in
       Done
         (Printf.sprintf "== logical ==\n%s== optimized ==\n%s== physical ==\n%s"
            (P.Logical.to_string bound)
            (P.Logical.to_string optimized)
            (P.Physical.to_string physical))
     | other -> exec_statement_in_scope db other)
  | Ast.St_explain_analyze inner ->
    (match inner with
     | Ast.St_query q ->
       let src = live db in
       let _, _, physical = plan_source src q in
       let _result, profile = P.Physical.execute_analyze (catalog_of src) physical in
       Done (P.Physical.render_profile profile)
     | other -> exec_statement_in_scope db other)
  in
  (* DDL/REFRESH reaches the log as SQL text; DML already queued its row
     deltas on the apply path (an EXPLAIN'd statement logs as itself via
     the recursive call — the EXPLAIN wrapper matches nothing here). *)
  wal_log_stmt db stmt;
  result

(* Every statement is atomic: on any exception the undo log restores
   tables, view contents, view states and index caches to the
   pre-statement snapshot before re-raising. *)
let exec_statement db stmt = with_undo db (fun () -> exec_statement_in_scope db stmt)

(* Bulk-load rows into a table, bypassing the SQL layer (used by the
   benchmark harness, CSV import and the workload generators).  The load
   is its own batch: dependent views are maintained once through the
   delta path (with the usual full-refresh fallback when the load is at
   least as wide as the table).  Atomic like a statement: a failed
   maintenance rolls the load back. *)
let load_table db ~table rows =
  with_batch db (fun () ->
      with_undo db (fun () ->
          let tbl = Catalog.table db.catalog table in
          log_table db tbl;
          Catalog.set_rows tbl (Relation.append_rows tbl.Catalog.rows rows);
          wal_log db (Wal.Load { table; rows });
          record_or_propagate db (fun d ->
              Delta.insert d ~table (Array.to_list rows))))

(* ---- Entry points ---- *)

let exec db (sql : string) : result = exec_statement db (Parser.statement sql)

(* A script runs as one batch: statements stay individually atomic, the
   first failure stops the script (later statements never run), and the
   batch still commits what succeeded before re-raising — matching the
   per-statement semantics scripts always had, at one group commit. *)
let exec_script db (sql : string) : result list =
  let stmts = Parser.statements sql in
  let results = ref [] in
  let failure = ref None in
  with_batch db (fun () ->
      List.iteri
        (fun i stmt ->
          if Option.is_none !failure then
            match exec_statement db stmt with
            | r -> results := r :: !results
            | exception cause ->
              failure :=
                Some
                  (Script_error
                     { index = i + 1; sql = Pretty.statement stmt; cause }))
        stmts);
  match !failure with
  | Some e -> raise e
  | None -> List.rev !results

let query db (sql : string) : Relation.t =
  match exec db sql with
  | Relation r -> r
  | Done msg -> engine_error "expected a query, got: %s" msg

let explain db (sql : string) : string =
  match exec_statement db (Ast.St_explain (Parser.statement sql)) with
  | Done s -> s
  | Relation _ -> assert false

(* Is the view maintained by a derived delta plan (generalized IVM)? *)
let is_derived_maintained db name = Hashtbl.mem db.derived_views (key name)

(* The derived maintenance state, for introspection (CLI, tests). *)
let derived_state db name =
  flush_delta db;
  Hashtbl.find_opt db.derived_views (key name)

(* Is the view quarantined (pending a lazy full refresh)? *)
let is_stale db name =
  match Catalog.find_view db.catalog name with
  | Some v -> v.Catalog.stale
  | None -> false

(* In the catalog's (case-insensitive) name order. *)
let stale_views db =
  List.filter_map
    (fun (v : Catalog.view) -> if v.Catalog.stale then Some v.Catalog.view_name else None)
    (Catalog.all_views db.catalog)

let catalog db = db.catalog

let view_state db name =
  (* an open batch may hold unpropagated deltas; observing the state
     must reflect them *)
  flush_delta db;
  Hashtbl.find_opt db.view_states (key name)

(* The certified scan-share classes a batch delta against [table] would
   drive through one shared partition iterator — the cert-iff-runtime
   introspection surface for the CLI and the test matrix. *)
let share_classes db ~table =
  flush_delta db;
  Catalog.share_groups db.catalog ~table
  |> List.concat_map (live_classes db)
  |> List.filter (fun members -> List.length members > 1)
  |> List.map (List.map (fun ((v : Catalog.view), _) -> v.Catalog.view_name))
  |> List.sort (fun a b -> compare (key (List.hd a)) (key (List.hd b)))

(* ---- Durability: checkpoint, recovery, the database directory ----

   A durable database lives in a directory holding [checkpoint] (see
   Checkpoint) and [log.wal] (see Wal).  Opening recovers: restore the
   checkpoint, replay the WAL suffix, truncate a torn tail, attach the
   writer.  The epoch ties the two files together — a WAL whose epoch is
   below the checkpoint's is a stale log left by a crash between the
   checkpoint rename and the log reset, and is discarded (its records
   are already inside the checkpoint). *)

type recovery_report = {
  checkpoint_epoch : int option; (* [None]: no checkpoint existed *)
  replayed : int;                (* WAL records applied *)
  torn : bool;                   (* a torn tail was truncated *)
  quarantined : string list;     (* views restored stale (damaged state) *)
  swept : string list;           (* stale *.tmp files removed at open *)
}

let ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then recovery_error "%s: not a directory" dir
  end
  else
    try Sys.mkdir dir 0o755
    with Sys_error m -> recovery_error "cannot create %s: %s" dir m

(* ---- Replay ----

   DML records replay through the same apply functions the original
   statements used ([insert_rows]/[update_rows]/[delete_rows]), so view
   maintenance, fault sites and quarantine behave identically.  Deltas
   carry exact rows; pre-images are matched by value (first match), which
   is multiset-correct: rows equal by value are interchangeable. *)

(* The chunks a pre-image can lie in: its Int columns, as ranges for
   [Relation.edit]. *)
let pre_image_ranges (row : Row.t) =
  Array.to_list row
  |> List.mapi (fun j v -> match v with Value.Int k -> Some (j, k, k) | _ -> None)
  |> List.filter_map Fun.id

(* Each table row, in order, consumes the first pending entry whose
   pre-image ([image] of it) equals the row: the k-th row of a class of
   equal rows pairs with the k-th pre-image of that class, so the match
   is multiset-correct, and a row already rewritten is never matched
   again. *)
let take_first image pending row =
  let rec go acc = function
    | [] -> None
    | x :: rest when Row.equal (image x) row -> Some (x, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  match go [] !pending with
  | Some (x, rest) ->
    pending := rest;
    Some x
  | None -> None

let replay_delete db ~table rows =
  let tbl = Catalog.table db.catalog table in
  let pending = ref (Array.to_list rows) in
  let kept =
    Relation.edit tbl.Catalog.rows
      ~admit:(List.map pre_image_ranges !pending)
      (fun chunk ->
        if !pending = [] then None
        else without (fun row -> take_first Fun.id pending row <> None) chunk)
  in
  if !pending <> [] then engine_error "replay: DELETE pre-image missing from %s" table;
  delete_rows db ~table ~kept ~deleted:(Array.to_list rows)

let replay_update db ~table pairs =
  let tbl = Catalog.table db.catalog table in
  let pending = ref (Array.to_list pairs) in
  let rows =
    Relation.edit tbl.Catalog.rows
      ~admit:(List.map (fun (old_row, _) -> pre_image_ranges old_row) !pending)
      (fun chunk ->
        if !pending = [] then None
        else rewriting (fun row -> Option.map snd (take_first fst pending row)) chunk)
  in
  if !pending <> [] then engine_error "replay: UPDATE pre-image missing from %s" table;
  update_rows db ~table ~rows ~pairs:(Array.to_list pairs)

let rec replay_record db (record : Wal.record) =
  match record with
  | Wal.Begin _ -> ()
  | Wal.Statement sql -> ignore (exec db sql)
  | Wal.Insert { table; rows } ->
    ignore (with_undo db (fun () -> insert_rows db ~table (Array.to_list rows)))
  | Wal.Delete { table; rows } ->
    ignore (with_undo db (fun () -> replay_delete db ~table rows))
  | Wal.Update { table; pairs } ->
    ignore (with_undo db (fun () -> replay_update db ~table pairs))
  | Wal.Load { table; rows } -> load_table db ~table rows
  | Wal.Batch records ->
    (* a group-committed batch replays through the same batched delta
       path the original run used *)
    with_batch db (fun () -> List.iter (replay_record db) records)

(* ---- Recovery ---- *)

(* Rebuild a restored matview's incremental maintenance state from the
   restored base table, cross-checked against the restored contents; a
   view outside the sequence shape re-derives its delta plan instead
   (the CRC-validated contents stay authoritative either way).
   Returns false when no state could be established. *)
let rebuild_state db (view : Catalog.view) =
  match view.Catalog.scan, view.Catalog.contents with
  | Some _, Some contents ->
    (match seq_state db view ~out_schema:(Relation.schema contents) with
     | Some state ->
       let rendered = Matview.render state in
       Relation.equal_bag contents rendered
       && begin
         (* the state holds its rendering: when it is the restored
            contents row for row, serve it, so the two are not both
            resident *)
         if Relation.equal_ordered contents rendered then
           view.Catalog.contents <- Some rendered;
         Hashtbl.replace db.view_states (key view.Catalog.view_name) state;
         true
       end
     | _ -> false)
  | None, Some _ -> try_derive db (live db) view
  | _ -> false

(* Restore a checkpoint snapshot into a fresh database: tables, then
   views with their materialized state, then index DDL.  Returns the
   names of the views restored stale, sorted; shared by directory
   recovery and replica bootstrap (which restores from feed bytes). *)
let restore_snapshot_into db (snap : Checkpoint.snapshot) =
  let quarantined = ref [] in
  let quarantine ~already (v : Catalog.view) =
    if not already then v.Catalog.stale <- true;
    quarantined := v.Catalog.view_name :: !quarantined
  in
  List.iter
    (fun (t : Checkpoint.table_snap) ->
      let tbl =
        Catalog.create_table db.catalog ~name:t.Checkpoint.t_name
          ~schema:t.Checkpoint.t_schema
      in
      Catalog.set_rows tbl (Relation.of_array t.Checkpoint.t_schema t.Checkpoint.t_rows))
    snap.Checkpoint.tables;
  List.iter
    (fun (v : Checkpoint.view_entry) ->
      let definition =
        try Parser.query v.Checkpoint.v_sql
        with e ->
          recovery_error "checkpoint: view %s: unreadable definition (%s)"
            v.Checkpoint.v_name (Printexc.to_string e)
      in
      let view =
        Catalog.create_view db.catalog ~name:v.Checkpoint.v_name
          ~materialized:v.Checkpoint.v_materialized ~definition
      in
      if v.Checkpoint.v_materialized then
        match v.Checkpoint.v_state with
        | `Snap
            {
              Checkpoint.s_stale;
              s_contents = Some contents;
              s_incremental;
            } ->
          view.Catalog.contents <- Some (Relation.store contents);
          view.Catalog.stale <- s_stale;
          if s_stale then quarantine ~already:true view
          else if s_incremental then
            (* the CRC-validated contents are authoritative; when the
               rebuilt incremental state cannot be proven to reproduce
               them (e.g. float drift between incremental and from-
               scratch summation), serve the contents without a state —
               the next DML falls back to a full refresh *)
            ignore (rebuild_state db view)
        | `Snap { Checkpoint.s_contents = None; _ } | `Damaged | `None ->
          (* damaged or missing state: restore the definition only and
             let the first read heal it by full refresh *)
          quarantine ~already:false view)
    snap.Checkpoint.views;
  List.iter
    (fun ddl ->
      try ignore (exec db ddl)
      with e ->
        recovery_error "checkpoint: replaying %S: %s" ddl (Printexc.to_string e))
    snap.Checkpoint.index_ddl;
  List.sort_uniq String.compare !quarantined

let restore_snapshot ?config (snap : Checkpoint.snapshot) =
  let db = create ?config () in
  let quarantined = restore_snapshot_into db snap in
  reset_versions db;
  (db, quarantined)

(* A crash between writing [foo.tmp] and renaming it over [foo] leaves
   the temp file behind; nothing ever reads one (installs are
   rename-atomic), so sweep them at open instead of letting them
   accumulate forever. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> Filename.check_suffix e ".tmp")
    |> List.sort String.compare
    |> List.filter_map (fun e ->
           let path = Filename.concat dir e in
           if Sys.is_directory path then None
           else begin
             Io.remove path;
             Some path
           end)
  | exception Sys_error _ -> []

(* Attach a healthy WAL writer for [dir]. *)
let attach db ~dir ~wal ~epoch ~base_lsn ~appended =
  db.durable <-
    Some
      {
        dir;
        wal;
        epoch;
        base_lsn;
        appended;
        checkpoint_every = None;
        checkpoint_bytes = None;
        degraded = None;
        rejected = 0;
        probe_backoff = 1;
        probe_countdown = 1;
        pending_fresh = None;
        pending_truncate = None;
      }

let recover ?config dir =
  ensure_dir dir;
  let swept = sweep_tmp dir in
  let db = create ?config () in
  let snap =
    try Checkpoint.read ~dir with Checkpoint.Corrupt m -> recovery_error "%s" m
  in
  let quarantined =
    match snap with None -> [] | Some snap -> restore_snapshot_into db snap
  in
  let ckpt_epoch = match snap with None -> 0 | Some s -> s.Checkpoint.epoch in
  let ckpt_lsn = match snap with None -> 0 | Some s -> s.Checkpoint.lsn in
  let wpath = wal_path dir in
  let replayed = ref 0 in
  let torn = ref false in
  let need_fresh = ref true in
  if Sys.file_exists wpath then begin
    let scan = try Wal.scan wpath with Wal.Wal_error m -> recovery_error "%s" m in
    if scan.Wal.epoch < ckpt_epoch then
      (* stale log from before the checkpoint: everything in it is
         already inside the snapshot — discard, install a fresh log *)
      need_fresh := true
    else if scan.Wal.epoch > ckpt_epoch then
      recovery_error "%s: log epoch %d is ahead of checkpoint epoch %d" wpath
        scan.Wal.epoch ckpt_epoch
    else begin
      need_fresh := false;
      torn := scan.Wal.torn;
      List.iteri
        (fun i record ->
          try
            Fault.hit site_replay;
            replay_record db record
          with e ->
            recovery_error "%s: record %d (%s): %s" wpath (i + 1)
              (Wal.describe record) (Printexc.to_string e))
        scan.Wal.records;
      replayed := List.length scan.Wal.records;
      if scan.Wal.torn then begin
        try Wal.truncate wpath scan.Wal.valid_bytes
        with e ->
          recovery_error "%s: truncating torn tail: %s" wpath (Printexc.to_string e)
      end
    end
  end;
  let wal =
    if !need_fresh then Wal.create wpath ~epoch:ckpt_epoch else Wal.open_append wpath
  in
  attach db ~dir ~wal ~epoch:ckpt_epoch ~base_lsn:ckpt_lsn ~appended:!replayed;
  let report =
    {
      checkpoint_epoch = Option.map (fun (s : Checkpoint.snapshot) -> s.Checkpoint.epoch) snap;
      replayed = !replayed;
      torn = !torn;
      quarantined;
      swept;
    }
  in
  (* replay published versions under surrogate sequence numbers; now
     that the directory is attached, re-publish at the real LSN *)
  reset_versions db;
  (db, report)

let open_durable ?config dir = fst (recover ?config dir)

let set_checkpoint_every db n =
  match db.durable with
  | Some d -> d.checkpoint_every <- n
  | None -> ()

let set_checkpoint_bytes db n =
  match db.durable with
  | Some d -> d.checkpoint_bytes <- n
  | None -> ()

let durable_dir db = Option.map (fun d -> d.dir) db.durable

let epoch db = match db.durable with Some d -> d.epoch | None -> 0

(* ---- Replication support ----

   The log sequence number is the global count of top-level WAL records
   since the database was created; it survives checkpoints (the
   checkpoint header carries it) and orders every shipped record. *)

let lsn db =
  match db.durable with
  | Some d -> d.base_lsn + d.appended
  | None -> 0

let in_batch db = db.batch <> None

(* Replay one WAL record through the regular apply path.  Replicas call
   this on shipped records; with no [durable] attached nothing is
   re-logged, so application is pure state transition. *)
let apply_record db record = replay_record db record

(* A textual dump of the logical database state: table and view rows in
   sorted order, plus quarantine flags.  Two databases with equal
   fingerprints answer every query identically.  Rows are sorted before
   rendering because physical order is not logical state: a replica
   bootstrapped from a checkpoint may rebuild a view by full refresh
   where the primary maintained it incrementally — same bag of rows,
   different order.  Likewise excludes whether an *incremental
   maintenance state* is present at all. *)
let version_fingerprint v : string =
  let buf = Buffer.create 1024 in
  let render r = Buffer.add_string buf (Relation.render (Relation.sorted_by_all r)) in
  List.sort (fun a b -> compare a.vt_name b.vt_name) v.v_tables
  |> List.iter (fun vt ->
         Buffer.add_string buf (Printf.sprintf "table %s\n" vt.vt_name);
         render vt.vt_rows);
  List.sort (fun a b -> compare a.vv_name b.vv_name) v.v_views
  |> List.iter (fun vv ->
         Buffer.add_string buf
           (Printf.sprintf "view %s stale=%b\n" vv.vv_name vv.vv_stale);
         match vv.vv_contents with
         | Some r -> render r
         | None -> ());
  Buffer.contents buf

let fingerprint db = version_fingerprint (capture_version db ~lsn:0)

(* ---- MVCC snapshots ----

   A snapshot pins one published version.  Its queries run the shared
   reader over [version_source], so they can run on any domain while
   the single writer keeps committing. *)

type snapshot = {
  sn_db : t; (* release bookkeeping only: never read on the query path *)
  sn_version : version;
  mutable sn_released : bool; (* guarded by [sn_db.mvcc.mv_mu] *)
}

let check_open sn = if sn.sn_released then engine_error "snapshot is closed"

(* Pin the newest retained version satisfying [pick]; [Error tip] when
   none does. *)
let acquire db pick =
  let mv = db.mvcc in
  Mutex.protect mv.mv_mu (fun () ->
      match List.find_opt pick mv.mv_versions with
      | Some v ->
        v.v_refs <- v.v_refs + 1;
        Ok { sn_db = db; sn_version = v; sn_released = false }
      | None -> Error (match mv.mv_versions with [] -> 0 | v :: _ -> v.v_lsn))

let snapshot db =
  match acquire db (fun _ -> true) with
  | Ok sn -> sn
  | Error _ -> engine_error "no published version to snapshot" (* unreachable *)

let snapshot_at db ~lsn:want =
  Result.map_error
    (fun tip ->
      Staleness.
        { applied_lsn = want; tip_lsn = tip;
          lag = Staleness.lag ~applied_lsn:want ~tip_lsn:tip ~bytes:0 })
    (acquire db (fun v -> v.v_lsn = want))

let release db sn =
  let mv = db.mvcc in
  Mutex.protect mv.mv_mu (fun () ->
      if not sn.sn_released then begin
        sn.sn_released <- true;
        sn.sn_version.v_refs <- sn.sn_version.v_refs - 1;
        sweep_versions mv
      end)

let retained_lsns db =
  let mv = db.mvcc in
  Mutex.protect mv.mv_mu (fun () -> List.map (fun v -> v.v_lsn) mv.mv_versions)

let set_retain db n =
  if n < 1 then engine_error "set_retain: window must be at least 1";
  let mv = db.mvcc in
  Mutex.protect mv.mv_mu (fun () ->
      mv.mv_retain <- n;
      sweep_versions mv)

let open_snapshots db =
  let mv = db.mvcc in
  Mutex.protect mv.mv_mu (fun () ->
      List.fold_left (fun acc v -> acc + v.v_refs) 0 mv.mv_versions)

module Snapshot = struct
  type t = snapshot

  let lsn sn = sn.sn_version.v_lsn
  let released sn = sn.sn_released

  let run_query sn q =
    check_open sn;
    run_source (version_source sn.sn_version) q

  let query sn sql : Relation.t =
    check_open sn;
    match Parser.statement sql with
    | Ast.St_query q -> run_query sn q
    | stmt ->
      engine_error "snapshot is read-only: %s is not a query"
        (Pretty.statement stmt)

  let fingerprint sn : string =
    check_open sn;
    version_fingerprint sn.sn_version

  let close (sn : t) = release sn.sn_db sn
end

(* Promotion: turn an in-memory database (a replica's applied state)
   into a durable primary directory.  Writes a checkpoint carrying
   [lsn] — the replica's applied position — and installs a fresh WAL,
   so the promoted primary's log sequence continues where the shipped
   history ended. *)
let make_durable db ~dir ~lsn =
  if db.durable <> None then engine_error "make_durable: database is already durable";
  if db.batch <> None then engine_error "make_durable: a batch is open";
  ensure_dir dir;
  let wal = Wal.create (wal_path dir) ~epoch:0 in
  attach db ~dir ~wal ~epoch:0 ~base_lsn:lsn ~appended:0;
  (* reuse the regular checkpoint path: bumps to epoch 1, snapshots the
     whole catalog with the carried lsn, installs the epoch-1 log *)
  (try checkpoint db
   with e ->
     (match db.durable with
      | Some d -> (try Wal.close d.wal with _ -> ())
      | None -> ());
     db.durable <- None;
     raise e);
  (* versions published while in memory carry surrogate LSNs *)
  reset_versions db

let close db =
  match db.durable with
  | None -> ()
  | Some d ->
    (try Wal.close d.wal with _ -> ());
    db.durable <- None
