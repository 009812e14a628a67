(* Stable public façade: Config + Session over the engine. *)

module Relation = Rfview_relalg.Relation
module Db = Rfview_engine.Database
module Fault = Rfview_engine.Fault
module Lexer = Rfview_sql.Lexer
module Parser = Rfview_sql.Parser
module Pretty = Rfview_sql.Pretty
module Binder = Rfview_planner.Binder
module Rep = Rfview_replica.Replica
module Ship = Rfview_replica.Ship

module Staleness = struct
  type lag = Rfview_engine.Staleness.lag = { records : int; bytes : int }

  type violation = Rfview_engine.Staleness.violation = {
    applied_lsn : int;
    tip_lsn : int;
    lag : lag;
  }

  let describe = Rfview_engine.Staleness.describe
end

module Config = struct
  type window_mode = Db.window_mode

  type window_strategy = Rfview_relalg.Window.strategy =
    | Naive
    | Incremental

  type degradation = Db.degradation

  type t = Db.config = {
    window_mode : window_mode;
    window_strategy : window_strategy;
    hash_join : bool;
    index_join : bool;
    degradation : degradation;
    share_scans : bool;
  }

  let default = Db.default_config
end

module Session = struct
  type t = { db : Db.t; mutable report : Db.recovery_report option }

  type health = Db.health =
    | Healthy
    | Degraded of { reason : string; rejected_writes : int }

  type error =
    | Parse of string
    | Bind of string
    | Runtime of string
    | Quarantined of { views : string list; detail : string }
    | Recovery of string
    | Script of { index : int; sql : string; cause : error }
    | Stale of Staleness.violation
    | Degraded_mode of { reason : string }

  type result = Db.result =
    | Relation of Relation.t
    | Done of string

  type recovery_report = Db.recovery_report = {
    checkpoint_epoch : int option;
    replayed : int;
    torn : bool;
    quarantined : string list;
    swept : string list;
  }

  let rec describe_error = function
    | Parse m -> "parse error: " ^ m
    | Bind m -> "bind error: " ^ m
    | Runtime m -> m
    | Quarantined { views; detail } ->
      Printf.sprintf "%s (quarantined: %s)" detail (String.concat ", " views)
    | Recovery m -> "recovery failed: " ^ m
    | Script { index; sql; cause } ->
      Printf.sprintf "statement %d (%s): %s" index sql (describe_error cause)
    | Stale v -> Staleness.describe v
    | Degraded_mode { reason } ->
      Printf.sprintf "write rejected, session is degraded (read-only): %s" reason

  let describe_exn = function
    | Rfview_relalg.Value.Type_error m -> "type error: " ^ m
    | Fault.Injected site -> "injected fault at " ^ site
    | e -> Printexc.to_string e

  (* [fresh] = views quarantined by this very operation (present after,
     absent before): a runtime failure that left fresh quarantines is
     surfaced as [Quarantined]. *)
  let rec error_of_exn ~fresh exn =
    match exn with
    | Lexer.Lex_error (m, off) -> Parse (Printf.sprintf "%s (at byte %d)" m off)
    | Parser.Parse_error m -> Parse m
    | Binder.Bind_error m -> Bind m
    | Db.Recovery_error m -> Recovery m
    | Db.Degraded_error { reason } -> Degraded_mode { reason }
    | Db.Script_error { index; sql; cause } ->
      Script { index; sql; cause = error_of_exn ~fresh cause }
    | Ship.Ship_error m -> Runtime ("ship: " ^ m)
    | Rep.Replica_error m -> Runtime ("replica: " ^ m)
    | e when fresh <> [] -> Quarantined { views = fresh; detail = describe_exn e }
    | e -> Runtime (describe_exn e)

  let wrap session f =
    let before = Db.stale_views session.db in
    match f () with
    | v -> Ok v
    | exception e ->
      let fresh =
        List.filter
          (fun v -> not (List.mem v before))
          (Db.stale_views session.db)
      in
      Error (error_of_exn ~fresh e)

  let open_in_memory ?config () =
    { db = Db.create ?config (); report = None }

  let open_durable ?config dir =
    match Db.recover ?config dir with
    | db, report -> Ok { db; report = Some report }
    | exception Db.Recovery_error m -> Error (Recovery m)
    | exception (Rfview_engine.Io.Io_error _ as e) ->
      (* the directory could not be opened — e.g. ENOSPC while
         installing the post-recovery fresh WAL *)
      Error (Recovery (describe_exn e))

  let recovery session = session.report
  let close session = Db.close session.db
  let exec session sql = wrap session (fun () -> Db.exec session.db sql)

  (* Chunked script execution: consecutive runs of [n] statements each
     group-commit in their own batch scope; the failing statement keeps
     its global 1-based index. *)
  let exec_script_chunked session n sql =
    let stmts = Array.of_list (Parser.statements sql) in
    let total = Array.length stmts in
    let results = ref [] in
    let failure = ref None in
    let i = ref 0 in
    while !i < total && Option.is_none !failure do
      let hi = min total (!i + n) in
      Db.with_batch session.db (fun () ->
          while !i < hi && Option.is_none !failure do
            let stmt = stmts.(!i) in
            (match Db.exec_statement session.db stmt with
             | r -> results := r :: !results
             | exception cause ->
               failure :=
                 Some
                   (Db.Script_error
                      { index = !i + 1; sql = Pretty.statement stmt; cause }));
            incr i
          done);
    done;
    match !failure with
    | Some e -> raise e
    | None -> List.rev !results

  let exec_script ?batch session sql =
    match batch with
    | None | Some 0 -> wrap session (fun () -> Db.exec_script session.db sql)
    | Some n when n < 0 -> invalid_arg "Session.exec_script: negative batch"
    | Some n -> wrap session (fun () -> exec_script_chunked session n sql)

  (* [query] is sugar for "snapshot at tip": when the session is quiescent
     (no open batch, no stale views awaiting heal-on-read) the read runs
     against the freshest published MVCC version, exactly as a concurrent
     reader domain would see it.  Inside a batch (read-your-writes) or with
     stale views pending (heal-on-read must commit into the live database)
     the read takes the direct path instead. *)
  let query session sql =
    wrap session (fun () ->
        if Db.in_batch session.db || Db.stale_views session.db <> [] then
          Db.query session.db sql
        else begin
          let sn = Db.snapshot session.db in
          Fun.protect
            ~finally:(fun () -> Db.Snapshot.close sn)
            (fun () -> Db.Snapshot.query sn sql)
        end)

  let with_batch session f = Db.with_batch session.db f
  let checkpoint session = wrap session (fun () -> Db.checkpoint session.db)
  let set_checkpoint_every session n = Db.set_checkpoint_every session.db n
  let set_checkpoint_bytes session n = Db.set_checkpoint_bytes session.db n
  let stale_views session = Db.stale_views session.db
  let config session = Db.config session.db
  let reconfigure session cfg = Db.reconfigure session.db cfg
  let lsn session = Db.lsn session.db

  (* Typed pass-throughs that used to require the [database] escape
     hatch; in-tree tools (bin, bench) now stay on the façade. *)
  let exec_statement session st =
    wrap session (fun () -> Db.exec_statement session.db st)

  let binder_catalog session = Db.binder_catalog session.db
  let catalog_view session = Db.catalog_view session.db
  let load_table session ~table rows = Db.load_table session.db ~table rows
  let fingerprint session = Db.fingerprint session.db

  let is_derived_maintained session name =
    Db.is_derived_maintained session.db name

  let share_classes session ~table = Db.share_classes session.db ~table

  let derivability_certificates session q =
    Rfview_engine.Advisor.certificates session.db q

  module Unsafe = struct
    let database session = session.db
  end

  (* ---- Replication ----

     Thin result-typed wrappers over [Rfview_replica]; no session-level
     quarantine tracking applies here, so errors wrap directly. *)

  let wrap_rep f =
    match f () with v -> Ok v | exception e -> Error (error_of_exn ~fresh:[] e)

  type shipper = Ship.t

  let shipper session = wrap_rep (fun () -> Ship.create session.db)

  (* attach when the feed file does not exist yet, reattach (resuming
     where the previous shipper stopped) when it does *)
  let attach_feed sh ~name ~path =
    wrap_rep (fun () ->
        if Sys.file_exists path then Ship.reattach sh ~name ~path
        else Ship.attach sh ~name ~path)

  let ship sh = wrap_rep (fun () -> Ship.pump sh)
  let resync_feed sh ~name = wrap_rep (fun () -> Ship.resync sh ~name)
  let shipped sh ~name = Ship.shipped sh ~name
  let close_shipper sh = Ship.close sh

  type replica = Rep.t

  let open_replica ?config ~name ~feed () = Rep.attach ?config ~name ~feed ()
  let poll_replica r = wrap_rep (fun () -> Rep.poll r)
  let replica_applied_lsn r = Rep.applied_lsn r
  let replica_lag r ~tip = Rep.lag r ~tip

  let replica_status r =
    match Rep.status r with
    | Rep.Syncing -> `Syncing
    | Rep.Ready -> `Ready
    | Rep.Quarantined { at_lsn; reason } -> `Quarantined (at_lsn, reason)

  let read_replica r ~tip ?max_records ?max_bytes sql =
    match Rep.read r ~tip ?max_records ?max_bytes sql with
    | Ok (rel, at) -> Ok (rel, at)
    | Error (Rep.Stale v) -> Error (Stale v)
    | Error (Rep.Unavailable m) -> Error (Runtime ("replica: " ^ m))
    | exception e -> Error (error_of_exn ~fresh:[] e)

  let promote r ~dir =
    wrap_rep (fun () ->
        let db = Rep.promote r ~dir in
        { db; report = None })

  (* ---- Storage health, scrubbing, repair ---- *)

  let health session = Db.health session.db

  type scrub_report = Rfview_engine.Scrub.report
  type repair_outcome = Rfview_replica.Repair.outcome

  let scrub_dir ?feeds dir = Rfview_replica.Repair.scrub ?feeds dir
  let repair_dir ?feeds dir = Rfview_replica.Repair.repair ?feeds dir

  let scrub ?feeds session =
    match Db.durable_dir session.db with
    | None -> Error (Runtime "scrub needs a durable session (open_durable)")
    | Some dir -> wrap_rep (fun () -> scrub_dir ?feeds dir)
end

module Snapshot = struct
  type t = Db.Snapshot.t

  let snapshot (session : Session.t) = Db.snapshot session.db

  let at (session : Session.t) ~lsn :
      (t, Session.error) result =
    match Db.snapshot_at session.db ~lsn with
    | Ok sn -> Ok sn
    | Error v -> Error (Session.Stale v)

  let lsn = Db.Snapshot.lsn
  let released = Db.Snapshot.released
  let fingerprint = Db.Snapshot.fingerprint
  let close = Db.Snapshot.close

  let query sn sql : (Relation.t, Session.error) result =
    match Db.Snapshot.query sn sql with
    | rel -> Ok rel
    | exception e -> Error (Session.error_of_exn ~fresh:[] e)

  let retained (session : Session.t) = Db.retained_lsns session.db
  let open_count (session : Session.t) = Db.open_snapshots session.db
  let set_retain (session : Session.t) n = Db.set_retain session.db n
end
