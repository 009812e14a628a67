(* rfview — command-line front end for the reporting-function engine.

   Built entirely on the stable [Rfview.Session] API — no subcommand
   reaches the engine handle directly.

   Subcommands:
     run FILE        execute a SQL script and print every result
     repl            interactive SQL shell (line-based; ';' terminates)
     demo            start the repl with the credit-card demo schema loaded
     lint FILE       run the plan checker and lint rules over a SQL script,
                     or over the SQL embedded in an OCaml driver (.ml)
     analyze FILE    abstract-interpret every query of a SQL script: print
                     the output abstraction, RF2xx diagnostics, and the
                     derivability certificates of matching views
     recover DIR     recover a durable database directory and report
     checkpoint DIR  recover DIR, then write a fresh checkpoint
     wal-info DIR    inspect DIR's WAL: record kinds, LSNs, byte offsets,
                     CRC status, torn tail (reported, never replayed)
     ship DIR FEED.. recover DIR and ship unshipped WAL records to feeds
     replica FEED    poll a feed, report applied LSN/status, serve a
                     stale-bounded read (--sql/--tip/--max-lag)
     promote FEED DIR  promote a feed's applied state into a new primary

   Options:
     --db DIR        (run, repl) open DIR as a durable database: recover
                     it first, write-ahead log every statement
     --batch N       (run) group-commit every N statements of the script
                     (default: the whole script is one batch)
     --self-join     execute reporting functions via the Fig. 2 self-join
                     simulation instead of the native window operator
     --naive-window  use the naive O(n·w) window strategy
     --verify-plans  checker-verify every plan and translation-validate
                     every rewrite pass while executing
     --inject SITE:POLICY (repeatable) arm a fault-injection site; POLICY
                     is always, nth=N or p=F[@SEED] (see Fault)
     --explain-diagnostics (lint) append the registry explanation to each
                     diagnostic; without FILE, print the whole registry
     --explain RFxxx (lint) print the registry entry for one code
     --codes-md      (lint) print the registry as a markdown table (the
                     generator behind the DESIGN.md diagnostics table) *)

module Session = Rfview.Session
module Config = Rfview.Config
module Fault = Rfview_engine.Fault
module Relation = Rfview_relalg.Relation
module Diag = Rfview_analysis.Diagnostic

let arm_injections specs =
  let fail spec msg ~hint =
    Printf.eprintf "rfview: bad --inject argument %S: %s\n%s%!" spec msg hint;
    exit 2
  in
  let known_sites =
    lazy
      ("known sites:\n"
      ^ String.concat "\n" (List.map (fun s -> "  " ^ s) (Fault.sites ()))
      ^ "\n")
  in
  let policy_help = "expected SITE:always, SITE:nth=N or SITE:p=F[@SEED]\n" in
  List.iter
    (fun spec ->
      match Fault.parse_spec spec with
      | Error msg -> fail spec msg ~hint:policy_help
      | Ok (site, policy) ->
        if not (List.mem site (Fault.sites ())) then
          fail spec
            (Printf.sprintf "unknown site %s" site)
            ~hint:(Lazy.force known_sites)
        else (
          try Fault.arm site policy
          with Invalid_argument msg -> fail spec msg ~hint:(Lazy.force known_sites)))
    specs

(* The execution knobs are fixed at open time now: flags become a config. *)
let build_config ~self_join ~naive_window =
  {
    Config.default with
    Config.window_mode = (if self_join then `Self_join else `Native);
    window_strategy =
      (if naive_window then Config.Naive else Config.Incremental);
  }

let configure ~verify ~inject =
  if verify then Rfview_analysis.Verify.enable ();
  arm_injections inject

let print_result = function
  | Session.Relation r ->
    Relation.print ~max_rows:100 r;
    Printf.printf "(%d rows)\n%!" (Relation.cardinality r)
  | Session.Done msg -> Printf.printf "%s\n%!" msg

(* [true] when the whole script succeeded *)
let run_script ?batch session sql =
  match Session.exec_script ?batch session sql with
  | Ok results ->
    List.iter print_result results;
    true
  | Error e ->
    Printf.printf "%s\n%!" (Session.describe_error e);
    false

let read_file file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let sql = really_input_string ic len in
  close_in ic;
  sql

let describe_recovery dir (r : Session.recovery_report) =
  Printf.printf "recovered %s: checkpoint %s, %d WAL record(s) replayed%s%s\n%!" dir
    (match r.Session.checkpoint_epoch with
     | None -> "none"
     | Some e -> Printf.sprintf "epoch %d" e)
    r.Session.replayed
    (if r.Session.torn then ", torn tail truncated" else "")
    (match r.Session.quarantined with
     | [] -> ""
     | q -> ", quarantined: " ^ String.concat ", " q)

(* Open the working session: durable (recovering [dir] first) when
   --db was given, in-memory otherwise. *)
let open_session ~config = function
  | None -> Session.open_in_memory ~config ()
  | Some dir ->
    (match Session.open_durable ~config dir with
     | Ok s ->
       (match Session.recovery s with
        | Some r
          when r.Session.replayed > 0 || r.Session.torn
               || r.Session.quarantined <> [] ->
          describe_recovery dir r
        | _ -> ());
       s
     | Error e ->
       Printf.eprintf "rfview: %s: %s\n" dir (Session.describe_error e);
       exit 1)

let cmd_run file db_dir batch self_join naive_window verify inject =
  (match batch with
   | Some n when n < 0 ->
     Printf.eprintf "rfview: --batch must be non-negative (got %d)\n" n;
     exit 2
   | _ -> ());
  configure ~verify ~inject;
  let s = open_session ~config:(build_config ~self_join ~naive_window) db_dir in
  let ok = run_script ?batch s (read_file file) in
  Session.close s;
  if not ok then exit 1

let cmd_recover dir =
  match Session.open_durable dir with
  | Ok s ->
    (match Session.recovery s with
     | Some r -> describe_recovery dir r
     | None -> ());
    Session.close s
  | Error e ->
    Printf.eprintf "rfview: %s: %s\n" dir (Session.describe_error e);
    exit 1

let cmd_checkpoint dir =
  match Session.open_durable dir with
  | Ok s ->
    (match Session.checkpoint s with
     | Ok () ->
       let epoch, replayed =
         match Session.recovery s with
         | Some r ->
           ((match r.Session.checkpoint_epoch with None -> 0 | Some e -> e) + 1,
            r.Session.replayed)
         | None -> (1, 0)
       in
       Printf.printf "checkpointed %s: epoch %d, %d WAL record(s) folded in\n%!"
         dir epoch replayed;
       Session.close s
     | Error e ->
       Printf.eprintf "rfview: %s: checkpoint failed: %s\n" dir
         (Session.describe_error e);
       Session.close s;
       exit 1)
  | Error e ->
    Printf.eprintf "rfview: %s: %s\n" dir (Session.describe_error e);
    exit 1

(* ---- wal-info ---- *)

module Wal = Rfview_engine.Wal
module CheckpointFile = Rfview_engine.Checkpoint

let cmd_wal_info dir =
  let path = Filename.concat dir "log.wal" in
  match Wal.scan_detail path with
  | exception Wal.Wal_error m ->
    Printf.eprintf "rfview: %s: %s\n" path m;
    exit 1
  | d ->
    (* LSNs continue from the checkpoint the log was installed after *)
    let base =
      match CheckpointFile.read ~dir with
      | Some snap -> snap.CheckpointFile.lsn
      | None -> 0
      | exception CheckpointFile.Corrupt m ->
        Printf.printf "note: checkpoint unreadable (%s); LSNs start at 0\n" m;
        0
    in
    Printf.printf "%-6s %-8s %-8s %-6s %-4s %s\n" "#" "offset" "bytes" "lsn"
      "crc" "record";
    let lsn = ref base in
    List.iter
      (fun (e : Wal.entry) ->
        let is_begin = match e.Wal.e_record with Some (Wal.Begin _) -> true | _ -> false in
        if not is_begin then incr lsn;
        Printf.printf "%-6d %-8d %-8d %-6s %-4s %s\n" e.Wal.e_index
          e.Wal.e_offset e.Wal.e_bytes
          (if is_begin then "-" else string_of_int !lsn)
          (if e.Wal.e_crc_ok then "ok" else "BAD")
          (match e.Wal.e_record with
           | Some r -> Wal.describe r
           | None when e.Wal.e_crc_ok -> "(payload does not decode)"
           | None -> "(crc mismatch)"))
      d.Wal.d_entries;
    (match d.Wal.d_torn with
     | Some off ->
       Printf.printf "torn tail at byte %d (%d trailing byte(s) not replayable)\n"
         off (d.Wal.d_size - off)
     | None -> ());
    Printf.printf "%d record(s), %d byte(s)%s\n%!" (List.length d.Wal.d_entries)
      d.Wal.d_size
      (if
         d.Wal.d_torn = None
         && List.for_all (fun (e : Wal.entry) -> e.Wal.e_crc_ok) d.Wal.d_entries
       then ""
       else " — DAMAGED")

(* ---- replication: ship / replica / promote ---- *)

let feed_name path = Filename.remove_extension (Filename.basename path)

let or_die ~what = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "rfview: %s: %s\n" what (Session.describe_error e);
    exit 1

let cmd_ship dir feeds =
  match Session.open_durable dir with
  | Error e ->
    Printf.eprintf "rfview: %s: %s\n" dir (Session.describe_error e);
    exit 1
  | Ok s ->
    let sh = or_die ~what:dir (Session.shipper s) in
    List.iter
      (fun path ->
        or_die ~what:path (Session.attach_feed sh ~name:(feed_name path) ~path))
      feeds;
    let n = or_die ~what:"pump" (Session.ship sh) in
    List.iter
      (fun path ->
        Printf.printf "%s: shipped through lsn %d\n" path
          (Session.shipped sh ~name:(feed_name path)))
      feeds;
    Printf.printf "%d deliver(ies); primary tip lsn %d\n%!" n (Session.lsn s);
    Session.close_shipper sh;
    Session.close s

(* ---- scrub / repair ---- *)

let print_scrub_report (r : Session.scrub_report) =
  List.iter
    (fun a -> Printf.printf "scanned %s\n" (Rfview_engine.Scrub.describe_artifact a))
    r.Rfview_engine.Scrub.scanned;
  (match r.Rfview_engine.Scrub.damage with
   | [] -> Printf.printf "clean\n%!"
   | ds ->
     List.iter
       (fun d ->
         Printf.printf "DAMAGE %s\n" (Rfview_engine.Scrub.describe_damage d))
       ds;
     Printf.printf "%d damaged artifact record(s)\n%!" (List.length ds))

let cmd_scrub dir feeds do_repair =
  if not do_repair then begin
    let report = Session.scrub_dir ~feeds dir in
    print_scrub_report report;
    if not (Rfview_engine.Scrub.clean report) then exit 1
  end
  else begin
    let outcome = Session.repair_dir ~feeds dir in
    List.iter
      (fun a ->
        Printf.printf "repair: %s\n"
          (Rfview_replica.Repair.describe_action a))
      outcome.Rfview_replica.Repair.o_actions;
    print_scrub_report outcome.Rfview_replica.Repair.o_after;
    if not (Rfview_engine.Scrub.clean outcome.Rfview_replica.Repair.o_after)
    then exit 1
  end

let print_replica_state r =
  Printf.printf "applied lsn %d (%s)\n%!" (Session.replica_applied_lsn r)
    (match Session.replica_status r with
     | `Syncing -> "syncing: nothing applied yet"
     | `Ready -> "ready"
     | `Quarantined (at, reason) ->
       Printf.sprintf "QUARANTINED at lsn %d: %s" at reason)

let cmd_replica feed sql tip max_lag =
  let r = Session.open_replica ~name:(feed_name feed) ~feed () in
  let n = or_die ~what:feed (Session.poll_replica r) in
  Printf.printf "%s: %d entr(ies) applied; " feed n;
  print_replica_state r;
  (match tip with
   | Some t ->
     let l = Session.replica_lag r ~tip:t in
     Printf.printf "lag vs tip %d: %d record(s), %d byte(s)\n%!" t
       l.Rfview.Staleness.records l.Rfview.Staleness.bytes
   | None -> ());
  match sql with
  | None -> ()
  | Some q ->
    let tip = Option.value tip ~default:(Session.replica_applied_lsn r) in
    (match Session.read_replica r ~tip ?max_records:max_lag q with
     | Ok (rel, at) ->
       Relation.print ~max_rows:100 rel;
       Printf.printf "(%d rows, at lsn %d)\n%!" (Relation.cardinality rel) at
     | Error e ->
       Printf.eprintf "rfview: %s\n" (Session.describe_error e);
       exit 1)

let cmd_promote feed dir =
  let r = Session.open_replica ~name:(feed_name feed) ~feed () in
  ignore (or_die ~what:feed (Session.poll_replica r));
  (match Session.replica_status r with
   | `Quarantined (at, reason) ->
     Printf.eprintf "rfview: %s: quarantined at lsn %d (%s); resync it first\n"
       feed at reason;
     exit 1
   | `Syncing | `Ready -> ());
  let s = or_die ~what:dir (Session.promote r ~dir) in
  Printf.printf "promoted %s at lsn %d into %s\n%!" feed (Session.lsn s) dir;
  Session.close s

(* ---- lint ---- *)

let print_registry () =
  List.iter
    (fun (i : Diag.info) ->
      Printf.printf "%s %-8s %s\n    %s\n" i.Diag.r_code
        (Diag.severity_name i.Diag.r_severity)
        i.Diag.r_title i.Diag.r_explanation)
    Diag.registry

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Bind errors carry a message but no code; recover the specific
   diagnostic where the message shape identifies it. *)
let bind_error_code m =
  if contains_sub m "is ill-typed" then "RF102"
  else if contains_sub m "cannot infer the type" then "RF105"
  else "RF100"

let cmd_lint file self_join explain explain_code codes_md =
  (match explain_code with
   | Some code ->
     print_endline (Diag.explain code);
     exit (match Diag.find_info code with Some _ -> 0 | None -> 2)
   | None -> ());
  if codes_md then begin
    print_string (Diag.registry_markdown ());
    exit 0
  end;
  match file with
  | None ->
    if explain then print_registry ()
    else begin
      prerr_endline
        "rfview lint: a FILE is required (or --explain-diagnostics alone to \
         print the rule registry)";
      exit 2
    end
  | Some file ->
    let module Check = Rfview_analysis.Check in
    let module Lint = Rfview_analysis.Lint in
    let module Ast = Rfview_sql.Ast in
    let seen = ref [] in
    let emit ~where d =
      seen := d :: !seen;
      Printf.printf "%s: %s\n" where (Diag.to_string d);
      if explain then Printf.printf "    %s\n" (Diag.explain d.Diag.code)
    in
    let finish () =
      let count s = List.length (List.filter (fun d -> d.Diag.severity = s) !seen) in
      Printf.printf "%s: %d error(s), %d warning(s), %d note(s)\n" file
        (count Diag.Error) (count Diag.Warning) (count Diag.Info);
      exit (if List.exists Diag.is_error !seen then 1 else 0)
    in
    let scratch = Session.open_in_memory () in
    let lint_query ?stmt where q =
      match
        Rfview_planner.Binder.bind_query ?stmt
          (Session.binder_catalog scratch) q
      with
      | plan -> List.iter (emit ~where) (Check.check plan @ Lint.plan ~self_join plan)
      | exception Rfview_planner.Binder.Bind_error m ->
        emit ~where
          (Diag.make ~code:(bind_error_code m) ~path:[] ("bind error: " ^ m))
    in
    if Filename.check_suffix file ".ml" then begin
      (* extracted mode: lint the SQL embedded in an OCaml driver.  The
         driver may create tables through non-SQL APIs (load_table), so
         an unknown relation is reported as a note, not an error. *)
      match Rfview_analysis.Extract.extract_file file with
      | exception e ->
        emit ~where:file
          (Diag.make ~code:"RF100" ~path:[]
             (Printf.sprintf "extraction failed: %s" (Printexc.to_string e)));
        finish ()
      | extracted ->
        List.iter
          (fun (x : Rfview_analysis.Extract.extracted) ->
            let where = Printf.sprintf "%s:%d" file x.Rfview_analysis.Extract.line in
            (match x.Rfview_analysis.Extract.stmt with
             | Ast.St_query q | Ast.St_create_view { query = q; _ } ->
               (match
                  Rfview_planner.Binder.bind_query
                    (Session.binder_catalog scratch) q
                with
                | plan ->
                  List.iter (emit ~where)
                    (Check.check plan @ Lint.plan ~self_join plan)
                | exception Rfview_planner.Binder.Bind_error m ->
                  (* missing context is expected in extracted snippets *)
                  emit ~where
                    { Diag.code = "RF100"; severity = Diag.Info;
                      message = "bind error (extracted snippet): " ^ m;
                      path = "plan" })
             | _ -> ());
            match x.Rfview_analysis.Extract.stmt with
            | Ast.St_query _ -> ()
            | st -> ignore (Session.exec_statement scratch st))
          extracted;
        Printf.printf "%s: %d embedded statement(s)\n" file (List.length extracted);
        finish ()
    end
    else
      (match Rfview_sql.Parser.statements (read_file file) with
       | exception e ->
         let msg =
           match e with
           | Rfview_sql.Lexer.Lex_error (m, off) ->
             Printf.sprintf "lex error at offset %d: %s" off m
           | Rfview_sql.Parser.Parse_error m -> Printf.sprintf "parse error: %s" m
           | e -> Printexc.to_string e
         in
         emit ~where:file (Diag.make ~code:"RF100" ~path:[] msg);
         finish ()
       | stmts ->
         List.iteri
           (fun i st ->
             let where = Printf.sprintf "%s:%d" file (i + 1) in
             (match st with
              | Ast.St_query q | Ast.St_create_view { query = q; _ } ->
                lint_query ~stmt:(i + 1) where q
              | _ -> ());
             (* execute everything but plain queries, so later statements
                see the tables and views this one defines *)
             match st with
             | Ast.St_query _ -> ()
             | st ->
               (match Session.exec_statement scratch st with
                | Ok _ -> ()
                | Error e ->
                  emit ~where
                    (Diag.make ~code:"RF100" ~path:[]
                       (Printf.sprintf "statement failed: %s"
                          (Session.describe_error e)))))
           stmts;
         finish ())

(* ---- analyze ---- *)

(* JSON emission for [analyze --json] (JSON Lines, one object per
   statement plus a trailing summary) — the same emitters the session
   server's wire format uses. *)
let jstr = Rfview_server.Wire.jstr
let jobj = Rfview_server.Wire.jobj
let jlist = Rfview_server.Wire.jlist
let jint_opt = function None -> "null" | Some n -> string_of_int n

let jcard (c : Rfview_analysis.Domain.Card.t) =
  jobj [ ("lo", string_of_int c.lo); ("hi", jint_opt c.hi) ]

let jdiag (d : Diag.t) =
  jobj
    [
      ("code", jstr d.Diag.code);
      ("severity", jstr (Diag.severity_name d.Diag.severity));
      ("path", jstr d.Diag.path);
      ("message", jstr d.Diag.message);
    ]

let jobligation (o : Rfview_analysis.Cert.obligation) =
  jobj
    [
      ("name", jstr o.ob_name);
      ("holds", string_of_bool o.ob_holds);
      ("detail", jstr o.ob_detail);
    ]

let cmd_analyze file json budget =
  let module Ast = Rfview_sql.Ast in
  let module Absint = Rfview_analysis.Absint in
  let module Cert = Rfview_analysis.Cert in
  let module Cost = Rfview_analysis.Cost in
  let module Share = Rfview_analysis.Share in
  let module Ivmcert = Rfview_analysis.Ivmcert in
  let module Advisor = Rfview_engine.Advisor in
  let rf2xx = ref 0 and errors = ref 0 in
  let shared_specs = ref [] in
  let count_rf2xx d =
    if String.length d.Diag.code >= 3 && d.Diag.code.[2] = '2' then incr rf2xx
  in
  (match Rfview_sql.Parser.statements (read_file file) with
   | exception e ->
     let msg = Printf.sprintf "cannot parse: %s" (Printexc.to_string e) in
     if json then
       print_endline (jobj [ ("file", jstr file); ("error", jstr msg) ])
     else Printf.printf "%s: %s\n" file msg;
     incr errors
   | stmts ->
     let scratch = Session.open_in_memory () in
     let analyze_query ~stmt ?ivm_view where q =
       match
         Rfview_planner.Binder.bind_query ~stmt
           (Session.binder_catalog scratch) q
       with
       | exception Rfview_planner.Binder.Bind_error m ->
         if json then
           print_endline
             (jobj
                [
                  ("statement", string_of_int stmt);
                  ("error", jstr ("bind error: " ^ m));
                ])
         else Printf.printf "%s: bind error: %s\n" where m;
         incr errors
       | plan ->
         let cat = Session.catalog_view scratch in
         let env name =
           try Some (cat.Rfview_planner.Physical.table_contents name)
           with _ -> None
         in
         let abs = Absint.analyze ~env plan in
         let diags = Absint.diagnostics ~env plan in
         let cost = Cost.analyze ~env ?budget plan in
         let ivm = Option.map (fun view -> Ivmcert.certify ~view plan) ivm_view in
         List.iter count_rf2xx diags;
         List.iter count_rf2xx cost.Cost.diags;
         if json then begin
           let fields =
             [ ("statement", string_of_int stmt) ]
             @ (match ivm_view with
                | Some v -> [ ("view", jstr v) ]
                | None -> [])
             @ [
                 ( "columns",
                   jlist
                     (List.map jstr
                        (Rfview_relalg.Schema.names
                           (Rfview_planner.Logical.schema plan))) );
                 ("rows", jcard abs.Rfview_analysis.Domain.rows);
                 ( "diagnostics",
                   jlist
                     (List.map jdiag
                        (diags
                        @ cost.Cost.diags
                        @
                        match ivm with
                        | Some c -> c.Ivmcert.diags
                        | None -> [])) );
                 ( "footprint",
                   jobj
                     [
                       ("total_bytes", jint_opt cost.Cost.total_bytes);
                       ( "ops",
                         jlist
                           (List.map
                              (fun (o : Cost.op_cost) ->
                                jobj
                                  [
                                    ("op", jstr o.Cost.oc_op);
                                    ("rows", jcard o.Cost.oc_rows);
                                    ("width", string_of_int o.Cost.oc_width);
                                    ("state_rows", jcard o.Cost.oc_state_rows);
                                    ("bytes", jint_opt o.Cost.oc_bytes);
                                  ])
                              cost.Cost.ops) );
                     ] );
               ]
             @
             match ivm with
             | Some c ->
               [
                 ( "ivm",
                   jobj
                     [
                       ("valid", string_of_bool (Ivmcert.valid c));
                       ( "obligations",
                         jlist (List.map jobligation c.Ivmcert.obligations) );
                     ] );
               ]
             | None -> []
           in
           print_endline (jobj fields)
         end
         else begin
           Printf.printf "-- %s\n" where;
           print_string (Absint.report ~env plan);
           List.iter (fun d -> Printf.printf "%s\n" (Diag.to_string d)) diags;
           (* resource analysis: footprint bound + RF402/RF403 *)
           print_string (Cost.to_string cost);
           List.iter
             (fun d -> Printf.printf "%s\n" (Diag.to_string d))
             cost.Cost.diags;
           (* derivability certificates of every matching materialized view *)
           List.iter
             (fun (view, certs) ->
               Printf.printf "derivability from %s:\n" view;
               List.iter (fun c -> print_string (Cert.to_string c)) certs)
             (Session.derivability_certificates scratch q);
           (* incrementality certificate of a materialized view: can the
              deriver maintain it by delta plan, and if not, why not
              (RF30x, warnings only — full refresh remains available) *)
           (match ivm with
            | None -> ()
            | Some cert ->
              print_string (Ivmcert.to_string cert);
              List.iter
                (fun d -> Printf.printf "%s\n" (Diag.to_string d))
                cert.Ivmcert.diags);
           print_newline ()
         end
     in
     List.iteri
       (fun i st ->
         let where = Printf.sprintf "%s:%d" file (i + 1) in
         (match st with
          | Ast.St_query q -> analyze_query ~stmt:(i + 1) where q
          | Ast.St_create_view { name; materialized; query = q } ->
            analyze_query ~stmt:(i + 1)
              ?ivm_view:(if materialized then Some name else None)
              where q;
            (* collect the scan footprint for the sharing report *)
            if materialized then
              Option.iter
                (fun sp -> shared_specs := sp :: !shared_specs)
                (Share.scan_spec ~view:name q)
          | _ -> ());
         match st with
         | Ast.St_query _ -> ()
         | st ->
           (match Session.exec_statement scratch st with
            | Ok _ -> ()
            | Error e ->
              let msg =
                Printf.sprintf "statement failed: %s"
                  (Session.describe_error e)
              in
              if json then
                print_endline
                  (jobj
                     [ ("statement", string_of_int (i + 1)); ("error", jstr msg) ])
              else Printf.printf "%s: %s\n" where msg;
              incr errors))
       stmts);
  (* scan-share classes over the script's materialized sequence views:
     which views the engine would drive from one shared base scan
     (RF401 advisories — informational, never exit-affecting) *)
  let groups = Rfview_analysis.Share.classify (List.rev !shared_specs) in
  let share_diags = Rfview_analysis.Share.diagnostics groups in
  if json then
    print_endline
      (jobj
         [
           ( "scan_sharing",
             jlist
               (List.map
                  (fun (g : Rfview_analysis.Share.group) ->
                    jobj
                      [
                        ("base", jstr g.g_base);
                        ("key", jstr (Rfview_analysis.Share.scan_key g));
                        ( "shared",
                          string_of_bool (Rfview_analysis.Share.shareable g) );
                        ( "views",
                          jlist
                            (List.map
                               (fun (sp : Rfview_analysis.Share.scan_spec) ->
                                 jstr sp.sp_view)
                               g.g_members) );
                        ( "obligations",
                          jlist (List.map jobligation g.g_obligations) );
                        ("diagnostics", jlist (List.map jdiag g.g_diags));
                      ])
                  groups) );
           ("rf2xx", string_of_int !rf2xx);
           ("errors", string_of_int !errors);
         ])
  else begin
    if groups <> [] then begin
      Printf.printf "-- scan sharing\n";
      List.iter
        (fun g -> print_string (Rfview_analysis.Share.to_string g))
        groups;
      List.iter (fun d -> Printf.printf "%s\n" (Diag.to_string d)) share_diags;
      print_newline ()
    end;
    Printf.printf "%s: %d RF2xx diagnostic(s), %d error(s)\n" file !rf2xx !errors
  end;
  exit (if !rf2xx > 0 || !errors > 0 then 1 else 0)

let repl session =
  Printf.printf
    "rfview SQL shell — terminate statements with ';', exit with \\q or Ctrl-D\n%!";
  let buf = Buffer.create 256 in
  let rec loop () =
    Printf.printf (if Buffer.length buf = 0 then "rfview> " else "   ...> ");
    Printf.printf "%!";
    match input_line stdin with
    | exception End_of_file -> ()
    | line when String.trim line = "\\q" -> ()
    | line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      let text = Buffer.contents buf in
      if String.contains line ';' then begin
        Buffer.clear buf;
        ignore (run_script session text)
      end;
      loop ()
  in
  loop ()

let cmd_repl db_dir self_join naive_window verify inject =
  configure ~verify ~inject;
  let s = open_session ~config:(build_config ~self_join ~naive_window) db_dir in
  repl s;
  Session.close s

let cmd_demo self_join naive_window verify inject =
  configure ~verify ~inject;
  let s =
    Session.open_in_memory ~config:(build_config ~self_join ~naive_window) ()
  in
  Rfview_workload.Transactions.load_session s;
  let count sql =
    match Session.query s sql with
    | Ok rel -> Relation.cardinality rel
    | Error e -> failwith (Session.describe_error e)
  in
  Printf.printf
    "loaded demo schema: c_transactions (%d rows), l_locations (%d rows)\n"
    (count "SELECT * FROM c_transactions")
    (count "SELECT * FROM l_locations");
  Printf.printf "try: %s;\n\n" (Rfview_workload.Transactions.intro_query ~custid:7 ());
  repl s

(* ---- serve / call ---- *)

(* A server keeps its tables, view states and published versions
   resident, and a write allocates little directly on the major heap,
   by which the major GC paces itself: at the default 120% space
   overhead, garbage from the writer and reader domains held about 15%
   more resident memory than when every write also allocated
   partition-sized arrays (warehouse benchmark, trickle-mixed, 60 s:
   93 MiB against 81; 85 at 100%).  An OCAMLRUNPARAM setting wins. *)
let serve_space_overhead = 100

let cmd_serve db_dir port domains self_join naive_window =
  if domains < 1 then begin
    Printf.eprintf "rfview: serve: --domains must be at least 1\n";
    exit 1
  end;
  if Sys.getenv_opt "OCAMLRUNPARAM" = None then
    Gc.set { (Gc.get ()) with Gc.space_overhead = serve_space_overhead };
  let s =
    open_session ~config:(build_config ~self_join ~naive_window) (Some db_dir)
  in
  let srv = Rfview_server.Server.start ~domains ~session:s ~port () in
  Printf.printf "serving %s on 127.0.0.1:%d (%d reader domain(s))\n%!" db_dir
    (Rfview_server.Server.port srv)
    domains;
  Rfview_server.Server.wait srv;
  Session.close s

let cmd_call port lines =
  match Rfview_server.Server.Client.connect ~port with
  | exception Unix.Unix_error (err, _, _) ->
    Printf.eprintf "rfview: call: cannot connect to 127.0.0.1:%d: %s\n" port
      (Unix.error_message err);
    exit 1
  | c ->
    let ok = ref true in
    List.iter
      (fun line ->
        let resp = Rfview_server.Server.Client.request c line in
        print_endline resp;
        if Rfview_server.Wire.field resp "ok" <> Some "true" then ok := false)
      lines;
    Rfview_server.Server.Client.disconnect c;
    if not !ok then exit 1

open Cmdliner

let self_join =
  Arg.(value & flag & info [ "self-join" ] ~doc:"Execute reporting functions via the Fig. 2 self-join simulation.")

let naive_window =
  Arg.(value & flag & info [ "naive-window" ] ~doc:"Use the naive O(n*w) window evaluation strategy.")

let verify_plans =
  Arg.(value & flag & info [ "verify-plans" ]
    ~doc:"Checker-verify every bound and optimized plan and translation-validate every rewrite pass.")

let inject =
  Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"SITE:POLICY"
    ~doc:"Arm a fault-injection site (repeatable). POLICY is $(b,always), \
          $(b,nth=N) or $(b,p=F[@SEED]); faulting statements roll back and \
          faulting view maintenance quarantines the view.")

let db_dir =
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
    ~doc:"Open $(docv) as a durable database: recover it first (creating it if \
          missing), then write-ahead log and fsync every statement.")

let batch =
  Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"N"
    ~doc:"Group-commit every $(docv) statements: view deltas propagate once \
          per batch and the WAL is fsynced once per batch. Without this \
          option the whole script commits as one batch.")

let explain_diagnostics =
  Arg.(value & flag & info [ "explain-diagnostics" ]
    ~doc:"Append the registry explanation to each diagnostic; without FILE, print the whole rule registry.")

let explain_code =
  Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"RFxxx"
    ~doc:"Print the registry entry for one diagnostic code and exit.")

let codes_md =
  Arg.(value & flag & info [ "codes-md" ]
    ~doc:"Print the diagnostic code registry as a markdown table and exit \
          (the generator behind the DESIGN.md table).")

let run_t =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "run" ~doc:"Execute a SQL script")
    Term.(const cmd_run $ file $ db_dir $ batch $ self_join $ naive_window
          $ verify_plans $ inject)

let repl_t =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive SQL shell")
    Term.(const cmd_repl $ db_dir $ self_join $ naive_window $ verify_plans $ inject)

let demo_t =
  Cmd.v (Cmd.info "demo" ~doc:"SQL shell with the credit-card demo schema")
    Term.(const cmd_demo $ self_join $ naive_window $ verify_plans $ inject)

let lint_t =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Check and lint the plans of a SQL script (or of the SQL embedded \
             in an OCaml driver) without running its queries")
    Term.(const cmd_lint $ file $ self_join $ explain_diagnostics $ explain_code
          $ codes_md)

let analyze_t =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let json =
    Arg.(value & flag & info [ "json" ]
      ~doc:"Emit machine-readable output: one JSON object per analyzed \
            statement plus a trailing summary object with the scan-share \
            classes (JSON Lines).")
  in
  let budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"BYTES"
      ~doc:"Memory budget for the footprint analysis (default 64 MiB); plans \
            whose resident state exceeds or cannot be bounded against it get \
            an RF403 warning.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Abstract-interpret every query of a SQL script: print the output \
             abstraction, any RF2xx diagnostics, per-operator memory \
             footprint bounds (RF402/RF403), the derivability certificates \
             of matching materialized views, and the scan-share classes of \
             its materialized sequence views (RF401). Exit 1 on any RF2xx; \
             RF4xx are advisory.")
    Term.(const cmd_analyze $ file $ json $ budget)

let recover_t =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover a durable database directory (checkpoint + WAL replay) and \
             report what recovery did")
    Term.(const cmd_recover $ dir)

let checkpoint_t =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Recover DIR, write a fresh checkpoint and truncate its WAL")
    Term.(const cmd_checkpoint $ dir)

let wal_info_t =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "wal-info"
       ~doc:"Inspect DIR's write-ahead log without recovering it: every \
             record's kind, LSN, byte span and CRC status, and any torn tail \
             (reported, never replayed)")
    Term.(const cmd_wal_info $ dir)

let ship_t =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let feeds =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"FEED"
      ~doc:"Per-replica feed file (repeatable); created and seeded when \
            missing, resumed when present.")
  in
  Cmd.v
    (Cmd.info "ship"
       ~doc:"Recover DIR and ship its unshipped WAL records to each FEED file")
    Term.(const cmd_ship $ dir $ feeds)

let scrub_t =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let feeds =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"FEED"
      ~doc:"Replication feed file to verify (and repair from/of); repeatable.")
  in
  let repair =
    Arg.(value & flag & info [ "repair" ]
      ~doc:"Repair what scrubbing finds: sweep stale temp files, rebuild a \
            damaged WAL from the longest fingerprint-verified record chain a \
            FEED carries, re-seed damaged feeds from the primary.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Verify every artifact of durable directory DIR — WAL frames, \
             checkpoint records, stray temp files, FEED entries and LSN \
             continuity — and report typed damage (exit 1 when damage \
             remains)")
    Term.(const cmd_scrub $ dir $ feeds $ repair)

let replica_sql =
  Arg.(value & opt (some string) None & info [ "sql" ] ~docv:"SQL"
    ~doc:"Run one query against the replica's applied state after polling.")

let replica_tip =
  Arg.(value & opt (some int) None & info [ "tip" ] ~docv:"LSN"
    ~doc:"The primary's tip LSN, for lag reporting and the staleness bound \
          (default: the replica's own applied LSN).")

let replica_max_lag =
  Arg.(value & opt (some int) None & info [ "max-lag" ] ~docv:"N"
    ~doc:"Refuse the --sql read when the replica trails --tip by more than \
          $(docv) records.")

let replica_t =
  let feed = Arg.(required & pos 0 (some string) None & info [] ~docv:"FEED") in
  Cmd.v
    (Cmd.info "replica"
       ~doc:"Poll FEED to its end, report the applied LSN and status, and \
             optionally serve a stale-bounded read")
    Term.(const cmd_replica $ feed $ replica_sql $ replica_tip $ replica_max_lag)

let promote_t =
  let feed = Arg.(required & pos 0 (some string) None & info [] ~docv:"FEED") in
  let dir = Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Poll FEED to its end and promote the applied state into a new \
             durable primary at DIR (failover: at most the never-shipped tail \
             of the old primary is lost)")
    Term.(const cmd_promote $ feed $ dir)

let serve_t =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let port =
    Arg.(value & opt int 7477 & info [ "port" ] ~docv:"PORT"
      ~doc:"Loopback TCP port to listen on (0 picks an ephemeral port).")
  in
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
      ~doc:"Reader domains serving snapshot queries (also the concurrent \
            connection bound).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Recover durable directory DIR and serve it concurrently on a \
             loopback port: reads run as MVCC snapshot queries on a domain \
             pool, writes are serialized through one writer. One request \
             line in, one JSON line out (ping/open/query/exec/batch/status/\
             close/quit/shutdown)")
    Term.(const cmd_serve $ dir $ port $ domains $ self_join $ naive_window)

let call_t =
  let port = Arg.(required & pos 0 (some int) None & info [] ~docv:"PORT") in
  let lines =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"REQUEST"
      ~doc:"Protocol request line (repeatable, sent in order).")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send protocol request lines to a running rfview server on \
             127.0.0.1:PORT and print each JSON response (exit 1 when any \
             response is not ok)")
    Term.(const cmd_call $ port $ lines)

let main =
  Cmd.group
    (Cmd.info "rfview" ~version:"1.0.0"
       ~doc:"Reporting-function views in a data warehouse environment")
    [ run_t; repl_t; demo_t; lint_t; analyze_t; recover_t; checkpoint_t;
      wal_info_t; scrub_t; ship_t; replica_t; promote_t; serve_t; call_t ]

(* Exit codes: 0 success, 1 operational failure, 2 usage error.
   cmdliner reports usage errors as its own 124; normalize so scripts
   can tell "you called it wrong" (2) from "it ran and failed" (1). *)
let () =
  let code = Cmd.eval main in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
