(* Warehouse benchmark: reporting-function queries and ETL loads
   against a real [rfview serve] child process over loopback.

   Usage:
     main.exe [--workload report-read|etl-batch|trickle-mixed|all]
              [--seed N] [--seconds S] [--trace 0|1]

   Every run builds a fresh durable database in a scratch directory
   under the build tree (see [Data] for its contents), checkpoints it,
   serves it with [rfview serve DIR --port 0 --domains 2] and drives one
   workload for a warm-up plus S measured seconds, closed loop, from
   this one process over at most two connections.  Every answer is
   checked against references computed by [Rfview_core]; at the end the
   directory is reopened through recovery and every view, the base
   table and the Table 1/2 queries are checked again.

   With --trace 0 the last stdout line is a JSON object carrying the
   end-to-end metrics; with --trace 1 it carries the per-layer split,
   measured by replaying the same seeded request stream in-process and
   timing the calls into each layer (see README.md).  The exit code is
   non-zero on any failed request, wrong result or malformed answer. *)

module Session = Rfview.Session
module Snapshot = Rfview.Snapshot
module Relation = Rfview_relalg.Relation
module Wire = Rfview_server.Wire
module Db = Rfview_engine.Database
module Matview = Rfview_engine.Matview
module Wal = Rfview_engine.Wal
module Parser = Rfview_sql.Parser
module Ast = Rfview_sql.Ast
module P = Rfview_planner
module Seqgen = Rfview_workload.Seqgen
open Warebench

let now = Span.now
let fail fmt = Printf.ksprintf failwith fmt

let ok_or what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Session.describe_error e)

let warmup_s = 3.

(* set-up is repeated and its median reported, so that work moved into
   set-up shows as a steady number *)
let setups_per_run = 5

(* ---- scratch space and child processes ---- *)

let exe_dir =
  let e = Sys.executable_name in
  Filename.dirname (if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e)

(* dune builds bin/rfview.exe into the same tree as this executable;
   scratch space sits beside that tree's context, in the build
   directory, never in the source tree *)
let server_exe = Filename.concat (Filename.dirname exe_dir) "bin/rfview.exe"
let build_root = Filename.dirname (Filename.dirname exe_dir)
let runs_root = Filename.concat build_root "warebench-runs"
let run_dir = Filename.concat runs_root (string_of_int (Unix.getpid ()))
let in_run name = Filename.concat run_dir name

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun n ->
      let ic = open_in_bin (Filename.concat src n) in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst n) in
      output_string oc body;
      close_out oc)
    (Sys.readdir src)

let children = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

(* Runs on every exit path: no server outlives the benchmark and no
   scratch directory is left behind. *)
let cleanup () =
  List.iter reap !children;
  rm_rf run_dir;
  try Unix.rmdir runs_root with Unix.Unix_error _ -> ()

(* ---- the wire client ---- *)

type conn = {
  fd : Unix.file_descr;
  partial : Buffer.t;
  chunk : Bytes.t;
  lines : string Queue.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; partial = Buffer.create 4096; chunk = Bytes.create 65536; lines = Queue.create () }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c lines =
  let b = Bytes.of_string (String.concat "" (List.map (fun l -> l ^ "\n") lines)) in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read what the socket holds; complete lines go to [c.lines]. *)
let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then fail "the server closed the connection";
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get c.chunk i = '\n' then begin
      Buffer.add_subbytes c.partial c.chunk !start (i - !start);
      Queue.push (Buffer.contents c.partial) c.lines;
      Buffer.clear c.partial;
      start := i + 1
    end
  done;
  Buffer.add_subbytes c.partial c.chunk !start (n - !start)

let rec select_read fds timeout =
  try
    let r, _, _ = Unix.select fds [] [] timeout in
    r
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

let rec recv_line c ~timeout =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None ->
    if select_read [ c.fd ] timeout = [] then fail "no answer within %.0f s" timeout;
    fill c;
    recv_line c ~timeout

let call c line =
  send c [ line ];
  recv_line c ~timeout:60.

(* ---- the server child ---- *)

type server = { pid : int; port : int; out : Unix.file_descr }

let read_line_from fd ~timeout =
  let b = Buffer.create 128 and byte = Bytes.create 1 in
  let deadline = now () +. timeout in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. || select_read [ fd ] left = [] then fail "the server did not start";
    if Unix.read fd byte 0 1 = 0 then fail "the server exited during start-up";
    match Bytes.get byte 0 with
    | '\n' -> Buffer.contents b
    | ch ->
      Buffer.add_char b ch;
      go ()
  in
  go ()

let start_server dir =
  if not (Sys.file_exists server_exe) then fail "server binary not found: %s" server_exe;
  let r, w = Unix.pipe ~cloexec:true () in
  (* the server never reads stdin: hand it a pipe already at end of file *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let pid =
    Unix.create_process server_exe
      [| server_exe; "serve"; dir; "--port"; "0"; "--domains"; "2" |]
      stdin_r w Unix.stderr
  in
  Unix.close w;
  Unix.close stdin_r;
  children := pid :: !children;
  (* "serving DIR on 127.0.0.1:PORT (2 reader domain(s))", after a
     recovery report when recovery had work to do *)
  let marker = " on 127.0.0.1:" in
  let rec find line i =
    if i + String.length marker > String.length line then None
    else if String.sub line i (String.length marker) = marker then Some (i + String.length marker)
    else find line (i + 1)
  in
  let rec banner () =
    let line = read_line_from r ~timeout:60. in
    match find line 0 with
    | None -> banner ()
    | Some at ->
      let stop = try String.index_from line at ' ' with Not_found -> String.length line in
      (match int_of_string_opt (String.sub line at (stop - at)) with
       | Some port -> port
       | None -> fail "unexpected banner: %s" line)
  in
  { pid; port = banner (); out = r }

(* VmHWM: the server's peak resident set, in MiB. *)
let peak_rss_mb srv =
  let ic = open_in (Printf.sprintf "/proc/%d/status" srv.pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> fail "no VmHWM for the server"
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let stop_server srv =
  (match connect srv.port with
   | c ->
     (try ignore (call c "shutdown") with Failure _ | Unix.Unix_error _ -> ());
     disconnect c
   | exception Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ -> reap srv.pid
    | _ -> children := List.filter (( <> ) srv.pid) !children
  in
  wait ();
  Unix.close srv.out

(* ---- the server's request handling, run in-process ----

   These mirror [Rfview_server.Server]'s handlers call for call, so the
   in-process replay does the server's work minus the socket.  With a
   tracer, each call into a layer is a span. *)

let serve_read ?tr s sql =
  let sn, snap_s = Span.timed tr "mvcc.snapshot" (fun () -> Snapshot.snapshot s) in
  let rel, query_s = Span.timed tr "mvcc.query" (fun () -> Snapshot.query sn sql) in
  let rel = ok_or sql rel in
  let data = Span.span tr "server.render" (fun () -> Relation.render ~max_rows:max_int rel) in
  let line =
    Span.span tr "server.encode" (fun () ->
        Wire.ok_fields
          [
            ("lsn", Wire.jint (Snapshot.lsn sn));
            ("rows", Wire.jint (Relation.cardinality rel));
            ("data", Wire.jstr data);
          ])
  in
  let (), close_s = Span.timed tr "mvcc.close" (fun () -> Snapshot.close sn) in
  Span.sample tr "mvcc.snapshot_close" (snap_s +. close_s);
  (rel, line, query_s)

let serve_exec ?tr s sql =
  let ast = Span.span tr "sql.parse" (fun () -> Parser.statement sql) in
  let r = ok_or sql (Span.span tr "engine.exec" (fun () -> Session.exec_statement s ast)) in
  let text =
    Span.span tr "server.render" (fun () ->
        match r with Session.Relation rel -> Relation.render rel | Session.Done m -> m)
  in
  Span.span tr "server.encode" (fun () ->
      Wire.ok_fields [ ("result", Wire.jstr text); ("lsn", Wire.jint (Session.lsn s)) ])

let serve_batch ?tr s stmts =
  let results =
    Span.span tr "engine.batch" (fun () ->
        Session.with_batch s (fun () ->
            List.map
              (fun sql ->
                let ast = Span.span tr "sql.parse" (fun () -> Parser.statement sql) in
                Span.span tr "engine.statement" (fun () -> Session.exec_statement s ast))
              stmts))
  in
  List.iter2 (fun sql r -> ignore (ok_or sql r)) stmts results;
  Span.span tr "server.encode" (fun () ->
      Wire.ok_fields
        [ ("executed", Wire.jint (List.length stmts)); ("lsn", Wire.jint (Session.lsn s)) ])

(* ---- the per-layer replay (traced runs only) ---- *)

type tracer = { spans : Span.t; wal : Wal.writer (* scratch log *) }

(* Operator self times from EXPLAIN ANALYZE: each entry's inclusive time
   minus that of its direct children (entries come in pre-order). *)
let operator_self (entries : P.Physical.profile_entry list) =
  let a = Array.of_list entries in
  Array.mapi
    (fun i (e : P.Physical.profile_entry) ->
      let child = ref 0. and j = ref (i + 1) in
      while !j < Array.length a && a.(!j).depth > e.depth do
        if a.(!j).depth = e.depth + 1 then child := !child +. a.(!j).seconds;
        incr j
      done;
      (e.label, e.rows, e.seconds -. !child))
    a

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_sub sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The query pipeline of one read, layer by layer, against the live
   state the snapshot captured; whatever [Snapshot.query] spent beyond
   these parts is the MVCC layer's own cost. *)
let replay_read tr s sql ~query_s =
  let t = Some tr in
  let ast, parse_s = Span.timed t "sql.parse" (fun () -> Parser.statement sql) in
  let q = match ast with Ast.St_query q -> q | _ -> fail "not a query: %s" sql in
  let logical, bind_s =
    Span.timed t "planner.bind" (fun () -> P.Binder.bind_query (Session.binder_catalog s) q)
  in
  let logical, opt_s = Span.timed t "planner.optimize" (fun () -> P.Optimize.optimize logical) in
  let cat = Session.catalog_view s in
  let cfg = Session.config s in
  let opts =
    {
      P.Physical.window_strategy = cfg.Rfview.Config.window_strategy;
      enable_hash_join = cfg.hash_join;
      enable_index_join = cfg.index_join;
    }
  in
  let plan, plan_s = Span.timed t "planner.plan" (fun () -> P.Physical.plan ~opts cat logical) in
  let (rel, profile), exec_s =
    Span.timed t "relalg.execute" (fun () -> P.Physical.execute_analyze cat plan)
  in
  let ops = operator_self profile in
  let total pred = Array.fold_left (fun acc (l, _, x) -> if pred l then acc +. x else acc) 0. ops in
  let has pred = Array.exists (fun (l, _, _) -> pred l) ops in
  let scan_like l =
    List.exists (fun p -> starts_with p l) [ "Scan"; "Filter"; "Project"; "Alias" ]
  in
  let window = starts_with "Window" and join = has_sub "Join" in
  Span.sample t "relalg.scan_filter" (total scan_like);
  if has window then Span.sample t "relalg.window" (total window);
  if has join then Span.sample t "relalg.join" (total join);
  let scanned =
    Array.fold_left (fun acc (l, rows, _) -> if starts_with "Scan" l then acc + rows else acc) 0 ops
  in
  Span.sample t "relalg.rows_examined_per_row"
    (float_of_int scanned /. float_of_int (max 1 (Relation.cardinality rel)));
  Span.sample t "mvcc.query_overhead" (query_s -. (parse_s +. bind_s +. opt_s +. plan_s +. exec_s))

(* A write as the server receives it: its statements, and the edits
   each statement makes. *)
type write = { sqls : string list; statements : Data.edit list list; batched : bool }

let write_of_request = function
  | Gen.Batch edits ->
    { sqls = List.map Data.edit_sql edits; statements = List.map (fun e -> [ e ]) edits; batched = true }
  | Gen.Exec e -> { sqls = [ Data.edit_sql e ]; statements = [ [ e ] ]; batched = false }
  | r -> fail "not a write: %s" (Gen.class_name r)

let view_states s =
  let db = (Session.Unsafe.database [@alert "-unsafe"]) s in
  List.map
    (fun v ->
      match Db.view_state db v.Data.name with
      | Some st -> st
      | None -> fail "view %s has no sequence state" v.Data.name)
    Data.views

(* An edit as a row change: the row it adds, removes or replaces. *)
let change = function
  | Data.Insert { grp; pos; v } -> `Ins (Data.row ~grp ~pos v)
  | Data.Delete { grp; pos; old_v } -> `Del (Data.row ~grp ~pos old_v)
  | Data.Update { grp; pos; old_v; v } -> `Upd (Data.row ~grp ~pos old_v, Data.row ~grp ~pos v)

(* One logical record per statement, as the engine logs them; a lone
   statement keeps its own framing, several share one batch record. *)
let wal_record statements =
  let record edits =
    let changes = List.map change edits in
    let rows f = Array.of_list (List.filter_map f changes) in
    match changes with
    | `Ins _ :: _ -> Wal.Insert { table = "seq"; rows = rows (function `Ins r -> Some r | _ -> None) }
    | `Del _ :: _ -> Wal.Delete { table = "seq"; rows = rows (function `Del r -> Some r | _ -> None) }
    | `Upd _ :: _ -> Wal.Update { table = "seq"; pairs = rows (function `Upd p -> Some p | _ -> None) }
    | [] -> fail "a statement without edits"
  in
  match List.map record statements with [ r ] -> r | rs -> Wal.Batch rs

(* Maintenance and logging of one write, replayed on copies of the view
   states taken before the engine applied it: the per-row path, the
   batched path and the shared-scan path over the same delta, the
   render that follows maintenance, and the WAL record framed, appended
   and synced to a scratch log. *)
let replay_write tr s (w : write) ~per_row ~batch ~shared =
  let t = Some tr.spans in
  let changes = List.map change (List.concat w.statements) in
  let pick f = List.filter_map f changes in
  let inserts = pick (function `Ins r -> Some r | _ -> None)
  and deletes = pick (function `Del r -> Some r | _ -> None)
  and updates = pick (function `Upd p -> Some p | _ -> None) in
  if w.batched then
    ignore (Span.span t "analysis.share_classes" (fun () -> Session.share_classes s ~table:"seq"));
  List.iter
    (fun st ->
      List.iter
        (fun c ->
          Span.span t "matview.apply_row" (fun () ->
              match c with
              | `Ins row -> Matview.apply_insert st row
              | `Del row -> Matview.apply_delete st row
              | `Upd (old_row, new_row) -> Matview.apply_update st ~old_row ~new_row))
        changes)
    per_row;
  List.iter
    (fun st ->
      Span.span t "matview.apply_batch" (fun () -> Matview.apply_batch st ~inserts ~deletes ~updates))
    batch;
  let plan =
    Span.span t "matview.shared_plan" (fun () -> Matview.shared_plan shared ~inserts ~deletes ~updates)
  in
  List.iter (fun st -> Span.span t "matview.apply_shared" (fun () -> Matview.apply_shared plan st)) shared;
  List.iter (fun st -> ignore (Span.span t "matview.render" (fun () -> Matview.render st))) shared;
  let record = wal_record w.statements in
  let framed = Span.span t "wal.frame" (fun () -> Wal.frame record) in
  Span.span t "wal.append" (fun () -> Wal.append tr.wal record);
  Span.span t "wal.fsync" (fun () -> Wal.sync tr.wal);
  let bytes = float_of_int (String.length framed) in
  Span.sample t "wal.bytes_per_commit" bytes;
  Span.sample t "wal.bytes_per_row" (bytes /. float_of_int (List.length changes))

(* ---- requests in-process, traced or not ---- *)

let response_kb tr line = Span.sample tr "server.response_kb" (float_of_int (String.length line) /. 1024.)

(* Each returns the server-path time of the request in seconds. *)

let run_read ?tracer s sql =
  match tracer with
  | None ->
    let t0 = now () in
    let rel, _, _ = serve_read s sql in
    (rel, now () -. t0)
  | Some tr ->
    let t = Some tr.spans in
    Span.next_request tr.spans;
    let (rel, line, query_s), root = Span.timed t "request" (fun () -> serve_read ?tr:t s sql) in
    response_kb t line;
    Span.span t "replay" (fun () -> replay_read tr.spans s sql ~query_s);
    (rel, root)

let run_write ?tracer s (w : write) =
  let serve tr () =
    if w.batched then serve_batch ?tr s w.sqls
    else match w.sqls with [ sql ] -> serve_exec ?tr s sql | _ -> fail "exec takes one statement"
  in
  match tracer with
  | None ->
    let t0 = now () in
    ignore (serve None ());
    now () -. t0
  | Some tr ->
    let t = Some tr.spans in
    let states = view_states s in
    let copies () = List.map Matview.copy_state states in
    let per_row = copies () and batch = copies () and shared = copies () in
    Span.next_request tr.spans;
    let line, root = Span.timed t "request" (serve t) in
    response_kb t line;
    Span.span t "replay" (fun () -> replay_write tr s w ~per_row ~batch ~shared);
    root

let run_request ?tracer s = function
  | (Gen.Lookup _ | Gen.Window _ | Gen.Derive) as r -> snd (run_read ?tracer s (Gen.query_sql r))
  | r -> run_write ?tracer s (write_of_request r)

(* ---- building and checking the database ---- *)

let seq_ddl = "CREATE TABLE seq (grp INT, pos INT, val FLOAT)"

(* One partition of the initial load: a single multi-row INSERT, one
   group commit. *)
let load_write (data : Data.t) g =
  let edits =
    List.init (Data.size data g) (fun i ->
        Data.Insert { grp = g; pos = data.(g).Data.pos.(i); v = data.(g).Data.vals.(i) })
  in
  let tuple = function
    | Data.Insert { grp; pos; v } -> Printf.sprintf "(%d, %d, %.1f)" grp pos v
    | _ -> assert false
  in
  {
    sqls = [ "INSERT INTO seq VALUES " ^ String.concat ", " (List.map tuple edits) ];
    statements = [ edits ];
    batched = true;
  }

(* The views exist before the load, so the load itself is maintained
   incrementally, as an ETL load into a live warehouse would be. *)
let build_db ?tracer dir (data : Data.t) ~matseq =
  let s = ok_or dir (Session.open_durable dir) in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      List.iter
        (fun sql ->
          match tracer with
          | None -> ignore (serve_exec s sql)
          | Some tr ->
            let t = Some tr.spans in
            Span.next_request tr.spans;
            response_kb t (Span.span t "request" (fun () -> serve_exec ?tr:t s sql)))
        (seq_ddl :: List.map Data.view_sql Data.views);
      for g = 0 to Data.groups - 1 do
        ignore (run_write ?tracer s (load_write data g))
      done;
      Seqgen.create_matseq_table_session ~indexed:true s (Data.matseq_seq matseq);
      ok_or "checkpoint" (Session.checkpoint s))

(* Reopen [dir] through recovery and compare every view, the base table
   and the Table 1/2 answers with the reference; the failures found. *)
let check_db ?tracer dir (data : Data.t) ~matseq =
  let s = ok_or ("recovering " ^ dir) (Session.open_durable dir) in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      let q sql = Data.cells_of_relation (fst (run_read ?tracer s sql)) in
      let view v =
        Data.same_rows ~what:v.Data.name ~expected:(Data.expected_view data v)
          (q (Printf.sprintf "SELECT grp, pos, val, %s FROM %s" v.Data.col v.Data.name))
      in
      let window g =
        Data.same_rows
          ~what:(Printf.sprintf "window over grp %d" g)
          ~expected:(Data.expected_window data ~grp:g)
          (q (Data.window_sql g))
      in
      let checks =
        (Data.same_rows ~what:"seq" ~expected:(Data.expected_seq data) (q "SELECT grp, pos, val FROM seq")
        :: List.map view Data.views)
        @ List.init Data.groups window
        @ [ Data.check_derive matseq (q Data.derive_sql) ]
      in
      List.filter_map (function Ok () -> None | Error m -> Some m) checks)

(* ---- driving the server ---- *)

type answer = {
  idx : int;  (** position in its connection's stream *)
  req : Gen.request;
  sent : float;
  recv : float;
  reply : (Reply.t, string) result;  (** [data] kept only when sampled *)
}

type stream = {
  conn : conn;
  next : unit -> Gen.request;
  keep_data : int -> bool;  (** which answers keep their table for checking *)
  mutable count : int;
  mutable inflight : (int * Gen.request * float) option;
  mutable answers : answer list;  (** newest first *)
}

let stream ?(keep_data = fun _ -> false) conn next =
  { conn; next; keep_data; count = 0; inflight = None; answers = [] }

(* Closed loop: each connection sends its next request as soon as the
   previous one is answered, until [until]; answers still in flight
   then are awaited. *)
let drive streams ~until =
  let rec loop () =
    if now () < until then
      List.iter
        (fun st ->
          if st.inflight = None then begin
            let r = st.next () in
            let lines = Gen.lines r in
            let sent = now () in
            send st.conn lines;
            st.inflight <- Some (st.count, r, sent);
            st.count <- st.count + 1
          end)
        streams;
    let busy = List.filter (fun st -> st.inflight <> None) streams in
    if busy <> [] then begin
      let ready = select_read (List.map (fun st -> st.conn.fd) busy) 60. in
      if ready = [] then fail "no answer within 60 s";
      (* stamp every arrival before decoding any of them *)
      let arrived =
        List.filter_map
          (fun st ->
            if not (List.mem st.conn.fd ready) then None
            else begin
              fill st.conn;
              Option.map (fun line -> (st, now (), line)) (Queue.take_opt st.conn.lines)
            end)
          busy
      in
      List.iter
        (fun (st, recv, line) ->
          let idx, req, sent = Option.get st.inflight in
          st.inflight <- None;
          let reply =
            Result.map
              (fun r -> if st.keep_data idx then r else List.remove_assoc "data" r)
              (Reply.parse line)
          in
          st.answers <- { idx; req; sent; recv; reply } :: st.answers)
        arrived;
      loop ()
    end
  in
  loop ()

let answers st = List.rev st.answers

(* ---- results ---- *)

type metric = { name : string; value : float; unit : string; n : int; note : string }

let metric ?(note = "") name value unit n = { name; value; unit; n; note }

type outcome = {
  metrics : metric list;
  details : metric list;  (** printed for people, not part of the result *)
  attempted : int;
  failed : int;
  wrong : string list;  (** wrong results and malformed answers *)
}

let pct samples q =
  let s = Stats.sorted samples in
  if Array.length s = 0 then nan else Stats.percentile s q

let latency_metrics ~prefix samples =
  let n = Array.length samples in
  let ms q =
    let note = if Stats.supported ~n q then "" else "fewer than 10 samples beyond" in
    metric ~note (Printf.sprintf "%sp%g_ms" prefix q) (1e3 *. pct samples q) "ms" n
  in
  (ms 50., ms 95.)

let good answers =
  List.filter_map
    (fun a -> match a.reply with Ok r when Reply.ok r -> Some (a, r) | _ -> None)
    answers

(* errors, refusals and malformed answers *)
let failed_answers answers = List.length answers - List.length (good answers)

let malformed answers =
  List.filter_map
    (fun a -> match a.reply with Error m -> Some ("malformed answer: " ^ m) | Ok _ -> None)
    answers

let latencies l = Array.of_list (List.map (fun (a, _) -> a.recv -. a.sent) l)

let table_rows r =
  match Reply.field r "data" with
  | None -> Error "answer without data"
  | Some text -> Result.map snd (Reply.decode_table text)

let expected_rows data = function
  | Gen.Lookup { grp; lo; hi } -> Data.lookup_count data ~grp ~lo ~hi
  | Gen.Window { grp } -> Data.size data grp
  | Gen.Derive -> Data.derive_rows
  | r -> fail "not a read: %s" (Gen.class_name r)

let check_read data ~matseq (a, r) =
  match Reply.int_field r "rows", expected_rows data a.req with
  | Some got, want when got <> want ->
    Error (Printf.sprintf "%s: %d rows, expected %d" (Gen.class_name a.req) got want)
  | None, _ -> Error "answer without rows"
  | Some _, _ when Reply.field r "data" = None -> Ok ()
  | Some _, _ ->
    Result.bind (table_rows r) (fun rows ->
        match a.req with
        | Gen.Lookup { grp; lo; hi } ->
          Data.same_rows ~what:"lookup" ~expected:(Data.expected_lookup data ~grp ~lo ~hi) rows
        | Gen.Window { grp } ->
          Data.same_rows ~what:"window" ~expected:(Data.expected_window data ~grp) rows
        | Gen.Derive -> Data.check_derive matseq rows
        | _ -> Ok ())

let errors results = List.filter_map (function Error m -> Some m | Ok () -> None) results

(* ---- the workloads ---- *)

let workloads = [ "report-read"; "etl-batch"; "trickle-mixed" ]

(* Connections and their request streams.  report-read: two
   connections share one read-only stream.  etl-batch: two loaders of
   20-statement batches, each owning half of the partitions; the server
   runs one writer at a time, so each waits for the other's commit.
   The second loader spreads the server's write work over both of its
   reader domains, so a run does not measure whichever one CPU a lone
   connection happened to land on.  trickle-mixed: a writer sending
   one auto-committed statement at a time and a reader sending
   lookups. *)
let open_streams name port ~seed ~data =
  let sample every i = i mod every = seed mod every in
  match name with
  | "report-read" ->
    let gen = Gen.report_read ~seed data in
    List.init 2 (fun _ -> stream ~keep_data:(sample 50) (connect port) gen)
  | "etl-batch" ->
    List.init 2 (fun loader -> stream (connect port) (Gen.etl_batch ~seed ~loader ~loaders:2 data))
  | "trickle-mixed" ->
    let writer = stream (connect port) (Gen.trickle_writer ~seed data) in
    [ writer; stream ~keep_data:(sample 20) (connect port) (Gen.trickle_reader ~seed (Data.create ~seed)) ]
  | _ -> fail "unknown workload %s" name

let run_streams streams ~until =
  Fun.protect
    ~finally:(fun () -> List.iter (fun st -> disconnect st.conn) streams)
    (fun () -> drive streams ~until)

type window = { m_start : float; m_end : float; seconds : float }

let measured w l = List.filter (fun (a, _) -> a.sent >= w.m_start && a.sent < w.m_end) l
let rate ?(name = "throughput_per_s") w n = metric name (float_of_int n /. w.seconds) "1/s" n

let base_outcome all =
  { metrics = []; details = []; attempted = List.length all; failed = failed_answers all; wrong = malformed all }

(* Every answer's row count is checked, and the sampled answers' rows
   in full; the latency is that of each query. *)
let report_read_outcome streams ~data ~matseq w =
  let all = List.concat_map answers streams in
  let ok = good all in
  let m = measured w ok in
  let p50, p95 = latency_metrics ~prefix:"" (latencies m) in
  let per_class cls =
    let l = List.filter (fun (a, _) -> Gen.class_name a.req = cls) m in
    let p50, p95 = latency_metrics ~prefix:(cls ^ "_") (latencies l) in
    [ p50; p95 ]
  in
  let o = base_outcome all in
  {
    o with
    metrics = [ p50; p95; rate w (List.length m) ];
    details = List.concat_map per_class [ "lookup"; "window"; "derive" ];
    wrong = o.wrong @ errors (List.map (check_read data ~matseq) ok);
  }

(* Every batch must execute all 20 statements, and the batches of both
   loaders commit under consecutive LSNs; the latency is send to
   acknowledgement. *)
let etl_batch_outcome streams w =
  let all = List.concat_map answers streams in
  let ok = good all in
  let acked (_, r) =
    match Reply.int_field r "executed", Reply.field r "first_error" with
    | _, Some e -> Error ("batch statement failed: " ^ e)
    | Some 20, None -> Ok ()
    | _ -> Error "batch not fully executed"
  in
  let lsns = List.sort compare (List.filter_map (fun (_, r) -> Reply.int_field r "lsn") ok) in
  let rec consecutive = function
    | a :: (b :: _ as rest) -> if b = a + 1 then consecutive rest else [ "batch LSNs not consecutive" ]
    | _ -> []
  in
  let m = measured w ok in
  let n = List.length m in
  let p50, p95 = latency_metrics ~prefix:"" (latencies m) in
  let o = base_outcome all in
  {
    o with
    metrics = [ p50; p95; rate w n ];
    details =
      [
        metric "ingest_rows_s" (float_of_int (20 * n) /. w.seconds) "rows/s" n;
      ];
    wrong = o.wrong @ errors (List.map acked ok) @ consecutive lsns;
  }

(* Each write changes one row under the next LSN.  Each read is checked
   against the table as of the LSN it reports.  A write's latency is
   its visibility: from its send until the reader first gets an answer
   at or past its LSN. *)
let trickle_mixed_outcome streams ~seed ~matseq w =
  let writer, reader =
    match streams with [ wr; rd ] -> (answers wr, answers rd) | _ -> fail "trickle-mixed: two streams"
  in
  let writes = good writer and reads = good reader in
  let lsn r = Option.value ~default:(-1) (Reply.int_field r "lsn") in
  let wrong = ref [] in
  let note m = wrong := m :: !wrong in
  List.iter
    (fun (_, r) ->
      match Reply.field r "result" with
      | Some res when Filename.check_suffix res " 1" -> ()
      | _ -> note "a write did not change exactly one row")
    writes;
  let wl = Array.of_list (List.map (fun (a, r) -> (a, lsn r)) writes) in
  Array.iteri (fun i (_, l) -> if i > 0 && l <> snd wl.(i - 1) + 1 then note "write LSNs not consecutive") wl;
  let rl = Array.of_list (List.map (fun (a, r) -> (a, r, lsn r)) reads) in
  Array.iteri
    (fun i (_, _, l) ->
      let _, _, prev = if i > 0 then rl.(i - 1) else rl.(i) in
      if l < prev then note "a read's LSN went back")
    rl;
  (* replay the writes in LSN order, checking each read at its LSN *)
  let by_lsn = Array.copy rl in
  Array.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) by_lsn;
  let shadow = Data.create ~seed and applied = ref 0 in
  Array.iter
    (fun (a, r, l) ->
      while !applied < Array.length wl && snd wl.(!applied) <= l do
        (match (fst wl.(!applied)).req with Gen.Exec e -> Data.apply shadow e | _ -> ());
        incr applied
      done;
      match check_read shadow ~matseq (a, r) with Ok () -> () | Error m -> note m)
    by_lsn;
  let first_read_at l =
    let lo = ref 0 and hi = ref (Array.length rl) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let _, _, x = rl.(mid) in
      if x < l then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length rl then Some rl.(!lo) else None
  in
  let w_meas = measured w writes and r_meas = measured w reads in
  let vis =
    Array.of_list
      (List.filter_map
         (fun (a, r) -> Option.map (fun (ra, _, _) -> ra.recv -. a.sent) (first_read_at (lsn r)))
         w_meas)
  in
  let p50, p95 = latency_metrics ~prefix:"" vis in
  let rp50, rp95 = latency_metrics ~prefix:"read_" (latencies r_meas) in
  let cp50, cp95 = latency_metrics ~prefix:"commit_" (latencies w_meas) in
  let o = base_outcome (writer @ reader) in
  {
    o with
    metrics = [ p50; p95; rate w (List.length w_meas) ];
    details =
      [
        rp50;
        rp95;
        rate ~name:"read_qps" w (List.length r_meas);
        cp50;
        cp95;
        metric "visible_writes" (float_of_int (Array.length vis)) "count" (Array.length vis);
      ];
    wrong = o.wrong @ List.rev !wrong;
  }

let outcome name streams ~seed ~data ~matseq w =
  match name with
  | "report-read" -> report_read_outcome streams ~data ~matseq w
  | "etl-batch" -> etl_batch_outcome streams w
  | _ -> trickle_mixed_outcome streams ~seed ~matseq w

(* ---- an end-to-end run ---- *)

(* Build, checkpoint, serve and ping: what a user waits for before the
   first query.  Every server but the last is shut down again. *)
let setup ~data ~matseq =
  let rec go i times =
    let dir = in_run (Printf.sprintf "db%d" i) in
    let t0 = now () in
    build_db dir data ~matseq;
    let srv = start_server dir in
    let c = connect srv.port in
    let pong = Fun.protect ~finally:(fun () -> disconnect c) (fun () -> call c "ping") in
    let times = (now () -. t0) :: times in
    if Result.map Reply.ok (Reply.parse pong) <> Ok true then fail "ping failed: %s" pong;
    if i = setups_per_run then (srv, dir, Array.of_list times)
    else begin
      stop_server srv;
      rm_rf dir;
      go (i + 1) times
    end
  in
  go 1 []

let e2e_run name ~seed ~seconds =
  mkdir_p run_dir;
  let data = Data.create ~seed and matseq = Data.matseq_values ~seed in
  let srv, dir, setup_times = setup ~data ~matseq in
  let m_start = now () +. warmup_s in
  let w = { m_start; m_end = m_start +. seconds; seconds } in
  let streams = open_streams name srv.port ~seed ~data in
  run_streams streams ~until:w.m_end;
  let o = outcome name streams ~seed ~data ~matseq w in
  let rss = peak_rss_mb srv in
  stop_server srv;
  {
    o with
    metrics =
      (metric "setup_s" (Stats.median setup_times) "s" setups_per_run :: o.metrics)
      @ [ metric "peak_rss_mb" rss "MiB" 1 ];
    wrong = o.wrong @ check_db dir data ~matseq;
  }

(* ---- a traced run ---- *)

type source = Self of string | Sample of string

(* per-layer metric, its unit and scale, and where it is measured *)
let layer_metrics =
  [
    ("sql.parse_us", "us", 1e6, Self "sql.parse");
    ("planner.bind_us", "us", 1e6, Self "planner.bind");
    ("planner.optimize_us", "us", 1e6, Self "planner.optimize");
    ("planner.plan_us", "us", 1e6, Self "planner.plan");
    ("relalg.scan_filter_ms", "ms", 1e3, Sample "relalg.scan_filter");
    ("relalg.window_ms", "ms", 1e3, Sample "relalg.window");
    ("relalg.join_ms", "ms", 1e3, Sample "relalg.join");
    ("relalg.rows_examined_per_row", "count", 1., Sample "relalg.rows_examined_per_row");
    ("mvcc.snapshot_us", "us", 1e6, Sample "mvcc.snapshot_close");
    ("mvcc.query_overhead_ms", "ms", 1e3, Sample "mvcc.query_overhead");
    ("server.render_ms", "ms", 1e3, Self "server.render");
    ("server.encode_ms", "ms", 1e3, Self "server.encode");
    ("server.response_kb", "KiB", 1., Sample "server.response_kb");
    ("engine.statement_ms", "ms", 1e3, Self "engine.statement");
    ("engine.commit_ms", "ms", 1e3, Self "engine.batch");
    ("engine.exec_ms", "ms", 1e3, Self "engine.exec");
    ("analysis.share_classes_us", "us", 1e6, Self "analysis.share_classes");
    ("matview.apply_row_us", "us", 1e6, Self "matview.apply_row");
    ("matview.apply_batch_ms", "ms", 1e3, Self "matview.apply_batch");
    ("matview.shared_plan_ms", "ms", 1e3, Self "matview.shared_plan");
    ("matview.apply_shared_ms", "ms", 1e3, Self "matview.apply_shared");
    ("matview.render_ms", "ms", 1e3, Self "matview.render");
    ("wal.frame_us", "us", 1e6, Self "wal.frame");
    ("wal.append_us", "us", 1e6, Self "wal.append");
    ("wal.fsync_ms", "ms", 1e3, Self "wal.fsync");
    ("wal.bytes_per_commit", "B", 1., Sample "wal.bytes_per_commit");
    ("wal.bytes_per_row", "B", 1., Sample "wal.bytes_per_row");
  ]

let sum = Array.fold_left ( +. ) 0.

(* The load, the stream and the final check are all replayed; a layer
   the stream never reaches is measured on the load or the check. *)
let trace_run name ~seed ~seconds =
  let data = Data.create ~seed and matseq = Data.matseq_values ~seed in
  mkdir_p run_dir;
  let spans = Span.create () in
  let tracer = { spans; wal = Wal.create (in_run "replay.wal") ~epoch:0 } in
  let base = in_run "base" in
  build_db ~tracer base data ~matseq;
  copy_dir base (in_run "untraced");
  copy_dir base (in_run "traced");
  (* the request stream over the wire, untraced *)
  let srv = start_server base in
  let start = now () in
  let w = { m_start = start; m_end = start +. Float.max 2. (seconds /. 3.); seconds } in
  let streams = open_streams name srv.port ~seed ~data in
  run_streams streams ~until:w.m_end;
  stop_server srv;
  let o = outcome name streams ~seed ~data ~matseq w in
  let sent = List.concat_map answers streams in
  let sent = List.sort (fun a b -> compare a.sent b.sent) sent in
  let wire = Array.of_list (List.map (fun a -> a.recv -. a.sent) sent) in
  (* the same requests in-process, each run untraced on one copy and
     traced on the other, in alternating order, so that drift over the
     replay weighs on both sides alike *)
  let open_copy name = ok_or name (Session.open_durable (in_run name)) in
  let su = open_copy "untraced" and st = open_copy "traced" in
  let untraced, traced =
    Fun.protect
      ~finally:(fun () ->
        Session.close su;
        Session.close st)
      (fun () ->
        List.split
          (List.mapi
             (fun i a ->
               let u () = run_request su a.req and t () = run_request ~tracer st a.req in
               if i mod 2 = 0 then
                 let x = u () in
                 (x, t ())
               else
                 let y = t () in
                 (u (), y))
             sent))
  in
  let untraced = Array.of_list untraced and traced = Array.of_list traced in
  let wrong = o.wrong @ check_db ~tracer (in_run "traced") data ~matseq in
  Wal.close tracer.wal;
  let trace_file = Filename.concat build_root (Printf.sprintf "warebench-trace-%s.tsv" name) in
  Span.write spans trace_file;
  Printf.eprintf "spans written to %s\n%!" trace_file;
  let layer (name, unit, scale, src) =
    let xs =
      match src with Self span -> Span.self_times spans span | Sample s -> Span.samples spans s
    in
    if Array.length xs = 0 then fail "the trace holds no sample for %s" name;
    metric name (scale *. Stats.median xs) unit (Array.length xs)
  in
  let n = Array.length traced in
  let roots = Span.durations spans "request" in
  let computed =
    [
      (* the wire's share that no layer claims *)
      metric "server.residual_ms" (1e3 *. (Stats.mean wire -. Stats.mean traced)) "ms" n;
      metric "trace.overhead_pct" (100. *. (sum traced -. sum untraced) /. sum untraced) "%" n;
      metric "trace.unattributed_pct"
        (100. *. sum (Span.self_times spans "request") /. sum roots)
        "%" (Array.length roots);
    ]
  in
  { o with metrics = List.map layer layer_metrics @ computed; details = []; wrong }

(* ---- output ---- *)

let json_number x = Printf.sprintf "%.17g" x

let report name ~seed ~trace (o : outcome) =
  Printf.printf "workload %s, seed %d%s\n" name seed (if trace then ", traced replay" else "");
  let line tag m =
    Printf.printf "  %s%-30s %16.6f %-6s (n=%d)%s\n" tag m.name m.value m.unit m.n
      (if m.note = "" then "" else ", " ^ m.note)
  in
  List.iter (line "") o.metrics;
  List.iter (line "detail ") o.details;
  Printf.printf "  attempted %d, failed %d, wrong %d\n" o.attempted o.failed (List.length o.wrong);
  List.iteri (fun i m -> if i < 5 then Printf.printf "  WRONG: %s\n" m) o.wrong;
  let finite = List.for_all (fun m -> Float.is_finite m.value) o.metrics in
  let correct = o.wrong = [] && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Wire.jstr m.name)
              (if Float.is_finite m.value then json_number m.value else "null")
              (Wire.jstr m.unit))
          o.metrics));
  correct && o.failed = 0

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> -1
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.value ~default:(-1) n

let usage () =
  prerr_endline
    "usage: main.exe [--workload report-read|etl-batch|trickle-mixed|all] [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let () =
  at_exit cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  let workload = ref "all" and seed = ref 1 and seconds = ref 20. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when w = "all" || List.mem w workloads ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun x -> x > 0.) (float_of_string_opt s) ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names = if !workload = "all" then workloads else [ !workload ] in
  Printf.printf "host {\"cores\": %d, \"nproc\": %d, \"ocaml\": %s, \"seed\": %d}\n%!"
    (Domain.recommended_domain_count ()) (nproc ()) (Wire.jstr Sys.ocaml_version) !seed;
  match
    List.fold_left
      (fun clean name ->
        let run = if !trace then trace_run else e2e_run in
        let o = run name ~seed:!seed ~seconds:!seconds in
        cleanup ();
        report name ~seed:!seed ~trace:!trace o && clean)
      true names
  with
  | true -> exit 0
  | false -> exit 1
  | exception (Failure m | Sys_error m) ->
    prerr_endline ("warebench: " ^ m);
    exit 2
  | exception Unix.Unix_error (e, f, _) ->
    prerr_endline (Printf.sprintf "warebench: %s: %s" f (Unix.error_message e));
    exit 2
