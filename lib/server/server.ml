module Session = Rfview.Session
module Snapshot = Rfview.Snapshot
module Relation = Rfview_relalg.Relation

type t = {
  session : Session.t;
  pool : Pool.t;
  sock : Unix.file_descr;
  port : int;
  writer_mu : Mutex.t;
  stop_flag : bool Atomic.t;
  sock_closed : bool Atomic.t;
  mutable acceptor : unit Domain.t option;
}

let port srv = srv.port

(* Upper bound on [batch N]: the header alone would otherwise make the
   server buffer any number of lines a client claims to send. *)
let max_batch = 10_000

(* Upper bound on one request or batch-payload line: a client that never
   sends a newline would otherwise make the server buffer without limit. *)
let max_line = 1 lsl 20

exception Line_too_long

(* [input_line], refusing a line longer than [max_line] bytes. *)
let read_line ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Buffer.contents buf
    | c when Buffer.length buf < max_line ->
      Buffer.add_char buf c;
      go ()
    | _ -> raise Line_too_long
    | exception End_of_file when Buffer.length buf > 0 -> Buffer.contents buf
  in
  go ()

let close_sock srv =
  (* exactly-once: a double [Unix.close] could hit a reused descriptor *)
  if Atomic.compare_and_set srv.sock_closed false true then
    try Unix.close srv.sock with Unix.Unix_error _ -> ()

(* ---- per-connection protocol loop (runs on a pool worker) ---- *)

let render_result = function
  | Session.Relation rel -> Relation.render rel
  | Session.Done msg -> msg

let describe = Session.describe_error

(* ---- The answer to a query ----

   One writer makes the line {"ok":true,"lsn":N,"rows":R,"data":"..."}:
   the envelope, then the JSON form of the table ([Relation.table]),
   written where it goes after one measuring pass.  The bytes are those
   of [Wire.ok_fields] over [Wire.jstr (Relation.render rel)], without
   the rendered string, its escaped copy or the object's copy of that.
   A connection writes its answers into one buffer of its own, grown
   geometrically and reused, and sends each with one write; an answer
   above [answer_cap] gets a buffer of its own, so a connection never
   keeps more than that. *)

let answer_cap = 1 lsl 20

type answer = {
  table : Relation.table;
  lsn : string;
  rows : string;
}

let answer rel ~lsn =
  {
    table = Relation.table ~max_rows:max_int ~json:true rel;
    lsn = Wire.jint lsn;
    rows = Wire.jint (Relation.cardinality rel);
  }

let lsn_key = {|{"ok":true,"lsn":|}
let rows_key = {|,"rows":|}
let data_key = {|,"data":"|}

(* without a newline *)
let answer_length a =
  String.length lsn_key + String.length a.lsn + String.length rows_key + String.length a.rows
  + String.length data_key + Relation.table_length a.table + 2

let blit_answer a b =
  let put s at =
    Bytes.blit_string s 0 b at (String.length s);
    at + String.length s
  in
  let at = put data_key (put a.rows (put rows_key (put a.lsn (put lsn_key 0)))) in
  let at = Relation.blit_table a.table b at in
  Bytes.set b at '"';
  Bytes.set b (at + 1) '}';
  at + 2

let query_response rel ~lsn =
  let a = answer rel ~lsn in
  let b = Bytes.create (answer_length a) in
  ignore (blit_answer a b);
  Bytes.unsafe_to_string b

type answer_buffer = { mutable bytes : Bytes.t }

let answer_buffer () = { bytes = Bytes.empty }

let query_line buf rel ~lsn =
  let a = answer rel ~lsn in
  let n = answer_length a + 1 in
  let b =
    if n > answer_cap then Bytes.create n
    else begin
      if Bytes.length buf.bytes < n then
        buf.bytes <- Bytes.create (Int.min answer_cap (Int.max n (2 * Bytes.length buf.bytes)));
      buf.bytes
    end
  in
  Bytes.set b (blit_answer a b) '\n';
  (b, n)

let handle_conn srv fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let pinned = ref None in
  let release () =
    Option.iter Snapshot.close !pinned;
    pinned := None
  in
  let respond s =
    output_string oc s;
    output_char oc '\n';
    flush oc
  in
  (* [respond] leaves nothing in [oc], so a write straight to [fd]
     keeps the order of the lines *)
  let answers = answer_buffer () in
  let respond_query rel ~lsn =
    let b, n = query_line answers rel ~lsn in
    ignore (Unix.write fd b 0 n)
  in
  let with_writer f =
    Mutex.lock srv.writer_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock srv.writer_mu) f
  in
  let do_open rest =
    match
      if rest = "" then Ok (Snapshot.snapshot srv.session)
      else
        match int_of_string_opt rest with
        | None -> Error (Session.Runtime ("open: not an lsn: " ^ rest))
        | Some lsn -> Snapshot.at srv.session ~lsn
    with
    | Ok sn ->
      release ();
      pinned := Some sn;
      respond (Wire.ok_fields [ ("lsn", Wire.jint (Snapshot.lsn sn)) ])
    | Error e -> respond (Wire.error (describe e))
  in
  let do_query sql =
    let answer sn =
      match Snapshot.query sn sql with
      | Ok rel -> respond_query rel ~lsn:(Snapshot.lsn sn)
      | Error e -> respond (Wire.error (describe e))
    in
    match !pinned with
    | Some sn -> answer sn
    | None ->
      let sn = Snapshot.snapshot srv.session in
      Fun.protect ~finally:(fun () -> Snapshot.close sn) (fun () -> answer sn)
  in
  (* the LSN a write reports is read under the writer lock: read after
     it, another connection's commit may already have moved it *)
  let do_exec sql =
    match
      with_writer (fun () ->
          let r = Session.exec srv.session sql in
          (r, Session.lsn srv.session))
    with
    | Ok r, lsn ->
      respond
        (Wire.ok_fields
           [ ("result", Wire.jstr (render_result r)); ("lsn", Wire.jint lsn) ])
    | Error e, _ -> respond (Wire.error (describe e))
  in
  let do_batch rest =
    match int_of_string_opt rest with
    | None -> respond (Wire.error "batch: expected a statement count")
    | Some n when n <= 0 -> respond (Wire.error "batch: count must be positive")
    | Some n when n > max_batch ->
      respond
        (Wire.error
           (Printf.sprintf "batch: count %d exceeds the limit of %d" n
              max_batch))
    | Some n ->
      (* read the statements first: the writer lock is never held while
         blocked on the client *)
      let stmts = List.init n (fun _ -> read_line ic) in
      let results, lsn =
        with_writer (fun () ->
            let results =
              Session.with_batch srv.session (fun () ->
                  List.map (Session.exec srv.session) stmts)
            in
            (results, Session.lsn srv.session))
      in
      let failed =
        List.filter_map (function Error e -> Some e | Ok _ -> None) results
      in
      let fields =
        [ ("executed", Wire.jint (n - List.length failed)); ("lsn", Wire.jint lsn) ]
      in
      (match failed with
       | [] -> respond (Wire.ok_fields fields)
       | e :: _ ->
         respond
           (Wire.ok_fields (fields @ [ ("first_error", Wire.jstr (describe e)) ])))
  in
  let do_status () =
    respond
      (Wire.ok_fields
         [
           ("lsn", Wire.jint (Session.lsn srv.session));
           ( "retained",
             Wire.jlist (List.map Wire.jint (Snapshot.retained srv.session)) );
           ("snapshots", Wire.jint (Snapshot.open_count srv.session));
           ("domains", Wire.jint (Pool.domains srv.pool));
         ])
  in
  (* Refuse an over-long line and end the connection: half-close, then
     discard at most another [max_line] bytes, so a client still sending
     reads the error rather than a connection reset. *)
  let refuse_long_line () =
    (try
       respond
         (Wire.error
            (Printf.sprintf "line exceeds the limit of %d bytes" max_line))
     with _ -> ());
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let chunk = Bytes.create 65536 in
    let rec drain left =
      left > 0
      && match input ic chunk 0 (Bytes.length chunk) with
         | 0 -> false
         | n -> drain (left - n)
         | exception _ -> false
    in
    ignore (drain max_line)
  in
  let rec loop () =
    match read_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | exception Line_too_long -> refuse_long_line ()
    | line ->
      let continue = ref true in
      (try
         match Wire.split line with
         | "", _ -> respond (Wire.error "empty request")
         | "ping", _ -> respond (Wire.ok_fields [ ("pong", "true") ])
         | "open", rest -> do_open rest
         | "query", sql -> do_query sql
         | "exec", sql -> do_exec sql
         | "batch", rest -> do_batch rest
         | "status", _ -> do_status ()
         | "close", _ ->
           release ();
           respond (Wire.ok_fields [])
         | "quit", _ ->
           respond (Wire.ok_fields []);
           continue := false
         | "shutdown", _ ->
           respond (Wire.ok_fields []);
           Atomic.set srv.stop_flag true;
           continue := false
         | verb, _ -> respond (Wire.error ("unknown verb: " ^ verb))
       with
       | Line_too_long ->
         refuse_long_line ();
         continue := false
       | e -> (try respond (Wire.error (Printexc.to_string e)) with _ -> ()));
      if !continue then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      release ();
      try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* ---- acceptor ---- *)

(* Poll with a short select timeout so a shutdown requested from a
   connection handler (another domain) is noticed without relying on
   cross-domain close-while-blocked-in-accept semantics. *)
let rec accept_loop srv =
  if not (Atomic.get srv.stop_flag) then begin
    match Unix.select [ srv.sock ] [] [] 0.1 with
    | exception Unix.Unix_error _ -> ()
    | [], _, _ -> accept_loop srv
    | _ ->
      (match Unix.accept srv.sock with
       | fd, _ ->
         (try Pool.submit srv.pool (fun () -> handle_conn srv fd)
          with Invalid_argument _ -> Unix.close fd)
       | exception Unix.Unix_error _ -> Atomic.set srv.stop_flag true);
      accept_loop srv
  end

let start ?(domains = 4) ~session ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close sock;
     raise e);
  Unix.listen sock 16;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let srv =
    {
      session;
      pool = Pool.create ~domains;
      sock;
      port;
      writer_mu = Mutex.create ();
      stop_flag = Atomic.make false;
      sock_closed = Atomic.make false;
      acceptor = None;
    }
  in
  srv.acceptor <- Some (Domain.spawn (fun () -> accept_loop srv));
  srv

let wait srv =
  Option.iter Domain.join srv.acceptor;
  srv.acceptor <- None;
  Pool.shutdown srv.pool;
  close_sock srv

let stop srv =
  Atomic.set srv.stop_flag true;
  wait srv

(* ---- client ---- *)

module Client = struct
  type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect ~port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with e ->
       Unix.close fd;
       raise e);
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
    }

  let request c line =
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc;
    input_line c.ic

  let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end
