(* Session-server tests: the domain pool, the wire format, and real
   socket round-trips against a running server — including concurrent
   clients mixing snapshot reads with writer-serialized writes.

   RFVIEW_TEST_DOMAINS (default 4) sizes the pool for the concurrent
   suite; CI runs at 1 and at 4. *)

module Pool = Rfview_server.Pool
module Wire = Rfview_server.Wire
module Server = Rfview_server.Server
module Session = Rfview.Session

let test_domains =
  match Sys.getenv_opt "RFVIEW_TEST_DOMAINS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* ---- Pool ---- *)

let test_pool_runs_jobs () =
  let p = Pool.create ~domains:test_domains in
  let hits = Atomic.make 0 in
  let promises =
    List.init 50 (fun i -> Pool.async p (fun () -> Atomic.incr hits; i * i))
  in
  let results = List.map Pool.await promises in
  Pool.shutdown p;
  Alcotest.(check int) "every job ran" 50 (Atomic.get hits);
  Alcotest.(check (list int)) "results in submission order"
    (List.init 50 (fun i -> i * i))
    results

let test_pool_propagates_exceptions () =
  let p = Pool.create ~domains:1 in
  let pr = Pool.async p (fun () -> failwith "boom") in
  (match Pool.await pr with
   | _ -> Alcotest.fail "await must re-raise"
   | exception Failure m -> Alcotest.(check string) "the job's exception" "boom" m);
  Pool.shutdown p;
  (match Pool.submit p (fun () -> ()) with
   | () -> Alcotest.fail "submit after shutdown must refuse"
   | exception Invalid_argument _ -> ());
  (* shutdown is idempotent *)
  Pool.shutdown p

(* ---- Wire ---- *)

let test_wire_roundtrip () =
  Alcotest.(check string) "escaping" "a\\\"b\\\\c\\nd"
    (Wire.json_escape "a\"b\\c\nd");
  Alcotest.(check string) "control characters" "\\u0001\\t\\r x\\u001f"
    (Wire.json_escape "\001\t\r x\031");
  Alcotest.(check string) "empty string" "\"\"" (Wire.jstr "");
  Alcotest.(check string) "empty object" "{}" (Wire.jobj []);
  Alcotest.(check string) "object" "{\"a\\\"\":1,\"b\":\"c\\n\"}"
    (Wire.jobj [ ("a\"", "1"); ("b", Wire.jstr "c\n") ]);
  let obj = Wire.ok_fields [ ("n", Wire.jint 3); ("s", Wire.jstr "x y") ] in
  Alcotest.(check (option string)) "scalar field" (Some "3") (Wire.field obj "n");
  Alcotest.(check (option string)) "string field" (Some "x y")
    (Wire.field obj "s");
  Alcotest.(check (option string)) "ok field" (Some "true") (Wire.field obj "ok");
  Alcotest.(check (option string)) "missing field" None (Wire.field obj "zzz");
  Alcotest.(check (pair string string)) "split" ("query", "SELECT 1")
    (Wire.split "query  SELECT 1 ");
  Alcotest.(check (pair string string)) "split bare verb" ("ping", "")
    (Wire.split "ping\n")

(* The escaper as it was, one byte at a time: the oracle. *)
let escape_oracle s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Strings over all 256 byte values, with long runs that need no escape
   and runs of bytes that all do. *)
let prop_escape_oracle =
  let gen =
    let open QCheck.Gen in
    let run =
      frequency
        [ (2, string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64));
          (2, string_size ~gen:(char_range ' ' '~') (int_range 0 200));
          (1, string_size ~gen:(map Char.chr (int_range 0 0x1f)) (int_range 1 12));
          (1, string_size ~gen:(oneofl [ '"'; '\\'; '\n' ]) (int_range 1 12)) ]
    in
    map (String.concat "") (list_size (int_range 0 8) run)
  in
  QCheck.Test.make ~count:2_000 ~name:"jstr and json_escape equal the per-byte escaper"
    (QCheck.make ~print:String.escaped gen)
    (fun s ->
      let e = escape_oracle s in
      String.equal (Wire.json_escape s) e && String.equal (Wire.jstr s) ("\"" ^ e ^ "\""))

(* ---- The answer writer ----

   [Server.query_line] writes the envelope and the JSON form of the
   table into one reused buffer; its line must be the bytes of
   [Wire.ok_fields] over [Wire.jstr (Relation.render ...)].  One buffer
   serves every case, so an answer above the cap, drawn now and then,
   is followed by small ones written into the same buffer. *)

module Relation = Rfview_relalg.Relation
module Schema = Rfview_relalg.Schema
module Value = Rfview_relalg.Value
module Dtype = Rfview_relalg.Dtype

let answer_oracle rel ~lsn =
  Wire.ok_fields
    [
      ("lsn", Wire.jint lsn);
      ("rows", Wire.jint (Relation.cardinality rel));
      ("data", Wire.jstr (Relation.render ~max_rows:max_int rel));
    ]

let gen_answer =
  let open QCheck.Gen in
  let text =
    string_size ~gen:(oneof [ oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\001'; '\031'; ' ' ];
                              char_range 'a' 'z'; map Char.chr (int_range 0 255) ])
      (int_range 0 10)
  in
  let value =
    frequency
      [ (1, return Value.Null);
        (2, map (fun i -> Value.Int i) (oneof [ int_range (-1000) 1000; int ]));
        (2, map (fun f -> Value.Float f)
              (oneof [ oneofl [ -0.; 0.; 0.1; -2.5; 1e15; Float.nan; Float.infinity ];
                       map (fun (a, b) -> float_of_int a /. float_of_int b)
                         (pair (int_range (-1000) 1000) (int_range 1 9)); float ]));
        (1, map (fun d -> Value.Date d) (int_range (-1_000_000) 3_000_000));
        (1, map (fun b -> Value.Bool b) bool);
        (3, map (fun s -> Value.String s) text) ]
  in
  let* ncols = int_range 1 4 in
  let* names = list_repeat ncols text in
  let* rows = list_size (int_range 0 12) (list_repeat ncols value) in
  let* big = frequency [ (12, return false); (1, return (rows <> [])) ] in
  let* lsn = int_range 0 1_000_000 in
  return (names, rows, big, lsn)

let prop_answer_writer =
  let buf = Server.answer_buffer () in
  QCheck.Test.make ~count:300 ~name:"the buffered answer equals ok_fields over jstr of render"
    (QCheck.make
       ~print:(fun (names, rows, big, lsn) ->
         Printf.sprintf "lsn %d, big %b, columns [%s], rows [%s]" lsn big
           (String.concat "; " (List.map String.escaped names))
           (String.concat "; "
              (List.map (fun r -> String.concat ", " (List.map Value.to_sql r)) rows)))
       gen_answer)
    (fun (names, rows, big, lsn) ->
      let schema = Schema.make (List.map (fun n -> Schema.column n Dtype.String) names) in
      let rows = Array.of_list (List.map Array.of_list rows) in
      let rel = Relation.of_array schema rows in
      let rel =
        if not big then rel
        else
          (* every line of a table is as long as the first: repeat the
             rows until the table alone passes the cap *)
          let line =
            String.length (Relation.render ~max_rows:max_int rel) / (Array.length rows + 4)
          in
          let times = (Server.answer_cap / (line * Array.length rows)) + 1 in
          Relation.init schema (times * Array.length rows) (fun i -> rows.(i mod Array.length rows))
      in
      let expected = answer_oracle rel ~lsn in
      let bytes, n = Server.query_line buf rel ~lsn in
      ((not big) || n > Server.answer_cap)
      && String.equal (Bytes.sub_string bytes 0 (n - 1)) expected
      && Bytes.get bytes (n - 1) = '\n'
      && String.equal (Server.query_response rel ~lsn) expected)

(* ---- Server round-trips ---- *)

let with_server f =
  let session = Session.open_in_memory () in
  let srv = Server.start ~domains:test_domains ~session ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Session.close session)
    (fun () -> f srv session)

let req c line = Server.Client.request c line

let expect_ok what resp =
  if Wire.field resp "ok" <> Some "true" then
    Alcotest.failf "%s: expected ok, got %s" what resp;
  resp

let test_server_roundtrips () =
  with_server (fun srv _session ->
      let c = Server.Client.connect ~port:(Server.port srv) in
      Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
        (fun () ->
          ignore (expect_ok "ping" (req c "ping"));
          ignore (expect_ok "exec create" (req c "exec CREATE TABLE t (a INT)"));
          ignore (expect_ok "exec insert" (req c "exec INSERT INTO t VALUES (1)"));
          let r = expect_ok "query" (req c "query SELECT * FROM t") in
          Alcotest.(check (option string)) "one row" (Some "1")
            (Wire.field r "rows");
          (* pin a snapshot, write past it, the pin still answers old *)
          let o = expect_ok "open" (req c "open") in
          let pinned_rows = Wire.field o "lsn" in
          Alcotest.(check bool) "open returns an lsn" true (pinned_rows <> None);
          ignore (expect_ok "exec 2" (req c "exec INSERT INTO t VALUES (2)"));
          let r = expect_ok "pinned query" (req c "query SELECT * FROM t") in
          Alcotest.(check (option string)) "pinned snapshot is historical"
            (Some "1") (Wire.field r "rows");
          ignore (expect_ok "close" (req c "close"));
          let r = expect_ok "fresh query" (req c "query SELECT * FROM t") in
          Alcotest.(check (option string)) "unpinned read is at tip" (Some "2")
            (Wire.field r "rows")))

(* [query] profiles a read on a snapshot: EXPLAIN and EXPLAIN ANALYZE
   answer one [plan] row per line, and EXPLAIN of a write stays an
   error. *)
let test_server_explain () =
  with_server (fun srv _session ->
      let c = Server.Client.connect ~port:(Server.port srv) in
      Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
        (fun () ->
          ignore (expect_ok "create" (req c "exec CREATE TABLE t (a INT, b INT)"));
          ignore (expect_ok "insert" (req c "exec INSERT INTO t VALUES (1, 10), (2, 20), (1, 30)"));
          let sql = "SELECT a, SUM(b) AS s FROM t GROUP BY a" in
          let r = expect_ok "explain analyze" (req c ("query EXPLAIN ANALYZE " ^ sql)) in
          let data = Option.value ~default:"" (Wire.field r "data") in
          let has sub =
            let n = String.length sub in
            let rec go i = i + n <= String.length data && (String.sub data i n = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "a plan column" true (has "| plan");
          Alcotest.(check bool) "the aggregate node" true (has "Aggregate");
          Alcotest.(check bool) "the scan's three rows" true (has "3 rows");
          Alcotest.(check (option string)) "one row per plan node" (Some "4")
            (Wire.field r "rows");
          let r = expect_ok "explain" (req c ("query EXPLAIN " ^ sql)) in
          Alcotest.(check bool) "the physical plan" true
            (match Wire.field r "data" with
             | Some d -> String.length d > 0
             | None -> false);
          let r = req c "query EXPLAIN INSERT INTO t VALUES (3, 3)" in
          Alcotest.(check (option string)) "EXPLAIN of a write is refused" (Some "false")
            (Wire.field r "ok")))

(* An answer longer than the 64 KiB channel buffer: 15 rows cubed by a
   cross join, with cells that need escaping, come back whole. *)
let test_server_large_answer () =
  with_server (fun srv session ->
      let c = Server.Client.connect ~port:(Server.port srv) in
      Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
        (fun () ->
          ignore (expect_ok "create" (req c "exec CREATE TABLE t (a INT, b FLOAT, c VARCHAR)"));
          let values =
            List.init 15 (fun i ->
                Printf.sprintf "(%d, %s, '%s')" ((i - 7) * 1_000_003)
                  (List.nth [ "-0.5"; "1e15"; "2.0"; "-3.25" ] (i mod 4))
                  (List.nth [ "say \"hi\""; "back\\slash"; "tab\there"; "" ] (i mod 4)))
          in
          ignore
            (expect_ok "insert"
               (req c ("exec INSERT INTO t VALUES " ^ String.concat ", " values)));
          let sql = "SELECT * FROM t x, t y, t z" in
          let r = expect_ok "query" (req c ("query " ^ sql)) in
          Alcotest.(check bool) "longer than the channel buffer" true
            (String.length r > 65_536);
          Alcotest.(check (option string)) "rows" (Some "3375") (Wire.field r "rows");
          match Session.query session sql with
          | Ok rel ->
            Alcotest.(check (option string)) "data is the rendered table"
              (Some (Rfview_relalg.Relation.render ~max_rows:max_int rel))
              (Wire.field r "data")
          | Error e -> Alcotest.fail (Session.describe_error e)))

(* One connection answers a query above the answer buffer's cap, then
   small ones: each line equals [Server.query_response]. *)
let test_server_answer_cap () =
  with_server (fun srv session ->
      let c = Server.Client.connect ~port:(Server.port srv) in
      Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
        (fun () ->
          ignore (expect_ok "create" (req c "exec CREATE TABLE t (a INT, c VARCHAR)"));
          let long = String.concat "" (List.init 70 (fun _ -> "say \"hi\"\\")) in
          let values = List.init 40 (fun i -> Printf.sprintf "(%d, '%s%d')" i long i) in
          ignore
            (expect_ok "insert"
               (req c ("exec INSERT INTO t VALUES " ^ String.concat ", " values)));
          let check what sql =
            let line = expect_ok what (req c ("query " ^ sql)) in
            let lsn = int_of_string (Option.get (Wire.field line "lsn")) in
            match Session.query session sql with
            | Ok rel ->
              Alcotest.(check string) what (Server.query_response rel ~lsn) line;
              String.length line
            | Error e -> Alcotest.fail (Session.describe_error e)
          in
          let big = check "over the cap" "SELECT x.a, x.c, y.c FROM t x, t y" in
          Alcotest.(check bool) "the first answer is above the cap" true (big > Server.answer_cap);
          ignore (check "small after" "SELECT a, c FROM t WHERE a = 3");
          ignore (check "small again" "SELECT a FROM t WHERE a < 5")))

let test_server_batch_and_errors () =
  with_server (fun srv _session ->
      let c = Server.Client.connect ~port:(Server.port srv) in
      Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
        (fun () ->
          ignore (expect_ok "create" (req c "exec CREATE TABLE t (a INT)"));
          (* batch is a multi-line request: send header + payload raw *)
          let r =
            req c "batch 2\nINSERT INTO t VALUES (1)\nINSERT INTO t VALUES (2)"
          in
          ignore (expect_ok "batch" r);
          Alcotest.(check (option string)) "both executed" (Some "2")
            (Wire.field r "executed");
          let r = expect_ok "count" (req c "query SELECT * FROM t") in
          Alcotest.(check (option string)) "rows committed" (Some "2")
            (Wire.field r "rows");
          (* protocol errors are structured, connection survives *)
          let r = req c "exec INSERT INTO nope VALUES (1)" in
          Alcotest.(check (option string)) "exec error is not ok" (Some "false")
            (Wire.field r "ok");
          let r = req c "frobnicate" in
          Alcotest.(check (option string)) "unknown verb" (Some "false")
            (Wire.field r "ok");
          ignore (expect_ok "still alive" (req c "ping"))))

(* An oversized batch header is refused up front — no payload line is
   read or executed — and the connection stays usable. *)
let test_server_batch_limit () =
  with_server (fun srv _session ->
      let c = Server.Client.connect ~port:(Server.port srv) in
      Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
        (fun () ->
          ignore (expect_ok "create" (req c "exec CREATE TABLE t (a INT)"));
          let r = req c (Printf.sprintf "batch %d" (Server.max_batch + 1)) in
          Alcotest.(check (option string)) "oversized batch refused"
            (Some "false") (Wire.field r "ok");
          Alcotest.(check (option string)) "the error names the limit"
            (Some
               (Printf.sprintf "batch: count %d exceeds the limit of %d"
                  (Server.max_batch + 1) Server.max_batch))
            (Wire.field r "error");
          (* the next line is a fresh request, not batch payload *)
          ignore (expect_ok "still alive" (req c "ping"));
          let r =
            expect_ok "a small batch still works"
              (req c "batch 1\nINSERT INTO t VALUES (1)")
          in
          Alcotest.(check (option string)) "executed" (Some "1")
            (Wire.field r "executed");
          let r = expect_ok "count" (req c "query SELECT * FROM t") in
          Alcotest.(check (option string)) "only the small batch committed"
            (Some "1") (Wire.field r "rows")))

(* A line over [Server.max_line] — a request or a batch payload line —
   draws an error and ends that connection only: the server never
   buffers it whole, and a fresh connection is served as before. *)
let test_server_line_cap () =
  with_server (fun srv _session ->
      let port = Server.port srv in
      let refused what line =
        let c = Server.Client.connect ~port in
        Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
          (fun () ->
            let r = req c line in
            Alcotest.(check (option string)) (what ^ " refused") (Some "false")
              (Wire.field r "ok");
            Alcotest.(check (option string)) "the error names the limit"
              (Some
                 (Printf.sprintf "line exceeds the limit of %d bytes"
                    Server.max_line))
              (Wire.field r "error");
            match req c "ping" with
            | r -> Alcotest.failf "%s: connection must be closed, got %s" what r
            | exception (End_of_file | Sys_error _) -> ())
      in
      let c = Server.Client.connect ~port in
      ignore (expect_ok "create" (req c "exec CREATE TABLE t (a INT)"));
      Server.Client.disconnect c;
      (* 2 MiB on the wire, newline included *)
      refused "2 MiB request line" (String.make ((2 lsl 20) - 1) 'x');
      refused "over-long batch payload line"
        ("batch 1\n" ^ String.make (Server.max_line + 1) 'x');
      let c = Server.Client.connect ~port in
      Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
        (fun () ->
          ignore (expect_ok "ping on a fresh connection" (req c "ping"));
          let r = expect_ok "count" (req c "query SELECT * FROM t") in
          Alcotest.(check (option string)) "the refused batch wrote nothing"
            (Some "0") (Wire.field r "rows")))

let test_server_concurrent_clients () =
  with_server (fun srv _session ->
      let port = Server.port srv in
      let c0 = Server.Client.connect ~port in
      ignore (expect_ok "create" (req c0 "exec CREATE TABLE t (a INT)"));
      ignore (expect_ok "seed" (req c0 "exec INSERT INTO t VALUES (0)"));
      Server.Client.disconnect c0;
      let clients = max 2 test_domains in
      let wrong = Atomic.make 0 in
      let worker i =
        let c = Server.Client.connect ~port in
        Fun.protect ~finally:(fun () -> Server.Client.disconnect c)
          (fun () ->
            for j = 1 to 10 do
              if i = 0 then
                (* one writer client *)
                ignore
                  (expect_ok "write"
                     (req c
                        (Printf.sprintf "exec INSERT INTO t VALUES (%d)"
                           ((i * 100) + j))))
              else begin
                (* reader clients: rows and lsn must be mutually consistent
                   (rows = lsn - 1: one DDL, then one row per commit) *)
                let r = expect_ok "read" (req c "query SELECT * FROM t") in
                match (Wire.field r "rows", Wire.field r "lsn") with
                | Some rows, Some lsn ->
                  if int_of_string rows <> int_of_string lsn - 1 then
                    Atomic.incr wrong
                | _ -> Atomic.incr wrong
              end
            done)
      in
      let ds = List.init clients (fun i -> Domain.spawn (fun () -> worker i)) in
      List.iter Domain.join ds;
      Alcotest.(check int) "every read was a consistent commit point" 0
        (Atomic.get wrong))

let () =
  Alcotest.run "server"
    [
      ( "pool",
        [
          Alcotest.test_case "runs jobs" `Quick test_pool_runs_jobs;
          Alcotest.test_case "propagates exceptions" `Quick
            test_pool_propagates_exceptions;
        ] );
      ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_escape_oracle;
          QCheck_alcotest.to_alcotest prop_answer_writer ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrips" `Quick test_server_roundtrips;
          Alcotest.test_case "EXPLAIN over the wire" `Quick test_server_explain;
          Alcotest.test_case "answer longer than the channel buffer" `Quick
            test_server_large_answer;
          Alcotest.test_case "answers above the buffer cap, then small ones" `Quick
            test_server_answer_cap;
          Alcotest.test_case "batch + errors" `Quick
            test_server_batch_and_errors;
          Alcotest.test_case "batch size limit" `Quick test_server_batch_limit;
          Alcotest.test_case "line length limit" `Quick test_server_line_cap;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case
            (Printf.sprintf "%d concurrent clients" (max 2 test_domains))
            `Slow test_server_concurrent_clients;
        ] );
    ]
