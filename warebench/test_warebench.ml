(* The warehouse benchmark's pure parts, without sockets: percentile
   ranks, the response decoder, the reference checker and the seeded
   request streams. *)

open Warebench
module Relation = Rfview_relalg.Relation
module Schema = Rfview_relalg.Schema
module Dtype = Rfview_relalg.Dtype
module Value = Rfview_relalg.Value
module Wire = Rfview_server.Wire

(* ---- percentiles ---- *)

let test_rank () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.percentile a 50.);
  Alcotest.(check (float 0.)) "p95 of 1..100" 95. (Stats.percentile a 95.);
  Alcotest.(check (float 0.)) "p100 is the maximum" 100. (Stats.percentile a 100.);
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (Stats.percentile a 0.);
  Alcotest.(check (float 0.)) "median of one" 7. (Stats.median [| 7. |]);
  Alcotest.(check (float 0.)) "median is unsorted-safe" 2. (Stats.median [| 3.; 1.; 2. |])

let test_beyond () =
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stats.beyond ~n:1000 99.);
  Alcotest.(check bool) "p99 of 1000 is supported" true (Stats.supported ~n:1000 99.);
  Alcotest.(check bool) "p99 of 999 is not" false (Stats.supported ~n:999 99.);
  Alcotest.(check bool) "p95 of 200 is supported" true (Stats.supported ~n:200 95.);
  Alcotest.(check bool) "p95 of 199 is not" false (Stats.supported ~n:199 95.);
  Alcotest.(check bool) "no samples support nothing" false (Stats.supported ~n:0 50.)

(* ---- the response decoder ---- *)

let rel =
  Relation.make
    (Schema.make [ Schema.column "pos" Dtype.Int; Schema.column "val" Dtype.Float ])
    [ [| Value.Int 16; Value.Float 3. |]; [| Value.Int 32; Value.Float (-2.5) |] ]

let test_query_reply () =
  (* encoded exactly as the server encodes a query answer *)
  let line =
    Wire.ok_fields
      [
        ("lsn", Wire.jint 42);
        ("rows", Wire.jint 2);
        ("data", Wire.jstr (Relation.render ~max_rows:max_int rel));
      ]
  in
  match Reply.parse line with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check bool) "ok" true (Reply.ok r);
    Alcotest.(check (option int)) "lsn" (Some 42) (Reply.int_field r "lsn");
    Alcotest.(check (option int)) "rows" (Some 2) (Reply.int_field r "rows");
    (match Reply.decode_table (Option.get (Reply.field r "data")) with
     | Error m -> Alcotest.fail m
     | Ok (header, rows) ->
       Alcotest.(check (array string)) "header" [| "pos"; "val" |] header;
       Alcotest.(check (list (array string)))
         "cells" [ [| "16"; "3.0" |]; [| "32"; "-2.5" |] ] rows)

let test_other_replies () =
  (match Reply.parse (Wire.error "bad \"quote\"\nnext") with
   | Ok r ->
     Alcotest.(check bool) "error is not ok" false (Reply.ok r);
     Alcotest.(check (option string)) "unescaped" (Some "bad \"quote\"\nnext") (Reply.field r "error")
   | Error m -> Alcotest.fail m);
  (match Reply.parse {|{"ok":true,"retained":[3,2],"domains":2}|} with
   | Ok r -> Alcotest.(check (option string)) "list kept as text" (Some "[3,2]") (Reply.field r "retained")
   | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true (Result.is_error (Reply.parse bad)))
    [ ""; "{"; {|{"ok":true|}; {|{"ok":}|}; {|{"ok":true} x|}; {|{"data":"\q"}|}; "pong" ];
  Alcotest.(check bool) "a non-table is rejected" true (Result.is_error (Reply.decode_table "INSERT 1"))

(* ---- the reference checker ---- *)

let flip rows ~at =
  List.mapi (fun i r -> if i = at then Array.mapi (fun j c -> if j = Array.length r - 1 then c ^ "1" else c) r else r) rows

let test_checker () =
  let data = Data.create ~seed:3 in
  let window = Data.expected_window data ~grp:2 in
  Alcotest.(check bool) "a window matches itself in any order" true
    (Data.same_rows ~what:"w" ~expected:window (List.rev window) = Ok ());
  Alcotest.(check bool) "one flipped window value is caught" true
    (Result.is_error (Data.same_rows ~what:"w" ~expected:window (flip window ~at:1234)));
  Alcotest.(check bool) "a missing row is caught" true
    (Result.is_error (Data.same_rows ~what:"w" ~expected:window (List.tl window)));
  let lo = data.(5).Data.pos.(100) and hi = data.(5).Data.pos.(119) in
  let lookup = Data.expected_lookup data ~grp:5 ~lo ~hi in
  Alcotest.(check int) "a lookup spans 20 rows" 20 (List.length lookup);
  Alcotest.(check int) "lookup_count agrees" 20 (Data.lookup_count data ~grp:5 ~lo ~hi);
  Alcotest.(check bool) "one flipped lookup value is caught" true
    (Result.is_error (Data.same_rows ~what:"l" ~expected:lookup (flip lookup ~at:7)));
  let values = Data.matseq_values ~seed:3 in
  let target =
    Rfview_core.Compute.sequence Data.derive_frame (Rfview_core.Seqdata.raw_of_array values)
  in
  let derived =
    List.init Data.derive_rows (fun i ->
        let k = i in
        [| string_of_int k; Data.cell_float (Rfview_core.Seqdata.get target k) |])
  in
  Alcotest.(check bool) "the derivation reference passes" true (Data.check_derive values derived = Ok ());
  Alcotest.(check bool) "one flipped derived value is caught" true
    (Result.is_error (Data.check_derive values (flip derived ~at:150)))

(* The reference agrees with the engine on every view of the share
   class, so a passing run means the engine answered as the paper's
   rules say it must. *)
let test_reference_matches_engine () =
  let data = Data.create ~seed:5 in
  let s = Rfview.Session.open_in_memory () in
  let exec sql = ignore (Result.get_ok (Rfview.Session.exec s sql)) in
  exec "CREATE TABLE seq (grp INT, pos INT, val FLOAT)";
  Rfview.Session.load_table s ~table:"seq"
    (Array.concat
       (List.init Data.groups (fun g ->
            Array.init (Data.size data g) (fun i ->
                Data.row ~grp:g ~pos:data.(g).Data.pos.(i) data.(g).Data.vals.(i)))));
  List.iter (fun v -> exec (Data.view_sql v)) Data.views;
  List.iter
    (fun v ->
      let rel =
        Result.get_ok
          (Rfview.Session.query s
             (Printf.sprintf "SELECT grp, pos, val, %s FROM %s" v.Data.col v.Data.name))
      in
      Alcotest.(check bool) v.Data.name true
        (Data.same_rows ~what:v.Data.name ~expected:(Data.expected_view data v)
           (Data.cells_of_relation rel)
        = Ok ()))
    Data.views

(* ---- seeded streams ---- *)

let lines_of next n = List.concat (List.init n (fun _ -> Gen.lines (next ())))

let streams seed =
  [
    ("report-read", lines_of (Gen.report_read ~seed (Data.create ~seed)) 200);
    ("etl-batch", lines_of (Gen.etl_batch ~seed ~loader:1 ~loaders:2 (Data.create ~seed)) 30);
    ("trickle writer", lines_of (Gen.trickle_writer ~seed (Data.create ~seed)) 100);
    ("trickle reader", lines_of (Gen.trickle_reader ~seed (Data.create ~seed)) 100);
  ]

let test_determinism () =
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check (list string)) (name ^ ": same seed, same bytes") a b)
    (streams 17) (streams 17);
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check bool) (name ^ ": seeds differ") true (a <> b))
    (streams 17) (streams 18)

let test_write_stream () =
  let data = Data.create ~seed:9 in
  let loaders = List.init 2 (fun loader -> (loader, Gen.etl_batch ~seed:9 ~loader ~loaders:2 data)) in
  for _ = 1 to 25 do
    List.iter
      (fun (loader, next) ->
        match next () with
        | Gen.Batch edits ->
          let key = function
            | Data.Insert { grp; pos; _ } | Update { grp; pos; _ } | Delete { grp; pos; _ } -> (grp, pos)
          in
          let keys = List.map key edits in
          Alcotest.(check int) "20 statements" 20 (List.length edits);
          Alcotest.(check int) "no key twice in a batch" 20 (List.length (List.sort_uniq compare keys));
          List.iter
            (fun (g, _) -> Alcotest.(check int) "loaders own disjoint partitions" loader (g mod 2))
            keys
        | _ -> Alcotest.fail "etl-batch sends batches")
      loaders
  done;
  let total = Array.fold_left (fun acc p -> acc + Array.length p.Data.pos) 0 data in
  Alcotest.(check int) "table size stays level" (Data.groups * Data.per_group) total;
  Array.iter
    (fun p ->
      Array.iteri
        (fun i x -> if i > 0 && x <= p.Data.pos.(i - 1) then Alcotest.fail "positions not increasing")
        p.Data.pos)
    data

let () =
  Alcotest.run "warebench"
    [
      ("percentiles", [ Alcotest.test_case "nearest rank" `Quick test_rank;
                        Alcotest.test_case "ten beyond" `Quick test_beyond ]);
      ("replies", [ Alcotest.test_case "query answer" `Quick test_query_reply;
                    Alcotest.test_case "errors and malformed lines" `Quick test_other_replies ]);
      ("reference", [ Alcotest.test_case "flipped values" `Quick test_checker;
                      Alcotest.test_case "agrees with the engine" `Quick test_reference_matches_engine ]);
      ("streams", [ Alcotest.test_case "seed determinism" `Quick test_determinism;
                    Alcotest.test_case "write invariants" `Quick test_write_stream ]);
    ]
