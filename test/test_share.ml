(* Scan sharing: the static sharing certificates (Analysis.Share), the
   resource interpreter (Analysis.Cost) and certificate-gated shared
   base scans in the engine's batch maintenance.  The matrix test
   enforces the defining lockstep property: the engine drives a set of
   live sequence-view states from one shared partition iterator exactly
   when Share puts their definitions into one shareable class.  The
   qcheck property holds shared maintenance to the differential
   standard: under random batched DML streams, a share-scans-on database
   stays bit-identical to a share-scans-off database and to a fresh
   evaluation of every definition. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Matview = Rfview_engine.Matview
module Catalog = Rfview_engine.Catalog
module Fault = Rfview_engine.Fault
module Parser = Rfview_sql.Parser
module Share = Rfview_analysis.Share
module Cost = Rfview_analysis.Cost
module Binder = Rfview_planner.Binder
module Diag = Rfview_analysis.Diagnostic

(* Checker-verify every plan, bag-compare every maintenance step against
   recomputation, and — the point of this suite — run the shared-scan
   differential validator inside the engine on every shared batch. *)
let () = Rfview_analysis.Verify.enable ()

(* ---- Fixtures ---- *)

let seq_ddl = "CREATE TABLE seq (grp INT, pos INT, val FLOAT)"

let seq_rows =
  "INSERT INTO seq VALUES (1, 1, 10.5), (1, 2, 20.25), (1, 3, 15.125), \
   (2, 1, 5.75), (2, 2, 25.0), (3, 1, 7.5)"

let fixture_db ?config () =
  let db = Db.create ?config () in
  ignore (Db.exec db seq_ddl);
  ignore (Db.exec db seq_rows);
  db

(* The view matrix: definitions over seq plus the scan-share class each
   should land in ([None] = not sequence-shaped, never in any class). *)
let views =
  [
    ( "v_cum",
      "SELECT grp, pos, val, SUM(val) OVER (PARTITION BY grp ORDER BY pos \
       ROWS UNBOUNDED PRECEDING) AS s FROM seq",
      Some "grp/pos" );
    ( "v_mvg",
      "SELECT grp, pos, val, AVG(val) OVER (PARTITION BY grp ORDER BY pos \
       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS a FROM seq",
      Some "grp/pos" );
    ( "v_low",
      "SELECT grp, pos, val, MIN(val) OVER (PARTITION BY grp ORDER BY pos \
       ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS m FROM seq",
      Some "grp/pos" );
    ( "v_all",
      "SELECT grp, pos, val, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED \
       PRECEDING) AS s FROM seq",
      Some "/pos" );
    ( "v_byval",
      "SELECT grp, pos, val, SUM(val) OVER (PARTITION BY grp ORDER BY val \
       ROWS UNBOUNDED PRECEDING) AS s FROM seq",
      Some "grp/val" );
    ( "v_group",
      "SELECT grp, SUM(val) AS total FROM seq GROUP BY grp",
      None );
  ]

let create_views db =
  List.iter
    (fun (name, def, _) ->
      ignore
        (Db.exec db (Printf.sprintf "CREATE MATERIALIZED VIEW %s AS %s" name def)))
    views

(* ---- Bit identity (as in test_ivm) ---- *)

let value_same_bits a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let row_same_bits a b =
  Row.arity a = Row.arity b
  && List.for_all
       (fun i -> value_same_bits (Row.get a i) (Row.get b i))
       (List.init (Row.arity a) Fun.id)

let bit_identical a b =
  let rows r = Array.to_list (Relation.rows (Relation.sorted_by_all r)) in
  let ra = rows a and rb = rows b in
  List.length ra = List.length rb && List.for_all2 row_same_bits ra rb

let check_view db name def =
  if
    not
      (bit_identical
         (Db.query db (Printf.sprintf "SELECT * FROM %s" name))
         (Db.query db def))
  then Alcotest.failf "%s diverged from a fresh evaluation of its definition" name

(* ---- Static certificates ---- *)

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let spec_of name def =
  Share.scan_spec ~view:name (Parser.query def)

let test_scan_spec () =
  List.iter
    (fun (name, def, expect) ->
      match (spec_of name def, expect) with
      | None, None -> ()
      | Some sp, Some _ ->
        Alcotest.(check string) (name ^ " base") "seq" sp.Share.sp_base
      | Some _, None -> Alcotest.failf "%s: unexpectedly sequence-shaped" name
      | None, Some _ -> Alcotest.failf "%s: scan_spec missed the sequence shape" name)
    views;
  (* a RANGE frame is outside the sequence shape *)
  Alcotest.(check bool)
    "RANGE frame rejected" true
    (spec_of "v"
       "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos RANGE \
        BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq"
    = None)

let test_certify_pair () =
  let get name =
    let _, def, _ = List.find (fun (n, _, _) -> n = name) views in
    Option.get (spec_of name def)
  in
  let holds ob_name obs =
    match List.find_opt (fun o -> o.Share.ob_name = ob_name) obs with
    | Some o -> o.Share.ob_holds
    | None -> Alcotest.failf "obligation %s missing" ob_name
  in
  let compat = Share.certify_pair (get "v_cum") (get "v_mvg") in
  List.iter
    (fun name -> Alcotest.(check bool) ("compatible: " ^ name) true (holds name compat))
    [
      "same-base";
      "partition-prefix-compatible";
      "order-subsumed";
      "no-cross-view-state";
    ];
  Alcotest.(check bool) "compatible pair" true
    (Share.compatible (get "v_cum") (get "v_mvg"));
  (* a coarser PARTITION BY prefix needs its own merge pass *)
  let coarser = Share.certify_pair (get "v_cum") (get "v_all") in
  Alcotest.(check bool) "proper prefix fails" false
    (holds "partition-prefix-compatible" coarser);
  (* a different ORDER BY column is not order-subsumed *)
  let reordered = Share.certify_pair (get "v_cum") (get "v_byval") in
  Alcotest.(check bool) "different order fails" false
    (holds "order-subsumed" reordered)

let test_classify () =
  let specs =
    List.filter_map (fun (name, def, _) -> spec_of name def) views
  in
  let groups = Share.classify specs in
  let members g = List.map (fun sp -> sp.Share.sp_view) g.Share.g_members in
  Alcotest.(check (list (list string)))
    "scan-share classes"
    [ [ "v_cum"; "v_mvg"; "v_low" ]; [ "v_all" ]; [ "v_byval" ] ]
    (List.map members groups);
  Alcotest.(check (list bool))
    "shareable verdicts" [ true; false; false ]
    (List.map Share.shareable groups);
  match Share.diagnostics groups with
  | [ d ] ->
    Alcotest.(check string) "advisory code" "RF401" d.Diag.code;
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " named in RF401") true
          (contains_sub ~sub:name d.Diag.message))
      [ "v_cum"; "v_mvg"; "v_low" ]
  | ds -> Alcotest.failf "expected exactly one RF401, got %d" (List.length ds)

(* ---- Cert iff runtime ----

   [Db.share_classes] must list exactly the classes that are BOTH
   runtime-eligible (live sequence states agreeing on the scan key) and
   statically certified — and flipping [share_scans] off empties it
   without changing any view's contents. *)

let test_cert_iff_runtime () =
  let db = fixture_db () in
  create_views db;
  (* every sequence-shaped view got a live state; the GROUP BY view
     must be under derived maintenance instead *)
  List.iter
    (fun (name, _, expect_seq) ->
      Alcotest.(check bool)
        (name ^ " has a sequence state")
        (expect_seq <> None)
        (Db.view_state db name <> None))
    views;
  Alcotest.(check (list (list string)))
    "engine share classes" [ [ "v_cum"; "v_low"; "v_mvg" ] ]
    (Db.share_classes db ~table:"seq");
  (* lockstep with the static side: the engine's classes are exactly
     the shareable classes of the live views' definitions *)
  let static_shared =
    Share.classify
      (List.filter_map
         (fun (name, def, _) ->
           if Db.view_state db name <> None then spec_of name def else None)
         views)
    |> List.filter Share.shareable
    |> List.map (fun g ->
           List.sort compare
             (List.map (fun sp -> sp.Share.sp_view) g.Share.g_members))
  in
  Alcotest.(check (list (list string)))
    "cert iff runtime" static_shared
    (Db.share_classes db ~table:"seq");
  (* no classes against an unrelated table *)
  ignore (Db.exec db "CREATE TABLE other (k INT)");
  Alcotest.(check (list (list string)))
    "no classes for other tables" []
    (Db.share_classes db ~table:"other");
  (* the config gate *)
  Db.reconfigure db { (Db.config db) with Db.share_scans = false };
  Alcotest.(check (list (list string)))
    "share_scans off" []
    (Db.share_classes db ~table:"seq")

(* A quarantined / stale member must drop out of the class. *)
let test_stale_member_leaves_class () =
  let db = fixture_db () in
  create_views db;
  ignore (Db.exec db "DROP VIEW v_low");
  Alcotest.(check (list (list string)))
    "class shrinks" [ [ "v_cum"; "v_mvg" ] ]
    (Db.share_classes db ~table:"seq");
  ignore (Db.exec db "DROP VIEW v_mvg");
  Alcotest.(check (list (list string)))
    "singleton is not a class" []
    (Db.share_classes db ~table:"seq")

(* A member quarantined by a fault in its shared apply leaves the class,
   and the read that heals it brings it back. *)
let test_quarantined_member_heals_back () =
  let db = fixture_db () in
  create_views db;
  Fun.protect ~finally:Fault.reset (fun () ->
      Fault.arm "matview.apply_shared" (Fault.Nth 1);
      ignore (Db.exec db "INSERT INTO seq VALUES (1, 4, 30.5)"));
  let stale = Db.stale_views db in
  Alcotest.(check int) "one member quarantined" 1 (List.length stale);
  Alcotest.(check (list (list string)))
    "class shrinks"
    [ List.filter (fun v -> not (List.mem v stale)) [ "v_cum"; "v_low"; "v_mvg" ] ]
    (Db.share_classes db ~table:"seq");
  List.iter (fun v -> ignore (Db.query db ("SELECT * FROM " ^ v))) stale;
  Alcotest.(check (list string)) "healed" [] (Db.stale_views db);
  Alcotest.(check (list (list string)))
    "class whole again" [ [ "v_cum"; "v_low"; "v_mvg" ] ]
    (Db.share_classes db ~table:"seq");
  ignore (Db.exec db "INSERT INTO seq VALUES (2, 3, 12.25)");
  List.iter (fun (name, def, _) -> check_view db name def) views

(* ---- Shared maintenance correctness (directed) ---- *)

let batch_steps =
  [
    [ "INSERT INTO seq VALUES (1, 4, 30.5), (2, 3, 12.25), (4, 1, 9.0)" ];
    [
      "UPDATE seq SET val = val + 0.125 WHERE grp = 1";
      "DELETE FROM seq WHERE grp = 2 AND pos = 1";
    ];
    [
      "INSERT INTO seq VALUES (1, 0, 2.5)";
      "UPDATE seq SET pos = 9 WHERE grp = 3 AND pos = 1" (* order move *);
      "UPDATE seq SET grp = 4 WHERE grp = 1 AND pos = 4" (* partition move *);
    ];
    [ "DELETE FROM seq WHERE grp = 4" ];
  ]

(* One step: a lone statement runs on its own, several as one batch. *)
let run_step db = function
  | [ sql ] -> ignore (Db.exec db sql)
  | stmts ->
    Db.with_batch db (fun () ->
        List.iter (fun sql -> ignore (Db.exec db sql)) stmts)

let run_steps db = List.iter (run_step db) batch_steps

let test_shared_batch_maintenance () =
  let db = fixture_db () in
  create_views db;
  run_steps db;
  List.iter (fun (name, def, _) -> check_view db name def) views;
  (* the class survived the whole stream (no quarantine, no fallback) *)
  Alcotest.(check (list (list string)))
    "class intact after DML" [ [ "v_cum"; "v_low"; "v_mvg" ] ]
    (Db.share_classes db ~table:"seq")

let test_share_scans_off_equivalent () =
  let on = fixture_db () in
  let off =
    fixture_db ~config:{ Db.default_config with Db.share_scans = false } ()
  in
  create_views on;
  create_views off;
  run_steps on;
  run_steps off;
  List.iter
    (fun (name, _, _) ->
      let sql = Printf.sprintf "SELECT * FROM %s" name in
      if not (bit_identical (Db.query on sql) (Db.query off sql)) then
        Alcotest.failf "%s: shared and per-view maintenance disagree" name)
    views

(* The installed differential validator itself: bit-equal relations
   pass, a single flipped float bit fails. *)
let test_shared_scan_validator () =
  let schema = Schema.make [ Schema.column "x" Dtype.Float ] in
  let rel v = Relation.make schema [ Row.make [ Value.Float v ] ] in
  Rfview_analysis.Verify.check_shared_scan ~view:"v" ~shared:(rel 1.5)
    ~per_view:(rel 1.5);
  Alcotest.check_raises "divergence raises"
    (Rfview_analysis.Verify.Not_preserved
       "matview v: shared-scan maintenance diverged from the per-view scan \
        (1 rows vs 1)")
    (fun () ->
      Rfview_analysis.Verify.check_shared_scan ~view:"v" ~shared:(rel 1.5)
        ~per_view:(rel (Int64.float_of_bits (Int64.succ (Int64.bits_of_float 1.5)))))

(* ---- Cost interpreter ---- *)

let cost_of db ?budget ?env sql =
  let logical = Binder.bind_query (Db.binder_catalog db) (Parser.query sql) in
  let env =
    match env with
    | Some e -> e
    | None ->
      let cat = Db.catalog_view db in
      fun name ->
        (try Some (cat.Rfview_planner.Physical.table_contents name)
         with _ -> None)
  in
  Cost.analyze ~env ?budget logical

let test_cost_bounded_frames () =
  let db = fixture_db () in
  (* cumulative: w+2 = 2 resident rows, no diagnostics *)
  let r =
    cost_of db
      "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS \
       UNBOUNDED PRECEDING) AS s FROM seq"
  in
  Alcotest.(check (list string)) "cumulative: no diags" []
    (List.map (fun d -> d.Diag.code) r.Cost.diags);
  Alcotest.(check bool) "cumulative: bounded" true (r.Cost.total_bytes <> None);
  (match r.Cost.ops with
   | [ op ] ->
     Alcotest.(check int) "cumulative: w+2 cache" 2 op.Cost.oc_state_rows.lo
   | ops -> Alcotest.failf "expected one stateful op, got %d" (List.length ops));
  (* sliding l..h: w+2 = l+h+3 resident rows (capped by the input) *)
  let r =
    cost_of db
      "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS \
       BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq"
  in
  Alcotest.(check (list string)) "sliding: no diags" []
    (List.map (fun d -> d.Diag.code) r.Cost.diags)

let test_cost_rf402_rf403 () =
  let db = fixture_db () in
  let range_sql =
    "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos RANGE \
     BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq"
  in
  (* RANGE: whole partition resident -> RF402; contents known, so the
     footprint is still bounded and a tiny budget adds RF403 *)
  let r = cost_of db range_sql in
  Alcotest.(check (list string)) "RF402 fires" [ "RF402" ]
    (List.map (fun d -> d.Diag.code) r.Cost.diags);
  let r = cost_of db ~budget:10 range_sql in
  Alcotest.(check (list string)) "RF402 + RF403 under a tiny budget"
    [ "RF402"; "RF403" ]
    (List.sort compare (List.map (fun d -> d.Diag.code) r.Cost.diags));
  (* unknown contents: the partition state cannot be bounded at all *)
  let r = cost_of db ~env:(fun _ -> None) range_sql in
  Alcotest.(check bool) "unknown contents: unbounded" true
    (r.Cost.total_bytes = None);
  Alcotest.(check bool) "unknown contents: RF403" true
    (List.exists (fun d -> d.Diag.code = "RF403") r.Cost.diags);
  (* streaming plans hold nothing *)
  let r = cost_of db "SELECT grp FROM seq WHERE val > 0" in
  Alcotest.(check (list string)) "streaming: stateless" []
    (List.map (fun (o : Cost.op_cost) -> o.Cost.oc_op) r.Cost.ops);
  Alcotest.(check bool) "streaming: zero bytes" true (r.Cost.total_bytes = Some 0)

(* ---- Random batched DML streams (qcheck) ---- *)

type share_op =
  | Ins of int * int * int  (* grp, pos, val tenths *)
  | Ins_pair of int * int * int  (* the same row twice *)
  | Del of int * int        (* grp, pos *)
  | Bump of int             (* grp: val += 0.125 *)
  | Move_pos of int * int * int  (* grp, pos, new pos *)
  | Move_grp of int * int * int  (* grp, pos, new grp *)
  | Set of int * int * int  (* grp, pos, new val: 0 is -0.0, 1 is 0.0, else fresh *)

let sql_of_op = function
  | Ins (g, p, v) ->
    Printf.sprintf "INSERT INTO seq VALUES (%d, %d, %d.125)" g p v
  | Ins_pair (g, p, v) ->
    Printf.sprintf "INSERT INTO seq VALUES (%d, %d, %d.125), (%d, %d, %d.125)" g p v
      g p v
  | Del (g, p) ->
    Printf.sprintf "DELETE FROM seq WHERE grp = %d AND pos = %d" g p
  | Bump g -> Printf.sprintf "UPDATE seq SET val = val + 0.125 WHERE grp = %d" g
  | Move_pos (g, p, p') ->
    Printf.sprintf "UPDATE seq SET pos = %d WHERE grp = %d AND pos = %d" p' g p
  | Move_grp (g, p, g') ->
    Printf.sprintf "UPDATE seq SET grp = %d WHERE grp = %d AND pos = %d" g' g p
  | Set (g, p, v) ->
    Printf.sprintf "UPDATE seq SET val = %s WHERE grp = %d AND pos = %d"
      (match v with 0 -> "-0.0" | 1 -> "0.0" | v -> Printf.sprintf "%d.125" v)
      g p

let grp = QCheck.Gen.int_range 1 3
let pos = QCheck.Gen.int_range 1 6

let share_ops =
  QCheck.Gen.
    [
      (4, map (fun ((g, p), v) -> Ins (g, p, v)) (pair (pair grp pos) (int_range (-9) 9)));
      (1, map (fun ((g, p), v) -> Ins_pair (g, p, v)) (pair (pair grp pos) (int_range (-9) 9)));
      (2, map (fun (g, p) -> Del (g, p)) (pair grp pos));
      (2, map (fun g -> Bump g) grp);
      (1, map (fun ((g, p), p') -> Move_pos (g, p, p')) (pair (pair grp pos) (int_range 1 9)));
      (1, map (fun ((g, p), g') -> Move_grp (g, p, g')) (pair (pair grp pos) grp));
    ]

let arb_stream ops =
  QCheck.make
    ~print:(fun chunks ->
      String.concat " | "
        (List.map
           (fun ops -> String.concat "; " (List.map sql_of_op ops))
           chunks))
    QCheck.Gen.(list_size (int_range 1 4) (list_size (int_range 1 5) (frequency ops)))

let arb_share_stream = arb_stream share_ops

(* The §2.3 sequence machinery places a new row after the rows with an
   equal order value, while recomputation sorts ties stably by physical
   table order.  The two agree for inserts — a fresh row is appended
   physically last — so the interpreter below lets an insert land on an
   occupied order key, and [Ins_pair] puts two byte-identical rows into
   one partition.  Only a *move* (normalized by the engine to delete +
   reinsert while the row keeps its physical slot) must land on a key
   that is free both in the target partition and globally (v_all has
   no PARTITION BY, so its order key is pos across the whole table),
   and must carry a single row: a batch's consolidated delta lists the
   rows it inserted before the rows it moved, so moving a key that
   holds an older row and a row inserted in the same batch reinserts
   them out of physical order (a known limitation of batched
   maintenance under duplicate order keys).  Other moves are dropped.
   The interpreter replays a raw stream against a model of the live
   rows so every executed statement keeps to that. *)
let concretize chunks =
  (* live rows as (grp, pos, val in eighths): exact, float-free *)
  let live = ref [ (1, 1, 84); (1, 2, 162); (1, 3, 121); (2, 1, 46); (2, 2, 200); (3, 1, 60) ] in
  (* order keys a move ever landed on: the moved row keeps its physical
     slot, so a later insert at the same table-wide key would make the
     equal-key physical order diverge from insertion order *)
  let moved_pos = Hashtbl.create 16 in
  (* v_byval keys on (grp, val): inserted vals come from a fresh
     monotone series (1000.125, 1010.125, ...) spaced wider than any
     possible number of Bumps in a stream (each shifts one group by
     1/8), so an insert never collides with a live, bumped or deleted
     val; only Move_grp needs an exact check against its target group. *)
  let fresh = ref 1000 in
  let count g p = List.length (List.filter (fun (g', p', _) -> g' = g && p' = p) !live) in
  let mem g p = count g p > 0 in
  let pcount p = List.length (List.filter (fun (_, p', _) -> p' = p) !live) in
  let val_in g v8 = List.exists (fun (g', _, v) -> g' = g && v = v8) !live in
  let insert g p copies =
    let p = ref p in
    while Hashtbl.mem moved_pos !p do
      p := !p + 7
    done;
    let v = !fresh in
    fresh := !fresh + 10;
    live := !live @ List.init copies (fun _ -> (g, !p, (8 * v) + 1));
    (!p, v)
  in
  (* move every row at (g, p) through [f] *)
  let move g p f =
    live := List.map (fun ((g', p', _) as r) -> if g' = g && p' = p then f r else r) !live
  in
  List.map
    (List.filter_map (fun op ->
         match op with
         | Ins (g, p, _) ->
           let p, v = insert g p 1 in
           Some (Ins (g, p, v))
         | Ins_pair (g, p, _) ->
           let p, v = insert g p 2 in
           Some (Ins_pair (g, p, v))
         | Del (g, p) ->
           live := List.filter (fun (g', p', _) -> not (g' = g && p' = p)) !live;
           Some op
         | Bump g ->
           (* uniform shift of one whole group: preserves within-group
              val distinctness and relative order, so v_byval's key stays
              unique — but the absolute vals move, so track them.  Two
              zeros share a key: a batch could list one as an insert,
              out of physical order, so skip the group then *)
           if List.length (List.filter (fun (g', _, v) -> g' = g && v = 0) !live) > 1
           then None
           else begin
             live :=
               List.map (fun (g', p, v) -> if g' = g then (g', p, v + 1) else (g', p, v)) !live;
             Some op
           end
         | Move_pos (g, p, p') ->
           if count g p = 1 && pcount p' = 0 && p <> p' then begin
             move g p (fun (g, _, v) -> (g, p', v));
             Hashtbl.replace moved_pos p' ();
             Some op
           end
           else None
         | Move_grp (g, p, g') ->
           (* reinserts at the same pos: only safe if this row is the
              sole holder of pos table-wide (v_all's order key) and its
              val is free in the target group (v_byval's order key) *)
           (match List.find_opt (fun (g'', p', _) -> g'' = g && p' = p) !live with
            | Some (_, _, v8)
              when (not (mem g' p)) && pcount p = 1 && g <> g' && not (val_in g' v8) ->
              move g p (fun (_, p, v) -> (g', p, v));
              Hashtbl.replace moved_pos p ();
              Some op
            | _ -> None)
         | Set (g, p, v) ->
           (* v_byval moves the single row at (g, p) to its new val,
              after the rows already holding it.  Other vals come from
              the fresh series; -0.0 and 0.0 share one key, so a zero
              may join only zeros that are physically earlier (the list
              is in physical order: inserts append, moves keep slots) *)
           let later_zero =
             let rec go seen = function
               | [] -> false
               | (g', p', v') :: rest ->
                 if g' = g && p' = p then go true rest
                 else (seen && g' = g && v' = 0) || go seen rest
             in
             go false !live
           in
           if count g p <> 1 || (v < 2 && later_zero) then None
           else begin
             let v, v8 =
               if v < 2 then (v, 0)
               else begin
                 let f = !fresh in
                 fresh := !fresh + 10;
                 (f, (8 * f) + 1)
               end
             in
             move g p (fun (g, p, _) -> (g, p, v8));
             Some (Set (g, p, v))
           end))
    chunks

(* Three databases take the same stream: shared scans on and off, each
   running a lone statement on its own, and a third running every step
   — lone statements too — as a batch. *)
let prop_shared_stream chunks =
  let on = fixture_db () in
  let off =
    fixture_db ~config:{ Db.default_config with Db.share_scans = false } ()
  in
  let scoped = fixture_db () in
  List.iter create_views [ on; off; scoped ];
  List.for_all
    (fun stmts ->
      run_step on stmts;
      run_step off stmts;
      Db.with_batch scoped (fun () ->
          List.iter (fun sql -> ignore (Db.exec scoped sql)) stmts);
      List.for_all
        (fun (name, def, _) ->
          let sql = Printf.sprintf "SELECT * FROM %s" name in
          bit_identical (Db.query on sql) (Db.query off sql)
          && bit_identical (Db.query on sql) (Db.query scoped sql)
          && bit_identical (Db.query on sql) (Db.query on def))
        views)
    (List.filter_map
       (function [] -> None | ops -> Some (List.map sql_of_op ops))
       (concretize chunks))

(* ---- Insert rank with duplicate order values ----

   [Matview.insert_rank] binary-searches the ordered partition; it must
   agree with the linear scan it replaced (a new row lands after every
   row whose order value is <= its own), runs of equal values included. *)

let test_insert_rank_duplicates () =
  let db = Db.create () in
  ignore (Db.exec db seq_ddl);
  ignore
    (Db.exec db
       "INSERT INTO seq VALUES (1, 1, 2.0), (1, 2, 1.0), (1, 3, 2.0), (1, 4, 3.0), \
        (1, 5, 2.0), (1, 6, 3.0), (2, 1, 2.0)");
  let name, def, _ = List.find (fun (n, _, _) -> n = "v_byval") views in
  ignore (Db.exec db (Printf.sprintf "CREATE MATERIALIZED VIEW %s AS %s" name def));
  let st = Option.get (Db.view_state db name) in
  let p =
    List.find
      (fun p -> Matview.partition_key p = [ Value.Int 1 ])
      (Matview.partitions st)
  in
  let linear p v =
    let rows = Matview.partition_rows p in
    let rec go k =
      if k >= Array.length rows then k + 1
      else if Value.compare (Row.get rows.(k) st.Matview.ocol) v <= 0
      then go (k + 1)
      else k + 1
    in
    go 0
  in
  let row v = [| Value.Int 1; Value.Int 99; v |] in
  List.iter
    (fun (v, expected) ->
      let label = Value.to_string v in
      Alcotest.(check int) ("linear " ^ label) expected (linear p v);
      Alcotest.(check int) ("binary " ^ label) expected (Matview.insert_rank st p (row v)))
    [ (Value.Float 0.5, 1); (Value.Float 1.0, 2); (Value.Float 2.0, 5);
      (Value.Float 2.5, 5); (Value.Float 3.0, 7); (Value.Float 9.0, 7);
      (Value.Null, 1) ];
  (* the maintained view still matches its definition after inserting
     into the middle and at the end of the equal runs *)
  ignore (Db.exec db "INSERT INTO seq VALUES (1, 7, 2.0), (1, 8, 3.0), (1, 9, 1.0)");
  check_view db name def

(* ---- Render-cache coherence (qcheck) ----

   [Matview.render] re-renders only what changed.  Under random
   per-row, batched and shared-scan streams — each step optionally
   first run with every [matview.apply_*] site armed, so maintenance
   faults and the step rolls back — every view's render must equal,
   row for row, in order and bit for bit, the render of a state freshly
   built from the same base table.  Against the previous render:
   - every partition the step did not touch comes back with physically
     the same rows;
   - in every partition, a row whose base row is physically the same
     and whose output is bit-identical comes back physically the same;
   - a lone single-row in-place UPDATE renders at most l+h+1 fresh rows
     in a sliding (l, h) view.
   The stream also sets values to -0.0 and 0.0, which only bits tell
   apart, and the views include a cumulative MIN, whose suffix keeps its
   values under most edits.  A 64-row padding partition (grp 9,
   negative positions: out of the interpreter's reach) keeps every
   delta far narrower than the table, so no step takes the wide-delta
   full refresh that legitimately re-renders everything. *)

let padding_sql =
  "INSERT INTO seq VALUES "
  ^ String.concat ", "
      (List.init 64 (fun i -> Printf.sprintf "(9, %d, %d.5)" (-(i + 1)) i))

let cmin_sql =
  "CREATE MATERIALIZED VIEW v_cmin AS SELECT grp, pos, val, MIN(val) OVER (PARTITION \
   BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS m FROM seq"

let arb_render_stream =
  arb_stream
    (share_ops
    @ [
        ( 3,
          QCheck.Gen.(
            map
              (fun ((g, p), v) -> Set (g, p, v))
              (pair (pair grp pos) (frequency [ (2, return 0); (2, return 1); (1, return 2) ]))) );
      ])

let groups_of_op = function
  | Ins (g, _, _) | Ins_pair (g, _, _) | Del (g, _) | Bump g | Move_pos (g, _, _)
  | Set (g, _, _) ->
    [ g ]
  | Move_grp (g, _, g') -> [ g; g' ]

let apply_sites () =
  List.filter (String.starts_with ~prefix:"matview.apply_") (Fault.sites ())

(* Run concretized [steps], the i-th first armed when [faults] says so. *)
let render_cache_run ~faults steps =
  let db =
    fixture_db ~config:{ Db.default_config with Db.degradation = `Abort } ()
  in
  ignore (Db.exec db padding_sql);
  create_views db;
  ignore (Db.exec db cmin_sql);
  let seq_views =
    List.filter
      (fun name -> Db.view_state db name <> None)
      ("v_cmin" :: List.map (fun (name, _, _) -> name) views)
  in
  let base () =
    Catalog.table_relation (Option.get (Catalog.find_table (Db.catalog db) "seq"))
  in
  (* per view: (pkey, base rows, rendered rows) of each partition *)
  let previous = Hashtbl.create 8 in
  let same_pkey a b = List.equal Value.equal a b in
  (* [untouched pkey]: the step cannot have changed this partition;
     [lone_update]: the step was one single-row in-place UPDATE *)
  let check ~untouched ~lone_update =
    List.iter
      (fun name ->
        let st = Option.get (Db.view_state db name) in
        let rows = Relation.rows (Matview.render st) in
        let fresh =
          Relation.rows
            (Matview.render
               (Matview.init_state st.Matview.spec ~base:(base ())
                  ~out_schema:st.Matview.out_schema))
        in
        if
          not
            (Array.length rows = Array.length fresh
            && Array.for_all2 row_same_bits rows fresh)
        then Alcotest.failf "%s: cached render differs from a fresh render" name;
        let off = ref 0 in
        let slices =
          List.map
            (fun p ->
              let base_rows = Matview.partition_rows p in
              let n = Array.length base_rows in
              let slice = Array.sub rows !off n in
              off := !off + n;
              (Matview.partition_key p, base_rows, slice))
            (Matview.partitions st)
        in
        (match Hashtbl.find_opt previous name with
         | None -> ()
         | Some old ->
           let find pkey l = List.find_opt (fun (k, _, _) -> same_pkey k pkey) l in
           List.iter
             (fun (pkey, base_rows, slice) ->
               (match find pkey old with
                | Some (_, old_base, old_slice) ->
                  Array.iteri
                    (fun k row ->
                      match
                        Array.find_index (fun b -> b == base_rows.(k)) old_base
                      with
                      | Some j when row_same_bits row old_slice.(j) && row != old_slice.(j)
                        ->
                        Alcotest.failf "%s: an unchanged kept row was re-rendered" name
                      | _ -> ())
                    slice
                | None -> ());
               if untouched pkey then
                 match find pkey old with
                 | Some (_, _, old_slice)
                   when Array.length old_slice = Array.length slice
                        && Array.for_all2 ( == ) old_slice slice -> ()
                 | _ ->
                   Alcotest.failf "%s: an untouched partition was re-rendered"
                     name)
             slices;
           List.iter
             (fun (pkey, _, _) ->
               if untouched pkey && find pkey slices = None then
                 Alcotest.failf "%s: an untouched partition vanished" name)
             old;
           match st.Matview.spec.Matview.frame with
           | Rfview_core.Frame.Sliding { l; h } when lone_update ->
             let old_rows = List.concat_map (fun (_, _, sl) -> Array.to_list sl) old in
             let fresh_rows =
               Array.fold_left
                 (fun acc row -> if List.memq row old_rows then acc else acc + 1)
                 0 rows
             in
             if fresh_rows > l + h + 1 then
               Alcotest.failf "%s: one in-place UPDATE rendered %d fresh rows (at most %d)"
                 name fresh_rows (l + h + 1)
           | _ -> ());
        Hashtbl.replace previous name slices)
      seq_views
  in
  let run = run_step db in
  check ~untouched:(fun _ -> false) ~lone_update:false;
  Fun.protect ~finally:Fault.reset (fun () ->
      List.iteri
        (fun i ops ->
          let stmts = List.map sql_of_op ops in
          let groups = List.concat_map groups_of_op ops in
          let inject = List.nth_opt faults i = Some true in
          (* an armed step that reaches no maintenance commits as is *)
          let committed =
            inject
            &&
            (List.iter (fun s -> Fault.arm s Fault.Always) (apply_sites ());
             match run stmts with
             | () ->
               Fault.reset ();
               true
             | exception Fault.Injected _ ->
               Fault.reset ();
               false)
          in
          (* rolled back: nothing changed, every partition is cached *)
          if inject && not committed then
            check ~untouched:(fun _ -> true) ~lone_update:false;
          (* then (re)run unarmed, keeping the interpreter's model exact *)
          if not committed then run stmts;
          check
            ~untouched:(function
              | [ Value.Int g ] -> not (List.mem g groups)
              | _ -> false)
            ~lone_update:(match ops with [ Set _ ] -> true | _ -> false))
        (List.filter (fun ops -> ops <> []) steps))

let prop_render_cache_coherent (chunks, faults) =
  render_cache_run ~faults (concretize chunks);
  true

(* The signed-zero transitions, in a group grown to six rows so that an
   edit stays local: a 0.0 heads group 1, a -0.0 follows it, so the
   cumulative MIN of the kept third row turns from 0.0 to -0.0; then a
   0.0 after the -0.0 ties a sliding MIN window (-0.0 must win, as in
   [Float.min]); then the -0.0 goes and the third row's cumulative MIN
   turns back. *)
let test_render_cache_signed_zeros () =
  render_cache_run
    ~faults:[ false; false; false; false; true; false; true ]
    (concretize
       [
         [ Ins (1, 4, 0) ]; [ Ins (1, 5, 0) ]; [ Ins (1, 6, 0) ];
         [ Set (1, 1, 1) ]; [ Set (1, 2, 0) ]; [ Set (1, 3, 1) ]; [ Del (1, 2) ];
       ])

(* A window holding both zeros: the maintained view (core sequences,
   [Float.min]/[Float.max]) and the same SQL run through the relalg
   window operator render the same bits, before and after maintenance.
   Every frame below sees a tie of -0.0 and 0.0 somewhere; SUM and AVG
   fold from 0., so a window of -0.0 values gives 0.0 on both sides. *)
let test_signed_zeros_relalg_equals_matview () =
  let db = Db.create () in
  ignore (Db.exec db seq_ddl);
  ignore
    (Db.exec db
       "INSERT INTO seq VALUES (1, 1, 0.0), (1, 2, -0.0), (1, 3, 0.0), (1, 4, -0.0), \
        (1, 5, 1.0), (2, 1, -0.0), (2, 2, 0.0), (2, 3, -1.0), (2, 4, 0.0)");
  let defs =
    List.concat_map
      (fun agg ->
        List.map
          (fun frame ->
            Printf.sprintf
              "SELECT grp, pos, val, %s(val) OVER (PARTITION BY grp ORDER BY pos ROWS %s) \
               AS w FROM seq"
              agg frame)
          [
            "UNBOUNDED PRECEDING";
            "BETWEEN 1 PRECEDING AND CURRENT ROW";
            "BETWEEN 2 PRECEDING AND 1 FOLLOWING";
          ])
      [ "MIN"; "MAX"; "SUM"; "AVG" ]
  in
  List.iteri
    (fun i def -> ignore (Db.exec db (Printf.sprintf "CREATE MATERIALIZED VIEW z%d AS %s" i def)))
    defs;
  let check step =
    List.iteri
      (fun i def ->
        let view = match Db.exec db (Printf.sprintf "SELECT * FROM z%d" i) with
          | Db.Relation r -> r
          | Db.Done m -> Alcotest.failf "z%d: %s" i m
        in
        let query = Db.run_query db (Parser.query def) in
        if not (bit_identical view query) then
          Alcotest.failf "%s: z%d renders other bits than the relalg window" step i)
      defs
  in
  check "initial";
  ignore (Db.exec db "INSERT INTO seq VALUES (1, 6, 0.0), (2, 5, -0.0)");
  check "after INSERT";
  ignore (Db.exec db "UPDATE seq SET val = -0.0 WHERE grp = 1 AND pos = 3");
  check "after UPDATE";
  ignore (Db.exec db "DELETE FROM seq WHERE grp = 2 AND pos = 1");
  check "after DELETE"

(* ---- Segment caches carry across merges (qcheck) ----

   The engine renders after every commit; a state maintained through
   several merges renders each segment it rebuilds as it goes.  Under
   random per-row edits, after every merge each row whose base row is
   physically the one before and whose output is bit-identical keeps
   its rendered row, and every output chunk whose rows all stayed is
   physically the chunk before; and at random points, and at the end,
   the render equals a fresh one bit for bit.  Values include -0.0 and
   0.0. *)

type edit = E_ins of int * int | E_del of int | E_upd of int * int

let compose_views =
  [
    "SELECT grp, pos, val, MIN(val) OVER (PARTITION BY grp ORDER BY pos ROWS \
     UNBOUNDED PRECEDING) AS m FROM seq";
    "SELECT grp, pos, val, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS \
     BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq";
    "SELECT grp, pos, val, AVG(val) OVER (PARTITION BY grp ORDER BY pos ROWS \
     BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS a FROM seq";
  ]

let arb_edits =
  QCheck.make
    ~print:(fun (edits, _) ->
      String.concat "; "
        (List.map
           (function
             | E_ins (p, v) -> Printf.sprintf "ins %d %d" p v
             | E_del i -> Printf.sprintf "del %d" i
             | E_upd (i, v) -> Printf.sprintf "upd %d %d" i v)
           edits))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 12)
           (frequency
              [
                (2, map2 (fun p v -> E_ins (p, v)) (int_range 1 50) (int_range (-2) 2));
                (1, map (fun i -> E_del i) (int_range 0 99));
                (3, map2 (fun i v -> E_upd (i, v)) (int_range 0 99) (int_range (-2) 2));
              ]))
        (list_size (int_range 0 12) bool))

(* value [v]: 0 is -0.0, anything else the float *)
let edit_value v = Value.Float (if v = 0 then -0.0 else float_of_int v)

(* [st]'s base rows, partition by partition *)
let state_rows st = Array.concat (List.map Matview.partition_rows (Matview.partitions st))

(* A state built afresh over [st]'s own rows, ties in their order. *)
let fresh_state (st : Matview.state) =
  Matview.init_state st.Matview.spec
    ~base:(Relation.of_array st.Matview.base_schema (state_rows st))
    ~out_schema:st.Matview.out_schema

let floats_same a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let renders_fresh st =
  let rows = Relation.rows (Matview.render st)
  and fresh = Relation.rows (Matview.render (fresh_state st)) in
  Array.length rows = Array.length fresh && Array.for_all2 row_same_bits rows fresh

(* the complete sequences, header and trailer included, bit for bit *)
let same_sequences st =
  let seqs s =
    List.map
      (fun p -> Rfview_core.Seqdata.to_array (Matview.partition_seq s p))
      (Matview.partitions s)
  in
  List.equal floats_same (seqs st) (seqs (fresh_state st))

let prop_segments_carry (edits, renders) =
  let db = Db.create () in
  ignore (Db.exec db seq_ddl);
  ignore
    (Db.exec db
       ("INSERT INTO seq VALUES "
       ^ String.concat ", "
           (List.init 24 (fun i -> Printf.sprintf "(1, %d, %d.0)" (2 * (i + 1)) ((i mod 5) - 2)))));
  List.iteri
    (fun i def ->
      ignore (Db.exec db (Printf.sprintf "CREATE MATERIALIZED VIEW vc%d AS %s" i def)))
    compose_views;
  List.iteri
    (fun i _ ->
      let name = Printf.sprintf "vc%d" i in
      let st = Matview.copy_state (Option.get (Db.view_state db name)) in
      let base_rows () = state_rows st in
      let chunks () =
        List.concat_map
          (fun p -> Array.to_list (Matview.partition_chunks p))
          (Matview.partitions st)
      in
      let previous = ref (base_rows (), Relation.rows (Matview.render st), chunks ()) in
      let check_merge () =
        let base = base_rows () and rows = Relation.rows (Matview.render st) in
        let old_base, old_rows, old_chunks = !previous in
        Array.iteri
          (fun k row ->
            match Array.find_index (fun b -> b == base.(k)) old_base with
            | Some j when row_same_bits row old_rows.(j) && row != old_rows.(j) ->
              Alcotest.failf "%s: an unchanged kept row was re-rendered" name
            | _ -> ())
          rows;
        List.iter
          (fun c ->
            let crows = Relation.chunk_rows c in
            if
              (not (List.memq c old_chunks))
              && List.exists
                   (fun o ->
                     let orows = Relation.chunk_rows o in
                     Array.length orows = Array.length crows && Array.for_all2 ( == ) orows crows)
                   old_chunks
            then Alcotest.failf "%s: a chunk of unchanged rows was rebuilt" name)
          (chunks ());
        previous := (base, rows, chunks ())
      in
      let check_fresh () =
        if not (renders_fresh st) then
          Alcotest.failf "%s: render after merges differs from a fresh one" name
      in
      List.iteri
        (fun j edit ->
          let base = base_rows () in
          let n = Array.length base in
          (match edit with
           | E_ins (p, v) -> Matview.apply_insert st [| Value.Int 1; Value.Int p; edit_value v |]
           | E_del i -> if n > 1 then Matview.apply_delete st base.(i mod n)
           | E_upd (i, v) ->
             let old_row = base.(i mod n) in
             Matview.apply_update st ~old_row
               ~new_row:[| Row.get old_row 0; Row.get old_row 1; edit_value v |]);
          check_merge ();
          if List.nth_opt renders j = Some true then check_fresh ())
        edits;
      check_fresh ())
    compose_views;
  true

(* ---- Segmented partition state under random edit sequences (qcheck) ----

   Ten views — SUM, COUNT, AVG, MIN and MAX over a sliding frame and a
   cumulative one — share one scan, driven through [shared_plan] and
   [apply_shared] over three partitions: one full segment (256 rows),
   two segments (300 rows) and one short one (70 rows).  Steps insert
   runs of rows (many at one order key, so equal keys), delete runs
   (emptying segments and, at times, a whole partition, which a later
   insert re-creates), update values, move order and partition keys,
   and pick rows within h of a partition's start and within l of its
   end; some steps rebuild one view's state from scratch, so its
   segments are cut otherwise than its class's.  After each step, for
   every view:
   - its rows are the table's, as a bag;
   - its render is bit-identical to [init_state] over the same rows;
   - every segment holds 1..256 rows, and at least 64 when its
     partition has several;
   - every segment two or more away from each one the step touched
     (and, for a cumulative view, before it) keeps its output chunk
     physically. *)

type seg_op =
  | S_ins of int * int * int * int  (* grp, at (row index), count, value *)
  | S_del of int * int * int        (* grp, from (row index), count *)
  | S_upd of int * int * int        (* grp, row index, value *)
  | S_move_pos of int * int * int   (* grp, row index, new pos *)
  | S_move_grp of int * int * int   (* grp, row index, new grp *)
  | S_refresh of int                (* rebuild view i's state *)

let seg_op_to_string = function
  | S_ins (g, at, m, v) -> Printf.sprintf "ins g%d @%d x%d v%d" g at m v
  | S_del (g, at, m) -> Printf.sprintf "del g%d @%d x%d" g at m
  | S_upd (g, i, v) -> Printf.sprintf "upd g%d @%d v%d" g i v
  | S_move_pos (g, i, p) -> Printf.sprintf "movepos g%d @%d ->%d" g i p
  | S_move_grp (g, i, g') -> Printf.sprintf "movegrp g%d @%d ->g%d" g i g'
  | S_refresh i -> Printf.sprintf "refresh %d" i

let seg_views =
  List.concat_map
    (fun agg ->
      List.map
        (fun frame ->
          Printf.sprintf
            "SELECT grp, pos, val, %s(val) OVER (PARTITION BY grp ORDER BY pos ROWS %s) AS w \
             FROM seq"
            agg frame)
        [ "BETWEEN 2 PRECEDING AND 1 FOLLOWING"; "UNBOUNDED PRECEDING" ])
    [ "SUM"; "COUNT"; "AVG"; "MIN"; "MAX" ]

let arb_seg_steps =
  let open QCheck.Gen in
  let grp = int_range 1 3 and value = int_range (-2) 2 in
  (* a row index: near either end of the partition, or anywhere *)
  let index =
    frequency
      [ (2, int_range 0 2); (2, map (fun d -> -1 - d) (int_range 0 2)); (3, int_range 0 400) ]
  in
  let count = frequency [ (3, int_range 1 40); (1, int_range 100 320) ] in
  let op =
    frequency
      [
        (3, map (fun (g, at, m, v) -> S_ins (g, at, m, v)) (quad grp index (int_range 1 40) value));
        (2, map (fun (g, at, m) -> S_del (g, at, m)) (triple grp index count));
        (3, map (fun (g, i, v) -> S_upd (g, i, v)) (triple grp index value));
        (1, map (fun (g, i, p) -> S_move_pos (g, i, p)) (triple grp index (int_range 0 1300)));
        (1, map (fun (g, i, g') -> S_move_grp (g, i, g')) (triple grp index grp));
        (1, map (fun i -> S_refresh i) (int_range 0 9));
      ]
  in
  QCheck.make
    ~print:(fun steps ->
      String.concat " | "
        (List.map (fun ops -> String.concat "; " (List.map seg_op_to_string ops)) steps))
    (list_size (int_range 1 8) (list_size (int_range 1 3) op))

(* A bag of rows under [Row.equal], the equality a claim uses: -0.0 is
   0.0, so a delete may claim either (the render check holds the
   bits). *)
let row_bag rows =
  List.sort String.compare
    (List.map
       (fun r ->
         String.concat ","
           (List.map
              (function
                | Value.Float f when f = 0. -> "0"
                | Value.Float f -> Int64.to_string (Int64.bits_of_float f)
                | v -> Value.to_string v)
              (Array.to_list r)))
       rows)

let part_of st g =
  List.find_opt (fun p -> Matview.partition_key p = [ Value.Int g ]) (Matview.partitions st)

(* The checks after one step of [prop_segments] on view [name], whose
   partitions' chunks were [before] ((pkey, chunks) each, [None] when
   the step rebuilt the state) and where the step touched the old row
   indices [touched] ((grp, index) each). *)
let check_segments name st ~table ~before ~touched =
  if row_bag (Array.to_list (state_rows st)) <> row_bag table then
    Alcotest.failf "%s: its rows are not the table's" name;
  if not (renders_fresh st) then Alcotest.failf "%s: render differs from a fresh one" name;
  if not (same_sequences st) then
    Alcotest.failf "%s: a sequence (header and trailer included) differs from a fresh one" name;
  List.iter
    (fun p ->
      let chunks = Matview.partition_chunks p in
      Array.iter
        (fun c ->
          let len = Array.length (Relation.chunk_rows c) in
          if len < 1 || len > 256 || (Array.length chunks > 1 && len < 64) then
            Alcotest.failf "%s: a segment of %d rows (of %d)" name len (Array.length chunks))
        chunks)
    (Matview.partitions st);
  let cumulative = st.Matview.spec.Matview.frame = Rfview_core.Frame.Cumulative in
  let kept now c = Array.exists (fun c' -> c' == c) now in
  List.iter
    (fun (pkey, old_chunks) ->
      let g = match pkey with [ Value.Int g ] -> g | _ -> assert false in
      let now = match part_of st g with Some p -> Matview.partition_chunks p | None -> [||] in
      (* a chunk of physically unchanged rows is the old chunk *)
      Array.iter
        (fun c ->
          let rows = Relation.chunk_rows c in
          let same o =
            let orows = Relation.chunk_rows o in
            Array.length orows = Array.length rows && Array.for_all2 ( == ) orows rows
          in
          if (not (kept old_chunks c)) && Array.exists same old_chunks then
            Alcotest.failf "%s: a chunk of unchanged rows was rebuilt" name)
        now;
      (* the old segment of each touched row; a segment two or more
         away from all of them (and, for a cumulative view, before
         them) is kept *)
      let seg_of k =
        let j = ref 0 and start = ref 0 in
        while
          !j + 1 < Array.length old_chunks
          && !start + Array.length (Relation.chunk_rows old_chunks.(!j)) <= k
        do
          start := !start + Array.length (Relation.chunk_rows old_chunks.(!j));
          incr j
        done;
        !j
      in
      let hit =
        List.filter_map (fun (g', k) -> if g' = g then Some (seg_of k) else None) touched
      in
      Array.iteri
        (fun j c ->
          let untouched =
            List.for_all (fun t -> abs (j - t) >= 2 && ((not cumulative) || j < t)) hit
          in
          if untouched && not (kept now c) then
            Alcotest.failf "%s: untouched segment %d of grp %d was rebuilt" name j g)
        old_chunks)
    before

let prop_segments steps =
  let db = Db.create () in
  ignore (Db.exec db seq_ddl);
  Db.load_table db ~table:"seq"
    (Array.of_list
       (List.concat_map
          (fun (g, n) ->
            List.init n (fun i ->
                [|
                  Value.Int g;
                  Value.Int (4 * (i + 1));
                  Value.Float (float_of_int ((i * 7 mod 11) - 5));
                |]))
          [ (1, 256); (2, 300); (3, 70) ]));
  List.iteri
    (fun i def ->
      ignore (Db.exec db (Printf.sprintf "CREATE MATERIALIZED VIEW sv%d AS %s" i def)))
    seg_views;
  let states =
    Array.init (List.length seg_views) (fun i ->
        Matview.copy_state (Option.get (Db.view_state db (Printf.sprintf "sv%d" i))))
  in
  let ocol = states.(0).Matview.ocol in
  let table = ref (Array.to_list (state_rows states.(0))) in
  List.iter
    (fun ops ->
      (* view 0's rows of grp [g], in order, before the step *)
      let rows_of g =
        match part_of states.(0) g with Some p -> Matview.partition_rows p | None -> [||]
      in
      let pick rows i =
        let n = Array.length rows in
        (((if i < 0 then n + i else i) mod n) + n) mod n
      in
      (* the step's delta, and the old (grp, row index) it touches *)
      let inserts = ref [] and deletes = ref [] and updates = ref [] and touched = ref [] in
      let refreshed = ref [] and taken = ref [] in
      (* a row this step has not edited yet *)
      let untaken g i =
        let rows = rows_of g in
        if Array.length rows = 0 then None
        else
          let r = rows.(pick rows i) in
          if List.memq r !taken then None
          else begin
            taken := r :: !taken;
            Some r
          end
      in
      (* every row sharing [r]'s order value, where its claim may land *)
      let touch g r =
        Array.iteri
          (fun k x ->
            if Value.equal (Row.get x ocol) (Row.get r ocol) then touched := (g, k) :: !touched)
          (rows_of g)
      in
      let touch_slot g r =
        Option.iter
          (fun p ->
            let slot = Matview.insert_rank states.(0) p r - 1 in
            touched := (g, Int.max 0 (slot - 1)) :: (g, slot) :: !touched)
          (part_of states.(0) g)
      in
      let update g r nr =
        touch g r;
        touch_slot (match Row.get nr 0 with Value.Int g' -> g' | _ -> g) nr;
        updates := (r, nr) :: !updates
      in
      List.iter
        (function
          | S_ins (g, at, m, v) ->
            let rows = rows_of g in
            let pos =
              if Array.length rows = 0 then 4
              else match Row.get rows.(pick rows at) ocol with Value.Int p -> p | _ -> 4
            in
            for k = 0 to m - 1 do
              let r = [| Value.Int g; Value.Int pos; edit_value (v + k) |] in
              touch_slot g r;
              inserts := r :: !inserts
            done
          | S_del (g, at, m) ->
            let rows = rows_of g in
            for k = 0 to Int.min m (Array.length rows) - 1 do
              Option.iter
                (fun r ->
                  touch g r;
                  deletes := r :: !deletes)
                (untaken g ((pick rows at + k) mod Array.length rows))
            done
          | S_upd (g, i, v) ->
            Option.iter
              (fun r -> update g r [| Row.get r 0; Row.get r 1; edit_value v |])
              (untaken g i)
          | S_move_pos (g, i, p) ->
            Option.iter
              (fun r -> update g r [| Row.get r 0; Value.Int p; Row.get r 2 |])
              (untaken g i)
          | S_move_grp (g, i, g') ->
            Option.iter
              (fun r -> update g r [| Value.Int g'; Row.get r 1; Row.get r 2 |])
              (untaken g i)
          | S_refresh i -> refreshed := i :: !refreshed)
        ops;
      let inserts = List.rev !inserts and deletes = List.rev !deletes
      and updates = List.rev !updates in
      let remove r l =
        let rec go = function [] -> [] | x :: xs -> if Row.equal x r then xs else x :: go xs in
        go l
      in
      table := List.fold_left (fun t r -> remove r t) !table deletes;
      table := List.fold_left (fun t (o, nr) -> nr :: remove o t) !table updates;
      table := inserts @ !table;
      let before =
        Array.map
          (fun st ->
            List.map
              (fun p -> (Matview.partition_key p, Matview.partition_chunks p))
              (Matview.partitions st))
          states
      in
      let plan = Matview.shared_plan (Array.to_list states) ~inserts ~deletes ~updates in
      Array.iter (Matview.apply_shared plan) states;
      (* a rebuilt state keeps its rows' order, ties included, so the
         class invariant holds, but it is cut afresh *)
      List.iter (fun i -> states.(i) <- fresh_state states.(i)) !refreshed;
      Array.iteri
        (fun i st ->
          check_segments (Printf.sprintf "sv%d" i) st ~table:!table
            ~before:(if List.mem i !refreshed then [] else before.(i))
            ~touched:!touched)
        states)
    steps;
  true

(* ---- No forced minor collection on the write path ----

   [caml_make_vect] runs a minor collection before it builds an array of
   more than 256 words whose fill value is a young block, and on OCaml 5
   every minor collection stops all domains.  Four warehouse-shaped
   views in one share class (cumulative SUM, SUM(2,1), MIN(3,0),
   AVG(1,1)) sit over one 2,500-row partition.  A single-row INSERT,
   UPDATE and DELETE each allocate a small fraction of the minor heap,
   so from an empty minor heap any minor collection one starts is a
   forced one.  [Gc.full_major] empties the minor heap and also finishes
   the major cycle, whose end would empty the minor heap again mid-run.
   Verification is off: its recomputation is not the write path. *)

let write_path_views =
  [
    ("v_cum", "SUM", "ROWS UNBOUNDED PRECEDING", "s");
    ("v_s21", "SUM", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING", "s");
    ("v_min", "MIN", "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW", "m");
    ("v_avg", "AVG", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING", "a");
  ]

let test_write_path_no_forced_minor () =
  Rfview_analysis.Verify.disable ();
  Fun.protect ~finally:Rfview_analysis.Verify.enable (fun () ->
      let db = Db.create () in
      ignore (Db.exec db seq_ddl);
      ignore
        (Db.exec db
           ("INSERT INTO seq VALUES "
           ^ String.concat ", "
               (List.init 2_500 (fun i ->
                    Printf.sprintf "(1, %d, %d.5)" ((i + 1) * 16) ((i * 37 mod 101) - 50)))));
      List.iter
        (fun (name, fn, frame, col) ->
          ignore
            (Db.exec db
               (Printf.sprintf
                  "CREATE MATERIALIZED VIEW %s AS SELECT grp, pos, val, %s(val) OVER \
                   (PARTITION BY grp ORDER BY pos %s) AS %s FROM seq"
                  name fn frame col)))
        write_path_views;
      Alcotest.(check (list (list string)))
        "one share class" [ [ "v_avg"; "v_cum"; "v_min"; "v_s21" ] ]
        (Db.share_classes db ~table:"seq");
      List.iter
        (fun sql ->
          Gc.full_major ();
          let before = (Gc.quick_stat ()).Gc.minor_collections in
          let w0 = Gc.minor_words () in
          ignore (Db.exec db sql);
          let words = Gc.minor_words () -. w0 in
          let after = (Gc.quick_stat ()).Gc.minor_collections in
          if words > float_of_int (Gc.get ()).Gc.minor_heap_size /. 2. then
            Alcotest.failf "%s allocated %.0f words: too close to a full minor heap" sql
              words;
          Alcotest.(check int) (sql ^ ": minor collections") before after)
        (* each edits the partition's first row, so every view renders
           its first row fresh: a young block, as a fill value would be *)
        [
          "INSERT INTO seq VALUES (1, 8, 7.5)";
          "UPDATE seq SET val = -3.5 WHERE grp = 1 AND pos = 8";
          "DELETE FROM seq WHERE grp = 1 AND pos = 8";
        ];
      List.iter
        (fun (name, _, _, _) ->
          if Db.view_state db name = None then
            Alcotest.failf "%s left incremental maintenance" name)
        write_path_views)

(* A single-row statement costs what it touches, not what the table
   holds (paper §2.3): with the four views above over [groups]
   partitions of 2,500 rows, the words a single-row UPDATE, INSERT or
   DELETE allocates — minor-heap words plus the words it allocates
   directly on the major heap — stay within 1.25x between 8 and 32
   partitions.  Allocation counts are deterministic, so the bound is
   exact where a time bound would be noise. *)

let statement_words ?(views = write_path_views) ?(ranks = 2_500) ~groups ~per_group () =
  let spacing = 16 and reps = 12 in
  let db = Db.create () in
  ignore (Db.exec db seq_ddl);
  Db.load_table db ~table:"seq"
    (Array.init (groups * per_group) (fun i ->
         [|
           Value.Int (i / per_group);
           Value.Int (((i mod per_group) + 1) * spacing);
           Value.Float (float_of_int ((i * 37 mod 101) - 50));
         |]));
  List.iter
    (fun (name, fn, frame, col) ->
      ignore
        (Db.exec db
           (Printf.sprintf
              "CREATE MATERIALIZED VIEW %s AS SELECT grp, pos, val, %s(val) OVER \
               (PARTITION BY grp ORDER BY pos %s) AS %s FROM seq"
              name fn frame col)))
    views;
  let words = Array.make 3 0. in
  for i = 0 to reps - 1 do
    (* the same partitions and ranks at both sizes *)
    let grp = i mod Int.min groups 8 and pos = ((i * 211 mod ranks) + 1) * spacing in
    List.iteri
      (fun k sql ->
        (* from an empty minor heap: a collection inside the statement
           would count the words it promotes as direct major words *)
        Gc.minor ();
        (* [Gc.counters] undercounts the words in the current minor heap
           on OCaml 5.1: minor words come from [Gc.minor_words] *)
        let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
        ignore (Db.exec db sql);
        let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
        words.(k) <-
          words.(k) +. (minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0))
      [
        Printf.sprintf "UPDATE seq SET val = %d WHERE grp = %d AND pos = %d" (i - 6) grp pos;
        Printf.sprintf "INSERT INTO seq VALUES (%d, %d, 1.5)" grp (pos + (spacing / 2));
        Printf.sprintf "DELETE FROM seq WHERE grp = %d AND pos = %d" grp (pos + (spacing / 2));
      ]
  done;
  List.iter
    (fun (name, _, _, _) ->
      if Db.view_state db name = None then Alcotest.failf "%s left incremental maintenance" name)
    views;
  Array.map (fun w -> w /. float_of_int reps) words

let check_flat ~bound ~what small large =
  List.iteri
    (fun k kind ->
      let ratio = large.(k) /. small.(k) in
      if ratio > bound then
        Alcotest.failf "%s: %.0f words at %s, %.0f (%.2fx > %.2fx)" kind large.(k) what
          small.(k) ratio bound)
    [ "UPDATE"; "INSERT"; "DELETE" ]

let test_write_cost_flat () =
  Rfview_analysis.Verify.disable ();
  Fun.protect ~finally:Rfview_analysis.Verify.enable (fun () ->
      check_flat ~bound:1.25 ~what:"32 partitions against 8"
        (statement_words ~groups:8 ~per_group:2_500 ())
        (statement_words ~groups:32 ~per_group:2_500 ()))

(* §2.3 again, inside one partition: a sliding view's single-row edit
   changes l+h+1 values, so with the three sliding views above over one
   partition, the words a single-row UPDATE, INSERT or DELETE allocates
   stay within 1.5x between 1,000 and 20,000 rows (edits at the same
   ranks).  What is left of the partition size is the chunk and segment
   arrays an edit copies, n/256 entries each. *)
let test_partition_cost_flat () =
  Rfview_analysis.Verify.disable ();
  Fun.protect ~finally:Rfview_analysis.Verify.enable (fun () ->
      let views = List.filter (fun (name, _, _, _) -> name <> "v_cum") write_path_views in
      let words rows = statement_words ~views ~ranks:1_000 ~groups:1 ~per_group:rows () in
      check_flat ~bound:1.5 ~what:"20,000 rows in the partition against 1,000" (words 1_000)
        (words 20_000))

(* ---- Row arrays are never written in place (qcheck) ----

   Undo snapshots ([Matview.copy_state]) copy only the state and
   partition records; they share row arrays, raw data and sequences
   with the live state, and the members of a share class share the
   merged row arrays.  That is sound only while no maintenance path
   writes into any of them.  Freeze a copy of every view's state
   before each step, with a deep snapshot of its contents and its
   render, then run the rest of a random stream — lone statements, a
   lone same-order UPDATE after every step (a value edit in place),
   batches, with shared scans on and off — and check after every step
   that no frozen copy changed. *)

type frozen = {
  fz_state : Matview.state;
  fz_parts : (Row.t array * float array * float array) list;
      (* per partition: deep copies of base rows, raw data, sequence *)
  fz_render : Row.t array;
}

let freeze st =
  let copy = Matview.copy_state st in
  let module S = Rfview_core.Seqdata in
  {
    fz_state = copy;
    fz_parts =
      List.map
        (fun p ->
          (Array.map Array.copy (Matview.partition_rows p),
           S.raw_to_array (Matview.partition_raw copy p),
           S.to_array (Matview.partition_seq copy p)))
        (Matview.partitions copy);
    fz_render = Relation.rows (Matview.render copy);
  }

let rows_same a b = Array.length a = Array.length b && Array.for_all2 row_same_bits a b

let still_frozen fz =
  let module S = Rfview_core.Seqdata in
  List.for_all2
    (fun p (rows, raw, seq) ->
      rows_same (Matview.partition_rows p) rows
      && floats_same (S.raw_to_array (Matview.partition_raw fz.fz_state p)) raw
      && floats_same (S.to_array (Matview.partition_seq fz.fz_state p)) seq)
    (Matview.partitions fz.fz_state) fz.fz_parts
  && rows_same (Relation.rows (Matview.render fz.fz_state)) fz.fz_render

let prop_no_in_place_writes chunks =
  let on = fixture_db () and off =
    fixture_db ~config:{ Db.default_config with Db.share_scans = false } ()
  in
  List.iter create_views [ on; off ];
  let steps =
    concretize (List.concat_map (fun ops -> [ ops; [ Bump 1 ] ]) chunks)
    |> List.filter (fun ops -> ops <> [])
  in
  List.for_all
    (fun db ->
      let frozen = ref [] in
      List.for_all
        (fun ops ->
          List.iter
            (fun (name, _, _) ->
              Option.iter
                (fun st -> frozen := freeze st :: !frozen)
                (Db.view_state db name))
            views;
          run_step db (List.map sql_of_op ops);
          List.for_all still_frozen !frozen)
        steps)
    [ on; off ]

let () =
  Alcotest.run "share"
    [
      ( "certificates",
        [
          Alcotest.test_case "scan specs" `Quick test_scan_spec;
          Alcotest.test_case "pairwise obligations" `Quick test_certify_pair;
          Alcotest.test_case "classification + RF401" `Quick test_classify;
        ] );
      ( "cert iff runtime",
        [
          Alcotest.test_case "engine matches certificates" `Quick
            test_cert_iff_runtime;
          Alcotest.test_case "dropped member leaves class" `Quick
            test_stale_member_leaves_class;
          Alcotest.test_case "quarantined member heals back" `Quick
            test_quarantined_member_heals_back;
        ] );
      ( "shared maintenance",
        [
          Alcotest.test_case "batched DML, validated" `Quick
            test_shared_batch_maintenance;
          Alcotest.test_case "share_scans off is equivalent" `Quick
            test_share_scans_off_equivalent;
          Alcotest.test_case "differential validator" `Quick
            test_shared_scan_validator;
          Alcotest.test_case "insert rank, duplicate order values" `Quick
            test_insert_rank_duplicates;
          Alcotest.test_case "signed zeros: render cache coherent" `Quick
            test_render_cache_signed_zeros;
          Alcotest.test_case "signed zeros: relalg window equals the matview" `Quick
            test_signed_zeros_relalg_equals_matview;
        ] );
      ( "write path",
        [
          Alcotest.test_case "no forced minor collection on the write path" `Quick
            test_write_path_no_forced_minor;
          Alcotest.test_case "single-row cost flat in the table size" `Quick
            test_write_cost_flat;
          Alcotest.test_case "single-row cost flat in the partition size" `Quick
            test_partition_cost_flat;
        ] );
      ( "cost",
        [
          Alcotest.test_case "bounded frames" `Quick test_cost_bounded_frames;
          Alcotest.test_case "RF402 / RF403" `Quick test_cost_rf402_rf403;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:40
               ~name:"random batched DML: shared == per-view == refresh"
               arb_share_stream prop_shared_stream);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:40
               ~name:"random DML with rollbacks: render cache coherent"
               (QCheck.pair arb_render_stream
                  QCheck.(list_of_size Gen.(int_range 0 4) bool))
               prop_render_cache_coherent);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:100
               ~name:"segment caches carry across merges" arb_edits
               prop_segments_carry);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:60
               ~name:"random edits: segmented state equals a fresh one" arb_seg_steps
               prop_segments);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:25
               ~name:"no maintenance path writes into a row array"
               arb_share_stream prop_no_in_place_writes);
        ] );
    ]
