(* Fault tolerance: atomic statements, quarantined views and the chaos
   harness.

   Walks through the robustness machinery: a fault injected mid
   statement rolls the whole statement back; a fault during view
   maintenance quarantines just that view (the statement still
   succeeds) and the next read heals it; a faulting cache entry is
   evicted and the query re-runs uncached.  Then runs the chaos harness
   against every registered fault site.

   Run with:  dune exec examples/fault_tolerance.exe *)

module Db = Rfview_engine.Database
module Cache = Rfview_engine.Cache
module Fault = Rfview_engine.Fault
module Chaos = Rfview_workload.Chaos
module Relation = Rfview_relalg.Relation

let section title = Printf.printf "\n=== %s ===\n%!" title

let () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE seq (grp INT, pos INT, val FLOAT)");
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW v_cum AS SELECT grp, pos, val, SUM(val) OVER \
        (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq");
  ignore (Db.exec db "INSERT INTO seq VALUES (1, 1, 10)");
  ignore (Db.exec db "INSERT INTO seq VALUES (1, 2, 20)");

  section "Statement atomicity: a fault after the base mutation rolls back";
  Fault.arm "database.apply_insert" Fault.Always;
  (match Db.exec db "INSERT INTO seq VALUES (1, 3, 30)" with
   | _ -> assert false
   | exception Fault.Injected site -> Printf.printf "raised: injected fault at %s\n" site);
  Fault.disarm_all ();
  Printf.printf "table after rollback (still 2 rows):\n";
  Relation.print (Db.query db "SELECT * FROM seq");

  section "Quarantine: a maintenance fault marks the view stale, not the db";
  Fault.arm "matview.apply_shared" Fault.Always;
  ignore (Db.exec db "INSERT INTO seq VALUES (1, 3, 30)");
  Fault.disarm_all ();
  Printf.printf "insert succeeded; v_cum stale? %b\n" (Db.is_stale db "v_cum");
  Printf.printf "reading the view heals it by full refresh:\n";
  Relation.print (Db.query db "SELECT * FROM v_cum");
  Printf.printf "v_cum stale after read? %b\n" (Db.is_stale db "v_cum");

  section "Cache degradation: a faulting derivation evicts and bypasses";
  let cache = Cache.create db in
  let probe = "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 \
               PRECEDING AND 1 FOLLOWING) AS s FROM seq" in
  let _, o1 = Cache.query cache probe in
  Printf.printf "first run:  %s\n" (Cache.describe_outcome o1);
  Fault.arm "cache.derive_answer" Fault.Always;
  let r2, o2 = Cache.query cache probe in
  Fault.disarm_all ();
  Printf.printf "under fault: %s (still %d correct rows)\n"
    (Cache.describe_outcome o2) (Relation.cardinality r2);

  section "Chaos harness: every site, randomized DML vs a shadow oracle";
  Fault.reset ();
  let clean = Chaos.run () in
  Printf.printf "no injection: %d statements, %d checks, all consistent\n"
    clean.Chaos.statements clean.Chaos.checks;
  List.iter
    (fun site ->
      let r =
        Chaos.run ~inject:(site, Fault.Probability { p = 0.3; seed = 42 }) ()
      in
      Printf.printf
        "%-24s fired %d: %d failed stmts, %d quarantines, %d heals — consistent\n"
        site (Fault.fired site) r.Chaos.failed r.Chaos.quarantines r.Chaos.heals)
    (Fault.sites ())
