.PHONY: all build test loc lint analyze chaos crash-chaos replica-chaos storage-chaos scrub-smoke mvcc-chaos serve-smoke bench-smoke warebench-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Library size: the line count of lib/**/*.ml and lib/**/*.mli that
# ROADMAP.md and CHANGES.md quote, so every change counts the same way.
loc:
	@find lib \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l

# Lint the example SQL corpus with the plan checker (`rfview lint`),
# plus the SQL string literals embedded in the test/ and examples/
# OCaml drivers (extracted-literal mode).
lint:
	dune build @lint

# Abstract interpretation over the example corpus (`rfview analyze`):
# fails on any RF2xx diagnostic — statically-empty predicates,
# guaranteed division by zero, NULL-poisoned aggregates, cumulative-SUM
# overflow risk — and prints derivability certificates for each query.
analyze:
	dune build @analyze

# Fault-injection sweep: the chaos harness plus the rollback/quarantine
# suite (test/test_fault.ml) against every registered site.
chaos:
	dune exec test/test_fault.exe

# Crash-recovery chaos: the durability suite (test/test_crash.ml) — WAL
# round trips, torn tails, checkpoint/recovery faults, and the seed
# matrix of randomized crash streams against the shadow oracle.
crash-chaos:
	dune exec test/test_crash.exe

# Replication chaos: the replica suite (test/test_replica.ml) —
# compression/pack round trips, the prefix-monotone WAL replay
# property, checkpoint-epoch crash protocol, stale-bounded reads,
# quarantine/resync, promotion, and the multi-seed replica chaos
# matrix (kills, feed corruption, lag, primary crashes, failover; every
# served read must be a true historical state at its reported LSN).
replica-chaos:
	dune exec test/test_replica.exe

# Storage-fault chaos: the storage suite (test/test_storage.ml) — the
# simulated disk (ENOSPC byte budgets with torn writes, EIO, seeded bit
# flips, power cuts losing unsynced bytes), disk-full degraded mode and
# the space-probe resume, the io.* fault-site sweep, the scrub property,
# cross-source WAL repair with bit-identity, the pinned md5 of every
# artifact, the decoder fuzz (hostile CRC-valid frames), and the
# multi-seed storage-chaos matrix against the shadow oracle.
storage-chaos:
	dune exec test/test_storage.exe

# End-to-end scrub/repair smoke over a real fixture: build a durable
# database from the quickstart script, corrupt one WAL byte with dd,
# and check that `rfview scrub` flags it (exit 1), `--repair` heals it,
# and a final scrub comes back clean.
scrub-smoke:
	rm -rf _scrub_smoke
	dune exec bin/rfview.exe -- run examples/sql/quickstart.sql \
	  --db _scrub_smoke > /dev/null
	printf '\377' | dd of=_scrub_smoke/log.wal bs=1 seek=20 \
	  conv=notrunc status=none
	@if dune exec bin/rfview.exe -- scrub _scrub_smoke; then \
	  echo "scrub missed the corrupted WAL byte"; exit 1; fi
	dune exec bin/rfview.exe -- scrub _scrub_smoke --repair
	dune exec bin/rfview.exe -- scrub _scrub_smoke
	rm -rf _scrub_smoke

# MVCC + server suites at 1 and 4 worker domains: snapshot isolation,
# the retained-version window, the concurrent snapshot chaos matrix
# (every read a true historical state at its reported LSN), the domain
# pool, and socket round-trips with concurrent clients.
mvcc-chaos:
	RFVIEW_TEST_DOMAINS=1 dune exec test/test_mvcc.exe
	RFVIEW_TEST_DOMAINS=1 dune exec test/test_server.exe
	RFVIEW_TEST_DOMAINS=4 dune exec test/test_mvcc.exe
	RFVIEW_TEST_DOMAINS=4 dune exec test/test_server.exe

# End-to-end server smoke over a real durable fixture: build a database
# from the quickstart script, serve it on a fixed port, run three
# client round-trips (`rfview call`), answer a 4,096-row cross join of
# `seq` (a response line longer than the 64 KiB channel buffer) with
# "rows":4096, send one request line over the 1 MiB line cap (too long
# for an argv string, so from python3), which must draw
# {"ok":false,...}, check a fresh `ping` still answers, and shut the
# server down cleanly.
serve-smoke:
	rm -rf _serve_smoke
	dune build bin/rfview.exe
	./_build/default/bin/rfview.exe run examples/sql/quickstart.sql \
	  --db _serve_smoke > /dev/null
	./_build/default/bin/rfview.exe serve _serve_smoke --port 7491 & \
	  srv=$$!; \
	  for i in 1 2 3 4 5 6 7 8 9 10; do \
	    if ./_build/default/bin/rfview.exe call 7491 ping \
	      >/dev/null 2>&1; then break; fi; sleep 0.5; \
	  done; \
	  ./_build/default/bin/rfview.exe call 7491 ping status \
	    "query SELECT * FROM seq" && \
	  ./_build/default/bin/rfview.exe call 7491 \
	    "query SELECT * FROM seq a, seq b, seq c, seq d" \
	    | grep -q '"rows":4096' && \
	  python3 -c 'import socket, sys; \
	    s = socket.create_connection(("127.0.0.1", 7491)); \
	    s.sendall(b"query " + b"x" * 1500000 + b"\n"); \
	    r = s.makefile().readline().strip(); print(r[:120]); \
	    sys.exit(0 if r.startswith("{\"ok\":false") else 1)' && \
	  ./_build/default/bin/rfview.exe call 7491 ping && \
	  ./_build/default/bin/rfview.exe call 7491 shutdown && \
	  wait $$srv
	rm -rf _serve_smoke

# Scaled-down run of the delta-maintenance experiment (batched vs
# per-row vs full-refresh propagation): asserts the modes agree
# bit-for-bit, writes BENCH_delta.json, and fails unless the report is
# well-formed.  Its write-path run (single-row UPDATE, INSERT and
# DELETE against four views over 8 x 2,500 rows, and over 64 x 2,500)
# fails unless a statement allocates at most 150k minor-heap words and
# at most 14k words directly on the major heap, statements average at
# most 0.1 minor collections, and the 64-partition p50 stays within 2x
# of the 8-partition one; its partition-size sweep (one partition of
# 10^3 and 10^4 rows under a sliding and a cumulative view) fails
# unless the sliding view's words and p50 stay within 2x; its aged-table
# sweep (keyed UPDATE and DELETE on 8 x 2,500 rows plus 5,000, once in
# key order and once with the 5,000 appended in random key order) fails
# unless the aged table's words stay within 1.5x and its best-of-5 us
# within 2x.  Then the generalized-IVM experiment (derived delta
# plans vs full refresh on join/GROUP BY views), writing BENCH_IVM.json,
# the scan-sharing experiment (certified shared base scans vs per-view
# batched maintenance, bit-identical fingerprints), writing
# BENCH_share.json, the replica experiment, and the concurrent-serving
# experiment (snapshot-read fan-out + wrong-read chaos), writing
# BENCH_serve.json, all under the same checks.  Then the compiled
# scalar-expression micro bench (a 20,000-row filter, interpreted vs
# compiled), writing BENCH_expr.json and failing unless compiled costs
# at most half of interpreted.  Last, the read-path allocation bench
# (minor-heap words and forced minor collections per server read of
# the warehouse read shapes, and the words of each answer written into
# a reused per-connection buffer), writing BENCH_reads.json and failing
# unless the serve query allocates at most 100k words, and the Table 1
# window averages at most 0.1 minor collections, at most 25k query
# words and at most 1,000 answer words (minor plus direct major) per
# read.
bench-smoke:
	dune exec bench/main.exe -- delta --smoke
	@grep -q '"acceptance"' BENCH_delta.json && grep -q '"speedup"' BENCH_delta.json \
	  && grep -q '"words_per_statement"' BENCH_delta.json \
	  && grep -q '"major_words_per_statement"' BENCH_delta.json \
	  && grep -q '"partition_sweep"' BENCH_delta.json \
	  && grep -q '"aged_table"' BENCH_delta.json \
	  && echo "BENCH_delta.json well-formed"
	dune exec bench/main.exe -- delta-ivm --smoke
	@grep -q '"acceptance"' BENCH_IVM.json && grep -q '"speedup"' BENCH_IVM.json \
	  && echo "BENCH_IVM.json well-formed"
	dune exec bench/main.exe -- share --smoke
	@grep -q '"acceptance"' BENCH_share.json && grep -q '"speedup"' BENCH_share.json \
	  && echo "BENCH_share.json well-formed"
	dune exec bench/main.exe -- replica --smoke
	@grep -q '"acceptance"' BENCH_replica.json && grep -q '"speedup"' BENCH_replica.json \
	  && echo "BENCH_replica.json well-formed"
	dune exec bench/main.exe -- serve --smoke
	@grep -q '"acceptance"' BENCH_serve.json && grep -q '"speedup"' BENCH_serve.json \
	  && echo "BENCH_serve.json well-formed"
	dune exec bench/main.exe -- expr --smoke
	@grep -q '"acceptance"' BENCH_expr.json && grep -q '"ratio"' BENCH_expr.json \
	  && echo "BENCH_expr.json well-formed"
	dune exec bench/main.exe -- reads --smoke
	@grep -q '"acceptance"' BENCH_reads.json && grep -q '"words_per_read"' BENCH_reads.json \
	  && grep -q '"answer_words_per_read"' BENCH_reads.json \
	  && grep -q '"derive_query_words_per_read"' BENCH_reads.json \
	  && echo "BENCH_reads.json well-formed"

# End-to-end warehouse benchmark smoke: a real `rfview serve` child on
# loopback driven through all three workloads for 2 measured seconds
# each.  Every answer is checked against a reference computed by
# Rfview_core, and the run ends with a recovery check of every view;
# the command exits 1 on any wrong answer or failed request.  A second,
# traced trickle-mixed run replays each write in-process through the
# per-row, batched and shared-scan maintenance entry points on copied
# view states (`--trace 1`).
warebench-smoke:
	python3 warebench/run.py --workload all --seconds 2 --trace 0
	python3 warebench/run.py --workload trickle-mixed --seconds 2 --trace 1

check: build test lint analyze chaos crash-chaos replica-chaos storage-chaos scrub-smoke mvcc-chaos serve-smoke bench-smoke warebench-smoke

clean:
	dune clean
