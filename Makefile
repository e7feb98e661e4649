# Convenience entry points.  Tier-1 is plain `make test`; `make verify`
# is the full pre-merge gate (tests + bench regression check); the chaos
# suite (fault injection, worker kills, crash/resume) can be run on its
# own while iterating on robustness work.

PYTEST = PYTHONPATH=src python -m pytest -x -q

.PHONY: verify test unit chaos bench bench-smoke bench-check telemetry-demo \
	store-demo perfbench-smoke

PERFBENCH_WORKLOADS = attack_replay benign_desktop bulk_append ingest_chaos

# the default pre-merge gate: tier-1 tests, then the hot-path regression
# check against the newest committed BENCH_<N>.json
verify: test bench-check

test:
	$(PYTEST)

# tier-1 minus the chaos suite — the fast inner loop
unit:
	$(PYTEST) -m "not chaos"

# fault-injection + crash-resilience suite only
chaos:
	$(PYTEST) -m chaos tests/test_chaos.py tests/test_faults.py \
		tests/test_ingest.py

# full hot-path benchmark harness → BENCH_8.json (see docs/performance.md)
bench:
	PYTHONPATH=src python benchmarks/run_bench.py
	PYTHONPATH=src:benchmarks python -m pytest -q \
		benchmarks/bench_performance.py benchmarks/bench_close_path.py \
		benchmarks/bench_compare_batch.py

# seconds-scale harness pass: validates every bench section end-to-end
# without the full-scale timings (CI runs this on every push)
bench-smoke:
	PYTHONPATH=src python benchmarks/run_bench.py --smoke \
		--output /tmp/BENCH.smoke.json

# two-second traced pass over every perfbench workload (~2 min on 2 CPUs):
# fails on a non-zero exit or on any failed operation in the run's last
# (JSON) line, so a rename that breaks a span wrapper in
# perfbench/spans.py fails here
perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 \
			--seconds 2 --trace 1) || { echo "$$out"; \
			echo "perfbench-smoke: $$w exited non-zero"; exit 1; }; \
		echo "$$out" | tail -n 1 | python3 -c 'import json, sys; \
			r = json.loads(sys.stdin.read()); \
			print("perfbench-smoke: %s failed=%d attempted=%d" \
			% (sys.argv[1], r["failed"], r["attempted"])); \
			sys.exit(1 if r["failed"] else 0)' $$w || exit 1; \
	done

# regression gate: rerun the harness and fail on >25% hot-path slowdown
# against the newest committed BENCH_<N>.json baseline
bench-check:
	PYTHONPATH=src python benchmarks/run_bench.py --output /tmp/BENCH.current.json
	python benchmarks/check_regression.py --current /tmp/BENCH.current.json

# telemetry walkthrough: one Class-A sample under a telemetry-enabled
# monitor, full detection narrative printed (docs/observability.md)
telemetry-demo:
	PYTHONPATH=src python examples/detection_timeline.py --prometheus

# persistent-store round trip: sharded build of a small corpus into a
# .cdbs file, header dump, then the full fsck pass (docs/performance.md)
store-demo:
	PYTHONPATH=src python examples/store_tool.py build /tmp/cryptodrop-demo.cdbs \
		--files 800 --workers 2
	PYTHONPATH=src python examples/store_tool.py info /tmp/cryptodrop-demo.cdbs
	PYTHONPATH=src python examples/store_tool.py verify /tmp/cryptodrop-demo.cdbs
