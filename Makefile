# Convenience entry points.  Tier-1 is plain `make test`; `make verify`
# is the full pre-merge gate (tier-1 plus the same-process A/B speed
# gates); the chaos suite (fault injection, worker kills, crash/resume)
# can be run on its own while iterating on robustness work.  Whole-
# workload performance is judged by perfbench (perfbench/README.md).

PYTEST = PYTHONPATH=src python -m pytest -x -q

.PHONY: verify test unit chaos bench bench-ab bench-counters \
	telemetry-demo store-demo perfbench-smoke perfbench-pairs kernel-pairs \
	table1-check

PERFBENCH_WORKLOADS = attack_replay benign_desktop bulk_append ingest_chaos

# the default pre-merge gate: tier-1 tests, then the A/B speed gates
verify: test bench-ab

test:
	$(PYTEST)

# tier-1 minus the chaos suite — the fast inner loop
unit:
	$(PYTEST) -m "not chaos"

# every chaos-marked test (fault injection, crash resilience, and the
# streamed-vs-eager identity under injected faults) — `unit` skips them
chaos:
	$(PYTEST) -m chaos tests/

# the A/B speed gates, then the pytest-benchmark microbenches of the
# hot paths (see docs/performance.md)
bench: bench-ab
	PYTHONPATH=src:benchmarks python -m pytest -q \
		benchmarks/bench_performance.py benchmarks/bench_close_path.py \
		benchmarks/bench_compare_batch.py

# same-process A/B speed gates (~30 s on 2 CPUs): each fast path timed
# against its reference in one process and held to its accepted ratio;
# nothing is compared against a committed results file (CI runs this)
bench-ab:
	PYTHONPATH=src:benchmarks python -m pytest -q benchmarks/bench_ab.py

# the close-path counter checks of benchmarks/bench_close_path.py without
# the pytest-benchmark timing rounds (seconds; CI runs this on every push)
bench-counters:
	PYTHONPATH=src:benchmarks python -m pytest -q \
		benchmarks/bench_close_path.py --benchmark-disable

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

# parent-vs-change perfbench pairs: W=<workload> SEED=<n> [N=10] [BASE=HEAD]
# [CLAIM=<metric>].  Extracts BASE with git archive, runs perfbench/run.py
# alternately on it and on the working tree N times each (about N x 2 x
# (set-up + 10 s)), prints each run's report as a JSON line, then both
# sides' medians, quartiles and wins, and fails on a BENCHMARK.json bound
# exceeded or an unmet claim
N ?= 10
BASE ?= HEAD
perfbench-pairs:
	python3 benchmarks/perfbench_pairs.py --workload $(W) --seed $(SEED) \
		--pairs $(N) --base $(BASE) $(if $(CLAIM),--claim $(CLAIM))

# base-vs-change kernel pairs: BASE=<commit> FN=<sdhash|window_entropies|
# digest_many> INPUT=<text|cipher|save|unrelated>:<size>[,<size>...]
# [PAIRS=40].  Loads BASE's (git archive) and the working tree's
# repro/simhash in one process, frees one 16 MiB block first (the
# allocator state perfbench's set-up leaves), alternates the two trees'
# calls and prints per leg the median per-call time, the difference,
# the share of pairs won and minor faults / system time per call
PAIRS ?= 40
kernel-pairs:
	python3 benchmarks/kernel_pairs.py --base $(BASE) --fn $(FN) \
		--input $(INPUT) --pairs $(PAIRS)

# the EXPERIMENTS.md headline end to end: the full-scale Table I run
# (492/492 detected, median 10 files lost, range 0-42), minus its timing
# line, must print tests/data/table1_full.txt exactly
table1-check:
	PYTHONPATH=src python -m repro --scale full table1 \
		| grep -v '^\[table1 completed in ' | diff tests/data/table1_full.txt -

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
