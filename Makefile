# Developer entry points. Everything runs from the repo root with the
# src/ layout on PYTHONPATH; no install step required.
# `make help` lists the targets.

PY       := PYTHONPATH=src python
PYTEST   := $(PY) -m pytest

.PHONY: help test smoke selftest fuzz-smoke mc-smoke obsfast-smoke \
        kv-smoke provenance figures trace bench-report clean

help:
	@echo "make test          - full tier-1 suite"
	@echo "make smoke         - fast suite (skips @slow) + provenance pins"
	@echo "make selftest      - runner + obs end-to-end self-tests"
	@echo "make fuzz-smoke    - seeded fuzzing contract campaign (<60s):"
	@echo "                     ARP/NOP must yield shrunk counterexamples,"
	@echo "                     SB/BB/LRP must come back clean"
	@echo "make mc-smoke      - exhaustive DPOR model-checker selftest:"
	@echo "                     trace classes + verdicts pinned against"
	@echo "                     brute force and the Px86 axioms, witness"
	@echo "                     replay, reduction ratio -> BENCH_mc.json"
	@echo "make obsfast-smoke - batched-engine telemetry gate: paper-"
	@echo "                     scale cell plain vs observed (ABBA"
	@echo "                     median), makespan identity"
	@echo "                     -> BENCH_obsfast.json"
	@echo "make kv-smoke      - KV-service SLO gate: spans-on vs spans-"
	@echo "                     off ABBA overhead, bit-identical"
	@echo "                     makespans, exact reservoir quantiles"
	@echo "                     -> BENCH_kv.json, compared against the"
	@echo "                     stored baseline"
	@echo "make provenance    - persist-provenance flame + diff demo"
	@echo "                     (capture/fold/diff into provenance-out/)"
	@echo "make figures       - regenerate the paper figures (quick scale)"
	@echo "make trace         - example Chrome/Perfetto trace"
	@echo "make bench-report  - benchmark dashboard vs stored baselines"
	@echo "                     (exits nonzero on regression)"
	@echo "make clean         - remove caches and untracked generated"
	@echo "                     artifacts (committed BENCH files stay)"

# Full tier-1 suite (what CI gates on).
test:
	$(PYTEST) -x -q

# Fast feedback loop: skip the tests marked @pytest.mark.slow
# (recovery campaigns, hypothesis property sweeps, cross-mechanism
# interleaving checks). The provenance pins (trigger taxonomy, exact
# stall reconciliation, bit-identity) always run here because none of
# tests/test_provenance.py is marked slow; keep it that way. The same
# holds for the killed-run contract in tests/test_exp_runner.py
# (TestKilledRun: a SIGKILLed or Ctrl-C'd figures run resumes from the
# result cache, and its pool workers exit with it; Ctrl-C on a pooled
# `repro.exp` or `repro.fuzz` run, as on `figures`, ends in one stderr
# line and exit status 130).
smoke:
	$(PYTEST) -q -m "not slow"

# End-to-end self-tests: the parallel-runner equivalence suite and the
# observability stack (bit-identity, trace export, attribution,
# provenance reconciliation, capture diff).
selftest:
	$(PY) -m repro.exp --selftest --quiet
	$(PY) -m repro.obs --selftest

# Seeded coverage-guided fuzzing campaign exercising the paper's
# Figure-1 contract end to end: the weak mechanisms (ARP, NOP) must
# produce minimized, replayable counterexamples; the RP-enforcing ones
# (SB, BB, LRP) must survive every sampled crash point. Also pins the
# campaign's bit-for-bit seed determinism and emits throughput
# (execs/sec, coverage features) to BENCH_fuzz.json.
fuzz-smoke:
	$(PY) -m repro.fuzz --selftest --quiet --bench-out BENCH_fuzz.json

# Exhaustive small-scope model checking: DPOR with sleep sets over
# the litmus suite, pinned against brute-force enumeration (identical
# trace-class sets and bit-identical per-mechanism verdicts) and the
# independent Px86-derived persist-order axioms; ARP/NOP witnesses
# must replay through the fuzzer's repro machinery. Writes the
# schedule-reduction snapshot to BENCH_mc.json.
mc-smoke:
	$(PY) -m repro.mc --selftest --quiet --bench-out BENCH_mc.json

# Telemetry gate for the batched engine: one paper-scale hashmap/lrp
# cell plain vs observed (metrics + timeline), overhead bounded at
# 15% and every makespan byte-identical. Writes BENCH_obsfast.json for
# bench-report.
obsfast-smoke:
	$(PY) -m repro.obs fastsmoke --bench-out BENCH_obsfast.json

# Request-level service gate: the KV workload with span tracking on vs
# off (ABBA rounds, median ratio), every makespan byte-identical and
# the streaming SLO reservoirs reconciled exactly against the stored
# records. The snapshot is then compared against the committed
# baseline (percentiles and other latency names gate as latency,
# throughput as quality; the makespans are exact anchors).
kv-smoke:
	$(PY) -m repro.obs kvsmoke --bench-out BENCH_kv.json
	$(PY) -m repro.bench.history --snapshots BENCH_kv.json

# Persist-provenance demo: capture BB and LRP runs of the hashmap,
# fold the LRP stalls into a flamegraph, and diff the two captures
# (the EXPERIMENTS.md "Persist provenance" walkthrough).
provenance:
	$(PY) -m repro.obs provenance provenance-out/hashmap-bb.json --mechanism bb
	$(PY) -m repro.obs provenance provenance-out/hashmap-lrp.json --mechanism lrp
	$(PY) -m repro.obs flame provenance-out/hashmap-lrp-stalls.folded \
		--from-capture provenance-out/hashmap-lrp.json
	$(PY) -m repro.obs diff \
		--captures provenance-out/hashmap-bb.json provenance-out/hashmap-lrp.json \
		--json-out provenance-out/hashmap-lrp-vs-bb.diff.json

# Regenerate the paper's evaluation figures (quick scale).
figures:
	$(PY) -m repro.bench.figures --scale quick

# Example Chrome/Perfetto trace of a small LRP run.
trace:
	$(PY) -m repro.obs trace lrp-trace.json --mechanism lrp

# Cross-run benchmark regression dashboard: refresh the runner
# snapshot, compare every BENCH_*.json against benchmarks/baselines/,
# write BENCH_REPORT.md, and fail on regression.
bench-report:
	$(PY) -m repro.exp --selftest --quiet --obs
	$(PY) -m repro.bench.history --output BENCH_REPORT.md

# Untracked outputs only: the BENCH_*.json snapshots and BENCH_REPORT.md
# that the gates rewrite are committed files.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks .perfbench provenance-out
	rm -f BENCH_kv.json lrp-trace.json
	find . -name __pycache__ -type d -exec rm -rf {} +
