# Developer entry points. Everything runs from the repo root with the
# src/ layout on PYTHONPATH; no install step required.
# `make help` lists the targets.

PY       := PYTHONPATH=src python
PYTEST   := $(PY) -m pytest

.PHONY: help test smoke overhead provenance figures trace clean

help:
	@echo "make test          - full tier-1 suite (every contract gate)"
	@echo "make smoke         - fast suite (skips @slow) + provenance pins"
	@echo "make overhead      - telemetry overhead gate: a paper-scale"
	@echo "                     metrics cell and the KV service, plain"
	@echo "                     vs observed (ABBA median <= 15%),"
	@echo "                     makespans identical; writes no file"
	@echo "make provenance    - persist-provenance flame + diff demo"
	@echo "                     (capture/fold/diff into provenance-out/)"
	@echo "make figures       - regenerate the paper figures (quick scale)"
	@echo "make trace         - example Chrome/Perfetto trace"
	@echo "make clean         - remove caches and untracked generated"
	@echo "                     artifacts"

# Full tier-1 suite: the one registry of contract gates (what CI runs).
test:
	$(PYTEST) -x -q

# Fast feedback loop: skip the tests marked @pytest.mark.slow
# (recovery campaigns, hypothesis property sweeps, cross-mechanism
# interleaving checks, and the cold recomputation of the figure pins
# in tests/test_figure_pins.py, which only `make test` runs). Three
# contracts always run here because none of their tests is marked
# slow; keep it that way:
# - the figure shape contracts (tests/test_figure_shapes.py: the
#   paper's claims and EXPERIMENTS.md's tables, read off the committed
#   pins without simulating);
# - the provenance pins (tests/test_provenance.py: trigger taxonomy,
#   exact stall reconciliation, bit-identity);
# - the killed-run contract (TestKilledRun in
#   tests/test_exp_runner.py: a SIGKILLed or Ctrl-C'd figures run
#   resumes from the result cache, and its pool workers exit with it;
#   Ctrl-C on a pooled `repro.bench` run or a serial `repro.fuzz` or
#   `repro.obs slo` run, as on `figures`, ends in one stderr line and
#   exit status 130; test_bad_input_is_one_line_error in the same file:
#   bad input to any CLI ends in one `prog: error: ...` line).
smoke:
	$(PYTEST) -q -m "not slow"

# The one timing contract perfbench does not hold: telemetry costs at
# most 15% (median of ABBA rounds) on a paper-scale hashmap/lrp cell
# with metrics and on the KV service with request spans, and never
# moves a makespan.
overhead:
	$(PY) -m repro.obs overhead

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

# Untracked outputs only.
clean:
	rm -rf .pytest_cache .hypothesis .perfbench provenance-out
	rm -f lrp-trace.json
	find . -name __pycache__ -type d -exec rm -rf {} +
