"""Batched telemetry (FastObs) against the golden exports, and the
merge arithmetic it leans on.

Metrics observers ride the batch engine through the flat-table
accumulator of :mod:`repro.obs.fastobs`. These tests pin
the contract that makes that safe:

* the full 7-mechanism x 5-structure matrix reproduces the
  ``Observer.export()`` digests (counter for counter) pinned in
  :mod:`tests.engine_digests`;
* the quick-scale Figure 5 grid keeps every one of its 20 makespans
  equal to the committed ``BENCH_figures.json`` with telemetry on;
* trace and provenance collectors run on the same loop and see every
  op;
* the flush is additive and idempotent, so it cannot be told apart
  from per-op narration.
"""

import json
from pathlib import Path

import pytest

from repro.common.params import MachineConfig
from repro.core.simulator import clear_setup_cache, simulate
from repro.obs import Observer
from repro.workloads.harness import WorkloadSpec
from tests import engine_digests, figure_pins

ALL_MECHANISMS = ("nop", "sb", "bb", "arp", "dpo", "hops", "lrp")
ALL_STRUCTURES = ("linkedlist", "hashmap", "bstree", "skiplist", "queue")

#: Tiny but adversarial: 2-way 1KB L1s force constant misses,
#: evictions, upgrades and cross-core downgrades, so every FastObs
#: coherence slot sees traffic.
SMALL_CONFIG = dict(num_cores=4, l1_size_bytes=1024, l1_assoc=2,
                    num_memory_controllers=2, compute_cycles_per_op=2)

BENCH_FIGURES = Path(__file__).resolve().parent.parent / "BENCH_figures.json"


def _small_spec(structure):
    return WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=64, ops_per_thread=12, seed=1)


def _run(observer):
    clear_setup_cache()
    return simulate(_small_spec("hashmap"), "lrp",
                    MachineConfig(**SMALL_CONFIG), observer=observer)


@pytest.fixture(scope="module")
def golden():
    return engine_digests.golden()


# ----------------------------------------------------------------------
# Exact reconciliation: batch-engine export == reference export
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_fast_export_identical(golden, structure, mechanism):
    """Counter-for-counter equality."""
    assert (engine_digests.export_digest(structure, mechanism)
            == golden[f"export/{structure}/{mechanism}"])


@pytest.mark.slow
def test_fig5_quick_makespans_identical_with_telemetry():
    """All 20 quick-scale Figure 5 makespans, telemetry ON, equal the
    committed BENCH_figures.json — the paper's headline grid must not
    shift by a cycle when it is being watched. The same pass checks
    the Figure 6 writeback counts against tests/data/figure_pins.json."""
    from repro.bench.configs import (SCALED_CONFIG, bench_config,
                                     figure_spec)

    committed = json.loads(BENCH_FIGURES.read_text())["fig5_makespan"]
    config = bench_config(SCALED_CONFIG)
    clear_setup_cache()
    makespans = {}
    stats = {}
    for workload in ALL_STRUCTURES:
        for mechanism in ("nop", "sb", "bb", "lrp"):
            observer = Observer()
            result = simulate(figure_spec(workload, scale="quick"),
                              mechanism, config, observer=observer)
            makespans.setdefault(workload, {})[mechanism] = \
                result.makespan
            stats[workload, mechanism] = result.stats
    clear_setup_cache()
    assert makespans == committed
    assert (figure_pins.fig6_counts(stats)
            == figure_pins.golden()["fig6"])


# ----------------------------------------------------------------------
# Every observer rides the batch engine
# ----------------------------------------------------------------------

def test_metrics_observer_takes_fast_path():
    """A metrics-only observer gets the sched.* counters FastObs
    derives, for every core that ran."""
    observer = Observer()
    _run(observer)
    counters = observer.counters
    for core in range(4):
        assert counters[f"sched.compute_cycles.c{core}"] > 0
        assert counters[f"sched.mem_cycles.c{core}"] > 0


def test_trace_observer_runs_on_batch_engine():
    """Every executed op gets exactly one core span."""
    observer = Observer(trace=True)
    result = _run(observer)
    ops = [event for event in observer.export()["trace_events"]
           if event.get("cat") == "op"]
    assert len(ops) == result.executed_ops


def test_provenance_observer_runs_on_batch_engine():
    """Stall folds sum exactly to persist_stall_cycles, and every
    persist names the site that dirtied its line."""
    from repro.obs import flame

    observer = Observer(provenance=True)
    result = _run(observer)
    prov = observer.export()["provenance"]
    assert prov["persists"]
    assert all(entry["site"] for entry in prov["persists"])
    assert (flame.total(flame.collapse_stacks(prov, "stalls"))
            == result.stats.persist_stall_cycles)


def test_run_summary_reports_no_fallback():
    from repro.exp.runner import Job, execute_job

    clear_setup_cache()
    job = Job(spec=_small_spec("hashmap"), mechanism="lrp",
              config=MachineConfig(**SMALL_CONFIG), collect_trace=True)
    summary = execute_job(job)
    assert summary.fastsim_fallback is None
    assert summary.obs["trace_events"]
    clear_setup_cache()


# ----------------------------------------------------------------------
# The flush
# ----------------------------------------------------------------------

def test_flush_is_idempotent_and_additive():
    """A defensive double flush cannot double-count, and counters other
    components already wrote to the Observer survive the fold."""
    from repro.obs.fastobs import FastObs

    observer = Observer()
    observer.count("persist.lines", 42)
    fobs = FastObs(observer, num_cores=2)
    fobs.ops[0] = 3
    fobs.mem_ops[0] = 2
    fobs.compute_cycles[0] = 12
    fobs.mem_cycles[0] = 9
    fobs.flush()
    fobs.flush()
    counters = observer.counters
    assert counters["persist.lines"] == 42
    assert counters["sched.compute_cycles.c0"] == 12
    assert counters["sched.mem_cycles.c0"] == 9
    # Core 1 never ran an op: no counters may spring into existence.
    assert "sched.compute_cycles.c1" not in counters
    assert "sched.mem_cycles.c1" not in counters
