"""Batched telemetry (FastObs) reconciliation and edge-case pins.

The batch engine used to refuse any observed run; now metrics and
timeline observers ride the fast path through the flat-table
accumulator of :mod:`repro.obs.fastobs`. These tests pin the contract
that makes that safe:

* the full 7-mechanism x 5-structure matrix produces *identical*
  ``Observer.export()`` dicts (counter for counter, window for window)
  and identical makespans on both engines, with the fast run actually
  staying on the fast path;
* the quick-scale Figure 5 grid keeps every one of its 20 makespans
  byte-identical with telemetry on;
* refusals stay machine-readable: trace/provenance observers fall back
  with the right :class:`~repro.core.fastsim.Refusal` value threaded
  onto ``SimulationResult.fastsim_fallback``, metrics/timeline
  observers don't fall back at all;
* the merge arithmetic FastObs leans on — additive timeline folds,
  histogram folding including the ``clamped`` tally — cannot be told
  apart from streaming observation.
"""

import pytest

from repro.common.params import MachineConfig
from repro.core import fastsim
from repro.core.simulator import clear_setup_cache, simulate
from repro.obs import Observer
from repro.obs.fastobs import fold_histogram
from repro.obs.metrics import Histogram
from repro.obs.timeline import SPARK_BLOCKS, TimelineSampler, sparkline
from repro.workloads.harness import WorkloadSpec

ALL_MECHANISMS = ("nop", "sb", "bb", "arp", "dpo", "hops", "lrp")
ALL_STRUCTURES = ("linkedlist", "hashmap", "bstree", "skiplist", "queue")

#: Tiny but adversarial: 2-way 1KB L1s force constant misses,
#: evictions, upgrades and cross-core downgrades, so every FastObs
#: table (coherence slots, occupancy/block-wait histograms, downgrade/
#: eviction timeline windows) sees traffic.
SMALL_CONFIG = dict(num_cores=4, l1_size_bytes=1024, l1_assoc=2,
                    num_memory_controllers=2, compute_cycles_per_op=2)


def _small_spec(structure):
    return WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=64, ops_per_thread=12, seed=1)


def _observed_run(structure, mechanism, *, fast, interval, monkeypatch,
                  config=None):
    monkeypatch.setenv("REPRO_FASTSIM", "1" if fast else "0")
    clear_setup_cache()
    observer = (Observer(timeline_interval=interval)
                if interval else Observer())
    result = simulate(_small_spec(structure), mechanism,
                      config or MachineConfig(**SMALL_CONFIG),
                      observer=observer)
    return result, observer


# ----------------------------------------------------------------------
# Exact reconciliation: fast export == reference export
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_fast_export_identical(structure, mechanism, monkeypatch):
    """Counter-for-counter, window-for-window equality, fast path on."""
    ref, ref_obs = _observed_run(structure, mechanism, fast=False,
                                 interval=500, monkeypatch=monkeypatch)
    fst, fst_obs = _observed_run(structure, mechanism, fast=True,
                                 interval=500, monkeypatch=monkeypatch)
    assert fst.fastsim_fallback is None
    assert fst.makespan == ref.makespan
    assert fst_obs.export() == ref_obs.export()


@pytest.mark.parametrize("interval", [None, 1, 7, 100000])
def test_fast_export_identical_across_intervals(interval, monkeypatch):
    """Metrics-only plus pathological window widths: 1-cycle windows
    (every quantum straddles), 7 (odd, never divides a quantum), and
    one window swallowing the whole run."""
    for mechanism in ("lrp", "hops"):
        ref, ref_obs = _observed_run("hashmap", mechanism, fast=False,
                                     interval=interval,
                                     monkeypatch=monkeypatch)
        fst, fst_obs = _observed_run("hashmap", mechanism, fast=True,
                                     interval=interval,
                                     monkeypatch=monkeypatch)
        assert fst.fastsim_fallback is None
        assert fst.makespan == ref.makespan
        assert fst_obs.export() == ref_obs.export()


@pytest.mark.slow
def test_fig5_quick_makespans_identical_with_telemetry(monkeypatch):
    """All 20 quick-scale Figure 5 makespans, telemetry ON, both
    engines byte-identical — the paper's headline grid must not shift
    by a cycle when it is being watched."""
    from repro.bench.configs import (SCALED_CONFIG, bench_config,
                                     figure_spec)

    config = bench_config(SCALED_CONFIG)
    cells = [(workload, mechanism)
             for workload in ALL_STRUCTURES
             for mechanism in ("nop", "sb", "bb", "lrp")]
    makespans = {}
    for fast in (True, False):
        monkeypatch.setenv("REPRO_FASTSIM", "1" if fast else "0")
        clear_setup_cache()
        for workload, mechanism in cells:
            observer = Observer(timeline_interval=1000)
            result = simulate(figure_spec(workload, scale="quick"),
                              mechanism, config, observer=observer)
            if fast:
                assert result.fastsim_fallback is None, (workload,
                                                         mechanism)
                makespans[(workload, mechanism)] = result.makespan
            else:
                assert makespans[(workload, mechanism)] \
                    == result.makespan, (workload, mechanism)
    assert len(makespans) == 20
    clear_setup_cache()


# ----------------------------------------------------------------------
# Refusals: machine-readable reasons, threaded onto the result
# ----------------------------------------------------------------------

def test_metrics_observer_takes_fast_path(monkeypatch):
    result, _ = _observed_run("hashmap", "lrp", fast=True,
                              interval=None, monkeypatch=monkeypatch)
    assert result.fastsim_fallback is None


def test_trace_observer_falls_back_with_reason(monkeypatch):
    monkeypatch.setenv("REPRO_FASTSIM", "1")
    clear_setup_cache()
    result = simulate(_small_spec("hashmap"), "lrp",
                      MachineConfig(**SMALL_CONFIG),
                      observer=Observer(trace=True))
    assert result.fastsim_fallback \
        == fastsim.Refusal.OBSERVER_TRACE.value == "observer-trace"


def test_provenance_observer_falls_back_with_reason(monkeypatch):
    monkeypatch.setenv("REPRO_FASTSIM", "1")
    clear_setup_cache()
    result = simulate(_small_spec("hashmap"), "lrp",
                      MachineConfig(**SMALL_CONFIG),
                      observer=Observer(provenance=True))
    assert result.fastsim_fallback \
        == fastsim.Refusal.OBSERVER_PROVENANCE.value \
        == "observer-provenance"


def test_env_disabled_reason(monkeypatch):
    monkeypatch.setenv("REPRO_FASTSIM", "0")
    clear_setup_cache()
    result = simulate(_small_spec("hashmap"), "lrp",
                      MachineConfig(**SMALL_CONFIG))
    assert result.fastsim_fallback \
        == fastsim.Refusal.ENV_DISABLED.value == "env-disabled"
    clear_setup_cache()


def test_unknown_observer_object_refused(monkeypatch):
    """Anything without the Observer surface forces the reference loop
    — an opaque observer could be watching per-op state FastObs never
    materializes."""
    monkeypatch.setenv("REPRO_FASTSIM", "1")

    class FakeMachine:
        obs = object()

    class FakeScheduler:
        _nudges = None
        max_ops = None
        machine = FakeMachine()

    assert fastsim.check(FakeScheduler()) \
        is fastsim.Refusal.OBSERVER_UNKNOWN


def test_refusal_debug_print(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FASTSIM", "1")
    monkeypatch.setenv("REPRO_FASTSIM_DEBUG", "1")
    clear_setup_cache()
    simulate(_small_spec("hashmap"), "lrp", MachineConfig(**SMALL_CONFIG),
             observer=Observer(trace=True))
    assert "observer-trace" in capsys.readouterr().err


def test_fallback_reason_reaches_run_summary(monkeypatch):
    from repro.exp.runner import Job, execute_job

    monkeypatch.setenv("REPRO_FASTSIM", "1")
    clear_setup_cache()
    job = Job(spec=_small_spec("hashmap"), mechanism="lrp",
              config=MachineConfig(**SMALL_CONFIG), collect_trace=True)
    summary = execute_job(job)
    assert summary.fastsim_fallback == "observer-trace"
    clear_setup_cache()


# ----------------------------------------------------------------------
# Merge arithmetic: histogram folding and timeline window merges
# ----------------------------------------------------------------------

def test_fold_histogram_matches_streaming():
    """Batched (value, count) folding == calling observe() count times,
    including min/max/total/bucket state."""
    values = [1, 1, 2, 3, 5, 8, 13, 21, 0, 7, 7, 7]
    streamed = Histogram()
    for value in values:
        streamed.observe(value)
    pairs = {}
    for value in values:
        pairs[value] = pairs.get(value, 0) + 1
    folded = Histogram()
    fold_histogram(folded, sorted(pairs.items()))
    assert folded.to_dict() == streamed.to_dict()


def test_fold_histogram_propagates_clamped():
    """Negative observations keep their clamped tally through a fold."""
    streamed = Histogram()
    for value in (-3, -3, 4, -1, 9):
        streamed.observe(value)
    folded = Histogram()
    fold_histogram(folded, [(-3, 2), (-1, 1), (4, 1), (9, 1)])
    assert folded.clamped == streamed.clamped == 3
    assert folded.to_dict() == streamed.to_dict()


def test_fold_histogram_skips_zero_counts():
    hist = Histogram()
    fold_histogram(hist, [(5, 0), (7, 0)])
    assert hist.count == 0
    assert hist.min is None and hist.max is None
    assert not hist.buckets


def test_timeline_merge_disjoint_windows():
    """Merging samplers whose windows never overlap is a pure union."""
    early = TimelineSampler(100)
    early.tick("compute.c0", 50, 7)
    early.tick("compute.c0", 150, 3)
    late = TimelineSampler(100)
    late.tick("compute.c0", 950, 11)
    late.gauge("pqdepth.c0", 950, 4)
    early.merge(late)
    assert early.series["compute.c0"] == {0: 7, 1: 3, 9: 11}
    assert early.gauges["pqdepth.c0"] == {9: 4}
    # Windows 2..8 were never touched: dense() zero-fills them.
    assert early.dense("compute.c0") == [7, 3, 0, 0, 0, 0, 0, 0, 0, 11]


def test_timeline_merge_overlapping_windows_add_and_max():
    base = TimelineSampler(100)
    base.tick("mem.c1", 120, 5)
    base.gauge("pqdepth.c1", 120, 9)
    other = TimelineSampler(100)
    other.tick("mem.c1", 130, 6)
    other.gauge("pqdepth.c1", 130, 2)
    base.merge(other)
    assert base.series["mem.c1"] == {1: 11}
    assert base.gauges["pqdepth.c1"] == {1: 9}


def test_timeline_merge_rejects_interval_mismatch():
    with pytest.raises(ValueError):
        TimelineSampler(100).merge(TimelineSampler(200))


def test_sparkline_empty_and_all_zero_windows():
    """A gap of empty windows renders as the flat baseline glyph, an
    empty series as the empty string — never an exception."""
    assert sparkline([]) == ""
    assert sparkline([0, 0, 0, 0]) == SPARK_BLOCKS[0] * 4
    # Zero windows inside a live series stay at the baseline.
    line = sparkline([0, 8, 0, 8, 0])
    assert line[0] == line[2] == line[4] == SPARK_BLOCKS[0]
    assert line[1] == line[3] != SPARK_BLOCKS[0]


def test_flush_is_idempotent_and_additive(monkeypatch):
    """A defensive double flush cannot double-count, and counters other
    components already wrote to the Observer survive the fold."""
    from repro.obs.fastobs import FastObs

    observer = Observer(timeline_interval=100)
    observer.metrics.count("persist.lines", 42)
    fobs = FastObs(observer, num_cores=2, assoc=2)
    fobs.ops[0] = 3
    fobs.mem_ops[0] = 2
    fobs.tl_compute_window[0] = 1
    fobs.tl_compute_acc[0] = 12
    fobs.tl_mem_out[0].append((0, 9))
    fobs.flush()
    fobs.flush()
    counters = observer.metrics.counters
    assert counters["persist.lines"] == 42
    assert counters["sched.compute_cycles.c0"] == 12
    assert counters["sched.mem_cycles.c0"] == 9
    assert observer.timeline.series["compute.c0"] == {1: 12}
    assert observer.timeline.series["mem.c0"] == {0: 9}
    # Core 1 never ran an op: no counters may spring into existence.
    assert "sched.compute_cycles.c1" not in counters
    assert "sched.mem_cycles.c1" not in counters
