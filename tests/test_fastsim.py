"""The batch engine against the golden run digests.

The batch engine (:mod:`repro.core.fastsim`) is the only scheduler
loop. These tests recompute the ``run/``, ``seed/``, ``export/``,
``observed/`` and ``nudged/`` digests of :mod:`tests.engine_digests` —
same makespans, same per-core stats, same persist streams, same memory
images, same recorded events, same observer exports and same nudged
schedules as the per-op reference loops that recorded them — across
every persistency mechanism and every workload, with trace recording
both off (the figures configuration, where the inline read path and
the event-free acquire contract are active) and on (every MemoryEvent
must still be built).

Observed runs take the same path: a metrics observer's only counters
are the per-core compute cycles the engine writes at run end, the
quick-scale Figure 5 grid keeps its makespans and Figure 6 counts with
telemetry on, and trace and provenance collectors see every op.
"""

import json
from pathlib import Path

import pytest

from repro.common.params import MachineConfig
from repro.core import fastsim
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds import WORKLOAD_NAMES
from repro.obs import Observer
from repro.persistency import MECHANISMS
from tests import engine_digests, figure_pins
from tests.engine_digests import ALL_MECHANISMS, NUDGED_CELLS, NUDGES, \
    SMALL_CONFIG

BENCH_FIGURES = Path(__file__).resolve().parent.parent / "BENCH_figures.json"


def _observed_run(observer, mechanism="lrp", num_cores=4):
    """The 4-thread hashmap of the ``export/`` digests, observed."""
    clear_setup_cache()
    return simulate(engine_digests._observed_spec("hashmap"), mechanism,
                    MachineConfig(num_cores=num_cores, **SMALL_CONFIG),
                    observer=observer)


@pytest.fixture(scope="module")
def golden():
    return engine_digests.golden()


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(engine_digests.cases())


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
@pytest.mark.parametrize("structure", WORKLOAD_NAMES)
@pytest.mark.parametrize("record", [False, True],
                         ids=["norecord", "record"])
def test_fast_matches_reference(golden, structure, mechanism, record):
    tag = "record" if record else "norecord"
    assert (engine_digests.run_digest(structure, mechanism, record)
            == golden[f"run/{structure}/{mechanism}/{tag}"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fast_matches_reference_across_seeds(golden, seed):
    assert (engine_digests.run_digest("hashmap", "lrp", False, seed)
            == golden[f"seed/{seed}"])


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
@pytest.mark.parametrize("structure", WORKLOAD_NAMES)
def test_fast_export_identical(golden, structure, mechanism):
    """A metrics observer's export, counter for counter."""
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
    for workload in WORKLOAD_NAMES:
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
# Observers: compute counters, trace and provenance collectors
# ----------------------------------------------------------------------

def test_metrics_observer_takes_fast_path():
    """A metrics-only observer gets the compute counters the engine
    derives, for every core that ran."""
    observer = Observer()
    _observed_run(observer)
    for core in range(4):
        assert observer.counters[f"sched.compute_cycles.c{core}"] > 0


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
def test_observer_counters_are_the_compute_split(mechanism):
    """Every other run metric lives in RunStats: an observed run's
    counters are exactly the compute cycles of the cores that ran (four
    threads on an eight-core machine), and each one covers at least
    the fixed compute charge of that core's memory ops."""
    observer = Observer(trace=True, provenance=True)
    result = _observed_run(observer, mechanism, num_cores=8)
    counters = observer.counters
    assert sorted(counters) == [f"sched.compute_cycles.c{core}"
                                for core in range(4)]
    compute = result.config.compute_cycles_per_op
    for core in result.stats.per_core:
        mem_ops = core.reads + core.writes + core.rmws
        assert (counters[f"sched.compute_cycles.c{core.core_id}"]
                >= mem_ops * compute > 0)


def test_core_that_ran_no_op_gets_no_counter():
    """The compute counter exists for a thread only once it executed
    an op: a worker that yields nothing leaves none behind."""
    from repro.core.machine import Machine
    from repro.core.scheduler import Scheduler
    from repro.core.thread import store, work

    def busy(tid):
        yield store(0x40, 1)
        yield work(5)

    def idle(tid):
        return
        yield  # a generator that finishes before its first op

    observer = Observer()
    config = MachineConfig(num_cores=2, **SMALL_CONFIG)
    machine = Machine(config, "lrp", observer=observer)
    Scheduler(machine, [busy, idle]).run()
    # Two ops at the fixed charge plus the WORK op's own 5 cycles.
    assert observer.counters == {
        "sched.compute_cycles.c0": 2 * config.compute_cycles_per_op + 5}


def test_trace_observer_runs_on_batch_engine():
    """Every executed op gets exactly one core span."""
    observer = Observer(trace=True)
    result = _observed_run(observer)
    ops = [event for event in observer.export()["trace_events"]
           if event.get("cat") == "op"]
    assert len(ops) == result.executed_ops


def test_provenance_observer_runs_on_batch_engine():
    """Stall folds sum exactly to persist_stall_cycles, and every
    persist names the site that dirtied its line."""
    from repro.obs import flame

    observer = Observer(provenance=True)
    result = _observed_run(observer)
    prov = observer.export()["provenance"]
    assert prov["persists"]
    assert all(entry["site"] for entry in prov["persists"])
    assert (flame.total(flame.collapse_stacks(prov, "stalls"))
            == result.stats.persist_stall_cycles)


def test_run_summary_reports_no_fallback():
    from repro.exp.runner import Job, execute_job

    clear_setup_cache()
    job = Job(spec=engine_digests._observed_spec("hashmap"),
              mechanism="lrp",
              config=MachineConfig(num_cores=4, **SMALL_CONFIG),
              collect_trace=True)
    summary = execute_job(job)
    assert summary.fastsim_fallback is None
    assert summary.obs["trace_events"]
    clear_setup_cache()


# ----------------------------------------------------------------------
# Trace and provenance collectors, schedule nudges
# ----------------------------------------------------------------------

def test_observer_and_provenance_identical_either_way(golden):
    """Trace and provenance exports of the batch engine reproduce the
    reference loop's, in every observer mode and on every structure."""
    for case, digest in engine_digests.cases().items():
        if case.startswith("observed/"):
            assert digest() == golden[case], case


def test_fuzz_nudges_identical_either_way(golden):
    """A nudged (fuzz-replay) schedule reproduces the reference
    min-scan loop's: no nudges, a wrapping rank, picks that land on
    finished threads, and a mixed set, on every structure."""
    for name in NUDGES:
        for structure, mechanism in NUDGED_CELLS:
            case = f"nudged/{name}/{structure}/{mechanism}"
            assert (engine_digests.nudged_digest(structure, mechanism,
                                                 name)
                    == golden[case]), case


def test_nudged_run_with_trace_and_provenance(golden):
    for structure, mechanism in NUDGED_CELLS[:2]:
        assert (engine_digests.nudged_digest(structure, mechanism,
                                             "mixed", observe=True)
                == golden[f"nudged-observed/mixed/{structure}/"
                          f"{mechanism}"])


def test_scheduler_delegates_to_fastsim(monkeypatch):
    """Scheduler.run uses the batch engine, observed and nudged too."""
    from repro.obs import Observer

    calls = []
    original = fastsim.run

    def spy(scheduler):
        calls.append(scheduler)
        return original(scheduler)

    monkeypatch.setattr(fastsim, "run", spy)
    spec = engine_digests._run_spec("hashmap")
    config = MachineConfig(record_trace=False, **SMALL_CONFIG)
    clear_setup_cache()
    simulate(spec, "lrp", config)
    simulate(spec, "lrp", config,
             observer=Observer(trace=True, provenance=True),
             schedule_nudges={0: 1})
    assert len(calls) == 2


# ----------------------------------------------------------------------
# The event-free acquire contract
# ----------------------------------------------------------------------

def test_every_mechanism_declares_acquire_ignores_event():
    """The batch engine passes event=None to on_acquire when recording
    is off; each mechanism class must uphold (and declare) that its
    hook never dereferences the event. The golden matrix above would
    catch a stale flag behaviorally; this pins the declaration."""
    for name, cls in MECHANISMS.items():
        assert cls.acquire_ignores_event is True, name


def test_paper_scale_sizing():
    """--scale paper runs the paper's element counts outright."""
    from repro.bench.configs import SCALES, figure_spec

    assert "paper" in SCALES
    for structure in ("hashmap", "bstree", "skiplist"):
        spec = figure_spec(structure, scale="paper")
        assert spec.initial_size >= 65536, structure
        assert spec.num_threads == 32
        assert spec.ops_per_thread > \
            figure_spec(structure, scale="full").ops_per_thread


def test_persist_batch_matches_sequential():
    """issue_persist_batch == per-record issue_persist, with and
    without an ``ordered_after`` completion floor."""
    from repro.memory.nvm import NVMController

    config = MachineConfig(**SMALL_CONFIG)
    items = [(addr * config.line_bytes,
              {addr * config.line_bytes: (addr, 0)})
             for addr in range(1, 41)]
    # A completion floor above the early items' acks and below the
    # late ones'.
    gate = NVMController(config).issue_persist(0, {0: (0, 0)}, 300)
    for ordered_after in (None, gate):
        batched = NVMController(config)
        records = batched.issue_persist_batch(
            items, 100, after=120, ordered_after=ordered_after)
        sequential = NVMController(config)
        expected = [sequential.issue_persist(addr, words, 100, after=120,
                                             ordered_after=ordered_after)
                    for addr, words in items]
        assert ([(r.line_addr, r.issue_time, r.complete_time)
                 for r in records]
                == [(r.line_addr, r.issue_time, r.complete_time)
                    for r in expected])
