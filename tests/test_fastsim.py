"""The batch engine against the golden run digests.

The batch engine (:mod:`repro.core.fastsim`) is the only scheduler
loop. These tests recompute the ``run/``, ``seed/``, ``observed/`` and
``nudged/`` digests of :mod:`tests.engine_digests` — same makespans,
same per-core stats, same persist streams, same memory images, same
recorded events, same trace/provenance exports and same nudged
schedules as the per-op reference loops that recorded them — across
every persistency mechanism and every workload, with trace recording
both off (the figures configuration, where the inline read path and
the event-free acquire contract are active) and on (every MemoryEvent
must still be built).
"""

import pytest

from repro.common.params import MachineConfig
from repro.core import fastsim
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds import WORKLOAD_NAMES
from repro.persistency import MECHANISMS
from tests import engine_digests
from tests.engine_digests import ALL_MECHANISMS, NUDGED_CELLS, NUDGES, \
    SMALL_CONFIG


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
