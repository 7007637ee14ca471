"""Fast-vs-reference equivalence matrix for the batch engine.

The batch engine (:mod:`repro.core.fastsim`) promises the *same
execution bit for bit* as the reference scheduler loop — same
makespans, same per-core stats, same persist streams, same memory
images, same recorded events. These tests pin that promise across
every persistency mechanism and every workload, with trace recording
both off (the figures configuration, where the inline read path and
the event-free acquire contract are active) and on (every MemoryEvent
must still be built).

They also pin the engine's refusals: schedule nudges, observers and
the ``max_ops`` valve must take the reference path, so fuzz replays
and coverage maps cannot diverge no matter what ``REPRO_FASTSIM`` says.
"""

import dataclasses
import hashlib

import pytest

from repro.common.params import MachineConfig
from repro.core import fastsim
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds import WORKLOAD_NAMES
from repro.obs import Observer, coverage_from_obs
from repro.persistency import MECHANISMS
from repro.workloads.harness import WorkloadSpec

ALL_MECHANISMS = ["nop", "sb", "bb", "arp", "dpo", "hops", "lrp"]

#: Tiny but adversarial: 2-way 1KB L1s force constant misses,
#: evictions, upgrades and cross-core downgrades.
SMALL_CONFIG = dict(l1_size_bytes=1024, l1_assoc=2,
                    num_memory_controllers=2, compute_cycles_per_op=2)


def _spec(structure, seed=7, ops=10):
    return WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=32, ops_per_thread=ops, seed=seed)


def _fingerprint(result, record):
    """Everything observable about a run, hashed."""
    h = hashlib.sha256()
    h.update(repr((result.makespan, result.executed_ops)).encode())
    h.update(repr(dataclasses.asdict(result.stats)).encode())
    for core_stats in result.machine.stats:
        h.update(repr(dataclasses.asdict(core_stats)).encode())
    for rec in result.nvm.persist_log():
        h.update(repr(rec).encode())
    h.update(repr(sorted(result.trace.memory_snapshot().items())).encode())
    h.update(repr(result.outcomes).encode())
    if record:
        for event in result.trace.events:
            h.update(repr(event._key()).encode())
    return h.hexdigest()


def _run(structure, mechanism, *, fast, record, monkeypatch,
         observer=None, nudges=None, ops=10):
    monkeypatch.setenv("REPRO_FASTSIM", "1" if fast else "0")
    clear_setup_cache()
    config = MachineConfig(record_trace=record, **SMALL_CONFIG)
    return simulate(_spec(structure, ops=ops), mechanism, config,
                    observer=observer, schedule_nudges=nudges)


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
@pytest.mark.parametrize("structure", WORKLOAD_NAMES)
@pytest.mark.parametrize("record", [False, True],
                         ids=["norecord", "record"])
def test_fast_matches_reference(structure, mechanism, record,
                                monkeypatch):
    fast = _run(structure, mechanism, fast=True, record=record,
                monkeypatch=monkeypatch)
    ref = _run(structure, mechanism, fast=False, record=record,
               monkeypatch=monkeypatch)
    assert _fingerprint(fast, record) == _fingerprint(ref, record)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fast_matches_reference_across_seeds(seed, monkeypatch):
    for fast in (True, False):
        monkeypatch.setenv("REPRO_FASTSIM", "1" if fast else "0")
        clear_setup_cache()
        config = MachineConfig(record_trace=False, **SMALL_CONFIG)
        result = simulate(_spec("hashmap", seed=seed), "lrp", config)
        if fast:
            want = _fingerprint(result, record=False)
        else:
            assert _fingerprint(result, record=False) == want


# ----------------------------------------------------------------------
# Refusals: observation channels force the reference path
# ----------------------------------------------------------------------

def test_observer_and_provenance_identical_either_way(monkeypatch):
    """Coverage maps and provenance are REPRO_FASTSIM-invariant."""
    exports = []
    for fast in (True, False):
        obs = Observer(provenance=True)
        result = _run("hashmap", "lrp", fast=fast, record=False,
                      monkeypatch=monkeypatch, observer=obs)
        exports.append((_fingerprint(result, record=False),
                        obs.export()))
    (fp_fast, export_fast), (fp_ref, export_ref) = exports
    assert fp_fast == fp_ref
    assert export_fast["metrics"] == export_ref["metrics"]
    cov_fast = coverage_from_obs(export_fast)
    cov_ref = coverage_from_obs(export_ref)
    assert cov_fast.new_features(cov_ref) == 0
    assert cov_ref.new_features(cov_fast) == 0


def test_fuzz_nudges_identical_either_way(monkeypatch):
    """A nudged (fuzz-replay) schedule is REPRO_FASTSIM-invariant."""
    fingerprints = []
    for fast in (True, False):
        result = _run("queue", "lrp", fast=fast, record=True,
                      monkeypatch=monkeypatch, nudges={0: 3, 5: 1, 9: 2})
        fingerprints.append(_fingerprint(result, record=True))
    assert fingerprints[0] == fingerprints[1]


def test_eligibility_refusals(monkeypatch):
    monkeypatch.setenv("REPRO_FASTSIM", "1")

    class FakeMachine:
        obs = None

    class FakeScheduler:
        _nudges = None
        max_ops = None
        machine = FakeMachine()

    sched = FakeScheduler()
    assert fastsim.eligible(sched)
    sched.max_ops = 100
    assert not fastsim.eligible(sched)
    sched.max_ops = None
    sched._nudges = {0: 1}
    assert not fastsim.eligible(sched)
    sched._nudges = None
    sched.machine.obs = object()
    assert not fastsim.eligible(sched)
    sched.machine.obs = None
    monkeypatch.setenv("REPRO_FASTSIM", "0")
    assert not fastsim.eligible(sched)


def test_scheduler_delegates_to_fastsim(monkeypatch):
    """Scheduler.run actually uses the batch engine when eligible."""
    calls = []
    original = fastsim.run

    def spy(scheduler):
        calls.append(scheduler)
        return original(scheduler)

    monkeypatch.setattr(fastsim, "run", spy)
    monkeypatch.setenv("REPRO_FASTSIM", "1")
    clear_setup_cache()
    config = MachineConfig(record_trace=False, **SMALL_CONFIG)
    simulate(_spec("hashmap"), "lrp", config)
    assert calls


# ----------------------------------------------------------------------
# The event-free acquire contract
# ----------------------------------------------------------------------

def test_every_mechanism_declares_acquire_ignores_event():
    """The batch engine passes event=None to on_acquire when recording
    is off; each mechanism class must uphold (and declare) that its
    hook never dereferences the event. The equivalence matrix above
    would catch a stale flag behaviorally; this pins the declaration."""
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
