"""Tests for the RP persist-order and consistent-cut checker."""

import pytest

from repro.common.params import MachineConfig
from repro.consistency.events import MemOrder
from repro.core.machine import Machine
from repro.core.thread import cas, load, store
from repro.memory.nvm import NVMController
from repro.persistency.checker import RPChecker

CFG = MachineConfig(num_cores=4)

LINE_A, LINE_B, LINE_C = 0x1000, 0x2000, 0x3000


def _run(mech, ops):
    m = Machine(CFG, mech)
    clocks = {}
    for core, op in ops:
        now = clocks.get(core, 0)
        _, latency = m.execute(core, op, now)
        clocks[core] = now + latency
    m.finish(max(clocks.values(), default=0) + 10_000)
    return m


FIG1_OPS = [
    (0, store(LINE_A, 1)),
    (0, cas(LINE_B, None, LINE_A, MemOrder.RELEASE)),
    (1, load(LINE_B, MemOrder.ACQUIRE)),
    (1, store(LINE_C, 2)),
]


class TestOrderCheck:
    def test_lrp_order_clean(self):
        m = _run("lrp", FIG1_OPS)
        checker = RPChecker(m.trace, m.nvm)
        assert checker.check_order() == []

    def test_sb_order_clean(self):
        m = _run("sb", FIG1_OPS)
        assert RPChecker(m.trace, m.nvm).check_order() == []

    def test_bb_order_clean(self):
        m = _run("bb", FIG1_OPS)
        assert RPChecker(m.trace, m.nvm).check_order() == []

    def test_synthetic_violation_detected(self):
        """Persist the release strictly before its preceding write."""
        m = Machine(CFG, "nop")
        w = m.trace.record_write(0, LINE_A, 1)
        rel = m.trace.record_write(0, LINE_B, 2, MemOrder.RELEASE)
        # Hand-craft an inverted persist log.
        m.nvm.issue_persist(LINE_B, {LINE_B: (2, rel.event_id)}, now=0)
        m.nvm.issue_persist(LINE_A, {LINE_A: (1, w.event_id)}, now=500)
        violations = RPChecker(m.trace, m.nvm).check_order()
        assert violations
        assert violations[0].earlier.event_id == w.event_id
        assert violations[0].later.event_id == rel.event_id
        assert "hb->" in str(violations[0])

    def test_never_persisted_predecessor_is_violation(self):
        m = Machine(CFG, "nop")
        w = m.trace.record_write(0, LINE_A, 1)
        rel = m.trace.record_write(0, LINE_B, 2, MemOrder.RELEASE)
        m.nvm.issue_persist(LINE_B, {LINE_B: (2, rel.event_id)}, now=0)
        assert RPChecker(m.trace, m.nvm).check_order()

    def test_coalesced_write_counts_as_durable(self):
        """An older same-word write overwritten by an hb-later one is
        covered when the younger value persists."""
        m = Machine(CFG, "nop")
        w1 = m.trace.record_write(0, LINE_A, 1)
        w2 = m.trace.record_write(0, LINE_A, 2)            # same word
        rel = m.trace.record_write(0, LINE_B, 3, MemOrder.RELEASE)
        m.nvm.issue_persist(LINE_A, {LINE_A: (2, w2.event_id)}, now=0)
        m.nvm.issue_persist(LINE_B, {LINE_B: (3, rel.event_id)}, now=0,
                            after=200)
        assert RPChecker(m.trace, m.nvm).check_order() == []


class TestCutCheck:
    def test_every_prefix_of_lrp_run_is_consistent(self):
        m = _run("lrp", FIG1_OPS)
        checker = RPChecker(m.trace, m.nvm)
        for prefix in range(len(m.nvm.persist_log()) + 1):
            assert checker.check_cut(prefix) == []

    def test_inverted_prefix_is_inconsistent(self):
        m = Machine(CFG, "nop")
        w = m.trace.record_write(0, LINE_A, 1)
        rel = m.trace.record_write(0, LINE_B, 2, MemOrder.RELEASE)
        m.nvm.issue_persist(LINE_B, {LINE_B: (2, rel.event_id)}, now=0)
        m.nvm.issue_persist(LINE_A, {LINE_A: (1, w.event_id)}, now=500)
        checker = RPChecker(m.trace, m.nvm)
        assert checker.check_cut(1)       # release without fields
        assert checker.check_cut(2) == [] # both durable: consistent

    def test_prefix_out_of_range_rejected(self):
        m = _run("lrp", FIG1_OPS)
        checker = RPChecker(m.trace, m.nvm)
        log_len = len(m.nvm.persist_log())
        for prefix in (-1, log_len + 1, log_len + 5):
            with pytest.raises(ValueError, match="prefix_len must be in"):
                checker.check_cut(prefix)

    def test_durable_index(self):
        m = Machine(CFG, "nop")
        w = m.trace.record_write(0, LINE_A, 1)
        missing = m.trace.record_write(0, LINE_C, 9)
        m.nvm.issue_persist(LINE_A, {LINE_A: (1, w.event_id)}, now=0)
        checker = RPChecker(m.trace, m.nvm)
        assert checker.durable_index(w) == 0
        assert checker.durable_index(missing) == float("inf")
