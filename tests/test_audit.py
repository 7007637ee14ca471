"""Tests for the persist-order audit (repro.obs.audit + CLI).

The audit must (a) pass the RP-enforcing mechanisms on real runs,
(b) report (but tolerate) the expected violations of mechanisms with
no RP guarantee, and (c) actually *detect* a broken persist order —
proven by hand-injecting a reordered log and watching it fail.
"""

import json

import pytest

from repro.common.params import MachineConfig
from repro.consistency.events import MemOrder
from repro.core.machine import Machine
from repro.core.simulator import simulate
from repro.obs.audit import AuditReport, audit_execution, audit_simulation
from repro.obs.__main__ import main as obs_main
from repro.workloads.harness import WorkloadSpec

CFG = MachineConfig(num_cores=4)

LINE_A, LINE_B = 0x1000, 0x2000


def small_spec(structure="hashmap"):
    return WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=48, ops_per_thread=10, seed=3)


# ----------------------------------------------------------------------
# Real runs
# ----------------------------------------------------------------------

class TestAuditSimulation:
    @pytest.mark.parametrize("mech", ("sb", "bb", "lrp"))
    def test_rp_mechanisms_audit_clean(self, mech):
        result = simulate(small_spec(), mech, CFG)
        report = audit_simulation(result, cut_samples=6)
        assert report.enforces_rp
        assert report.clean, [str(v) for v in
                              report.order_violations[:3]]
        assert not report.failed
        assert report.pairs_checked > 0
        assert "OK" in report.summary()

    def test_nop_violates_but_is_expected(self):
        result = simulate(small_spec(), "nop", CFG)
        report = audit_simulation(result, cut_samples=6)
        assert not report.enforces_rp
        assert report.total_violations > 0
        assert not report.failed  # expected: no RP guarantee claimed
        assert "expected" in report.summary()

    @pytest.mark.parametrize("structure",
                             ("linkedlist", "bstree", "skiplist", "queue"))
    def test_lrp_clean_on_every_lfd(self, structure):
        result = simulate(small_spec(structure), "lrp", CFG)
        assert audit_simulation(result, cut_samples=4).clean

    def test_cut_results_cover_empty_and_full_prefix(self):
        result = simulate(small_spec(), "lrp", CFG)
        report = audit_simulation(result, cut_samples=4)
        prefixes = [prefix for prefix, _ in report.cut_results]
        assert prefixes[0] == 0
        assert prefixes[-1] == len(result.nvm.persist_log())


# ----------------------------------------------------------------------
# Detection: an injected reordered persist log must fail the audit
# ----------------------------------------------------------------------

class TestInjectedReordering:
    def _inverted_machine(self):
        """Release persisted strictly before the write it orders."""
        machine = Machine(CFG, "nop")
        write = machine.trace.record_write(0, LINE_A, 1)
        release = machine.trace.record_write(0, LINE_B, 2,
                                             MemOrder.RELEASE)
        machine.nvm.issue_persist(
            LINE_B, {LINE_B: (2, release.event_id)}, now=0)
        machine.nvm.issue_persist(
            LINE_A, {LINE_A: (1, write.event_id)}, now=500)
        return machine, write, release

    def test_reordered_log_detected(self):
        machine, write, release = self._inverted_machine()
        report = audit_execution(machine.trace, machine.nvm,
                                 workload="synthetic", mechanism="lrp",
                                 enforces_rp=True, cut_samples=4)
        assert report.order_violations
        assert report.failed
        assert "FAILED" in report.summary()
        violation = report.order_violations[0]
        assert violation.earlier.event_id == write.event_id
        assert violation.later.event_id == release.event_id

    def test_provenance_names_the_write_pair(self):
        machine, write, release = self._inverted_machine()
        report = audit_execution(machine.trace, machine.nvm,
                                 enforces_rp=True, cut_samples=2)
        lines = report.detail_lines()
        assert any("hb->" in line for line in lines)
        assert any(f"W{write.event_id}" in line for line in lines)

    def test_detail_lines_truncate(self):
        result = simulate(small_spec(), "nop", CFG)
        report = audit_simulation(result, cut_samples=6)
        assert report.total_violations > 2
        lines = report.detail_lines(limit=2)
        assert len(lines) == 3
        assert "more" in lines[-1]


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------

AUDIT_ARGS = ["--threads", "4", "--size", "48", "--ops", "8",
              "--cuts", "4"]


class TestAuditCLI:
    def test_lrp_passes(self, capsys):
        rc = obs_main(["audit", "--mechanism", "lrp",
                       "--workloads", "hashmap"] + AUDIT_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "hashmap" in out

    def test_nop_reports_but_passes_without_strict(self, capsys):
        rc = obs_main(["audit", "--mechanism", "nop",
                       "--workloads", "hashmap"] + AUDIT_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "expected" in out
        assert "hb->" in out  # provenance lines shown

    def test_nop_fails_under_strict(self, capsys):
        rc = obs_main(["audit", "--mechanism", "nop", "--strict",
                       "--workloads", "hashmap"] + AUDIT_ARGS)
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

