"""Crash-recovery experiments and validator sensitivity tests.

The paper's core claim (Sections 3-4): RP-enforcing mechanisms leave a
consistent cut in NVM at every instant, so LFDs null-recover; ARP and
volatile execution do not.
"""

import pytest

from repro.common.params import MachineConfig
from repro.core.recovery import (
    CrashOutcome,
    crash_points,
    crash_test,
    exhaustive_crash_test,
)
from repro.core.simulator import simulate
from repro.lfds import WORKLOAD_NAMES
from repro.lfds.base import RecoveryReport, mark
from repro.lfds.harris import KEY as H_KEY, NEXT as H_NEXT, NODE_WORDS
from repro.lfds.linkedlist import LinkedList
from repro.memory.address import HeapAllocator
from repro.workloads.harness import WorkloadSpec

CFG = MachineConfig(num_cores=8, l1_size_bytes=8 * 1024)


def _spec(workload, seed=0):
    return WorkloadSpec(structure=workload, num_threads=6,
                        initial_size=128, ops_per_thread=20, seed=seed)


class TestCrashPoints:
    def test_includes_endpoints(self):
        points = crash_points(100, num_points=5)
        assert 0 in points and 100 in points

    def test_deterministic(self):
        assert crash_points(500, 20, seed=3) == crash_points(500, 20,
                                                             seed=3)

    def test_bounded(self):
        for p in crash_points(50, 30):
            assert 0 <= p <= 50

    def test_short_log(self):
        assert crash_points(0, 10) == [0]

    def test_short_log_every_prefix_once(self):
        """A budget covering the whole log yields each prefix exactly
        once, sorted — no duplicates from rejection sampling."""
        assert crash_points(3, 10) == [0, 1, 2, 3]
        assert crash_points(5, 6) == [0, 1, 2, 3, 4, 5]

    def test_sorted_and_duplicate_free(self):
        points = crash_points(200, 40, seed=11)
        assert points == sorted(points)
        assert len(points) == len(set(points)) == 40


class TestCrashPointsContract:
    """num_points < 2 cannot hold both mandatory endpoints — the
    documented contract is to raise, never to silently drop one."""

    @pytest.mark.parametrize("log_length", [0, 1, 5])
    @pytest.mark.parametrize("num_points", [0, 1])
    def test_fewer_than_two_points_rejected(self, num_points,
                                            log_length):
        with pytest.raises(ValueError, match="num_points must be >= 2"):
            crash_points(log_length, num_points)

    @pytest.mark.parametrize("log_length,expected", [
        (0, [0]),           # only one distinct prefix exists
        (1, [0, 1]),
        (5, [0, 5]),        # endpoints, nothing sampled in between
    ])
    def test_minimum_budget_exact_points(self, log_length, expected):
        assert crash_points(log_length, 2) == expected

    @pytest.mark.parametrize("log_length", [0, 1, 5])
    def test_length_is_min_of_budget_and_prefixes(self, log_length):
        points = crash_points(log_length, 2)
        assert len(points) == min(2, log_length + 1)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("mechanism", ["sb", "bb", "lrp"])
class TestRPMechanismsRecover:
    def test_every_crash_point_recovers(self, workload, mechanism):
        result = simulate(_spec(workload), mechanism=mechanism,
                          config=CFG)
        campaign = exhaustive_crash_test(result)
        assert campaign.all_recovered, [
            (o.prefix_len, o.report.problems[:1])
            for o in campaign.failures[:3]
        ]


@pytest.mark.slow
class TestWeakMechanismsViolate:
    @pytest.mark.parametrize("mechanism", ["nop", "arp"])
    def test_violations_exist_somewhere(self, mechanism):
        """Across the five LFDs and a few seeds, a weak mechanism must
        leave at least one unrecoverable crash state."""
        failures = 0
        for workload in ("linkedlist", "hashmap", "bstree", "skiplist"):
            for seed in (0, 1):
                result = simulate(_spec(workload, seed),
                                  mechanism=mechanism, config=CFG)
                failures += len(exhaustive_crash_test(result).failures)
        assert failures > 0

    def test_nop_violates_on_most_structures(self):
        violating = 0
        for workload in WORKLOAD_NAMES:
            result = simulate(_spec(workload), mechanism="nop",
                              config=CFG)
            if exhaustive_crash_test(result).failures:
                violating += 1
        assert violating >= 3


class TestExpectedFailureContract:
    """The Figure-1 contract on a small, fast hashmap run: weak
    mechanisms must leave unrecoverable crash states, RP-enforcing
    ones must not (the fuzzer's exit contract builds on this)."""

    SPEC = WorkloadSpec(structure="hashmap", num_threads=4,
                        initial_size=64, ops_per_thread=8, seed=1)
    SMALL_CFG = MachineConfig(num_cores=8, l1_size_bytes=4 * 1024)

    @pytest.mark.parametrize("mechanism", ["arp", "nop"])
    def test_weak_mechanisms_report_failures(self, mechanism):
        result = simulate(self.SPEC, mechanism=mechanism,
                          config=self.SMALL_CFG)
        campaign = exhaustive_crash_test(result)
        assert not campaign.all_recovered
        assert campaign.failures

    @pytest.mark.parametrize("mechanism", ["sb", "bb", "lrp"])
    def test_enforcing_mechanisms_all_recover(self, mechanism):
        result = simulate(self.SPEC, mechanism=mechanism,
                          config=self.SMALL_CFG)
        campaign = exhaustive_crash_test(result)
        assert campaign.all_recovered, [
            (o.prefix_len, o.report.problems[:1])
            for o in campaign.failures[:3]
        ]


class TestCampaignAPI:
    def test_summary_strings(self):
        result = simulate(_spec("hashmap"), mechanism="lrp", config=CFG)
        campaign = crash_test(result, num_points=10)
        text = campaign.summary()
        assert "hashmap" in text and "lrp" in text

    def test_crash_outcome_recovered_flag(self):
        ok = CrashOutcome(0, RecoveryReport("x", True, []))
        bad = CrashOutcome(0, RecoveryReport("x", False, ["p"]))
        assert ok.recovered and not bad.recovered

    def test_full_log_prefix_always_consistent_for_lrp(self):
        result = simulate(_spec("skiplist"), mechanism="lrp", config=CFG)
        log_len = len(result.nvm.persist_log())
        image = result.nvm.image_after_prefix(log_len)
        assert result.structure.validate_image(image).ok


class TestValidatorSensitivity:
    """The validators must actually detect the Figure 1 failure modes."""

    def _fresh_list(self, keys=(1, 2, 3)):
        structure = LinkedList(HeapAllocator(line_bytes=64))
        memory = {}
        structure.build_initial(keys, memory)
        return structure, memory

    def test_clean_image_passes(self):
        structure, memory = self._fresh_list()
        assert structure.validate_image(memory).ok

    def test_dangling_link_detected(self):
        """A link to a node whose fields never persisted (Fig 1e)."""
        structure, memory = self._fresh_list()
        ghost = 0x9990000
        memory[structure.head_ptr] = ghost
        report = structure.validate_image(memory)
        assert not report.ok
        assert "never persisted" in report.problems[0]

    def test_partial_node_detected(self):
        structure, memory = self._fresh_list()
        ghost = 0x9990000
        memory[structure.head_ptr] = ghost
        memory[ghost + H_KEY * 8] = 0   # key persisted ...
        # ... but value and next did not.
        assert not structure.validate_image(memory).ok

    def test_ordering_violation_detected(self):
        structure, memory = self._fresh_list(keys=(1, 2, 3))
        # Swap two keys to break sortedness.
        first = memory[structure.head_ptr]
        second = memory[first + H_NEXT * 8]
        memory[first + H_KEY * 8], memory[second + H_KEY * 8] = (
            memory[second + H_KEY * 8], memory[first + H_KEY * 8])
        report = structure.validate_image(memory)
        assert not report.ok
        assert any("ordering" in p for p in report.problems)

    def test_cycle_detected(self):
        structure, memory = self._fresh_list(keys=(1, 2))
        first = memory[structure.head_ptr]
        second = memory[first + H_NEXT * 8]
        memory[second + H_NEXT * 8] = first  # cycle
        report = structure.validate_image(memory)
        assert not report.ok
        # Keys strictly increase along a chain, so the walk stops at
        # the first revisit instead of at the node bound.
        assert report.problems == [
            f"chain ordering violated at node {first:#x}: 1 after 2"]
        assert report.reachable_nodes == 3

    def test_marked_nodes_not_live(self):
        structure, memory = self._fresh_list(keys=(1, 2))
        first = memory[structure.head_ptr]
        memory[first + H_NEXT * 8] = mark(memory[first + H_NEXT * 8])
        report = structure.validate_image(memory)
        assert report.ok
        assert report.live_keys == {2}
