"""End-to-end Release Persistency verification (property-style).

For every RP-enforcing mechanism, the full formal check runs over real
multi-threaded LFD executions: the recorded persist log must respect
``W1 hb-> W2 => W1 p-> W2`` for *all* write pairs, and every crash
prefix must be a consistent cut. ARP must violate the full RP check on
a crafted congestion scenario.
"""

import pytest

from repro.common.params import MachineConfig
from repro.core.simulator import simulate
from repro.lfds import WORKLOAD_NAMES
from repro.persistency.checker import RPChecker
from repro.workloads.harness import WorkloadSpec

CFG = MachineConfig(num_cores=8, l1_size_bytes=8 * 1024,
                    num_memory_controllers=2)


def _spec(workload, seed):
    return WorkloadSpec(structure=workload, num_threads=4,
                        initial_size=48, ops_per_thread=10, seed=seed)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("mechanism", ["sb", "bb", "lrp"])
class TestRPHolds:
    def test_persist_order_respects_hb(self, workload, mechanism):
        result = simulate(_spec(workload, seed=0), mechanism=mechanism,
                          config=CFG)
        checker = RPChecker(result.trace, result.nvm)
        violations = checker.check_order()
        assert violations == [], [str(v) for v in violations[:3]]


@pytest.mark.parametrize("mechanism", ["sb", "bb", "lrp"])
class TestCutsConsistent:
    def test_sampled_prefixes_are_consistent_cuts(self, mechanism):
        result = simulate(_spec("hashmap", seed=1), mechanism=mechanism,
                          config=CFG)
        checker = RPChecker(result.trace, result.nvm)
        log_len = len(result.nvm.persist_log())
        for prefix in range(0, log_len + 1, max(1, log_len // 12)):
            assert checker.check_cut(prefix) == []


class TestSeedSweep:
    @pytest.mark.parametrize("seed", range(3))
    def test_lrp_rp_holds_across_seeds(self, seed):
        result = simulate(_spec("skiplist", seed=seed), mechanism="lrp",
                          config=CFG)
        checker = RPChecker(result.trace, result.nvm)
        assert checker.check_order() == []


class TestARPViolatesRP:
    def test_arp_breaks_rp_somewhere(self):
        """Across seeds/workloads, ARP's persist log must violate the
        RP write-pair rule at least once (its documented weakness)."""
        total = 0
        for workload in ("linkedlist", "hashmap", "bstree"):
            for seed in range(3):
                result = simulate(_spec(workload, seed),
                                  mechanism="arp", config=CFG)
                checker = RPChecker(result.trace, result.nvm)
                total += len(checker.check_order())
        assert total > 0

    def test_arp_own_rule_holds(self):
        """ARP must still satisfy the (weaker) ARP rule itself."""
        from repro.persistency.rp_model import (
            arp_allows,
            persist_sequence_from_log,
        )

        result = simulate(_spec("hashmap", seed=0), mechanism="arp",
                          config=CFG)
        word_maps = [record.word_events()
                     for record in result.nvm.persist_log()]
        sequence = persist_sequence_from_log(result.trace, word_maps)
        assert arp_allows(result.trace, sequence)
