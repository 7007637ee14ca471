"""End-to-end tests of the simulate() driver."""

import dataclasses

import pytest

from repro.common.params import MachineConfig, NVMMode
from repro.core.simulator import simulate, simulate_all_mechanisms
from repro.workloads.harness import WorkloadSpec

CFG = MachineConfig(num_cores=8, l1_size_bytes=8 * 1024)
SPEC = WorkloadSpec(structure="hashmap", num_threads=4,
                    initial_size=128, ops_per_thread=16, seed=2)


class TestSimulate:
    def test_returns_consistent_result(self):
        result = simulate(SPEC, mechanism="lrp", config=CFG)
        assert result.mechanism == "lrp"
        assert result.makespan > 0
        assert result.stats.execution_cycles == result.makespan
        assert result.stats.total_ops == 4 * 16

    def test_config_grows_cores_if_needed(self):
        small = MachineConfig(num_cores=2)
        spec = dataclasses.replace(SPEC, num_threads=4)
        result = simulate(spec, mechanism="nop", config=small)
        assert result.config.num_cores == 4

    def test_deterministic_replay(self):
        a = simulate(SPEC, mechanism="bb", config=CFG)
        b = simulate(SPEC, mechanism="bb", config=CFG)
        assert a.makespan == b.makespan
        assert len(a.trace) == len(b.trace)
        assert [r.line_addr for r in a.nvm.persist_log()] == \
               [r.line_addr for r in b.nvm.persist_log()]

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            simulate(SPEC, mechanism="magic", config=CFG)

    def test_uncached_mode_slower_for_sb(self):
        cached = simulate(SPEC, mechanism="sb", config=CFG)
        uncached = simulate(
            SPEC, mechanism="sb",
            config=dataclasses.replace(CFG, nvm_mode=NVMMode.UNCACHED))
        assert uncached.makespan > cached.makespan

    def test_volatile_is_fastest(self):
        runs = simulate_all_mechanisms(SPEC, config=CFG)
        assert runs["nop"].makespan == min(r.makespan
                                           for r in runs.values())

    def test_sb_slowest_of_rp_mechanisms(self):
        runs = simulate_all_mechanisms(SPEC, config=CFG)
        assert runs["sb"].makespan >= runs["bb"].makespan
        assert runs["sb"].makespan >= runs["lrp"].makespan

    def test_trace_is_rc_consistent(self):
        from repro.consistency.happens_before import HappensBefore

        result = simulate(SPEC, mechanism="lrp", config=CFG)
        hb = HappensBefore.from_trace(result.trace)
        assert hb.validate_read_values() == []

    def test_coherence_invariants_after_run(self):
        result = simulate(SPEC, mechanism="lrp", config=CFG)
        assert result.machine.fabric.check_invariants() == []

    def test_drain_makes_everything_durable(self):
        for mech in ("nop", "sb", "bb", "lrp", "arp"):
            result = simulate(SPEC, mechanism=mech, config=CFG)
            result.verify_durable_final_state()

    def test_durable_oracle_sees_an_unpersisted_write(self):
        result = simulate(SPEC, mechanism="lrp", config=CFG)
        addr = next(iter(result.trace.written()))
        result.trace.record_write(0, addr, -1)
        with pytest.raises(AssertionError, match=f"e.g. \\[{addr}\\]"):
            result.verify_durable_final_state()

    def test_durable_oracle_sees_a_persist_outside_memory(self):
        result = simulate(SPEC, mechanism="lrp", config=CFG)
        stray = 0x7F0000   # neither initial nor written
        assert result.trace.load(stray) is None
        result.nvm.issue_persist(stray, {stray: (1, 0)},
                                 now=result.makespan)
        with pytest.raises(AssertionError, match=f"e.g. \\[{stray}\\]"):
            result.verify_durable_final_state()


class TestStatsPlumbing:
    def test_persist_counts_positive_for_rp_mechanisms(self):
        for mech in ("sb", "bb", "lrp"):
            result = simulate(SPEC, mechanism=mech, config=CFG)
            assert result.stats.total_persists > 0

    def test_lrp_stalls_less_than_sb(self):
        sb = simulate(SPEC, mechanism="sb", config=CFG)
        lrp = simulate(SPEC, mechanism="lrp", config=CFG)
        assert (lrp.stats.persist_stall_cycles
                < sb.stats.persist_stall_cycles)

    def test_summary_dict(self):
        result = simulate(SPEC, mechanism="lrp", config=CFG)
        summary = result.stats.summary()
        assert summary["mechanism"] == "lrp"
        assert summary["workload"] == "hashmap"
