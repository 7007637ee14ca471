"""Tests for the generator-coroutine scheduler and Machine execution."""

import pytest

from repro.common.params import MachineConfig
from repro.consistency.events import MemOrder
from repro.core.machine import Machine
from repro.core.scheduler import Scheduler
from repro.core.thread import cas, load, store, work, xchg

CFG = MachineConfig(num_cores=4)


def _scheduler(workers, config=CFG, mech="nop"):
    machine = Machine(config, mech)
    return Scheduler(machine, workers), machine


class TestSimThread:
    def test_result_delivery(self):
        def gen():
            value = yield store(0x8, 42)
            assert value is None
            got = yield load(0x8)
            assert got == 42

        sched, machine = _scheduler([lambda tid: gen()])
        sched.run()
        assert machine.trace.load(0x8) == 42

    def test_stop_iteration_finishes_thread(self):
        def gen():
            yield store(0x8, 1)

        sched, _ = _scheduler([lambda tid: gen()])
        sched.run()
        assert all(t.done for t in sched.threads)


class TestSchedulingOrder:
    def test_min_clock_first(self):
        """A thread stalled by a long op yields to faster threads."""
        order = []

        def slow(tid):
            yield work(1000)
            order.append(("slow", tid))
            yield work(1)

        def fast(tid):
            for _ in range(3):
                order.append(("fast", tid))
                yield work(10)

        sched, _ = _scheduler([slow, fast])
        sched.run()
        # All three fast steps happen before the slow thread's second
        # step (its clock jumped to 1000).
        slow_index = order.index(("slow", 0))
        assert slow_index >= 3

    def test_makespan_is_max_clock(self):
        def worker(cycles):
            def gen(tid):
                yield work(cycles)
            return gen

        sched, _ = _scheduler([worker(100), worker(700)])
        assert sched.run() >= 700

    def test_too_many_workers_rejected(self):
        config = MachineConfig(num_cores=1)
        with pytest.raises(ValueError):
            _scheduler([lambda t: iter(()), lambda t: iter(())],
                       config=config)

class TestScheduleNudges:
    """The fuzzer's priority-nudge hook (repro.fuzz rides on this)."""

    def _racing_writers(self):
        def writer(value):
            def gen(tid):
                yield store(0x8, value)
            return gen
        return [writer(1), writer(2)]

    def test_default_order_is_thread_id(self):
        sched, machine = _scheduler(self._racing_writers())
        sched.run()
        # Equal clocks: thread 0 executes first, thread 1 overwrites.
        assert machine.trace.load(0x8) == 2

    def test_nudge_flips_first_decision(self):
        sched, machine = _scheduler(self._racing_writers())
        sched.set_nudges({0: 1})
        sched.run()
        # Thread 1 ran first, so thread 0's store lands last.
        assert machine.trace.load(0x8) == 1

    def test_rank_wraps_modulo_runnable(self):
        sched, machine = _scheduler(self._racing_writers())
        sched.set_nudges({0: 2})  # 2 % 2 runnable threads == rank 0
        sched.run()
        assert machine.trace.load(0x8) == 2

    def test_set_nudges_copies_and_resets(self):
        sched, machine = _scheduler(self._racing_writers())
        nudges = {0: 1}
        sched.set_nudges(nudges)
        nudges[0] = 0  # caller mutation must not leak in
        sched.set_nudges(None)  # back to the heap path
        sched.run()
        assert machine.trace.load(0x8) == 2

    def test_executed_ops_counts_all_threads(self):
        sched, _ = _scheduler(self._racing_writers())
        sched.set_nudges({})
        sched.run()
        assert sched.executed_ops == 2

    def test_nudge_ends_a_quantum(self):
        """Thread 0 would run decisions 2-6 as one quantum; the nudge
        at decision 3 hands that decision to thread 1."""
        def stores(tid):
            for value in range(5):
                yield store(0x8, value)

        def late(tid):
            yield work(1000)
            yield store(0x1000, 1)

        config = MachineConfig(num_cores=4, record_trace=True)
        sched, machine = _scheduler([stores, late], config=config)
        sched.set_nudges({3: 1})
        sched.run()
        assert ([event.thread_id for event in machine.trace.events]
                == [0, 0, 1, 0, 0, 0])

    def test_nudge_on_finished_thread_repeats_the_decision(self):
        """Decision 1 ranks [t1, t2, t0]: rank 5 % 3 picks t0, whose
        generator is done, so decision 1 is taken again among two
        threads and rank 5 % 2 runs t2 before t1."""
        def once(tid):
            yield work(10)

        def writer(tid):
            yield store(0x1000 * tid, tid)

        config = MachineConfig(num_cores=4, record_trace=True)
        sched, machine = _scheduler([once, writer, writer], config=config)
        sched.set_nudges({1: 5})
        sched.run()
        assert [event.thread_id for event in machine.trace.events] == [2, 1]
        assert sched.executed_ops == 3

    def test_empty_nudges_match_heap_makespan(self):
        def worker(cycles):
            def gen(tid):
                for _ in range(3):
                    yield work(cycles)
            return gen

        plain, _ = _scheduler([worker(10), worker(25)])
        nudged, _ = _scheduler([worker(10), worker(25)])
        nudged.set_nudges({})
        assert plain.run() == nudged.run()

class TestMachineOps:
    def test_cas_result_tuple(self):
        m = Machine(CFG, "nop")
        m.execute(0, store(0x8, 5), 0)
        result, _ = m.execute(0, cas(0x8, 5, 6), 10)
        assert result == (True, 5)
        result, _ = m.execute(0, cas(0x8, 5, 7), 20)
        assert result == (False, 6)

    def test_xchg_returns_old(self):
        m = Machine(CFG, "nop")
        m.execute(0, store(0x8, 5), 0)
        result, _ = m.execute(0, xchg(0x8, 9), 10)
        assert result == 5
        assert m.trace.load(0x8) == 9

    def test_work_op_only_costs_cycles(self):
        m = Machine(CFG, "nop")
        result, latency = m.execute(0, work(77), 0)
        assert result is None
        assert latency == 77
        assert len(m.trace) == 0

    def test_failed_cas_does_not_dirty_line(self):
        m = Machine(CFG, "lrp")
        m.execute(0, store(0x8, 5), 0)
        m.execute(1, cas(0x8, 99, 1, MemOrder.RELEASE), 0)
        line = m.fabric.l1s[1].lookup(0x0)
        assert line is not None and not line.has_pending

    def test_stats_counting(self):
        m = Machine(CFG, "nop")
        m.execute(0, store(0x8, 5), 0)
        m.execute(0, load(0x8, MemOrder.ACQUIRE), 10)
        m.execute(0, cas(0x8, 5, 6, MemOrder.RELEASE), 20)
        stats = m.stats[0]
        assert stats.writes == 1
        assert stats.reads == 1
        assert stats.rmws == 1
        assert stats.acquires == 1
        assert stats.releases == 1

    def test_miss_then_hit_latency(self):
        m = Machine(CFG, "nop")
        _, miss = m.execute(0, load(0x8), 0)
        _, hit = m.execute(0, load(0x8), 100)
        assert miss > hit == CFG.l1_hit_cycles

    def test_install_initial_state(self):
        m = Machine(CFG, "nop")
        m.install_initial_state({0x8: 42})
        result, _ = m.execute(0, load(0x8), 0)
        assert result == 42
        assert m.nvm.baseline_image() == {0x8: 42}

    def test_install_after_ops_rejected(self):
        m = Machine(CFG, "nop")
        m.execute(0, store(0x8, 1), 0)
        with pytest.raises(ValueError):
            m.install_initial_state({0x10: 2})

    def test_sync_source_detection(self):
        m = Machine(CFG, "arp")
        m.execute(0, store(0x8, 1, MemOrder.RELEASE), 0)
        m.execute(1, load(0x8, MemOrder.ACQUIRE), 0)
        # The acquiring thread observed the release: ARP placed a
        # barrier (epoch turnover) on the acquirer.
        assert m.stats[1].barrier_count == 1
