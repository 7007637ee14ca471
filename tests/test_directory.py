"""Unit and property tests for the MESI coherence path.

Every access goes through :meth:`Machine.coherence_access`, the L1
probe over the fused miss/upgrade closures that every simulated
operation takes. Downgrades, evictions and invalidations are read back
from the cores' :class:`CoreStats`, L1 residency and the directory
state.
"""

from hypothesis import given, settings, strategies as st

from repro.coherence.l1cache import MESIState
from repro.common.params import MachineConfig
from repro.core.machine import Machine


def _machine(cores=4):
    """2 sets x 2 ways per L1: conflicts after two lines per set."""
    config = MachineConfig(num_cores=cores, l1_size_bytes=2 * 64 * 2,
                           l1_assoc=2)
    return Machine(config, "nop")


def _big_machine(cores=4):
    return Machine(MachineConfig(num_cores=cores), "nop")


def _read(machine, core, line_addr, now=0):
    return machine.coherence_access(core, line_addr, now, False)


def _write(machine, core, line_addr, now=0):
    return machine.coherence_access(core, line_addr, now, True)


def _resident(machine, core, line_addr):
    return machine.fabric.l1s[core].lookup(line_addr, touch=False)


LINE = 0x1000


class TestBasicTransitions:
    def test_cold_read_gets_exclusive(self):
        machine = _big_machine()
        line, _ = _read(machine, 0, LINE)
        assert (machine.stats[0].l1_misses, machine.stats[0].l1_hits) \
            == (1, 0)
        assert line.state is MESIState.EXCLUSIVE
        assert machine.fabric.directory_state(LINE).owner == 0

    def test_cold_write_gets_modified(self):
        machine = _big_machine()
        line, _ = _write(machine, 0, LINE)
        assert line.state is MESIState.MODIFIED
        assert machine.fabric.directory_state(LINE).owner == 0

    def test_second_access_hits(self):
        machine = _big_machine()
        _read(machine, 0, LINE)
        _, latency = _read(machine, 0, LINE, now=10)
        assert machine.stats[0].l1_hits == 1
        assert latency == 2  # L1 hit cycles

    def test_silent_e_to_m_upgrade(self):
        machine = _big_machine()
        _read(machine, 0, LINE)
        line, latency = _write(machine, 0, LINE, now=10)
        assert (machine.stats[0].l1_misses, machine.stats[0].l1_hits) \
            == (1, 1)
        assert latency == 2
        assert line.state is MESIState.MODIFIED

    def test_second_reader_shares(self):
        machine = _big_machine()
        _read(machine, 0, LINE)
        line, _ = _read(machine, 1, LINE, now=10)
        assert line.state is MESIState.SHARED
        assert _resident(machine, 0, LINE).state is MESIState.SHARED
        entry = machine.fabric.directory_state(LINE)
        assert entry.owner is None
        assert entry.sharers == {0, 1}

    def test_read_downgrades_modified_owner(self):
        machine = _big_machine()
        _write(machine, 0, LINE)
        _read(machine, 1, LINE, now=10)
        owner = machine.stats[0]
        assert owner.downgrades_received == 1
        # Clean modified data is written back on the downgrade.
        assert owner.writebacks_total == 1
        assert _resident(machine, 0, LINE).state is MESIState.SHARED
        assert machine.fabric.directory_state(LINE).sharers == {0, 1}

    def test_write_invalidates_modified_owner(self):
        machine = _big_machine()
        _write(machine, 0, LINE)
        _write(machine, 1, LINE, now=10)
        assert machine.stats[0].downgrades_received == 1
        assert _resident(machine, 0, LINE) is None
        assert _resident(machine, 1, LINE).state is MESIState.MODIFIED
        assert machine.fabric.directory_state(LINE).owner == 1

    def test_write_invalidates_sharers(self):
        machine = _big_machine()
        _read(machine, 0, LINE)
        _read(machine, 1, LINE, now=10)
        _write(machine, 2, LINE, now=20)
        assert machine.stats[2].invalidations_received == 2
        assert _resident(machine, 0, LINE) is None
        assert _resident(machine, 1, LINE) is None
        entry = machine.fabric.directory_state(LINE)
        assert (entry.owner, entry.sharers) == (2, set())

    def test_s_to_m_upgrade(self):
        machine = _big_machine()
        _read(machine, 0, LINE)
        _read(machine, 1, LINE, now=10)
        line, _ = _write(machine, 0, LINE, now=20)
        assert line.state is MESIState.MODIFIED
        # The upgrade is a miss in the stats.
        assert machine.stats[0].l1_misses == 2
        assert machine.stats[0].invalidations_received == 1
        assert _resident(machine, 1, LINE) is None
        assert machine.fabric.directory_state(LINE).owner == 0


class TestEviction:
    def test_victim_evicted_on_conflict(self):
        machine = _machine()  # 2 sets x 2 ways
        _read(machine, 0, 0x0)
        _read(machine, 0, 0x80)    # same set 0
        _read(machine, 0, 0x100)
        assert machine.stats[0].evictions == 1
        assert _resident(machine, 0, 0x0) is None
        assert _resident(machine, 0, 0x100) is not None

    def test_eviction_updates_directory(self):
        machine = _machine()
        _write(machine, 0, 0x0)
        _read(machine, 0, 0x80)
        _read(machine, 0, 0x100)  # evicts 0x0
        assert machine.stats[0].evictions == 1
        # Clean modified data is written back on the eviction.
        assert machine.stats[0].writebacks_total == 1
        assert machine.fabric.directory_state(0x0).owner is None
        # Another core can now get it exclusively without a downgrade.
        _write(machine, 1, 0x0, now=10)
        assert machine.stats[0].downgrades_received == 0


class TestBlocking:
    def test_blocked_line_delays_access(self):
        machine = _big_machine()
        twin = _big_machine()
        machine.fabric.block_line_until(LINE, 10_000)
        _, blocked = _read(machine, 0, LINE)
        _, plain = _read(twin, 0, LINE)
        # The request waits at the home until the block lifts.
        noc = machine.fabric.noc
        arrival = (machine.config.l1_hit_cycles
                   + noc.latency(0, noc.home_tile(LINE)))
        assert blocked - plain == 10_000 - arrival
        _, late = _read(machine, 1, LINE, now=20_000)
        _, twin_late = _read(twin, 1, LINE, now=20_000)
        assert late == twin_late

    def test_block_is_per_line(self):
        machine = _big_machine()
        machine.fabric.block_line_until(LINE, 10_000)
        _, other = _read(machine, 0, 0x2000)
        assert other == _read(_big_machine(), 0, 0x2000)[1]

    def test_block_monotonic(self):
        fabric = _big_machine().fabric
        fabric.block_line_until(LINE, 500)
        fabric.block_line_until(LINE, 100)  # must not shrink
        assert fabric.blocked_until(LINE) == 500


class TestLatencies:
    def test_miss_latency_exceeds_hit(self):
        machine = _big_machine()
        _, miss = _read(machine, 0, LINE)
        _, hit = _read(machine, 0, LINE, now=10)
        assert miss > hit

    def test_three_hop_costs_more_than_llc(self):
        machine = _big_machine()
        _write(machine, 0, LINE)
        _, three_hop = _read(machine, 1, LINE, now=10)
        _, clean = _read(machine, 2, 0x2000)
        assert three_hop > clean


class TestInvariantsProperty:
    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 9), st.booleans()),
        min_size=1, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_swmr_and_directory_agreement(self, accesses):
        """Single-writer-multiple-readers and directory/cache agreement
        hold after every access of any mix."""
        machine = _machine(cores=4)
        for count, (core, line_no, exclusive) in enumerate(accesses, 1):
            line_addr = line_no * 64
            line, _ = machine.coherence_access(core, line_addr, 0,
                                               exclusive)
            assert _resident(machine, core, line_addr) is line
            if exclusive:
                assert line.state is MESIState.MODIFIED
            assert machine.fabric.check_invariants() == []
            assert sum(s.l1_hits + s.l1_misses
                       for s in machine.stats) == count
