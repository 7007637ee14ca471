"""Unit and property tests for the L1 cache and line metadata.

Lines enter and leave an L1 only through the machine's coherence path,
so fills, victim choice and LRU order are driven through
:meth:`Machine.coherence_access` on a one-core machine.
"""

from hypothesis import given, settings, strategies as st

from repro.coherence.l1cache import CacheLine, L1Cache, MESIState
from repro.common.params import MachineConfig
from repro.core.machine import Machine


def _config(sets, assoc):
    return MachineConfig(num_cores=1, l1_size_bytes=sets * assoc * 64,
                         l1_assoc=assoc)


def _cache(sets=4, assoc=2):
    return L1Cache(0, _config(sets, assoc))


def _machine(sets=4, assoc=2):
    return Machine(_config(sets, assoc), "nop")


def _read(machine, line_addr):
    """Core 0 reads ``line_addr``; returns the line it now holds."""
    return machine.coherence_access(0, line_addr, 0, False)[0]


def _write(machine, line_addr):
    return machine.coherence_access(0, line_addr, 0, True)[0]


def _resident(machine):
    """Addresses resident in core 0's L1."""
    return {line.addr for line in machine.fabric.l1s[0].iter_lines()}


class TestCacheLineMetadata:
    def test_clean_by_default(self):
        line = CacheLine(addr=0x1000)
        assert not line.has_pending
        assert not line.is_released
        assert not line.is_only_written

    def test_first_write_stamps_min_epoch(self):
        line = CacheLine(addr=0x1000, state=MESIState.MODIFIED)
        line.record_write(0x1000, 5, event_id=1, epoch=7)
        assert line.min_epoch == 7
        assert line.is_only_written

    def test_later_write_keeps_min_epoch(self):
        line = CacheLine(addr=0x1000, state=MESIState.MODIFIED)
        line.record_write(0x1000, 5, event_id=1, epoch=7)
        line.record_write(0x1008, 6, event_id=2, epoch=9)
        assert line.min_epoch == 7

    def test_coalescing_keeps_youngest_value(self):
        line = CacheLine(addr=0x1000, state=MESIState.MODIFIED)
        line.record_write(0x1000, 5, event_id=1, epoch=7)
        line.record_write(0x1000, 8, event_id=3, epoch=7)
        assert line.pending_words[0x1000] == (8, 3)

    def test_released_classification(self):
        line = CacheLine(addr=0x1000, state=MESIState.MODIFIED)
        line.record_write(0x1000, 5, event_id=1, epoch=7)
        line.release_bit = True
        assert line.is_released
        assert not line.is_only_written

    def test_take_persist_payload_clears(self):
        line = CacheLine(addr=0x1000, state=MESIState.MODIFIED)
        line.record_write(0x1000, 5, event_id=1, epoch=7)
        line.release_bit = True
        payload = line.take_persist_payload()
        assert payload == {0x1000: (5, 1)}
        assert not line.has_pending
        assert line.min_epoch is None
        assert not line.release_bit


class TestL1Lookup:
    def test_miss_returns_none(self):
        assert _cache().lookup(0x1000) is None

    def test_fill_then_hit(self):
        machine = _machine()
        filled = _read(machine, 0x1000)
        line = machine.fabric.l1s[0].lookup(0x1000)
        assert line is filled
        assert line.state is MESIState.EXCLUSIVE


class TestVictimSelection:
    def test_no_victim_when_room(self):
        machine = _machine(sets=1, assoc=2)
        _read(machine, 0x0)
        _read(machine, 0x40)
        assert machine.stats[0].evictions == 0
        assert _resident(machine) == {0x0, 0x40}

    def test_lru_victim(self):
        machine = _machine(sets=1, assoc=2)
        _read(machine, 0x0)
        _read(machine, 0x40)
        _read(machine, 0x0)  # touch: 0x40 is now LRU
        _read(machine, 0x80)
        assert machine.stats[0].evictions == 1
        assert _resident(machine) == {0x0, 0x80}

    def test_lookup_without_touch_preserves_lru(self):
        machine = _machine(sets=1, assoc=2)
        _read(machine, 0x0)
        _read(machine, 0x40)
        machine.fabric.l1s[0].lookup(0x0, touch=False)
        _read(machine, 0x80)
        assert _resident(machine) == {0x40, 0x80}

    def test_victim_same_set_only(self):
        machine = _machine(sets=2, assoc=1)
        _read(machine, 0x0)     # set 0
        _read(machine, 0x40)    # set 1
        _read(machine, 0x80)    # set 0
        assert _resident(machine) == {0x40, 0x80}


class TestScans:
    def test_pending_lines(self):
        machine = _machine()
        a = _write(machine, 0x0)
        _read(machine, 0x40)
        a.record_write(0x0, 1, event_id=0, epoch=1)
        pending = machine.fabric.l1s[0].pending_lines()
        assert [l.addr for l in pending] == [0x0]

    def test_resident_count(self):
        machine = _machine()
        _read(machine, 0x0)
        _read(machine, 0x40)
        assert machine.fabric.l1s[0].resident_count() == 2


class TestLRUProperty:
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_lru(self, accesses):
        """After every access the set holds exactly the reference LRU
        model's lines, and an eviction removes the model's LRU line."""
        machine = _machine(sets=1, assoc=4)
        reference = []  # most recent last
        evictions = 0
        for line_no in accesses:
            addr = line_no * 64
            _read(machine, addr)
            if addr in reference:
                reference.remove(addr)
            elif len(reference) == 4:
                assert reference.pop(0) not in _resident(machine)
                evictions += 1
            reference.append(addr)
            assert machine.stats[0].evictions == evictions
            assert _resident(machine) == set(reference)
