"""Unit tests for the memory-event trace (repro.consistency.events)."""

import pytest

from repro.consistency.events import EventKind, MemOrder, Trace


class TestMemOrder:
    def test_acquire_flags(self):
        assert MemOrder.ACQUIRE.has_acquire
        assert MemOrder.ACQ_REL.has_acquire
        assert not MemOrder.RELEASE.has_acquire
        assert not MemOrder.PLAIN.has_acquire

    def test_release_flags(self):
        assert MemOrder.RELEASE.has_release
        assert MemOrder.ACQ_REL.has_release
        assert not MemOrder.ACQUIRE.has_release


class TestRecording:
    def test_read_of_uninitialized_is_none(self):
        trace = Trace()
        event = trace.record_read(0, 0x8)
        assert event.read_value is None
        assert event.reads_from is None

    def test_write_then_read(self):
        trace = Trace()
        write = trace.record_write(0, 0x8, 42)
        read = trace.record_read(1, 0x8)
        assert read.read_value == 42
        assert read.reads_from == write.event_id

    def test_event_ids_sequential(self):
        trace = Trace()
        ids = [trace.record_write(0, 0x8, i).event_id for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_cas_success(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        cas = trace.record_rmw(1, 0x8, expected=1, new_value=2)
        assert cas.success
        assert cas.read_value == 1
        assert trace.load(0x8) == 2

    def test_cas_failure_leaves_memory(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        cas = trace.record_rmw(1, 0x8, expected=9, new_value=2)
        assert not cas.success
        assert cas.value is None
        assert trace.load(0x8) == 1

    def test_failed_cas_is_not_a_write_effect(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        cas = trace.record_rmw(1, 0x8, expected=9, new_value=2,
                               order=MemOrder.ACQ_REL)
        assert not cas.is_write_effect
        assert not cas.is_release
        assert cas.is_acquire  # degenerates to an acquire read

    def test_unconditional_rmw(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        xchg = trace.record_unconditional_rmw(1, 0x8, 7)
        assert xchg.success
        assert xchg.read_value == 1
        assert trace.load(0x8) == 7

    def test_cas_on_initial_value(self):
        trace = Trace()
        trace.initialize({0x8: 5})
        cas = trace.record_rmw(0, 0x8, expected=5, new_value=6)
        assert cas.success
        assert cas.reads_from is None

    def test_initialize_after_events_rejected(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        with pytest.raises(ValueError):
            trace.initialize({0x10: 2})

    def test_initial_value_accessor(self):
        trace = Trace()
        trace.initialize({0x8: 5})
        assert trace.initial_value(0x8) == 5
        assert trace.initial_value(0x10) is None

    def test_install_after_a_shared_one_leaves_the_adopted_dict(self):
        shared = {0x8: 5, 0x10: 6}
        trace = Trace()
        assert trace.initialize(shared, share=True) is shared
        trace.initialize({0x10: 7, 0x18: 8}, share=True)
        assert shared == {0x8: 5, 0x10: 6}
        assert [trace.load(a) for a in (0x8, 0x10, 0x18)] == [5, 7, 8]
        assert trace.memory_snapshot() == {0x8: 5, 0x10: 7, 0x18: 8}

    def test_writes_leave_the_initial_image(self):
        shared = {0x8: 5, 0x10: 6}
        trace = Trace()
        trace.initialize(shared, share=True)
        trace.record_write(0, 0x8, 1)
        trace.record_rmw(0, 0x10, expected=6, new_value=2)
        trace.record_unconditional_rmw(0, 0x18, 3)
        assert shared == {0x8: 5, 0x10: 6}
        assert trace.written() == {0x8: 1, 0x10: 2, 0x18: 3}
        assert trace.initial_value(0x8) == 5
        assert trace.record_read(1, 0x8).read_value == 1


class TestEventClassification:
    def test_release_write(self):
        trace = Trace()
        event = trace.record_write(0, 0x8, 1, MemOrder.RELEASE)
        assert event.is_release
        assert not event.is_acquire

    def test_acquire_read(self):
        trace = Trace()
        event = trace.record_read(0, 0x8, MemOrder.ACQUIRE)
        assert event.is_acquire
        assert not event.is_release

    def test_acq_rel_rmw_is_both(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        event = trace.record_rmw(0, 0x8, 1, 2, MemOrder.ACQ_REL)
        assert event.is_release
        assert event.is_acquire

    def test_plain_read_is_neither(self):
        trace = Trace()
        event = trace.record_read(0, 0x8)
        assert not event.is_acquire
        assert not event.is_release
        assert event.is_read_effect
        assert not event.is_write_effect


class TestSnapshots:
    def test_memory_snapshot_is_a_copy(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        snap = trace.memory_snapshot()
        snap[0x8] = 99
        assert trace.load(0x8) == 1

    def test_writes_filter(self):
        trace = Trace()
        trace.record_write(0, 0x8, 1)
        trace.record_read(0, 0x8)
        trace.record_rmw(0, 0x8, 1, 2)       # success
        trace.record_rmw(0, 0x8, 1, 3)       # failure (value is 2)
        assert len(trace.writes()) == 2
