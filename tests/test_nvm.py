"""Unit and property tests for the NVM controller and persist log."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import MachineConfig, NVMMode
from repro.memory.nvm import NVMController


def _config(**kwargs):
    defaults = dict(num_memory_controllers=2, nvm_cached_occupancy=16)
    defaults.update(kwargs)
    return MachineConfig(**defaults)


def _words(addr, value, event):
    return {addr: (value, event)}


class TestPersistTiming:
    def test_unloaded_latency_cached(self):
        nvm = NVMController(_config())
        record = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=100)
        assert record.complete_time == 100 + 120

    def test_unloaded_latency_uncached(self):
        nvm = NVMController(_config(nvm_mode=NVMMode.UNCACHED))
        record = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=100)
        assert record.complete_time == 100 + 350

    def test_channel_occupancy_serializes_same_channel(self):
        nvm = NVMController(_config(num_memory_controllers=1))
        first = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0)
        second = nvm.issue_persist(0x40, _words(0x40, 2, 1), now=0)
        assert second.complete_time == first.complete_time + 16

    def test_different_channels_parallel(self):
        nvm = NVMController(_config(num_memory_controllers=2))
        first = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0)
        second = nvm.issue_persist(0x40, _words(0x40, 2, 1), now=0)
        assert first.complete_time == second.complete_time == 120

    def test_channel_for_interleaves(self):
        nvm = NVMController(_config(num_memory_controllers=2))
        assert nvm.channel_for(0x0) != nvm.channel_for(0x40)
        assert nvm.channel_for(0x0) == nvm.channel_for(0x80)

    def test_after_defers_issue(self):
        nvm = NVMController(_config())
        record = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0,
                                   after=500)
        assert record.issue_time == 500
        assert record.complete_time == 620

    def test_ordered_after_pipelines(self):
        nvm = NVMController(_config(num_memory_controllers=2))
        first = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0)
        second = nvm.issue_persist(0x40, _words(0x40, 2, 1), now=0,
                                   ordered_after=first)
        # Issued immediately, but ack constrained behind first + slot.
        assert second.issue_time == 0
        assert second.complete_time == first.complete_time + 16

    def test_ordered_after_no_constraint_when_late(self):
        nvm = NVMController(_config(num_memory_controllers=2))
        first = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0)
        second = nvm.issue_persist(0x40, _words(0x40, 2, 1), now=1000,
                                   ordered_after=first)
        assert second.complete_time == 1120

    def test_same_line_persists_complete_in_issue_order(self):
        nvm = NVMController(_config())
        first = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0)
        second = nvm.issue_persist(0x0, _words(0x0, 2, 1), now=0)
        assert second.complete_time > first.complete_time


class TestPersistLog:
    def test_log_in_durability_order(self):
        nvm = NVMController(_config(num_memory_controllers=2))
        slow = nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0,
                                 after=1000)
        fast = nvm.issue_persist(0x40, _words(0x40, 2, 1), now=0)
        log = nvm.persist_log()
        assert [r.issue_seq for r in log] == [fast.issue_seq,
                                              slow.issue_seq]

    def test_image_after_prefix(self):
        nvm = NVMController(_config(num_memory_controllers=1))
        nvm.issue_persist(0x0, _words(0x0, 1, 0), now=0)
        nvm.issue_persist(0x0, _words(0x0, 2, 1), now=500)
        assert nvm.image_after_prefix(0) == {}
        assert nvm.image_after_prefix(1) == {0x0: 1}
        assert nvm.image_after_prefix(2) == {0x0: 2}

    def test_image_prefix_bounds(self):
        nvm = NVMController(_config())
        with pytest.raises(ValueError):
            nvm.image_after_prefix(1)
        with pytest.raises(ValueError):
            nvm.image_after_prefix(-1)

    def test_baseline_included(self):
        nvm = NVMController(_config())
        nvm.set_baseline_image({0x8: 42})
        assert nvm.image_after_prefix(0) == {0x8: 42}

    def test_baseline_overwritten_by_persists(self):
        nvm = NVMController(_config())
        nvm.set_baseline_image({0x0: 42})
        nvm.issue_persist(0x0, _words(0x0, 99, 3), now=0)
        assert nvm.final_image() == {0x0: 99}

    def test_record_accessors(self):
        nvm = NVMController(_config())
        record = nvm.issue_persist(
            0x0, {0x0: (5, 11), 0x8: (6, 12)}, now=0)
        assert record.word_events() == {0x0: 11, 0x8: 12}


class TestPersistProperties:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 200)),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_completion_never_precedes_issue(self, requests):
        nvm = NVMController(_config())
        now = 0
        for line, delay in requests:
            now += delay
            record = nvm.issue_persist(line * 64,
                                       _words(line * 64, 1, 0), now)
            assert record.complete_time >= record.issue_time + 120

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_same_line_durability_order_matches_issue_order(self, lines):
        nvm = NVMController(_config(num_memory_controllers=2))
        for seq, line in enumerate(lines):
            nvm.issue_persist(line * 64, _words(line * 64, seq, seq),
                              now=0)
        last_seen = {}
        for record in nvm.persist_log():
            if record.line_addr in last_seen:
                assert record.issue_seq > last_seen[record.line_addr]
            last_seen[record.line_addr] = record.issue_seq

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_final_image_is_last_value_per_word(self, lines):
        nvm = NVMController(_config())
        expected = {}
        for seq, line in enumerate(lines):
            addr = line * 64
            nvm.issue_persist(addr, _words(addr, seq, seq), now=0)
            expected[addr] = seq
        assert nvm.final_image() == expected
