"""Unit and property tests for repro.memory.address."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.address import (
    WORD_BYTES,
    HeapAllocator,
    line_address,
    line_index,
    word_aligned,
    words_in_line,
)


class TestLineMath:
    def test_line_address_masks_offset(self):
        assert line_address(0x1000, 64) == 0x1000
        assert line_address(0x103F, 64) == 0x1000
        assert line_address(0x1040, 64) == 0x1040

    def test_line_index(self):
        assert line_index(0, 64) == 0
        assert line_index(64, 64) == 1
        assert line_index(130, 64) == 2

    def test_words_in_line(self):
        words = list(words_in_line(0x1000, 64))
        assert len(words) == 8
        assert words[0] == 0x1000
        assert words[-1] == 0x1038

    def test_word_aligned(self):
        assert word_aligned(0x1000)
        assert not word_aligned(0x1001)

    @given(st.integers(0, 1 << 48))
    def test_line_address_idempotent(self, addr):
        la = line_address(addr, 64)
        assert line_address(la, 64) == la
        assert la <= addr < la + 64


class TestHeapAllocator:
    def test_sequential_allocations_are_contiguous(self):
        alloc = HeapAllocator(base=0x1000, line_bytes=64)
        a = alloc.alloc(3)
        b = alloc.alloc(2)
        assert b == a + 3 * WORD_BYTES

    def test_line_align_skips_to_boundary(self):
        alloc = HeapAllocator(base=0x1000, line_bytes=64)
        alloc.alloc(3)  # 24 bytes into the line
        b = alloc.alloc(1, line_align=True)
        assert b % 64 == 0
        assert b == 0x1040

    def test_line_align_noop_at_boundary(self):
        alloc = HeapAllocator(base=0x1000, line_bytes=64)
        assert alloc.alloc(1, line_align=True) == 0x1000

    def test_bytes_allocated(self):
        alloc = HeapAllocator(base=0x1000, line_bytes=64)
        alloc.alloc(4)
        assert alloc.bytes_allocated == 32

    def test_rejects_zero_words(self):
        with pytest.raises(ValueError):
            HeapAllocator().alloc(0)

    def test_rejects_unaligned_base(self):
        with pytest.raises(ValueError):
            HeapAllocator(base=0x1008, line_bytes=64)

    def test_arenas_are_disjoint(self):
        alloc = HeapAllocator(base=0x1000, line_bytes=64)
        a0 = alloc.arena(0)
        a1 = alloc.arena(1)
        block0 = [a0.alloc(8) for _ in range(100)]
        block1 = [a1.alloc(8) for _ in range(100)]
        shared = [alloc.alloc(8) for _ in range(100)]
        spans = []
        for addrs in (block0, block1, shared):
            spans.append((min(addrs), max(addrs) + 64))
        for i in range(3):
            for j in range(i + 1, 3):
                lo1, hi1 = spans[i]
                lo2, hi2 = spans[j]
                assert hi1 <= lo2 or hi2 <= lo1

    def test_arena_negative_id_rejected(self):
        with pytest.raises(ValueError):
            HeapAllocator().arena(-1)

    @given(st.lists(st.tuples(st.integers(1, 20), st.booleans()),
                    min_size=1, max_size=60))
    def test_allocations_never_overlap(self, requests):
        alloc = HeapAllocator(base=0x4000, line_bytes=64)
        taken = []
        for words, align in requests:
            addr = alloc.alloc(words, line_align=align)
            assert addr % WORD_BYTES == 0
            for start, end in taken:
                assert addr >= end or addr + words * WORD_BYTES <= start
            taken.append((addr, addr + words * WORD_BYTES))

    @given(st.integers(0, 7), st.integers(1, 20), st.integers(0, 40),
           st.sampled_from([32, 64, 128]))
    def test_alloc_lines_matches_aligned_allocs(self, lead, words, count,
                                                line_bytes):
        # One call lays chunks out exactly as one aligned alloc each.
        batched = HeapAllocator(base=0x4000, line_bytes=line_bytes)
        single = HeapAllocator(base=0x4000, line_bytes=line_bytes)
        if lead:
            batched.alloc(lead)
            single.alloc(lead)
        addrs = batched.alloc_lines(words, count)
        assert list(addrs) == [single.alloc(words, line_align=True)
                               for _ in range(count)]
        assert batched.bytes_allocated == single.bytes_allocated

    def test_alloc_lines_rejects_bad_sizes(self):
        alloc = HeapAllocator(base=0x1000, line_bytes=64)
        with pytest.raises(ValueError):
            alloc.alloc_lines(0, 2)
        with pytest.raises(ValueError):
            alloc.alloc_lines(2, -1)
        assert alloc.bytes_allocated == 0

    def test_alloc_lines_exhaustion_allocates_nothing(self):
        arena = HeapAllocator(base=0x1000, line_bytes=64).arena(
            0, arena_bytes=256)
        with pytest.raises(MemoryError):
            arena.alloc_lines(8, 5)
        assert arena.bytes_allocated == 0
        addrs = arena.alloc_lines(8, 4)
        assert list(addrs) == [addrs[0] + 64 * i for i in range(4)]
        assert arena.bytes_allocated == 256
