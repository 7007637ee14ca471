"""Address arithmetic and the simulated heap allocator.

The simulated machine is byte-addressed; all workload accesses are
8-byte words. Cache-line math (line address, home tile selection) lives
here so every subsystem agrees on it.

The :class:`HeapAllocator` is a bump allocator handing out node-sized
chunks to the lock-free data structures. Consecutive allocations from
one thread land on adjacent lines — exactly the locality that causes
BB's "write to a cache line holding an older epoch" intra-thread
conflicts (Section 2.2.1), so it is load-bearing for the evaluation's
shape, not just a convenience.
"""

from __future__ import annotations

from typing import Iterator, Optional

WORD_BYTES = 8


def word_aligned(addr: int) -> bool:
    """True if ``addr`` is 8-byte aligned."""
    return addr % WORD_BYTES == 0


def line_address(addr: int, line_bytes: int) -> int:
    """The address of the cache line containing ``addr``."""
    return addr & ~(line_bytes - 1)


def line_index(addr: int, line_bytes: int) -> int:
    """Sequential index of the line containing ``addr``."""
    return addr // line_bytes


def words_in_line(line_addr: int, line_bytes: int) -> Iterator[int]:
    """All word addresses inside the line at ``line_addr``."""
    return iter(range(line_addr, line_addr + line_bytes, WORD_BYTES))


class HeapAllocator:
    """Bump allocator for the simulated persistent heap.

    Each thread may use a private arena (``HeapAllocator.arena``) so
    that parallel allocations do not false-share, mirroring a per-thread
    memory pool in a real LFD runtime.
    """

    def __init__(self, base: int = 0x1000_0000, line_bytes: int = 64,
                 capacity_bytes: Optional[int] = None) -> None:
        if base % line_bytes:
            raise ValueError("heap base must be line-aligned")
        self._base = base
        self._next = base
        self._line_bytes = line_bytes
        self._limit = None if capacity_bytes is None else base + capacity_bytes

    @property
    def bytes_allocated(self) -> int:
        """Total bytes handed out so far."""
        return self._next - self._base

    def alloc(self, num_words: int, *, line_align: bool = False) -> int:
        """Allocate ``num_words`` contiguous 8-byte words.

        With ``line_align`` the chunk starts on a fresh cache line
        (used for nodes that must not false-share with a neighbour).
        """
        if num_words <= 0:
            raise ValueError("allocation must be at least one word")
        if line_align and self._next % self._line_bytes:
            self._next += self._line_bytes - self._next % self._line_bytes
        addr = self._next
        self._next += num_words * WORD_BYTES
        if self._limit is not None and self._next > self._limit:
            raise MemoryError(
                f"arena exhausted at {addr:#x} (base {self._base:#x}, "
                f"capacity {self._limit - self._base} bytes)")
        return addr

    def alloc_lines(self, num_words: int, count: int) -> range:
        """Allocate ``count`` chunks of ``num_words`` words, each
        starting on a fresh cache line, and return their addresses.

        The same addresses and end pointer as ``count`` calls of
        ``alloc(num_words, line_align=True)``: the chunks sit one
        stride of whole lines apart, so a range holds them all and a
        structure builder finds a node's address from its index.
        Nothing is allocated when ``count`` is 0 or the run does not
        fit.
        """
        if num_words <= 0:
            raise ValueError("allocation must be at least one word")
        if count < 0:
            raise ValueError("chunk count must be non-negative")
        line = self._line_bytes
        first = -(-self._next // line) * line   # round up to a line
        stride = -(-num_words * WORD_BYTES // line) * line
        chunks = range(first, first + count * stride, stride)
        if count:
            end = chunks[-1] + num_words * WORD_BYTES
            if self._limit is not None and end > self._limit:
                raise MemoryError(
                    f"arena exhausted at {chunks[-1]:#x} (base "
                    f"{self._base:#x}, capacity "
                    f"{self._limit - self._base} bytes)")
            self._next = end
        return chunks

    def arena(self, arena_id: int,
              arena_bytes: int = 64 << 20) -> "HeapAllocator":
        """A disjoint per-thread sub-allocator.

        Arenas are carved out of a reserved region far above the shared
        bump pointer, indexed by ``arena_id``. Exhausting an arena
        raises MemoryError rather than silently bleeding into its
        neighbour.
        """
        if arena_id < 0:
            raise ValueError("arena_id must be non-negative")
        base = self._base + (1 << 40) + arena_id * arena_bytes
        return HeapAllocator(base=line_address(base, self._line_bytes),
                             line_bytes=self._line_bytes,
                             capacity_bytes=arena_bytes)
