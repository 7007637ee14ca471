"""The ``hashmap`` workload: Michael's lock-free hash table.

Michael [SPAA'02] builds a dynamic lock-free hash table as an array of
bucket pointers, each rooting a Harris-style sorted list. Operations
hash to a bucket and run the list algorithm there — short chains make
this the latency-sensitive end of the workload spectrum, where persist
stalls are hardest to hide.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lfds.base import (
    KEY_MIN,
    LogFreeStructure,
    OpGen,
    RecoveryReport,
    Word,
)
from repro.lfds.harris import KEY, NEXT, VALUE, HarrisListOps
from repro.memory.address import WORD_BYTES, HeapAllocator

#: Byte offsets of the chain-node words the walkers read.
_KEY_OFF, _VALUE_OFF, _NEXT_OFF = KEY * 8, VALUE * 8, NEXT * 8


class HashMap(LogFreeStructure):
    """Lock-free hash table (Michael, SPAA'02)."""

    name = "hashmap"
    _walk_layout = ("buckets_base", "num_buckets", "_stride", "_max_chain")

    def __init__(self, allocator: HeapAllocator, num_buckets: int = 256,
                 max_chain: int = 1 << 16,
                 bucket_stride_words: int = 8) -> None:
        super().__init__(allocator)
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self._ops = HarrisListOps(allocator)
        self.num_buckets = num_buckets
        # Bucket head words are line-strided: at paper scale (tens of
        # thousands of buckets) two threads essentially never touch the
        # same bucket-array line, and the scaled-down reproduction must
        # not introduce false sharing the original doesn't have.
        self._stride = bucket_stride_words * WORD_BYTES
        self.buckets_base = allocator.alloc(
            num_buckets * bucket_stride_words, line_align=True)
        self._max_chain = max_chain

    def bucket_ptr(self, key: int) -> int:
        """Address of the bucket head word for ``key``."""
        return self.buckets_base + (key % self.num_buckets) * self._stride

    def insert(self, key: int, value: int, tid=None) -> OpGen:
        return self._ops.insert(self.bucket_ptr(key), key, value,
                                allocator=self._allocator_for(tid))

    def delete(self, key: int) -> OpGen:
        return self._ops.delete(self.bucket_ptr(key), key)

    def contains(self, key: int) -> OpGen:
        return self._ops.contains(self.bucket_ptr(key), key)

    def bucket_heads(self) -> range:
        """The bucket head words, in bucket order."""
        return range(self.buckets_base,
                     self.buckets_base + self.num_buckets * self._stride,
                     self._stride)

    def build_initial(self, keys: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        self._ops.build_chains(self.bucket_heads(), keys, memory)

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        report = self._campaign_report(image)
        if report is not None:
            return report
        problems, total, live = self._ops.walk(image, self.bucket_heads(),
                                               self._max_chain,
                                               bucket_prefix=True)
        return RecoveryReport(structure=self.name, ok=not problems,
                              problems=problems, reachable_nodes=total,
                              live_keys=live)

    # -- campaign walks (see LogFreeStructure._campaign_report) ----------
    #
    # The memo is ``(owner, counts, starts, keys)``: ``owner`` maps
    # each reachable node to its bucket, bucket ``i`` holds
    # ``counts[i]`` nodes and its live keys are
    # ``keys[starts[i]:starts[i + 1]]``. A bucket's walk reads only its
    # head word and the key, value and next words of its nodes, so the
    # buckets that own a written word are the only ones to re-walk.

    def _record_walk(self, image: Dict[int, Word]):
        owner: Dict[int, int] = {}
        found = self._walk_buckets(image, range(self.num_buckets), owner)
        if found is None:
            return None
        counts, starts, keys = found
        reachable = sum(counts)
        if len(owner) != reachable:
            return None   # a node on two chains: its words feed both
        return (owner, counts, starts, keys), reachable, keys

    def _delta_walk(self, image: Dict[int, Word], memo, written: Set[int]):
        owner, counts, starts, keys = memo
        base, stride = self.buckets_base, self._stride
        end = base + self.num_buckets * stride
        dirty = set()
        for addr in written:
            if base <= addr < end and not (addr - base) % stride:
                dirty.add((addr - base) // stride)
            for node in (addr - _KEY_OFF, addr - _VALUE_OFF,
                         addr - _NEXT_OFF):
                if node in owner:
                    dirty.add(owner[node])
        buckets = sorted(dirty)
        found = self._walk_buckets(image, buckets, {})
        if found is None:
            return None
        new_counts, _starts, new_keys = found
        reachable = (sum(counts) - sum(counts[i] for i in buckets)
                     + sum(new_counts))
        live = set(keys)
        for i in buckets:
            live.difference_update(keys[starts[i]:starts[i + 1]])
        live.update(new_keys)
        return reachable, live

    def _walk_buckets(self, image: Dict[int, Word], buckets: Iterable[int],
                      owner: Dict[int, int]
                      ) -> Optional[Tuple[array, array, List[int]]]:
        """Walk the chains of ``buckets`` (in order) as the full walker
        does; None if it would report a problem on any of them.

        Returns ``(counts, starts, keys)``: chain ``j`` has
        ``counts[j]`` nodes and live keys ``keys[starts[j]:starts[j +
        1]]``. Also maps each node to its bucket in ``owner``.
        """
        get = image.get
        base, stride = self.buckets_base, self._stride
        num_buckets, max_chain = self.num_buckets, self._max_chain
        counts = array("l")
        starts = array("l", [0])
        keys: List[int] = []
        add_key = keys.append
        for index in buckets:
            raw = get(base + index * stride)
            if raw is None:
                return None
            curr = raw & ~1
            prev_key = KEY_MIN
            length = 0
            while curr:   # != NULL
                length += 1
                key = get(curr + _KEY_OFF)
                nxt = get(curr + _NEXT_OFF)
                if (length > max_chain or key is None or nxt is None
                        or get(curr + _VALUE_OFF) is None
                        or key <= prev_key):
                    return None
                if not nxt & 1:
                    if key % num_buckets != index:
                        return None
                    add_key(key)
                owner[curr] = index
                prev_key = key
                curr = nxt & ~1
            counts.append(length)
            starts.append(len(keys))
        return counts, starts, keys

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        return self.validate_image(memory).live_keys or set()
