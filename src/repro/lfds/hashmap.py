"""The ``hashmap`` workload: Michael's lock-free hash table.

Michael [SPAA'02] builds a dynamic lock-free hash table as an array of
bucket pointers, each rooting a Harris-style sorted list. Operations
hash to a bucket and run the list algorithm there — short chains make
this the latency-sensitive end of the workload spectrum, where persist
stalls are hardest to hide.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.lfds.base import (
    LogFreeStructure,
    NULL,
    OpGen,
    RecoveryReport,
    Word,
)
from repro.lfds.harris import HarrisListOps
from repro.memory.address import WORD_BYTES, HeapAllocator


class HashMap(LogFreeStructure):
    """Lock-free hash table (Michael, SPAA'02)."""

    name = "hashmap"

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

    def build_initial(self, keys: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        by_bucket: Dict[int, list] = {}
        for key in keys:
            by_bucket.setdefault(key % self.num_buckets, []).append(key)
        for bucket in range(self.num_buckets):
            head_ptr = self.buckets_base + bucket * self._stride
            bucket_keys = by_bucket.get(bucket)
            if bucket_keys:
                self._ops.build_chain(head_ptr, bucket_keys, memory,
                                      value_of=lambda k: k + 1)
            else:
                memory[head_ptr] = NULL

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        heads = range(self.buckets_base,
                      self.buckets_base + self.num_buckets * self._stride,
                      self._stride)
        problems, total, live = self._ops.walk(image, heads,
                                               self._max_chain,
                                               bucket_prefix=True)
        return RecoveryReport(structure=self.name, ok=not problems,
                              problems=problems, reachable_nodes=total,
                              live_keys=live)

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        return self.validate_image(memory).live_keys or set()
