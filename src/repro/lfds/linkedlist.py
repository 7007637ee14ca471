"""The ``linkedlist`` workload: a Harris lock-free sorted list.

This is the paper's read-heaviest workload — every operation traverses
half the list on average, so persistency stalls are amortized over long
acquire-load chains (Section 6.4 explains why its LRP-vs-BB gap is the
smallest of the five LFDs).
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.lfds.base import (
    LogFreeStructure,
    OpGen,
    RecoveryReport,
    Word,
)
from repro.lfds.harris import HarrisListOps
from repro.memory.address import HeapAllocator


class LinkedList(LogFreeStructure):
    """Sorted lock-free linked list (Harris, DISC'01)."""

    name = "linkedlist"

    def __init__(self, allocator: HeapAllocator,
                 max_nodes: int = 1 << 22) -> None:
        super().__init__(allocator)
        self._ops = HarrisListOps(allocator)
        self.head_ptr = allocator.alloc(1, line_align=True)
        self._max_nodes = max_nodes

    def insert(self, key: int, value: int, tid=None) -> OpGen:
        return self._ops.insert(self.head_ptr, key, value,
                                allocator=self._allocator_for(tid))

    def delete(self, key: int) -> OpGen:
        return self._ops.delete(self.head_ptr, key)

    def contains(self, key: int) -> OpGen:
        return self._ops.contains(self.head_ptr, key)

    def build_initial(self, keys: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        self._ops.build_chains((self.head_ptr,), keys, memory)

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        problems, count, live = self._ops.walk(image, (self.head_ptr,),
                                               self._max_nodes)
        return RecoveryReport(structure=self.name, ok=not problems,
                              problems=problems, reachable_nodes=count,
                              live_keys=live)

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        _problems, _count, live = self._ops.walk(memory, (self.head_ptr,),
                                                 self._max_nodes)
        return live
