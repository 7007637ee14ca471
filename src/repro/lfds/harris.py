"""Harris lock-free sorted linked list — the shared list engine.

Implements Harris's algorithm [DISC'01] over a *head pointer word*:
both the standalone linked list and every bucket of Michael's hash
table [SPAA'02] run on this engine (Michael's lists are exactly
Harris lists rooted at a bucket word).

Annotation discipline (the DRF labelling of Section 6.1):

* link-word loads during traversal: **acquire**;
* the linking / marking / unlinking CASes: **release**;
* node-field initialization stores and key loads: plain.

Deletion is two-phase: a release-CAS sets the mark bit in the victim's
next word (logical delete, the linearization point), then the node is
physically unlinked by a best-effort CAS — traversals help unlink any
marked node they encounter.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.consistency.events import MemOrder
from repro.core.thread import cas, load, store
from repro.lfds.base import (
    KEY_MIN,
    NULL,
    OpGen,
    Word,
    alloc_header_write,
    field,
    free_header_write,
    header_addr,
    is_marked,
    mark,
    unmark,
)
from repro.memory.address import HeapAllocator

# Node layout: [key, value, next]
KEY, VALUE, NEXT = 0, 1, 2
NODE_WORDS = 3
# Byte offsets (= field(node, X) - node) inlined in the traversal hot
# loops: search runs once per data-structure operation and its field()
# calls are measurable at bench scale.
_KEY_OFF = KEY * 8
_VALUE_OFF = VALUE * 8
_NEXT_OFF = NEXT * 8


class HarrisListOps:
    """Harris-list operations rooted at an arbitrary pointer word."""

    def __init__(self, allocator: HeapAllocator) -> None:
        self.allocator = allocator

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def search(self, head_ptr: int, key: int) -> OpGen:
        """Find the insertion window for ``key``.

        Returns ``(pred_ptr, curr, curr_key)`` where ``pred_ptr`` is
        the address of the link word pointing at ``curr`` (an unmarked
        node with ``curr_key >= key``, or NULL at list end). Helps
        unlink marked nodes along the way.
        """
        while True:
            pred_ptr = head_ptr
            raw = yield load(pred_ptr, MemOrder.ACQUIRE,
                             site="traverse-head")
            curr = unmark(raw) if raw is not None else NULL
            restart = False
            while True:
                if curr == NULL:
                    return pred_ptr, NULL, None
                nxt = yield load(curr + _NEXT_OFF, MemOrder.ACQUIRE,
                                 site="traverse-next")
                if is_marked(nxt):
                    # curr is logically deleted: help unlink it.
                    ok, _ = yield cas(pred_ptr, curr, unmark(nxt),
                                      MemOrder.RELEASE,
                                      site="help-unlink-cas")
                    if not ok:
                        restart = True
                        break
                    curr = unmark(nxt)
                    continue
                curr_key = yield load(curr + _KEY_OFF,
                                      site="traverse-key")
                if curr_key >= key:
                    return pred_ptr, curr, curr_key
                pred_ptr = curr + _NEXT_OFF
                curr = nxt if nxt is not None else NULL
            if restart:
                continue

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, head_ptr: int, key: int, value: int,
               allocator: Optional[HeapAllocator] = None) -> OpGen:
        """Insert ``key``; True iff it was absent."""
        allocator = allocator or self.allocator
        while True:
            pred_ptr, curr, curr_key = yield from self.search(head_ptr, key)
            if curr != NULL and curr_key == key:
                return False
            node = allocator.alloc(NODE_WORDS + 1) + 8
            yield alloc_header_write(node, NODE_WORDS)
            yield store(field(node, KEY), key, site="node-init")
            yield store(field(node, VALUE), value, site="node-init")
            yield store(field(node, NEXT), curr, site="node-init")
            ok, _ = yield cas(pred_ptr, curr, node, MemOrder.RELEASE,
                              site="link-cas")
            if ok:
                return True
            # Window moved: retry (the unnlinked node is simply leaked,
            # as in reclamation-free persistent-LFD benchmarks).

    def delete(self, head_ptr: int, key: int) -> OpGen:
        """Delete ``key``; True iff it was present."""
        while True:
            pred_ptr, curr, curr_key = yield from self.search(head_ptr, key)
            if curr == NULL or curr_key != key:
                return False
            nxt = yield load(field(curr, NEXT), MemOrder.ACQUIRE,
                             site="read-next")
            if is_marked(nxt):
                continue  # a concurrent delete got here first: retry
            succ = nxt if nxt is not None else NULL
            ok, _ = yield cas(field(curr, NEXT), succ, mark(succ),
                              MemOrder.RELEASE, site="mark-cas")
            if not ok:
                continue
            # Best-effort physical unlink; traversals will help if lost.
            yield cas(pred_ptr, curr, succ, MemOrder.RELEASE,
                      site="unlink-cas")
            # Free the node: the malloc-metadata store of SynchroBench's
            # node reclamation (the chunk belongs to another thread's
            # arena most of the time).
            yield free_header_write(curr)
            return True

    def contains(self, head_ptr: int, key: int) -> OpGen:
        """Wait-free membership test."""
        raw = yield load(head_ptr, MemOrder.ACQUIRE,
                         site="traverse-head")
        curr = unmark(raw) if raw is not None else NULL
        while curr != NULL:
            nxt = yield load(curr + _NEXT_OFF, MemOrder.ACQUIRE,
                             site="traverse-next")
            curr_key = yield load(curr + _KEY_OFF,
                                  site="traverse-key")
            if curr_key == key:
                return not is_marked(nxt)
            if curr_key > key:
                return False
            curr = unmark(nxt) if nxt is not None else NULL
        return False

    # ------------------------------------------------------------------
    # Direct-memory build / inspection (no simulated ops)
    # ------------------------------------------------------------------

    def build_chain(self, head_ptr: int, keys: Iterable[int],
                    memory: Dict[int, Word], value_of) -> None:
        """Materialize a sorted chain into ``memory`` at ``head_ptr``.

        Initial-build nodes are line-aligned: with the reproduction's
        compressed key space, packing unrelated keys into one line
        would create false sharing that the paper's 64K-1M-node
        structures do not exhibit.
        """
        sorted_keys = sorted(set(keys))
        alloc = self.allocator.alloc
        node_addrs = [
            alloc(NODE_WORDS + 1, line_align=True) + 8
            for _ in sorted_keys
        ]
        memory[head_ptr] = node_addrs[0] if node_addrs else NULL
        last = len(node_addrs) - 1
        # field()/header_addr() inlined: [header][key][value][next].
        for i, (key, addr) in enumerate(zip(sorted_keys, node_addrs)):
            memory[addr - 8] = NODE_WORDS
            memory[addr] = key
            memory[addr + 8] = value_of(key)
            memory[addr + 16] = node_addrs[i + 1] if i < last else NULL

    def walk(self, image: Dict[int, Word], head_ptrs: Sequence[int],
             max_nodes: int, bucket_prefix: bool = False
             ) -> Tuple[List[str], int, Set[int]]:
        """Validate the chains rooted at ``head_ptrs`` in a crash image.

        Chain ``i`` is bucket ``i`` of a ``len(head_ptrs)``-bucket hash
        table, so each live key on it must hash to ``i`` (vacuous for a
        single chain); ``bucket_prefix`` labels its problems
        ``bucket i:``. Returns (problems, reachable node count, live
        key set). A reachable node with missing (never-persisted)
        fields is the tell-tale ARP failure of Figure 1. Keys must
        strictly increase along a chain, so a chain stops at its first
        ordering violation, which any cycle hits within one lap.

        One loop over every chain, with ``field``/``unmark``/
        ``is_marked`` inlined: this runs once per crash point over
        the whole pre-populated structure.
        """
        get = image.get
        problems: List[str] = []
        live: Set[int] = set()
        add_live = live.add
        misplaced: List[int] = []
        buckets = len(head_ptrs)
        count = 0
        for index, head_ptr in enumerate(head_ptrs):
            problem = None
            raw = get(head_ptr)
            if raw is None:
                problem = f"head pointer {head_ptr:#x} not in NVM"
                raw = NULL
            curr = raw & ~1
            prev_key = KEY_MIN
            limit = count + max_nodes
            while curr:   # != NULL
                count += 1
                if count > limit:
                    problem = (f"chain from {head_ptr:#x} exceeds "
                               f"{max_nodes} nodes (cycle or corruption)")
                    break
                key = get(curr + _KEY_OFF)
                nxt = get(curr + _NEXT_OFF)
                if (key is None or nxt is None
                        or get(curr + _VALUE_OFF) is None):
                    problem = (f"node {curr:#x} is linked into the chain "
                               "but its fields never persisted "
                               "(inconsistent cut)")
                    break
                if key <= prev_key:
                    problem = (f"chain ordering violated at node "
                               f"{curr:#x}: {key} after {prev_key}")
                    break
                if not nxt & 1:
                    add_live(key)
                    if key % buckets != index:
                        misplaced.append(key)
                prev_key = key
                curr = nxt & ~1
            if problem is not None or misplaced:
                label = f"bucket {index}: " if bucket_prefix else ""
                if problem is not None:
                    problems.append(label + problem)
                problems.extend(f"{label}key {key} hashed elsewhere"
                                for key in misplaced)
                misplaced.clear()
        return problems, count, live
