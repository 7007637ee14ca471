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

# Hot-path aliases: a member access on the Enum class is a metaclass
# lookup, and the op sites below evaluate these on every step.
_ACQUIRE = MemOrder.ACQUIRE
_RELEASE = MemOrder.RELEASE

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
            raw = yield load(pred_ptr, _ACQUIRE, site="traverse-head")
            curr = unmark(raw) if raw is not None else NULL
            restart = False
            while True:
                if curr == NULL:
                    return pred_ptr, NULL, None
                nxt = yield load(curr + _NEXT_OFF, _ACQUIRE,
                                 site="traverse-next")
                if is_marked(nxt):
                    # curr is logically deleted: help unlink it.
                    ok, _ = yield cas(pred_ptr, curr, unmark(nxt),
                                      _RELEASE, site="help-unlink-cas")
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
            ok, _ = yield cas(pred_ptr, curr, node, _RELEASE, site="link-cas")
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
            nxt = yield load(field(curr, NEXT), _ACQUIRE, site="read-next")
            if is_marked(nxt):
                continue  # a concurrent delete got here first: retry
            succ = nxt if nxt is not None else NULL
            ok, _ = yield cas(field(curr, NEXT), succ, mark(succ),
                              _RELEASE, site="mark-cas")
            if not ok:
                continue
            # Best-effort physical unlink; traversals will help if lost.
            yield cas(pred_ptr, curr, succ, _RELEASE, site="unlink-cas")
            # Free the node: the malloc-metadata store of SynchroBench's
            # node reclamation (the chunk belongs to another thread's
            # arena most of the time).
            yield free_header_write(curr)
            return True

    def contains(self, head_ptr: int, key: int) -> OpGen:
        """Wait-free membership test."""
        raw = yield load(head_ptr, _ACQUIRE, site="traverse-head")
        curr = unmark(raw) if raw is not None else NULL
        while curr != NULL:
            nxt = yield load(curr + _NEXT_OFF, _ACQUIRE, site="traverse-next")
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

    def build_chains(self, head_ptrs: Sequence[int], keys: Iterable[int],
                     memory: Dict[int, Word]) -> None:
        """Materialize sorted chains into ``memory``, one per head word.

        Chain ``i`` is rooted at ``head_ptrs[i]`` and holds the keys
        that hash to it (``key % len(head_ptrs) == i``, as in
        :meth:`walk`; one head takes every key) in increasing order,
        each with value ``key + 1``. Nodes are allocated chain by
        chain, and in key order within a chain.

        Initial-build nodes are line-aligned: with the reproduction's
        compressed key space, packing unrelated keys into one line
        would create false sharing that the paper's 64K-1M-node
        structures do not exhibit.
        """
        chains = len(head_ptrs)
        order = sorted(set(keys))
        if chains > 1:
            # Stable, so each chain's keys stay in increasing order.
            order.sort(key=chains.__rmod__)
        raws = self.allocator.alloc_lines(NODE_WORDS + 1, len(order))
        memory.update(dict.fromkeys(head_ptrs, NULL))
        chain = -1
        # field()/header_addr() inlined: [header][key][value][next].
        # ``link`` is the word the next node links into: its chain's
        # head word, or its predecessor's next word (NULL until then).
        for key, raw in zip(order, raws):
            node = raw + 8
            if key % chains != chain:
                chain = key % chains
                link = head_ptrs[chain]
            memory[link] = node
            memory[raw] = NODE_WORDS
            memory[node] = key
            memory[node + 8] = key + 1
            link = node + 16
            memory[link] = NULL

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
