"""The ``skiplist`` workload: a lock-free skip list.

Follows the standard lock-free skip list design (Fraser/Herlihy-Shavit,
as used by SynchroBench's skip lists): the level-0 list is the source
of truth and its insert/mark CASes are the linearization points; upper
levels are a probabilistic index maintained with best-effort CASes and
helped unlinking in ``find``.

One reproduction-friendly twist: a node's tower height is derived
deterministically from its key (a hash-based geometric distribution)
instead of an RNG, so all mechanisms and thread counts build an
identical index shape for a given key sequence — removing a noise
source from the Figure 5/7/8 comparisons without changing the access
pattern.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.consistency.events import MemOrder
from repro.core.thread import cas, load, store
from repro.lfds.base import (
    KEY_MIN,
    LogFreeStructure,
    NULL,
    OpGen,
    RecoveryReport,
    Word,
    alloc_header_write,
    field,
    free_header_write,
    header_addr,
    is_marked,
    mark,
    unmark,
)
from repro.memory.address import WORD_BYTES, HeapAllocator

# Hot-path aliases: a member access on the Enum class is a metaclass
# lookup, and the op sites below evaluate these on every step.
_ACQUIRE = MemOrder.ACQUIRE
_RELEASE = MemOrder.RELEASE

# Node layout: [key, value, level, next_0 .. next_{level-1}]
KEY, VALUE, LEVEL = 0, 1, 2
HEADER_WORDS = 3
# Byte offsets inlined in the traversal/build hot paths:
# field(node, KEY) == node, next-pointer for ``level`` is
# node + _NEXT_BASE + 8 * level.
_KEY_OFF = KEY * 8
_VALUE_OFF = VALUE * 8
_LEVEL_OFF = LEVEL * 8
_NEXT_BASE = HEADER_WORDS * 8


def _mix(key: int) -> int:
    """Deterministic 64-bit hash (splitmix64 finalizer)."""
    h = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 31)


class SkipList(LogFreeStructure):
    """Lock-free skip list with key-deterministic tower heights."""

    name = "skiplist"
    _walk_layout = ("head", "max_level", "_max_nodes")

    def __init__(self, allocator: HeapAllocator, max_level: int = 14,
                 max_nodes: int = 1 << 22) -> None:
        super().__init__(allocator)
        self.max_level = max_level
        self._max_nodes = max_nodes
        # Head tower: full-height sentinel with key KEY_MIN.
        self.head = allocator.alloc(HEADER_WORDS + max_level,
                                    line_align=True)

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------

    def _next_addr(self, node: int, level: int) -> int:
        return field(node, HEADER_WORDS + level)

    def level_for(self, key: int) -> int:
        """Tower height for ``key`` (geometric, p=1/2, deterministic)."""
        bits = _mix(key)
        level = 1
        while bits & 1 and level < self.max_level:
            level += 1
            bits >>= 1
        return level

    def head_initial_memory(self) -> Dict[int, Word]:
        """Head tower contents for an empty skip list."""
        memory: Dict[int, Word] = {
            field(self.head, KEY): KEY_MIN,
            field(self.head, VALUE): 0,
            field(self.head, LEVEL): self.max_level,
        }
        for level in range(self.max_level):
            memory[self._next_addr(self.head, level)] = NULL
        return memory

    # ------------------------------------------------------------------
    # Traversal with helping
    # ------------------------------------------------------------------

    def find(self, key: int) -> OpGen:
        """Per-level predecessors/successors of ``key``, unlinking
        marked nodes encountered along the way."""
        while True:
            retry = False
            preds: List[int] = [self.head] * self.max_level
            succs: List[int] = [NULL] * self.max_level
            pred = self.head
            for level in range(self.max_level - 1, -1, -1):
                next_off = _NEXT_BASE + (level << 3)
                raw = yield load(pred + next_off, _ACQUIRE)
                curr = unmark(raw) if raw is not None else NULL
                while True:
                    if curr == NULL:
                        break
                    raw_next = yield load(curr + next_off, _ACQUIRE)
                    if is_marked(raw_next):
                        ok, _ = yield cas(pred + next_off,
                                          curr, unmark(raw_next), _RELEASE)
                        if not ok:
                            retry = True
                            break
                        curr = unmark(raw_next)
                        continue
                    curr_key = yield load(curr + _KEY_OFF)
                    if curr_key < key:
                        pred = curr
                        curr = (unmark(raw_next)
                                if raw_next is not None else NULL)
                    else:
                        break
                if retry:
                    break
                preds[level] = pred
                succs[level] = curr
            if not retry:
                return preds, succs

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def insert(self, key: int, value: int, tid=None) -> OpGen:
        height = self.level_for(key)
        while True:
            preds, succs = yield from self.find(key)
            if succs[0] != NULL:
                found_key = yield load(field(succs[0], KEY))
                if found_key == key:
                    return False
            node = self._alloc_node(HEADER_WORDS + height, tid)
            yield alloc_header_write(node, HEADER_WORDS + height)
            yield store(field(node, KEY), key)
            yield store(field(node, VALUE), value)
            yield store(field(node, LEVEL), height)
            for level in range(height):
                yield store(self._next_addr(node, level), succs[level])
            # Level-0 link: the linearization point.
            ok, _ = yield cas(self._next_addr(preds[0], 0), succs[0],
                              node, _RELEASE)
            if not ok:
                continue
            yield from self._link_upper_levels(node, height, preds, succs,
                                               key)
            return True

    def _link_upper_levels(self, node: int, height: int,
                           preds: List[int], succs: List[int],
                           key: int) -> OpGen:
        """Best-effort index linking above level 0."""
        for level in range(1, height):
            attempts = 0
            while attempts < 3:
                succ = succs[level]
                raw_own = yield load(self._next_addr(node, level), _ACQUIRE)
                if is_marked(raw_own):
                    return None   # node concurrently deleted: stop
                if raw_own != succ:
                    ok, _ = yield cas(self._next_addr(node, level),
                                      raw_own, succ, _RELEASE)
                    if not ok:
                        attempts += 1
                        continue
                ok, _ = yield cas(self._next_addr(preds[level], level),
                                  succ, node, _RELEASE)
                if ok:
                    break
                attempts += 1
                preds, succs = yield from self.find(key)
                if succs[0] != node:
                    return None   # node deleted meanwhile: stop linking
        return None

    def delete(self, key: int) -> OpGen:
        while True:
            _preds, succs = yield from self.find(key)
            node = succs[0]
            if node == NULL:
                return False
            node_key = yield load(field(node, KEY))
            if node_key != key:
                return False
            height = yield load(field(node, LEVEL))
            # Mark the index levels top-down (best effort).
            for level in range(height - 1, 0, -1):
                while True:
                    raw = yield load(self._next_addr(node, level), _ACQUIRE)
                    if is_marked(raw):
                        break
                    ok, _ = yield cas(self._next_addr(node, level), raw,
                                      mark(raw), _RELEASE)
                    if ok:
                        break
            # Level-0 mark: the linearization point.
            while True:
                raw = yield load(self._next_addr(node, 0), _ACQUIRE)
                if is_marked(raw):
                    return False  # a concurrent delete won
                ok, _ = yield cas(self._next_addr(node, 0), raw,
                                  mark(raw), _RELEASE)
                if ok:
                    yield from self.find(key)  # help the physical unlink
                    # Reclaim the tower (malloc-metadata store).
                    yield free_header_write(node)
                    return True

    def contains(self, key: int) -> OpGen:
        """Traverse the index without helping (read-only)."""
        pred = self.head
        for level in range(self.max_level - 1, -1, -1):
            next_off = _NEXT_BASE + (level << 3)
            raw = yield load(pred + next_off, _ACQUIRE)
            curr = unmark(raw) if raw is not None else NULL
            while curr != NULL:
                raw_next = yield load(curr + next_off, _ACQUIRE)
                curr_key = yield load(curr + _KEY_OFF)
                if curr_key < key:
                    pred = curr
                    curr = unmark(raw_next) if raw_next is not None else NULL
                    continue
                if curr_key == key and level == 0:
                    return not is_marked(raw_next)
                break
        return False

    # ------------------------------------------------------------------
    # Direct-memory build
    # ------------------------------------------------------------------

    def build_initial(self, keys: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        """Place every tower in key order, linking each of its levels
        behind the last tower placed at that level; the last tower of
        each level ends it with NULL. Towers differ in height, so each
        takes its own line-aligned chunk as it is placed."""
        memory.update(self.head_initial_memory())
        sorted_keys = sorted(set(keys))
        level_for = self.level_for
        alloc = self.allocator.alloc
        last_at_level = [self.head] * self.max_level
        # field()/header_addr()/_next_addr() inlined: the build runs
        # once per node and dominates setup at paper scales.
        for key in sorted_keys:
            height = level_for(key)
            raw = alloc(HEADER_WORDS + height + 1, line_align=True)
            node = raw + 8
            memory[raw] = HEADER_WORDS + height
            memory[node] = key
            memory[node + 8] = key + 1
            memory[node + 16] = height
            for level in range(height):
                memory[last_at_level[level] + _NEXT_BASE + (level << 3)] = node
                last_at_level[level] = node
        for level, node in enumerate(last_at_level):
            memory[node + _NEXT_BASE + (level << 3)] = NULL

    # ------------------------------------------------------------------
    # Recovery validation
    # ------------------------------------------------------------------

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        """Walk every level's chain from the head tower.

        Keys must strictly increase along a level, so a level stops at
        its first ordering violation, which any cycle hits within one
        lap. ``field``/``_next_addr``/``unmark``/``is_marked`` are
        inlined: this runs once per crash point over the whole
        pre-populated structure.
        """
        report = self._campaign_report(image)
        if report is not None:
            return report
        get = image.get
        problems: List[str] = []
        live: Set[int] = set()
        add_live = live.add
        count = 0
        max_nodes = self._max_nodes
        for level in range(self.max_level):
            next_off = _NEXT_BASE + (level << 3)
            raw = get(self.head + next_off)
            if raw is None:
                problems.append(f"head tower level {level} not in NVM")
                continue
            curr = raw & ~1
            prev_key = KEY_MIN
            steps = 0
            while curr:   # != NULL
                steps += 1
                if steps > max_nodes:
                    problems.append(f"level {level} chain exceeds bound")
                    break
                key = get(curr + _KEY_OFF)
                if (key is None or get(curr + _VALUE_OFF) is None
                        or get(curr + _LEVEL_OFF) is None):
                    problems.append(
                        f"node {curr:#x} linked at level {level} but its "
                        "fields never persisted (inconsistent cut)")
                    break
                raw_next = get(curr + next_off)
                if raw_next is None:
                    problems.append(
                        f"node {curr:#x} level-{level} link never "
                        "persisted despite the node being linked")
                    break
                if key <= prev_key:
                    problems.append(
                        f"level {level} ordering violated at {curr:#x}")
                    break
                if level == 0:
                    count += 1
                    if not raw_next & 1:
                        add_live(key)
                prev_key = key
                curr = raw_next & ~1
        return RecoveryReport(structure=self.name, ok=not problems,
                              problems=problems, reachable_nodes=count,
                              live_keys=live)

    # -- campaign walks (see LogFreeStructure._campaign_report) ----------
    #
    # The memo is ``(chains, key_of, live_at, live)``.
    # ``chains[level]`` is the ``(nodes, keys)`` pair of that level's
    # chain in walk order; keys strictly increase, so a node's position
    # on a level is a bisection of its key. ``key_of`` maps every
    # chained node to its key. ``live_at`` and ``live`` hold the level-0
    # positions and keys of the live nodes. At a level, a node's step
    # reads its key, value and level words and its link at that level.
    # A run of positions none of whose words were written walks
    # exactly as in the memo, so the delta walk jumps over it in one
    # step.

    def _record_walk(self, image: Dict[int, Word]):
        get = image.get
        max_nodes = self._max_nodes
        chains: List[Tuple[List[int], List[int]]] = []
        live_at = array("l")
        live: List[int] = []
        for level in range(self.max_level):
            next_off = _NEXT_BASE + (level << 3)
            raw = get(self.head + next_off)
            if raw is None:
                return None
            nodes: List[int] = []
            keys: List[int] = []
            add_node, add_key = nodes.append, keys.append
            curr = raw & ~1
            prev_key = KEY_MIN
            steps = 0
            while curr:   # != NULL
                steps += 1
                key = get(curr + _KEY_OFF)
                raw_next = get(curr + next_off)
                if (steps > max_nodes or key is None or raw_next is None
                        or get(curr + _VALUE_OFF) is None
                        or get(curr + _LEVEL_OFF) is None
                        or key <= prev_key):
                    return None
                if level == 0 and not raw_next & 1:
                    live_at.append(steps - 1)
                    live.append(key)
                add_node(curr)
                add_key(key)
                prev_key = key
                curr = raw_next & ~1
            chains.append((nodes, keys))
        key_of: Dict[int, int] = {}
        for nodes, keys in chains:
            key_of.update(zip(nodes, keys))
        return (chains, key_of, live_at, live), len(chains[0][0]), live

    def _delta_walk(self, image: Dict[int, Word], memo, written: Set[int]):
        chains, key_of, live_at, live_order = memo
        dirty: List[Set[int]] = [set() for _ in chains]
        span = _NEXT_BASE + (len(chains) << 3)
        for addr in written:
            for off in range(0, span, 8):
                key = key_of.get(addr - off)
                if key is None:
                    continue
                levels = (range(len(chains)) if off < _NEXT_BASE
                          else ((off - _NEXT_BASE) >> 3,))
                for level in levels:
                    nodes, keys = chains[level]
                    p = bisect_left(keys, key)
                    if p < len(keys) and nodes[p] == addr - off:
                        dirty[level].add(p)
        runs: List[Tuple[int, int]] = []
        new_live: List[int] = []
        reachable = 0
        for level, (nodes, keys) in enumerate(chains):
            steps = self._delta_level(image, level, nodes, keys,
                                      sorted(dirty[level]),
                                      runs if level == 0 else None,
                                      new_live)
            if steps is None:
                return None
            if level == 0:
                reachable = steps
        live = set(new_live)
        for start, stop in runs:
            live.update(live_order[bisect_left(live_at, start):
                                   bisect_left(live_at, stop)])
        return reachable, live

    def _delta_level(self, image: Dict[int, Word], level: int,
                     nodes: List[int], keys: List[int], dirty: List[int],
                     runs: Optional[List[Tuple[int, int]]],
                     live: List[int]) -> Optional[int]:
        """Walk one level, jumping over the memo's clean runs; returns
        its step count, or None if the full walker might complain.
        With ``runs`` (level 0), also collects the jumped runs and the
        live keys of the stepped nodes."""
        get = image.get
        max_nodes = self._max_nodes
        next_off = _NEXT_BASE + (level << 3)
        raw = get(self.head + next_off)
        if raw is None:
            return None
        curr = raw & ~1
        prev_key = KEY_MIN
        steps = 0
        while curr:   # != NULL
            key = get(curr + _KEY_OFF)
            p = bisect_left(keys, key) if key is not None else len(keys)
            if p < len(keys) and nodes[p] == curr:
                d = bisect_left(dirty, p)
                stop = dirty[d] if d < len(dirty) else len(keys)
                if stop > p:
                    # Positions p..stop-1 are untouched: the same walk.
                    steps += stop - p
                    if steps > max_nodes or key <= prev_key:
                        return None
                    if runs is not None:
                        runs.append((p, stop))
                    prev_key = keys[stop - 1]
                    curr = get(nodes[stop - 1] + next_off) & ~1
                    continue
            steps += 1
            raw_next = get(curr + next_off)
            if (steps > max_nodes or key is None or raw_next is None
                    or get(curr + _VALUE_OFF) is None
                    or get(curr + _LEVEL_OFF) is None
                    or key <= prev_key):
                return None
            if runs is not None and not raw_next & 1:
                live.append(key)
            prev_key = key
            curr = raw_next & ~1
        return steps

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        return self.validate_image(memory).live_keys or set()
