"""``bstree_tomb``: a lock-free BST with tombstone deletion.

A lock-free internal BST where the tree only grows; deletion
release-CASes a per-node ``alive`` word to 0 (the linearization
point), and re-insertion of the same key resurrects the node (value
store, then release-CAS of ``alive`` back to 1). It preserves the
persistency pattern under study — prepare node fields with plain
stores, publish with a single release-CAS (of a child link or of the
``alive`` word) — with far fewer writes per update than the
Natarajan–Mittal external tree (:mod:`repro.lfds.nmbst`, the paper's
actual ``bstree`` workload); the write-intensity ablation benchmark
contrasts the two.

Annotations: child-link and ``alive`` loads during traversal are
acquires; the publishing CASes are releases; field initialization is
plain — the same DRF discipline as the other LFDs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.consistency.events import MemOrder
from repro.core.thread import cas, load, store
from repro.lfds.base import (
    LogFreeStructure,
    NULL,
    OpGen,
    RecoveryReport,
    Word,
    alloc_header_write,
    field,
    header_addr,
)
from repro.memory.address import WORD_BYTES, HeapAllocator

# Hot-path aliases: a member access on the Enum class is a metaclass
# lookup, and the op sites below evaluate these on every step.
_ACQUIRE = MemOrder.ACQUIRE
_RELEASE = MemOrder.RELEASE

# Node layout: [key, value, left, right, alive]
KEY, VALUE, LEFT, RIGHT, ALIVE = 0, 1, 2, 3, 4
NODE_WORDS = 5


class BinarySearchTree(LogFreeStructure):
    """Lock-free internal BST with tombstone deletes.

    A simpler alternative to the Natarajan-Mittal external tree
    (:class:`repro.lfds.nmbst.NMTree`, the paper's actual ``bstree``
    workload): kept as the ``bstree_tomb`` variant — useful as a
    low-write-intensity contrast in ablations and as a second tree
    shape for the correctness suites.
    """

    name = "bstree_tomb"

    def __init__(self, allocator: HeapAllocator,
                 max_nodes: int = 1 << 22) -> None:
        super().__init__(allocator)
        self.root_ptr = allocator.alloc(1, line_align=True)
        self._max_nodes = max_nodes

    # ------------------------------------------------------------------
    # Traversal: find the node with `key`, or the null link to extend.
    # ------------------------------------------------------------------

    def _locate(self, key: int) -> OpGen:
        """Returns ``(node, link_ptr)``: ``node`` holding ``key`` (and
        then link_ptr is None), or NULL with the child-link address
        where ``key`` would attach."""
        link_ptr = self.root_ptr
        node = yield load(link_ptr, _ACQUIRE)
        while node not in (NULL, None):
            node_key = yield load(field(node, KEY))
            if node_key == key:
                return node, None
            link_ptr = field(node, LEFT if key < node_key else RIGHT)
            node = yield load(link_ptr, _ACQUIRE)
        return NULL, link_ptr

    def insert(self, key: int, value: int, tid=None) -> OpGen:
        while True:
            node, link_ptr = yield from self._locate(key)
            if node != NULL:
                alive = yield load(field(node, ALIVE), _ACQUIRE)
                if alive == 1:
                    return False
                # Resurrect the tombstone: value first, then publish.
                yield store(field(node, VALUE), value)
                ok, _ = yield cas(field(node, ALIVE), 0, 1, _RELEASE)
                if ok:
                    return True
                continue  # lost the race: re-examine
            fresh = self._alloc_node(NODE_WORDS, tid)
            yield alloc_header_write(fresh, NODE_WORDS)
            yield store(field(fresh, KEY), key)
            yield store(field(fresh, VALUE), value)
            yield store(field(fresh, LEFT), NULL)
            yield store(field(fresh, RIGHT), NULL)
            yield store(field(fresh, ALIVE), 1)
            ok, _ = yield cas(link_ptr, NULL, fresh, _RELEASE)
            if ok:
                return True
            # Someone attached a node here first: re-descend.

    def delete(self, key: int) -> OpGen:
        while True:
            node, _link_ptr = yield from self._locate(key)
            if node == NULL:
                return False
            alive = yield load(field(node, ALIVE), _ACQUIRE)
            if alive != 1:
                return False
            ok, _ = yield cas(field(node, ALIVE), 1, 0, _RELEASE)
            if ok:
                return True
            # The alive word changed under us: re-examine.

    def contains(self, key: int) -> OpGen:
        node, _link_ptr = yield from self._locate(key)
        if node == NULL:
            return False
        alive = yield load(field(node, ALIVE), _ACQUIRE)
        return alive == 1

    # ------------------------------------------------------------------
    # Direct-memory build: balanced tree over the sorted initial keys.
    # ------------------------------------------------------------------

    def build_initial(self, keys: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        """The subtree over ``keys[lo:hi]`` is rooted at ``keys[mid]``,
        ``mid = (lo + hi) // 2``, over the subtrees of ``[lo, mid)``
        and ``[mid + 1, hi)``. Nodes are laid out in pre-order, so a
        node's left child is the next chunk and its right child comes
        ``mid - lo + 1`` chunks after it; one loop with a stack of the
        pending ranges places every node."""
        sorted_keys = sorted(set(keys))
        raws = self.allocator.alloc_lines(NODE_WORDS + 1, len(sorted_keys))
        memory[self.root_ptr] = raws[0] + 8 if raws else NULL
        ranges = [(0, len(sorted_keys))]
        pop, push = ranges.pop, ranges.append
        for index, raw in enumerate(raws):
            node = raw + 8
            lo, hi = pop()
            mid = (lo + hi) // 2
            key = sorted_keys[mid]
            memory[header_addr(node)] = NODE_WORDS
            memory[field(node, KEY)] = key
            memory[field(node, VALUE)] = key + 1
            memory[field(node, ALIVE)] = 1
            if mid + 1 < hi:
                memory[field(node, RIGHT)] = raws[index + mid - lo + 1] + 8
                push((mid + 1, hi))
            else:
                memory[field(node, RIGHT)] = NULL
            if lo < mid:
                memory[field(node, LEFT)] = raws[index + 1] + 8
                push((lo, mid))
            else:
                memory[field(node, LEFT)] = NULL

    # ------------------------------------------------------------------
    # Recovery validation
    # ------------------------------------------------------------------

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        problems: List[str] = []
        get = image.get
        live: Set[int] = set()
        count = 0
        root = get(self.root_ptr)
        if root is None:
            problems.append(f"root pointer {self.root_ptr:#x} not in NVM")
            root = NULL
        stack: List[Tuple[int, int, int]] = []
        if root != NULL:
            stack.append((root, -(1 << 63), 1 << 63))
        while stack and not problems:
            node, low, high = stack.pop()
            count += 1
            if count > self._max_nodes:
                problems.append("tree exceeds node bound (cycle?)")
                break
            key = get(field(node, KEY))
            value = get(field(node, VALUE))
            left = get(field(node, LEFT))
            right = get(field(node, RIGHT))
            alive = get(field(node, ALIVE))
            if None in (key, value, left, right, alive):
                problems.append(
                    f"node {node:#x} is linked into the tree but its "
                    "fields never persisted (inconsistent cut)")
                break
            if not low < key < high:
                problems.append(
                    f"BST ordering violated at node {node:#x} "
                    f"(key {key} outside ({low}, {high}))")
            if alive not in (0, 1):
                problems.append(f"node {node:#x} alive word is {alive}")
            if alive == 1:
                live.add(key)
            if left != NULL:
                stack.append((left, low, key))
            if right != NULL:
                stack.append((right, key, high))
        return RecoveryReport(structure=self.name, ok=not problems,
                              problems=problems, reachable_nodes=count,
                              live_keys=live)

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        return self.validate_image(memory).live_keys or set()
