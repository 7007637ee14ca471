"""The Natarajan–Mittal lock-free external BST (PPoPP'14).

This is the algorithm behind SynchroBench's "balanced tree" workload
the paper evaluates. It is *external*: internal nodes only route
(both children always present), leaves carry the keys. Deletion is
edge-based: the deleter **flags** the parent→leaf edge (the
linearization point), **tags** the sibling edge to freeze it, then
**splices** the parent out by swinging the ancestor's edge to the
sibling — with every traversal helping complete flagged/tagged
operations it encounters.

Tag bits live in the low bits of child-pointer words (nodes are
8-byte aligned): bit 0 = FLAG (leaf under deletion), bit 1 = TAG
(edge frozen for a splice).

Compared with the tombstone BST (`repro.lfds.bst`), every update here
allocates/frees real nodes (insert: a leaf + an internal; delete:
frees both), reproducing the write-intensity that makes BST the
paper's biggest LRP-over-BB win.

Annotations follow the DRF discipline: child-pointer loads are
acquires, the flag/tag/splice/insert CASes are releases, node
initialization is plain.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, List, Set, Tuple

from repro.consistency.events import MemOrder
from repro.core.thread import cas, load, store
from repro.lfds.base import (
    KEY_MAX,
    LogFreeStructure,
    NULL,
    OpGen,
    RecoveryReport,
    Word,
    alloc_header_write,
    field,
    free_header_write,
    header_addr,
)
from repro.memory.address import HeapAllocator

# Hot-path aliases: a member access on the Enum class is a metaclass
# lookup, and the op sites below evaluate these on every step.
_ACQUIRE = MemOrder.ACQUIRE
_RELEASE = MemOrder.RELEASE

# Node layout: [key, value, left, right]; a leaf has left == right == NULL.
KEY, VALUE, LEFT, RIGHT = 0, 1, 2, 3
NODE_WORDS = 4
# Byte offsets inlined in the seek/build hot paths:
# field(node, X) == node + 8 * X.
_KEY_OFF = KEY * 8
_VALUE_OFF = VALUE * 8
_LEFT_OFF = LEFT * 8
_RIGHT_OFF = RIGHT * 8

FLAG = 1
TAG = 2
#: Strips the mark bits from a child word, leaving the pointer.
_ADDR_MASK = ~(FLAG | TAG)

#: Sentinel keys (all real keys are smaller than INF0).
INF0 = KEY_MAX
INF1 = KEY_MAX + 1
INF2 = KEY_MAX + 2


def addr_of(raw: Word) -> int:
    """Pointer payload of a child word (mark bits stripped)."""
    if raw is None:
        return NULL
    return raw & _ADDR_MASK


def is_flagged(raw: Word) -> bool:
    return raw is not None and bool(raw & FLAG)


def is_tagged(raw: Word) -> bool:
    return raw is not None and bool(raw & TAG)


class _SeekRecord:
    """The four path positions NM's seek tracks (their Figure 2)."""

    __slots__ = ("ancestor", "successor", "parent", "leaf")

    def __init__(self, ancestor: int, successor: int, parent: int,
                 leaf: int) -> None:
        self.ancestor = ancestor
        self.successor = successor
        self.parent = parent
        self.leaf = leaf


class NMTree(LogFreeStructure):
    """Natarajan–Mittal lock-free external binary search tree.

    This is the paper's ``bstree`` workload (SynchroBench's tree).
    """

    name = "bstree"
    _walk_layout = ("R", "_max_nodes")

    def __init__(self, allocator: HeapAllocator,
                 max_nodes: int = 1 << 22) -> None:
        super().__init__(allocator)
        self._max_nodes = max_nodes
        # Sentinel skeleton: R(INF2) -> (S(INF1), leaf(INF2));
        # S(INF1) -> (leaf(INF0), leaf(INF1)). Every real key routes
        # to S's left subtree.
        self.R, self.S, leaf_inf0, leaf_inf1, leaf_inf2 = (
            raw + 8 for raw in allocator.alloc_lines(NODE_WORDS + 1, 5))
        self._skeleton: Dict[int, Word] = {}
        for node, key, left, right in (
                (self.R, INF2, self.S, leaf_inf2),
                (self.S, INF1, leaf_inf0, leaf_inf1),
                (leaf_inf0, INF0, NULL, NULL),
                (leaf_inf1, INF1, NULL, NULL),
                (leaf_inf2, INF2, NULL, NULL)):
            self._skeleton.update({
                header_addr(node): NODE_WORDS,
                field(node, KEY): key,
                field(node, VALUE): 0,
                field(node, LEFT): left,
                field(node, RIGHT): right,
            })

    # ------------------------------------------------------------------
    # Seek (NM Figure 4)
    # ------------------------------------------------------------------

    def _seek(self, key: int) -> OpGen:
        """Walk to the leaf for ``key``, tracking ancestor/successor.

        Postconditions (NM's seek record): ``leaf`` is a leaf node and
        ``parent`` its parent on the traversed path; ``ancestor`` is
        the deepest path node whose edge to the next path node
        (``successor``) was *untagged* when read — every edge strictly
        below that, down to ``parent``, was tagged (frozen by pending
        splices), so the cleanup CAS operates above the frozen chain.
        """
        ancestor = self.R
        successor = self.S      # edge R->S is never flagged/tagged
        node = self.S
        node_key = INF1
        steps = 0
        while True:
            steps += 1
            if steps > self._max_nodes:
                raise RuntimeError("seek exceeded node bound")
            side_off = _LEFT_OFF if key < node_key else _LEFT_OFF + 8
            child_raw = yield load(node + side_off, _ACQUIRE)
            child = addr_of(child_raw)
            child_left_raw = yield load(child + _LEFT_OFF, _ACQUIRE)
            if addr_of(child_left_raw) == NULL:
                # child is a leaf: node is its parent.
                return _SeekRecord(ancestor, successor, node, child)
            # child is internal: descend through it.
            if not is_tagged(child_raw):
                ancestor = node
                successor = child
            node = child
            node_key = yield load(node + _KEY_OFF)

    # ------------------------------------------------------------------
    # Operations (NM Figures 5-7)
    # ------------------------------------------------------------------

    def insert(self, key: int, value: int, tid=None) -> OpGen:
        while True:
            record = yield from self._seek(key)
            leaf_key = yield load(field(record.leaf, KEY))
            if leaf_key == key:
                return False
            parent_key = yield load(field(record.parent, KEY))
            child_addr = field(record.parent,
                               LEFT if key < parent_key else RIGHT)
            # Build the replacement subtree: a new leaf and a new
            # internal routing node over {new leaf, existing leaf}.
            new_leaf = self._alloc_node(NODE_WORDS, tid)
            yield alloc_header_write(new_leaf, NODE_WORDS)
            yield store(field(new_leaf, KEY), key)
            yield store(field(new_leaf, VALUE), value)
            yield store(field(new_leaf, LEFT), NULL)
            yield store(field(new_leaf, RIGHT), NULL)
            internal = self._alloc_node(NODE_WORDS, tid)
            yield alloc_header_write(internal, NODE_WORDS)
            if key < leaf_key:
                yield store(field(internal, KEY), leaf_key)
                yield store(field(internal, LEFT), new_leaf)
                yield store(field(internal, RIGHT), record.leaf)
            else:
                yield store(field(internal, KEY), key)
                yield store(field(internal, LEFT), record.leaf)
                yield store(field(internal, RIGHT), new_leaf)
            yield store(field(internal, VALUE), 0)
            ok, observed = yield cas(child_addr, record.leaf, internal,
                                     _RELEASE)
            if ok:
                return True
            # CAS failed: if the edge still points at our leaf but is
            # flagged/tagged, help the pending delete before retrying.
            if (addr_of(observed) == record.leaf
                    and (is_flagged(observed) or is_tagged(observed))):
                yield from self._cleanup(key, record)

    def delete(self, key: int, tid=None) -> OpGen:
        injecting = True
        target_leaf = NULL
        while True:
            record = yield from self._seek(key)
            if injecting:
                leaf_key = yield load(field(record.leaf, KEY))
                if leaf_key != key:
                    return False
                parent_key = yield load(field(record.parent, KEY))
                child_addr = field(record.parent,
                                   LEFT if key < parent_key else RIGHT)
                ok, observed = yield cas(child_addr, record.leaf,
                                         record.leaf | FLAG, _RELEASE)
                if ok:
                    # Injection succeeded: the delete is linearized.
                    injecting = False
                    target_leaf = record.leaf
                    done = yield from self._cleanup(key, record)
                    if done:
                        yield from self._retire(record.parent,
                                                target_leaf)
                        return True
                    continue
                if (addr_of(observed) == record.leaf
                        and (is_flagged(observed)
                             or is_tagged(observed))):
                    yield from self._cleanup(key, record)
                continue
            # Cleanup mode: our flag is planted; finish the splice
            # (or discover that a helper already did).
            if record.leaf != target_leaf:
                return True   # somebody completed our splice
            done = yield from self._cleanup(key, record)
            if done:
                yield from self._retire(record.parent, target_leaf)
                return True

    def _cleanup(self, key: int, record: _SeekRecord) -> OpGen:
        """Splice out the flagged leaf's parent (NM Figure 7).

        Returns True when this caller's splice CAS succeeded.
        """
        ancestor, parent = record.ancestor, record.parent
        ancestor_key = yield load(field(ancestor, KEY))
        successor_addr = field(ancestor,
                               LEFT if key < ancestor_key else RIGHT)
        parent_key = yield load(field(parent, KEY))
        if key < parent_key:
            child_addr = field(parent, LEFT)
            sibling_addr = field(parent, RIGHT)
        else:
            child_addr = field(parent, RIGHT)
            sibling_addr = field(parent, LEFT)
        child_raw = yield load(child_addr, _ACQUIRE)
        if not is_flagged(child_raw):
            # The leaf under deletion is on the sibling side (we are
            # helping a delete of the other child).
            sibling_addr = child_addr
        # Tag the sibling edge so it cannot change under the splice.
        while True:
            sibling_raw = yield load(sibling_addr, _ACQUIRE)
            if is_tagged(sibling_raw):
                break
            ok, _ = yield cas(sibling_addr, sibling_raw,
                              sibling_raw | TAG, _RELEASE)
            if ok:
                sibling_raw = sibling_raw | TAG
                break
        # Splice: swing the ancestor's edge to the sibling (tag
        # cleared, flag preserved so an in-progress delete of the
        # sibling leaf carries over).
        sibling_raw = yield load(sibling_addr, _ACQUIRE)
        ok, _ = yield cas(successor_addr, record.successor,
                          sibling_raw & ~TAG, _RELEASE)
        return ok

    def _retire(self, parent: int, leaf: int) -> OpGen:
        """Free the spliced-out internal node and leaf (malloc traffic)."""
        yield free_header_write(parent)
        yield free_header_write(leaf)

    def contains(self, key: int) -> OpGen:
        record = yield from self._seek(key)
        leaf_key = yield load(field(record.leaf, KEY))
        return leaf_key == key

    # ------------------------------------------------------------------
    # Direct-memory build
    # ------------------------------------------------------------------

    def build_initial(self, keys: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        """A balanced tree over the sorted keys under S's left edge.

        The subtree over ``leaves[lo:hi]`` is a leaf when it holds one
        key, and otherwise an internal node routing on ``leaves[mid]``,
        ``mid = lo + (hi - lo + 1) // 2``, over the subtrees of
        ``[lo, mid)`` and ``[mid, hi)``. Nodes are laid out in
        pre-order, so a subtree over ``m`` leaves fills ``2m - 1``
        consecutive chunks: a node's left child is the next chunk and
        its right child comes ``2 * (mid - lo)`` chunks after it. One
        loop places the nodes in that order: an internal node hands on
        to its left child, and each leaf to the latest right subtree
        still pending.
        """
        memory.update(self._skeleton)
        leaves = sorted(set(keys))
        if not leaves:
            return
        # The INF0 sentinel leaf stays in S's left subtree forever
        # (it is never deleted), guaranteeing every real leaf's
        # parent is an internal node — a delete can then never
        # splice out the sentinel S itself.
        leaves.append(INF0)
        chunks = self.allocator.alloc_lines(NODE_WORDS + 1,
                                            2 * len(leaves) - 1)
        stride = chunks.step
        lo, hi, node = 0, len(leaves), chunks[0] + 8
        memory[self.S + _LEFT_OFF] = node
        # Right subtrees still to place: their leaf range and root
        # address, the one int object both the parent's edge word and
        # the node's key-word entry hold (the image keeps one per node).
        pending = []
        push, pop = pending.append, pending.pop
        # field()/header_addr() inlined: [header][key][value][left][right].
        for _ in chunks:
            memory[node - 8] = NODE_WORDS
            memory[node + _VALUE_OFF] = 0
            if hi - lo == 1:
                memory[node] = leaves[lo]
                memory[node + _LEFT_OFF] = NULL
                memory[node + _RIGHT_OFF] = NULL
                if pending:
                    lo, hi, node = pop()
            else:
                mid = lo + (hi - lo + 1) // 2
                left = node + stride
                right = node + 2 * (mid - lo) * stride
                memory[node] = leaves[mid]
                memory[node + _LEFT_OFF] = left
                memory[node + _RIGHT_OFF] = right
                push((mid, hi, right))
                hi, node = mid, left

    # ------------------------------------------------------------------
    # Recovery validation
    # ------------------------------------------------------------------

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        """Depth-first walk from the root sentinel, checking each
        node's key against the bounds its path sets.

        ``field``/``addr_of``/``is_flagged`` are inlined: this runs once
        per crash point over the whole pre-populated tree.
        """
        report = self._campaign_report(image)
        if report is not None:
            return report
        get = image.get
        problems: List[str] = []
        live: Set[int] = set()
        add_live = live.add
        count = 0
        # Every visited node's key word is in the image and distinct
        # nodes have distinct key words, so a longer walk has revisited
        # a node (a right-edge cycle of equal keys passes the
        # inclusive bounds).
        max_nodes = min(self._max_nodes, len(image))
        stack = self._root_edges(get)
        pop, push = stack.pop, stack.append
        while stack and not problems:
            raw, low, high = pop()
            # Descend right edges in place and stack only left ones:
            # the same visit order as stacking both children.
            while True:
                if raw is None:
                    problems.append("reachable edge word never persisted")
                    break
                node = raw & _ADDR_MASK
                if not node:   # NULL
                    break
                count += 1
                if count > max_nodes:
                    problems.append("tree exceeds node bound (cycle?)")
                    break
                key = get(node + _KEY_OFF)
                left = get(node + _LEFT_OFF)
                right = get(node + _RIGHT_OFF)
                if key is None or left is None or right is None:
                    problems.append(
                        f"node {node:#x} is linked into the tree but its "
                        "fields never persisted (inconsistent cut)")
                    break
                if not low <= key <= high:
                    problems.append(
                        f"BST ordering violated at {node:#x}: key {key} "
                        f"outside [{low}, {high}]")
                left_null = not left & _ADDR_MASK
                right_null = not right & _ADDR_MASK
                if left_null != right_null:
                    problems.append(
                        f"internal node {node:#x} has exactly one child")
                if left_null and right_null:
                    if key < INF0 and not raw & FLAG:
                        add_live(key)
                    if get(node + _VALUE_OFF) is None:
                        problems.append(
                            f"leaf {node:#x} value never persisted")
                    break
                if problems:
                    break
                push((left, low, key - 1))
                raw, low = right, key
        return RecoveryReport(structure=self.name, ok=not problems,
                              problems=problems, reachable_nodes=count,
                              live_keys=live)

    # -- campaign walks (see LogFreeStructure._campaign_report) ----------
    #
    # The walk visits a node, then its right subtree, then its left
    # one, so every subtree is a contiguous run of visit indices: an
    # internal node's right child is the next visit, its left child
    # follows the right subtree, its leftmost leaf is the run's last
    # visit and its rightmost leaf the run's first leaf. The memo is
    # ``(index_of, sizes, keys, live_at, live)``: node -> visit index;
    # per visit index the subtree's size and the node's key; and the
    # visit indices and keys of the live leaves, in visit order. A
    # node's visit reads its key, value, left and right words. An
    # internal node whose subtree holds no written word walks as in
    # the memo under any bounds that contain its leftmost and
    # rightmost keys, so the delta walk adds it in one step.

    def _root_edges(self, get) -> List[Tuple[Word, int, int]]:
        """A walk's initial stack of (edge word, low bound, high bound)."""
        stack = [(get(self.R + _LEFT_OFF), -(1 << 63), 1 << 63)]
        right_raw = get(self.R + _RIGHT_OFF)
        if right_raw is not None:
            stack.append((right_raw, -(1 << 63), 1 << 63))
        return stack

    def _record_walk(self, image: Dict[int, Word]):
        get = image.get
        max_nodes = min(self._max_nodes, len(image))
        index_of: Dict[int, int] = {}
        keys: List[int] = []
        # 1 for a leaf, 0 for an internal node until sized below.
        sizes = array("l")
        live_at = array("l")
        live: List[int] = []
        add_key, add_size = keys.append, sizes.append
        count = 0
        stack = self._root_edges(get)
        pop, push = stack.pop, stack.append
        while stack:
            raw, low, high = pop()
            while True:
                if raw is None:
                    return None
                node = raw & _ADDR_MASK
                if not node:   # NULL
                    break
                if count >= max_nodes:
                    return None
                index_of[node] = count
                count += 1
                key = get(node + _KEY_OFF)
                left = get(node + _LEFT_OFF)
                right = get(node + _RIGHT_OFF)
                if (key is None or left is None or right is None
                        or not low <= key <= high):
                    return None
                left_null = not left & _ADDR_MASK
                if left_null != (not right & _ADDR_MASK):
                    return None
                add_key(key)
                if left_null:
                    if get(node + _VALUE_OFF) is None:
                        return None
                    if key < INF0 and not raw & FLAG:
                        live_at.append(count - 1)
                        live.append(key)
                    add_size(1)
                    break
                add_size(0)
                push((left, low, key - 1))
                raw, low = right, key
        if len(index_of) != count:
            return None   # a node reached twice: its words feed both
        for i in range(count - 1, -1, -1):
            if not sizes[i]:
                right_size = sizes[i + 1]
                sizes[i] = 1 + right_size + sizes[i + 1 + right_size]
        return (index_of, sizes, keys, live_at, live), count, live

    def _delta_walk(self, image: Dict[int, Word], memo, written: Set[int]):
        index_of, sizes, keys, live_at, live_order = memo
        dirty = sorted({index_of[node] for addr in written
                        for node in (addr - _KEY_OFF, addr - _VALUE_OFF,
                                     addr - _LEFT_OFF, addr - _RIGHT_OFF)
                        if node in index_of})
        get = image.get
        max_nodes = min(self._max_nodes, len(image))
        subtrees: List[Tuple[int, int]] = []
        live: List[int] = []
        count = 0
        stack = self._root_edges(get)
        pop, push = stack.pop, stack.append
        while stack:
            raw, low, high = pop()
            while True:
                if raw is None:
                    return None
                node = raw & _ADDR_MASK
                if not node:   # NULL
                    break
                i = index_of.get(node)
                if i is not None and sizes[i] > 1:
                    end = i + sizes[i]
                    d = bisect_left(dirty, i)
                    if d == len(dirty) or dirty[d] >= end:   # clean
                        rightmost = i + 1
                        while sizes[rightmost] > 1:
                            rightmost += 1
                        if low <= keys[end - 1] and keys[rightmost] <= high:
                            count += end - i
                            if count > max_nodes:
                                return None
                            subtrees.append((i, end))
                            break
                count += 1
                if count > max_nodes:
                    return None
                key = get(node + _KEY_OFF)
                left = get(node + _LEFT_OFF)
                right = get(node + _RIGHT_OFF)
                if (key is None or left is None or right is None
                        or not low <= key <= high):
                    return None
                left_null = not left & _ADDR_MASK
                if left_null != (not right & _ADDR_MASK):
                    return None
                if left_null:
                    if get(node + _VALUE_OFF) is None:
                        return None
                    if key < INF0 and not raw & FLAG:
                        live.append(key)
                    break
                push((left, low, key - 1))
                raw, low = right, key
        found = set(live)
        for i, end in subtrees:
            found.update(live_order[bisect_left(live_at, i):
                                    bisect_left(live_at, end)])
        return count, found

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        return self.validate_image(memory).live_keys or set()
