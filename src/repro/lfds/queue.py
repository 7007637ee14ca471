"""The ``queue`` workload: the Michael–Scott lock-free FIFO queue.

The classic nonblocking queue [PODC'96], exactly as the paper uses it:
a dummy-headed singly-linked list with ``head``/``tail`` pointer words;
enqueue links at the tail with a release-CAS and (with helping) swings
the tail; dequeue swings the head with a release-CAS.

Persistency pattern: enqueue writes the node's fields with plain
stores, then publishes with a single release-CAS of ``tail.next`` —
the Figure 1 insert pattern in its purest form.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

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
    free_header_write,
    header_addr,
)
from repro.memory.address import HeapAllocator

# Hot-path aliases: a member access on the Enum class is a metaclass
# lookup, and the op sites below evaluate these on every step.
_ACQUIRE = MemOrder.ACQUIRE
_RELEASE = MemOrder.RELEASE

# Node layout: [value, next]
VALUE, NEXT = 0, 1
NODE_WORDS = 2


class MichaelScottQueue(LogFreeStructure):
    """Nonblocking FIFO queue (Michael & Scott, PODC'96)."""

    name = "queue"

    def __init__(self, allocator: HeapAllocator,
                 max_nodes: int = 1 << 22) -> None:
        super().__init__(allocator)
        self.head_ptr = allocator.alloc(1, line_align=True)
        self.tail_ptr = allocator.alloc(1, line_align=True)
        self._max_nodes = max_nodes
        self._initial_dummy: Optional[int] = None

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def enqueue(self, value: int, tid=None) -> OpGen:
        node = self._alloc_node(NODE_WORDS, tid)
        yield alloc_header_write(node, NODE_WORDS)
        yield store(field(node, VALUE), value)
        yield store(field(node, NEXT), NULL)
        while True:
            last = yield load(self.tail_ptr, _ACQUIRE)
            nxt = yield load(field(last, NEXT), _ACQUIRE)
            tail_check = yield load(self.tail_ptr, _ACQUIRE)
            if last != tail_check:
                continue
            if nxt == NULL:
                ok, _ = yield cas(field(last, NEXT), NULL, node, _RELEASE)
                if ok:
                    # Swing the tail (best effort; others may help).
                    yield cas(self.tail_ptr, last, node, _RELEASE)
                    return True
            else:
                # Help a lagging enqueuer swing the tail.
                yield cas(self.tail_ptr, last, nxt, _RELEASE)

    def dequeue(self) -> OpGen:
        """Returns the dequeued value, or None if the queue is empty."""
        while True:
            first = yield load(self.head_ptr, _ACQUIRE)
            last = yield load(self.tail_ptr, _ACQUIRE)
            nxt = yield load(field(first, NEXT), _ACQUIRE)
            head_check = yield load(self.head_ptr, _ACQUIRE)
            if first != head_check:
                continue
            if first == last:
                if nxt == NULL:
                    return None
                yield cas(self.tail_ptr, last, nxt, _RELEASE)
                continue
            value = yield load(field(nxt, VALUE))
            ok, _ = yield cas(self.head_ptr, first, nxt, _RELEASE)
            if ok:
                # The retired sentinel is freed (malloc-metadata store).
                yield free_header_write(first)
                return value

    # The harness drives every LFD through insert/delete/contains.
    def insert(self, key: int, value: int, tid=None) -> OpGen:
        result = yield from self.enqueue(value, tid)
        return result

    def delete(self, key: int) -> OpGen:
        result = yield from self.dequeue()
        return result is not None

    def contains(self, key: int) -> OpGen:
        """Non-linearizable scan (only used by tests)."""
        curr = yield load(self.head_ptr, _ACQUIRE)
        steps = 0
        while curr != NULL and steps < self._max_nodes:
            steps += 1
            value = yield load(field(curr, VALUE))
            if value == key and steps > 1:   # skip the dummy
                return True
            curr = yield load(field(curr, NEXT), _ACQUIRE)
        return False

    # ------------------------------------------------------------------
    # Direct-memory build
    # ------------------------------------------------------------------

    def build_initial(self, values: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        """The dummy node, then one node per value in order."""
        node_values = [0, *values]   # the dummy's value word is 0
        nodes = [raw + 8 for raw in self.allocator.alloc_lines(
            NODE_WORDS + 1, len(node_values))]
        self._initial_dummy = nodes[0]
        successors = nodes[1:] + [NULL]
        for node, value, successor in zip(nodes, node_values, successors):
            memory[header_addr(node)] = NODE_WORDS
            memory[field(node, VALUE)] = value
            memory[field(node, NEXT)] = successor
        memory[self.head_ptr] = nodes[0]
        memory[self.tail_ptr] = nodes[-1]

    # ------------------------------------------------------------------
    # Recovery validation
    # ------------------------------------------------------------------

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        problems: List[str] = []
        get = image.get
        count = 0
        values: Set[int] = set()
        head = get(self.head_ptr)
        tail = get(self.tail_ptr)
        if head is None:
            problems.append("head pointer never persisted")
        if tail is None:
            problems.append("tail pointer never persisted")
        tail_seen = False
        curr = head if head is not None else NULL
        first = True
        # Every visited node's value word is in the image and distinct
        # nodes have distinct value words, so a longer chain has
        # revisited a node.
        max_nodes = min(self._max_nodes, len(image))
        while curr != NULL and not problems:
            count += 1
            if count > max_nodes:
                problems.append("queue chain exceeds bound (cycle?)")
                break
            value = get(field(curr, VALUE))
            nxt = get(field(curr, NEXT))
            if nxt is None or value is None:
                problems.append(
                    f"node {curr:#x} is linked into the queue but its "
                    "fields never persisted (inconsistent cut)")
                break
            if curr == tail:
                tail_seen = True
            if not first:
                values.add(value)
            first = False
            curr = nxt
        if not problems and tail is not None and not tail_seen:
            problems.append(
                f"tail {tail:#x} is not reachable from head "
                "(persisted tail overtook the chain)")
        return RecoveryReport(structure=self.name, ok=not problems,
                              problems=problems, reachable_nodes=count,
                              live_keys=values)

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        """Multigoal: the set of values currently queued."""
        return self.validate_image(memory).live_keys or set()
