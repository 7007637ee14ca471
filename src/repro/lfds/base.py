"""Shared infrastructure for the log-free data structures (LFDs).

Every LFD:

* allocates nodes from the simulated heap (plain bump allocation — no
  reclamation, as is standard for persistent-LFD benchmarking);
* performs all field accesses as yielded memory operations with C++11
  release/acquire annotations (the data-race-free labelling Section 6.1
  assumes): traversal loads of link words are *acquires*, linking CASes
  are *releases*, node-initialization stores are plain;
* supports a direct-memory initial build (the pre-populated structure
  whose size the paper sweeps), which must produce exactly the layout
  the runtime operations would;
* provides a structural *null-recovery validator* over an NVM image: a
  consistent cut must always validate; the classic ARP failure — a
  link persisted before the fields of the node it publishes — must be
  reported.

Deleted-node marking uses the standard Harris pointer-tag: node
addresses are 8-byte aligned, so bit 0 of a link word marks the node
that *holds* the link as logically deleted.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.core.thread import Op, store
from repro.memory.address import WORD_BYTES, HeapAllocator

Word = Optional[int]
OpGen = Generator[Op, object, object]

NULL = 0

#: Sentinel keys bracketing every user key.
KEY_MIN = -(1 << 62)
KEY_MAX = 1 << 62


def mark(pointer: int) -> int:
    """Tag a link word: the holder of this link is logically deleted."""
    return pointer | 1


def unmark(pointer: int) -> int:
    """Strip the deletion tag from a link word."""
    return pointer & ~1


def is_marked(pointer: Word) -> bool:
    """True if the link word carries the deletion tag."""
    return pointer is not None and bool(pointer & 1)


@dataclasses.dataclass
class RecoveryReport:
    """Result of validating an NVM image for null recovery."""

    structure: str
    ok: bool
    problems: List[str]
    reachable_nodes: int = 0
    live_keys: Optional[Set[int]] = None

    def __bool__(self) -> bool:
        return self.ok


class ImageReader:
    """Typed reads over a crash image (missing word -> None)."""

    def __init__(self, image: Dict[int, Word]) -> None:
        self._image = image

    def word(self, addr: int) -> Word:
        return self._image.get(addr)

    def present(self, addr: int) -> bool:
        return addr in self._image


class LogFreeStructure:
    """Interface every LFD workload implements.

    Runtime node allocation goes through :meth:`use_arena`-registered
    per-thread arenas when available: consecutive allocations of one
    thread share cache lines (the intra-thread locality behind BB's
    conflicts) without false sharing across threads — mirroring the
    per-thread arenas of a real malloc. The structure-level allocator
    is used for metadata and the initial build.
    """

    name = "lfd"

    #: The attributes a campaign walk reads from the structure itself.
    #: With the class, their values key the structure's walks in a
    #: baseline's walk store, so another layout never reuses a walk.
    _walk_layout: Tuple[str, ...] = ()

    def __init__(self, allocator: HeapAllocator) -> None:
        self.allocator = allocator
        self._arenas: Dict[int, HeapAllocator] = {}

    def use_arena(self, thread_id: int) -> None:
        """Route ``thread_id``'s allocations to a private arena."""
        if thread_id not in self._arenas:
            self._arenas[thread_id] = self.allocator.arena(thread_id)

    # -- runtime operations (generator coroutines) ----------------------

    def insert(self, key: int, value: int,
               tid: Optional[int] = None) -> OpGen:
        """Insert; returns True if the key was absent. ``tid`` selects
        the allocation arena for any new node."""
        raise NotImplementedError

    def delete(self, key: int) -> OpGen:
        """Delete; returns True if the key was present."""
        raise NotImplementedError

    def contains(self, key: int) -> OpGen:
        """Membership test; returns True if present."""
        raise NotImplementedError

    # -- setup -----------------------------------------------------------

    def build_initial(self, keys: Iterable[int],
                      memory: Dict[int, Word]) -> None:
        """Materialize a pre-populated structure directly into memory."""
        raise NotImplementedError

    # -- recovery / oracles ----------------------------------------------

    def validate_image(self, image: Dict[int, Word]) -> RecoveryReport:
        """Structural null-recovery check over a crash image."""
        raise NotImplementedError

    def _campaign_report(self, image: Dict[int, Word]
                         ) -> Optional[RecoveryReport]:
        """The passing report of a memo walk over a campaign image, or
        None when the full walker must run.

        A structure that supports campaigns defines two walks:
        ``_record_walk(image)`` returns ``(memo, reachable, keys)``,
        where ``keys`` is the memo's own sequence of the live keys, and
        ``_delta_walk(image, memo, written)`` returns ``(reachable,
        live)``, where ``written`` holds the addresses written since
        the memo's prefix. Either returns None wherever the full walker
        might report a problem or hit its bound, so every failing
        report comes from the full walker. The first call on an image
        records the memo, and later calls re-walk only what the
        written words can reach. At prefix 0 the image is its
        baseline, so a passing record walk goes into the baseline's
        walk store, keyed by the class and ``_walk_layout``, and the
        first call of a later campaign over that baseline reuses it.
        Walks and memos are only read once made, and every report gets
        a live set of its own.
        """
        memos = getattr(image, "walk_memos", None)
        if memos is None:
            return None
        entry = memos.get(self)
        if entry is None:
            store = image.baseline_walks if image.prefix == 0 else None
            if store is not None:
                key = (type(self),) + tuple(
                    getattr(self, name) for name in self._walk_layout)
                found = store.get(key)
            else:
                found = None
            if found is None:
                found = self._record_walk(image)
                if found is None:
                    return None
                if store is not None:
                    store[key] = found
            memo, reachable, keys = found
            memos[self] = (image.prefix, memo)
            live = set(keys)
        else:
            prefix, memo = entry
            found = self._delta_walk(image, memo,
                                     image.written_since(prefix))
            if found is None:
                return None
            reachable, live = found
        return RecoveryReport(structure=self.name, ok=True, problems=[],
                              reachable_nodes=reachable, live_keys=live)

    def collect_keys(self, memory: Dict[int, Word]) -> Set[int]:
        """Logical key set of the structure in a (complete) memory."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    def _allocator_for(self, tid: Optional[int]) -> HeapAllocator:
        """The arena for ``tid`` (the shared allocator as fallback)."""
        if tid is None:
            return self.allocator
        return self._arenas.get(tid, self.allocator)

    def _alloc_node(self, num_words: int, tid: Optional[int] = None,
                    line_align: bool = False) -> int:
        """Allocate one node, preceded by its allocator header word.

        Layout: ``[header][field 0 .. field n-1]``. The header word at
        ``node - 8`` models malloc chunk metadata: it is written on
        allocation, and written again when a node is *freed* on
        deletion (:func:`free_header_write`). These metadata writes
        are real memory traffic in the paper's SynchroBench workloads
        (which malloc/free every node) and are load-bearing for the
        evaluation: a deleter writes into a chunk owned by the
        inserting thread's arena, whose line is often still flushing
        under BB (an epoch conflict) but merely only-written under LRP
        (persisted off the critical path).
        """
        raw = self._allocator_for(tid).alloc(num_words + 1,
                                             line_align=line_align)
        return raw + WORD_BYTES


def field(base: int, index: int) -> int:
    """Address of the ``index``-th word of a node at ``base``."""
    return base + index * WORD_BYTES


def header_addr(node: int) -> int:
    """Address of a node's allocator-header word."""
    return node - WORD_BYTES


def alloc_header_write(node: int, num_words: int) -> Op:
    """The malloc-metadata store performed when a chunk is handed out."""
    return store(header_addr(node), num_words, site="alloc-header")


def free_header_write(node: int) -> Op:
    """The malloc-metadata store performed when a chunk is freed."""
    return store(header_addr(node), 0, site="free-header")
