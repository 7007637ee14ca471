"""Private L1 data cache with MESI state and LRP per-line metadata.

Each line carries, beyond its coherence state:

* ``pending_words`` — dirty word values not yet persisted to NVM, each
  tagged with the youngest store event that produced it (coalescing);
* ``min_epoch`` — the epoch of the *earliest* unpersisted write to the
  line (Section 5.2.1, Figure 3b);
* ``release_bit`` — whether the line holds a value written by a release.

The same two metadata fields serve the BB mechanism (per-line epoch-id
of cache-based buffered epoch persistency, Section 2.2.1) — this is
faithful to the paper, which frames LRP's metadata as an extension of
the cache-based BEP approach.

Storage layout: coherence state and LRU ticks live in flat per-slot
tables (``state_codes`` bytearray / ``lru`` list, one entry per way of
every set) so the batch engine (:mod:`repro.core.fastsim`) can test
hit/miss and MESI state with two integer loads. :class:`CacheLine`
remains the object API over that storage — while a line is resident it
is a *view* attached to its slot (``state`` reads the tables). The
fused miss path of :meth:`~repro.core.machine.Machine.make_fast_path`
fills and evicts slots; a line leaving its cache (eviction or
invalidation) detaches, capturing its final state, so the persistency
hooks that inspect an evicted or invalidated line afterwards still
read it.

Replacement: a set's ways are the contiguous slots ``set * assoc`` to
``set * assoc + assoc - 1``, and every touch stamps its slot with the
cache's next tick. A fill stamps its slot too, so every way of a full
set holds a live tick, and ticks are unique per L1: the victim of a
full set is the way with the smallest tick in that slice of ``lru``.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.params import MachineConfig

Word = Optional[int]


class MESIState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


# Hot-path aliases: member access on the Enum class goes through
# EnumType.__getattr__; the simulator resolves states millions of times
# per run, so the inner loops bind these once.
MODIFIED = MESIState.MODIFIED
EXCLUSIVE = MESIState.EXCLUSIVE
SHARED = MESIState.SHARED
INVALID = MESIState.INVALID

# Table encoding of MESI state. Code 0 is reserved for "slot empty" so
# a one-byte load answers both residency and state questions; a
# resident line is never INVALID (invalidation empties its slot).
EMPTY_CODE = 0
MODIFIED_CODE = 1
EXCLUSIVE_CODE = 2
SHARED_CODE = 3

CODE_TO_STATE = (None, MODIFIED, EXCLUSIVE, SHARED)


class CacheLine:
    """One L1 cache line (tag + coherence + persistency metadata).

    Constructible standalone (unit tests build free-floating lines);
    inside an :class:`L1Cache` it is attached to a slot and its
    ``state`` is backed by the cache's flat tables.
    """

    __slots__ = ("addr", "pending_words", "min_epoch", "release_bit",
                 "_cache", "_slot", "_state")

    def __init__(self, addr: int, state: MESIState = INVALID,
                 pending_words: Optional[Dict[int, Tuple[Word, int]]] = None,
                 min_epoch: Optional[int] = None,
                 release_bit: bool = False) -> None:
        self.addr = addr               # line-aligned base address
        # Persistency metadata: word addr -> (value, store event id)
        self.pending_words: Dict[int, Tuple[Word, int]] = (
            {} if pending_words is None else pending_words)
        self.min_epoch = min_epoch
        self.release_bit = release_bit
        self._cache: Optional["L1Cache"] = None
        self._slot = -1
        self._state = state

    def __repr__(self) -> str:
        return (f"CacheLine(addr={self.addr:#x}, state={self.state.value},"
                f" pending={len(self.pending_words)})")

    # -- table-backed state -----------------------------------------------

    @property
    def state(self) -> MESIState:
        cache = self._cache
        if cache is not None:
            return CODE_TO_STATE[cache.state_codes[self._slot]]
        return self._state

    def _detach(self) -> None:
        cache = self._cache
        slot = self._slot
        self._state = CODE_TO_STATE[cache.state_codes[slot]]
        cache.state_codes[slot] = EMPTY_CODE
        cache.lines[slot] = None
        self._cache = None
        self._slot = -1

    # -- persistency metadata ---------------------------------------------

    @property
    def has_pending(self) -> bool:
        """True if the line holds not-yet-persisted writes."""
        return bool(self.pending_words)

    @property
    def is_released(self) -> bool:
        """Line is dirty and its newest synchronizing write is a release."""
        return bool(self.pending_words) and self.release_bit

    @property
    def is_only_written(self) -> bool:
        """Line is dirty with regular writes only (paper terminology)."""
        return bool(self.pending_words) and not self.release_bit

    def record_write(self, word_addr: int, value: Word, event_id: int,
                     epoch: int) -> None:
        """Merge a store into the line's pending (unpersisted) words."""
        if not self.pending_words:
            self.min_epoch = epoch
        self.pending_words[word_addr] = (value, event_id)

    def take_persist_payload(self) -> Dict[int, Tuple[Word, int]]:
        """Snapshot-and-clear the pending words (line persists now)."""
        payload = self.pending_words
        self.pending_words = {}
        self.min_epoch = None
        self.release_bit = False
        return payload


class L1Cache:
    """Set-associative, LRU, write-back private L1.

    Way slots are numbered ``set * assoc + way``; ``state_codes[slot]``
    (0 = empty) and ``lru[slot]`` are the authoritative coherence /
    replacement state, ``lines[slot]`` the attached view objects, and
    ``_sets[set]`` maps resident line addr -> slot in fill order (the
    order the L1 scans walk, so it fixes the persist streams).
    """

    def __init__(self, core_id: int, config: MachineConfig) -> None:
        self.core_id = core_id
        self._num_sets = config.l1_num_sets
        self._assoc = config.l1_assoc
        num_slots = self._num_sets * self._assoc
        self.state_codes = bytearray(num_slots)
        self.lru: List[int] = [0] * num_slots
        self.lines: List[Optional[CacheLine]] = [None] * num_slots
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(self._num_sets)
        ]
        self._tick = 0
        # line_bytes is a power of two (validated by MachineConfig);
        # when the set count is too, the set index is shift-and-mask.
        self._line_shift = config.line_offset_bits
        num_sets = self._num_sets
        self._set_mask = (num_sets - 1
                          if num_sets & (num_sets - 1) == 0 else None)

    def _set_index(self, line_addr: int) -> int:
        if self._set_mask is not None:
            return (line_addr >> self._line_shift) & self._set_mask
        return (line_addr >> self._line_shift) % self._num_sets

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, line_addr: int, *, touch: bool = True
               ) -> Optional[CacheLine]:
        """Return the resident line, or None on a miss."""
        slot = self._sets[self._set_index(line_addr)].get(line_addr)
        if slot is None:
            return None
        if touch:
            self._tick += 1
            self.lru[slot] = self._tick
        return self.lines[slot]

    # ------------------------------------------------------------------
    # Scans (persist engine, drain)
    # ------------------------------------------------------------------

    def iter_lines(self) -> Iterator[CacheLine]:
        """All resident lines (the persist engine's L1 scan)."""
        lines = self.lines
        for cache_set in self._sets:
            for slot in cache_set.values():
                yield lines[slot]

    def pending_lines(self) -> List[CacheLine]:
        """All lines holding unpersisted writes."""
        return [line for line in self.iter_lines() if line.has_pending]

    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)
