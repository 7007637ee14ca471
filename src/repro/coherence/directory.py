"""Directory-based MESI coherence fabric (Table 1: directory MESI).

The fabric owns the per-line directory state (single M/E owner or a set
of S sharers), the private L1s, the banked-LLC/home-tile timing and
the NoC latency table. The coherence transitions themselves run in the
fused miss/upgrade closures of
:meth:`~repro.core.machine.Machine.make_fast_path`, which read and
write these tables directly. The model is *behavioral*: transitions
are applied atomically per access, with additive latency composed from
the Table 1 parameters — but the events the persistency mechanisms hook
(evictions, downgrades, invalidations of dirty lines, blocked lines at
the directory) are modeled individually, because they are exactly what
differentiates SB/BB/LRP.

Persistency interplay (who calls whom):

* Every memory operation that misses its L1, or needs an S->M upgrade,
  goes through the machine's ``fast_miss``/``fast_upgrade`` closures:
  :meth:`Machine.coherence_access` for :meth:`Machine.execute`, the
  closures themselves for the batch engine's inline hit probes.
* A miss that demotes a remote owner or displaces a victim from the
  requester's L1 invokes the active persistency mechanism's
  ``on_downgrade``/``on_evict`` hook; the hooks issue NVM persists and
  return extra stall cycles charged to the requester.
* Mechanisms may *block* a line at the directory until a persist ack
  (LRP invariant I4, :meth:`CoherenceFabric.block_line_until`);
  subsequent accesses to that line wait it out.

Storage layout: line addresses are interned to dense line ids
(:class:`~repro.common.tables.LineIdMap`); per-line owner state lives
in a flat ``array('i')`` (-1 = no owner) and the sharer set in a list
of per-line core bitmasks (Python ints, so core counts above the word
size still work). :class:`_DirEntry` remains as a view over those
tables for tests and diagnostics.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set

from repro.coherence.l1cache import L1Cache, MESIState
from repro.coherence.noc import MeshNoC
from repro.common.params import MachineConfig
from repro.common.tables import LineIdMap


class _DirEntry:
    """View of one line's directory state over the fabric's tables."""

    __slots__ = ("_fabric", "_lid")

    def __init__(self, fabric: "CoherenceFabric", lid: int) -> None:
        self._fabric = fabric
        self._lid = lid

    @property
    def owner(self) -> Optional[int]:
        owner = self._fabric._owner[self._lid]
        return None if owner < 0 else owner

    @property
    def sharers(self) -> Set[int]:
        mask = self._fabric._sharers[self._lid]
        cores = set()
        while mask:
            low = mask & -mask
            cores.add(low.bit_length() - 1)
            mask ^= low
        return cores


class CoherenceFabric:
    """All L1s + directory + NoC: the state MESI transitions act on."""

    def __init__(self, config: MachineConfig) -> None:
        self.noc = MeshNoC(config)
        self.l1s: List[L1Cache] = [
            L1Cache(core_id, config) for core_id in range(config.num_cores)
        ]
        self._lids = LineIdMap()
        self._owner = array("i")       # line id -> owning core, -1 = none
        self._sharers: List[int] = []  # line id -> sharer core bitmask
        self._blocked_until: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Directory-side services used by persistency mechanisms
    # ------------------------------------------------------------------

    def block_line_until(self, line_addr: int, time: int) -> None:
        """Block requests for a line until ``time`` (LRP invariant I4)."""
        current = self._blocked_until.get(line_addr, 0)
        self._blocked_until[line_addr] = max(current, time)

    def blocked_until(self, line_addr: int) -> int:
        return self._blocked_until.get(line_addr, 0)

    def _intern(self, line_addr: int) -> int:
        """The line's dense id, allocating directory state on first use."""
        lid = self._lids.index.get(line_addr)
        if lid is None:
            lid = self._lids.intern(line_addr)
            self._owner.append(-1)
            self._sharers.append(0)
        return lid

    def directory_state(self, line_addr: int) -> _DirEntry:
        """Read-only view of a line's directory entry (for tests)."""
        return _DirEntry(self, self._intern(line_addr))

    def _invalidate_mask(self, mask: int, core_id: int,
                         line_addr: int) -> int:
        """Invalidate every sharer in ``mask`` except ``core_id``."""
        invalidated = 0
        mask &= ~(1 << core_id)
        l1s = self.l1s
        # Set geometry is config-wide: derive the index once, not per
        # sharer (a hot line can have every other core in the mask).
        set_index = l1s[0]._set_index(line_addr)
        while mask:
            low = mask & -mask
            # Inline _invalidate_sharer: fused lookup + remove (the
            # helpers would each re-derive the set index and re-probe
            # the slot dict; this loop is the invalidation hot path).
            l1 = l1s[low.bit_length() - 1]
            cache_set = l1._sets[set_index]
            slot = cache_set.get(line_addr)
            if slot is not None:
                line = l1.lines[slot]
                if line.pending_words:
                    raise AssertionError(
                        "a SHARED line must not hold unpersisted writes")
                del cache_set[line_addr]
                line._detach()
            invalidated += 1
            mask ^= low
        return invalidated

    # ------------------------------------------------------------------
    # Invariant checks (used by the property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Verify SWMR and directory/cache agreement; return problems."""
        problems: List[str] = []
        holders: Dict[int, List[int]] = {}
        for l1 in self.l1s:
            for line in l1.iter_lines():
                holders.setdefault(line.addr, []).append(l1.core_id)
                if line.state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                    lid = self._lids.get(line.addr)
                    owner = -1 if lid is None else self._owner[lid]
                    if owner != l1.core_id:
                        problems.append(
                            f"core {l1.core_id} holds {line.addr:#x} in "
                            f"{line.state.value} without directory ownership")
        for lid, addr in enumerate(self._lids.addrs):
            owner = self._owner[lid]
            if owner >= 0:
                for l1 in self.l1s:
                    line = l1.lookup(addr, touch=False)
                    if (l1.core_id != owner and line is not None
                            and line.state is not MESIState.INVALID):
                        problems.append(
                            f"{addr:#x} owned by {owner} but also "
                            f"valid in core {l1.core_id}")
        for addr, cores in holders.items():
            m_holders = [
                c for c in cores
                if self.l1s[c].lookup(addr, touch=False).state
                in (MESIState.MODIFIED, MESIState.EXCLUSIVE)
            ]
            if len(m_holders) > 1:
                problems.append(
                    f"SWMR violated for {addr:#x}: M/E in cores {m_holders}")
        return problems
