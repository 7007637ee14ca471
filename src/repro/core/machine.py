"""The simulated machine: cores + L1s + directory + NVM + persistency.

:meth:`Machine.execute` carries one memory operation of one hardware
thread through the full stack:

1. :meth:`Machine.coherence_access` obtains the line in the needed
   state: an L1 hit resolves from the cache's flat tables, a miss or an
   S->M upgrade goes through the fused ``fast_miss``/``fast_upgrade``
   closures of :meth:`Machine.make_fast_path` (the one implementation
   of the MESI transitions). A miss that demotes a remote owner or
   evicts a local victim runs the persistency mechanism's
   ``on_downgrade``/``on_evict`` hook, whose persists and stall cycles
   add to the latency;
2. the mechanism's hook for the operation itself runs (write, release,
   RMW, acquire), issuing NVM persists and returning stall cycles;
3. the architectural effect is recorded in the global trace.

The returned latency is what the scheduler adds to the thread's clock.
The batch engine (:mod:`repro.core.fastsim`) probes the L1 inline and
calls the same closures directly.
"""

from __future__ import annotations

from typing import Optional, Tuple, Type, Union

from repro.coherence.directory import CoherenceFabric
from repro.coherence.l1cache import (
    CODE_TO_STATE,
    EXCLUSIVE_CODE,
    INVALID,
    MODIFIED,
    MODIFIED_CODE,
    SHARED,
    SHARED_CODE,
    CacheLine,
)
from repro.common.params import MachineConfig
from repro.common.stats import CoreStats
from repro.consistency.events import MemOrder, MemoryEvent, Trace
from repro.core.thread import Op, OpKind
from repro.memory.address import line_address
from repro.memory.nvm import NVMController
from repro.obs import Observer
from repro.persistency import PersistencyMechanism, mechanism_by_name

Word = Optional[int]

# Hot-path aliases (enum member access is a metaclass lookup).
_WORK = OpKind.WORK
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_CAS = OpKind.CAS
_ACQUIRE = MemOrder.ACQUIRE
_RELEASE = MemOrder.RELEASE
_ACQ_REL = MemOrder.ACQ_REL


class Machine:
    """One simulated multicore with a pluggable persistency mechanism."""

    def __init__(self, config: MachineConfig,
                 mechanism: Union[str, Type[PersistencyMechanism]] = "nop",
                 observer: Optional[Observer] = None,
                 ) -> None:
        self.config = config
        self.obs = observer
        self.fabric = CoherenceFabric(config)
        self.nvm = NVMController(config)
        self.trace = Trace(record=config.record_trace)
        self.stats = [CoreStats(core_id=i) for i in range(config.num_cores)]
        if isinstance(mechanism, str):
            mechanism = mechanism_by_name(mechanism)
        self.mechanism: PersistencyMechanism = mechanism(
            config, self.nvm, self.fabric, self.stats, obs=observer)
        self.make_fast_path()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, core: int, op: Op, now: int) -> Tuple[object, int]:
        """Run ``op`` for hardware thread ``core`` at time ``now``.

        Returns ``(result, latency)`` where result is the load value,
        ``(success, old)`` for a CAS, the old value for an XCHG, or
        None for stores/work.
        """
        kind = op.kind
        if kind is _WORK:
            return None, op.cycles

        obs = self.obs
        if obs is not None and obs.provenance is not None:
            # Narrate the op's site: the scheduler executes one memory
            # op at a time machine-wide, so every store/persist/stall
            # the mechanism reports until the next op belongs to it
            # (downgrade stalls hit the requester — this core).
            obs.provenance.begin_op(op.site)
        line, latency = self.coherence_access(
            core, line_address(op.addr, self.config.line_bytes), now,
            kind is not _READ)

        # The operation itself.
        if kind is _READ:
            result, latency = self._do_read(core, op, now, latency)
        elif kind is _WRITE:
            result, latency = self._do_write(core, op, line, now, latency)
        else:
            result, latency = self._do_rmw(core, op, line, now, latency)
        return result, latency

    def coherence_access(self, core: int, line_addr: int, now: int,
                         exclusive: bool) -> Tuple[CacheLine, int]:
        """Obtain ``line_addr`` for ``core`` in the state an op needs.

        The L1 probe of :meth:`execute` over the machine's fused
        closures: a hit touches the LRU and counts ``l1_hits`` (a
        write to an E line upgrades it to M silently), an S->M upgrade
        goes through ``fast_upgrade`` and a miss through ``fast_miss``,
        which also runs the mechanism's downgrade and eviction hooks.
        Returns the requester's now-valid line and the latency so far;
        the caller applies the operation itself.
        """
        l1 = self.fabric.l1s[core]
        set_index = l1._set_index(line_addr)
        slot = l1._sets[set_index].get(line_addr)
        if slot is None:
            return self._fast_miss(core, line_addr, now, exclusive,
                                   set_index)
        tick = l1._tick + 1
        l1._tick = tick
        l1.lru[slot] = tick
        line = l1.lines[slot]
        if exclusive:
            code = l1.state_codes[slot]
            if code == SHARED_CODE:
                return line, self._fast_upgrade(core, line, now)
            if code == EXCLUSIVE_CODE:
                l1.state_codes[slot] = MODIFIED_CODE  # silent E->M
        self.stats[core].l1_hits += 1
        return line, self.config.l1_hit_cycles

    def make_fast_path(self, fastobs=None):
        """Build the fused miss/upgrade closures: the coherence path.

        Returns ``(fast_miss, fast_upgrade)`` and keeps the pair on the
        machine for :meth:`coherence_access`. Every piece of fabric
        state is pre-bound (all the referenced containers are
        identity-stable for the machine's lifetime). The constructor
        builds the pair, and the batch engine builds it again at run
        start and uses the pair returned. That call, and ``fastobs``,
        which is ignored, stay for ``perfbench/layers.py``: its
        ``traced_fast_path`` passes the keyword by name and times the
        coherence layer through the returned pair.

        ``fast_miss(core, line_addr, now, exclusive, set_index)``
        applies a miss's MESI transitions — demote a remote owner,
        invalidate the sharers of a line being written, evict the LRU
        victim, fill — then runs the mechanism's downgrade and eviction
        hooks once the full coherence latency is known, and returns
        ``(line, latency)``. ``fast_upgrade(core, line, now)`` handles
        an S->M upgrade (it never demotes an owner or evicts a victim,
        so only the invalidation count reaches stats) and returns the
        latency. Both are pinned by the golden run digests of
        tests/engine_digests.py.

        When the machine's observer has a trace collector, a miss
        emits the ``downgrade c<owner>`` instant before the mechanism's
        downgrade stall and the ``evict`` instant after it, on the
        requester's ``core<i>`` track.
        """
        config = self.config
        fabric = self.fabric
        stats_list = self.stats
        mechanism = self.mechanism
        lids = fabric._lids
        lids_index = lids.index
        lids_get = lids_index.get
        owner_arr = fabric._owner      # grown in place: alias stays valid
        sharers = fabric._sharers
        blocked = fabric._blocked_until
        lat = fabric.noc._latency_table
        l1s = fabric.l1s
        invalidate_mask = fabric._invalidate_mask
        n = config.num_cores
        home_shift = config.line_offset_bits
        l1_hit_cycles = config.l1_hit_cycles
        llc_hit = config.llc_hit_cycles
        new_line = CacheLine.__new__
        # Per-core container tables (identity-stable), so the miss path
        # pays one list index instead of an attribute chain per access.
        sets_by_core = [l1._sets for l1 in l1s]
        lru_by_core = [l1.lru for l1 in l1s]
        codes_by_core = [l1.state_codes for l1 in l1s]
        lines_by_core = [l1.lines for l1 in l1s]
        assoc = l1s[0]._assoc

        trace = self.obs.trace if self.obs is not None else None

        def fast_miss(core, line_addr, now, exclusive, set_index):
            stats = stats_list[core]
            stats.l1_misses += 1
            lid = lids_get(line_addr)
            if lid is None:
                # First touch: give the line its directory entry.
                lid = lids.intern(line_addr)
                owner_arr.append(-1)
                sharers.append(0)
            home = (line_addr >> home_shift) % n
            req_home = lat[core * n + home]
            if blocked:
                block_wait = (blocked.get(line_addr, 0)
                              - (now + l1_hit_cycles + req_home))
                if block_wait < 0:
                    block_wait = 0
            else:
                block_wait = 0
            latency = l1_hit_cycles + req_home + llc_hit + block_wait

            # Remote owner: demote. Transitions happen now; the
            # mechanism hooks run after the full coherence latency is
            # known.
            dg_owner = -1
            owner = owner_arr[lid]
            if owner >= 0 and owner != core:
                # Set geometry is config-wide, so the requester's
                # set_index locates the line in the owner's L1 too.
                oset = sets_by_core[owner][set_index]
                oslot = oset.get(line_addr)
                if oslot is None:
                    raise AssertionError(
                        f"directory names core {owner} owner of "
                        f"{line_addr:#x} but the line is not resident")
                ocodes = codes_by_core[owner]
                owner_line = lines_by_core[owner][oslot]
                dg_had_pending = bool(owner_line.pending_words)
                dg_was_modified = ocodes[oslot] == MODIFIED_CODE
                latency += (lat[home * n + owner] + l1_hit_cycles
                            + lat[owner * n + core])
                if exclusive:
                    dg_to_state = INVALID
                    del oset[line_addr]
                    owner_line._detach()
                else:
                    dg_to_state = SHARED
                    ocodes[oslot] = SHARED_CODE
                    sharers[lid] |= 1 << owner
                owner_arr[lid] = -1
                dg_owner = owner
            else:
                latency += lat[home * n + core]

            invalidated = 0
            if exclusive:
                mask = sharers[lid]
                if mask:
                    invalidated = invalidate_mask(mask, core, line_addr)
                    sharers[lid] = 0

            # Victim eviction, fused (victim and fill share the set).
            cache_set = sets_by_core[core][set_index]
            lru_list = lru_by_core[core]
            codes = codes_by_core[core]
            lines = lines_by_core[core]
            victim = None
            if len(cache_set) >= assoc:
                # A full set holds a live tick in every way, and ticks
                # are unique per L1: the LRU way has the smallest.
                base = set_index * assoc
                ways = lru_list[base:base + assoc]
                vslot = base + ways.index(min(ways))
                victim = lines[vslot]
                vaddr = victim.addr
                # A resident line was interned by the miss that filled it.
                vlid = lids_index[vaddr]
                if owner_arr[vlid] == core:
                    owner_arr[vlid] = -1
                sharers[vlid] &= ~(1 << core)
                del cache_set[vaddr]
                # Inline _detach: capture the final state on the view.
                # The fill below takes over the slot's code and line.
                victim._state = CODE_TO_STATE[codes[vslot]]
                victim._cache = None
                victim._slot = -1

            if exclusive:
                new_code = MODIFIED_CODE
                owner_arr[lid] = core
            elif not sharers[lid] and owner_arr[lid] < 0:
                new_code = EXCLUSIVE_CODE
                owner_arr[lid] = core
            else:
                new_code = SHARED_CODE
                sharers[lid] |= 1 << core

            # Inline fill: the victim's slot is the free one when we
            # just evicted; otherwise scan the non-full set.
            if victim is not None:
                slot = vslot
            else:
                slot = set_index * assoc
                while codes[slot]:
                    slot += 1
            l1 = l1s[core]
            line = new_line(CacheLine)
            line.addr = line_addr
            line.pending_words = {}
            line.min_epoch = None
            line.release_bit = False
            # No _state: an attached line reads its state from codes.
            line._cache = l1
            line._slot = slot
            codes[slot] = new_code
            lines[slot] = line
            cache_set[line_addr] = slot
            tick = l1._tick + 1
            l1._tick = tick
            lru_list[slot] = tick

            # Side-effect hooks: the downgrade's, then the eviction's.
            if dg_owner >= 0:
                ostats = stats_list[dg_owner]
                ostats.downgrades_received += 1
                if dg_was_modified and not dg_had_pending:
                    ostats.writebacks_total += 1
                if trace is not None:
                    # Narrated before the mechanism's downgrade stall
                    # grows latency.
                    trace.instant(f"core{core}", f"downgrade c{dg_owner}",
                                  now + latency, "coherence")
                latency += mechanism.on_downgrade(
                    dg_owner, owner_line, dg_to_state, core, now + latency)
                if owner_line.pending_words:
                    raise AssertionError(
                        f"{mechanism.name}: downgraded line "
                        f"{owner_line.addr:#x} still holds unpersisted "
                        f"words")
            if victim is not None:
                stats.evictions += 1
                if victim._state is MODIFIED and not victim.pending_words:
                    stats.writebacks_total += 1
                if trace is not None:
                    # Narrated after any downgrade stall, before the
                    # eviction's own.
                    trace.instant(f"core{core}", "evict", now + latency,
                                  "coherence")
                latency += mechanism.on_evict(core, victim, now + latency)
                if victim.pending_words:
                    raise AssertionError(
                        f"{mechanism.name}: evicted line "
                        f"{victim.addr:#x} still holds unpersisted words")
            if invalidated:
                stats.invalidations_received += invalidated
            return line, latency

        def fast_upgrade(core, line, now):
            stats = stats_list[core]
            stats.l1_misses += 1
            line_addr = line.addr
            # A resident line was interned by the miss that filled it.
            lid = lids_index[line_addr]
            home = (line_addr >> home_shift) % n
            req_home = lat[core * n + home]
            if blocked:
                block_wait = (blocked.get(line_addr, 0)
                              - (now + l1_hit_cycles + req_home))
                if block_wait < 0:
                    block_wait = 0
            else:
                block_wait = 0
            mask = sharers[lid]
            invalidated = (invalidate_mask(mask, core, line_addr)
                           if mask else 0)
            sharers[lid] = 0
            owner_arr[lid] = core
            codes_by_core[core][line._slot] = MODIFIED_CODE
            latency = (l1_hit_cycles + 2 * req_home + llc_hit
                       + block_wait)
            if invalidated:
                latency += lat[home * n + core]  # inv/ack, overlapped
                stats.invalidations_received += invalidated
            return latency

        self._fast_miss = fast_miss
        self._fast_upgrade = fast_upgrade
        return fast_miss, fast_upgrade

    def _do_read(self, core: int, op: Op, now: int,
                 latency: int) -> Tuple[Word, int]:
        stats = self.stats[core]
        stats.reads += 1
        order = op.order
        event = self.trace.record_read(core, op.addr, order)
        # A READ is always a read effect: is_acquire reduces to the
        # ordering annotation.
        if order is _ACQUIRE or order is _ACQ_REL:
            stats.acquires += 1
            latency += self.mechanism.on_acquire(
                core, event, now + latency,
                sync_source=self._sync_source(event))
        return event.read_value, latency

    def _do_write(self, core: int, op: Op, line, now: int,
                  latency: int) -> Tuple[None, int]:
        stats = self.stats[core]
        stats.writes += 1
        order = op.order
        event = self.trace.record_write(core, op.addr, op.value, order)
        # A WRITE is always a write effect: is_release reduces to the
        # ordering annotation.
        if order is _RELEASE or order is _ACQ_REL:
            stats.releases += 1
            latency += self.mechanism.on_release(core, line, event,
                                                 now + latency)
        else:
            latency += self.mechanism.on_write(core, line, event,
                                               now + latency)
        return None, latency

    def _do_rmw(self, core: int, op: Op, line, now: int,
                latency: int) -> Tuple[object, int]:
        stats = self.stats[core]
        stats.rmws += 1
        if op.kind is _CAS:
            event = self.trace.record_rmw(core, op.addr, op.expected,
                                          op.value, op.order)
            result: object = (event.success, event.read_value)
        else:  # XCHG
            event = self.trace.record_unconditional_rmw(
                core, op.addr, op.value, op.order)
            result = event.read_value
        # An RMW is always a read effect; its write effect is gated on
        # success — so the properties reduce to the annotation checks.
        order = op.order
        if order is _ACQUIRE or order is _ACQ_REL:
            stats.acquires += 1
            latency += self.mechanism.on_acquire(
                core, event, now + latency,
                sync_source=self._sync_source(event))
        if event.success:
            if order is _RELEASE or order is _ACQ_REL:
                stats.releases += 1
            latency += self.mechanism.on_rmw(core, line, event,
                                             now + latency)
        return result, latency

    def _sync_source(self, event: MemoryEvent) -> Optional[int]:
        """Core whose release this acquire reads from, if any."""
        if event.source_release and event.source_thread != event.thread_id:
            return event.source_thread
        return None

    # ------------------------------------------------------------------
    # Phase management
    # ------------------------------------------------------------------

    def install_initial_state(self, words, *, share: bool = False,
                              walks=None) -> None:
        """Install pre-built durable state (the pre-populated LFD).

        Used instead of executing the setup phase op-by-op: the words
        become both architectural memory and the NVM baseline image, as
        if a quiesced checkpoint had been taken (Section 6.1: "the data
        structure size refers to the initial number of nodes ... before
        statistics are collected"). ``walks`` is the walk store kept
        beside shared ``words`` (:meth:`NVMController.set_baseline_image`).
        """
        if len(self.trace):
            raise ValueError("install initial state before executing ops")
        self.trace.initialize(words, share=share)
        self.nvm.set_baseline_image(words, share=share, walks=walks)

    def finish(self, now: int) -> int:
        """End of run: drain everything so all writes become durable."""
        if self.obs is not None and self.obs.provenance is not None:
            self.obs.provenance.begin_op("(drain)")
        stall = self.mechanism.drain(now)
        if self.obs is not None:
            self.obs.span("run", "final-drain", now, stall, cat="drain")
        return stall
