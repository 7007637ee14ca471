"""Common machinery for persistency mechanisms.

A :class:`PersistencyMechanism` receives hooks from the machine for

* executed stores (plain / release / RMW) and acquires,
* coherence side effects (L1 eviction, remote downgrade/invalidation),
* the end-of-run drain.

Each hook returns the number of *stall cycles* charged to the acting
thread (for stores/acquires/evictions) or to the **requesting** thread
(for downgrades — e.g. LRP invariant I2 blocks the acquirer, not the
releaser). Hooks issue line persists to the NVM controller and keep the
bookkeeping needed for Figure 6: a persist counts as a *critical-path
writeback* the first time some thread actually waits on its ack.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.coherence.directory import CoherenceFabric
from repro.coherence.l1cache import CacheLine, MESIState
from repro.common.params import MachineConfig
from repro.common.stats import CoreStats
from repro.consistency.events import MemoryEvent
from repro.memory.nvm import NVMController, PersistRecord
from repro.obs import Observer

Word = Optional[int]


class PersistencyMechanism:
    """Base class: no persistency actions at all (see also NOP)."""

    name = "base"
    #: Whether the mechanism guarantees Release Persistency (Section 4).
    enforces_rp = False

    def __init__(self, config: MachineConfig, nvm: NVMController,
                 fabric: CoherenceFabric, stats: List[CoreStats],
                 obs: Optional[Observer] = None) -> None:
        self.config = config
        self.nvm = nvm
        self.fabric = fabric
        self.stats = stats
        self.obs = obs
        if obs is not None and obs.provenance is not None:
            obs.provenance.mechanism = self.name
        self._critical_seqs: Set[int] = set()
        self._record_core: Dict[int, int] = {}
        # Per-core map of line addr -> the most recent in-flight persist
        # record (issued, possibly not yet acknowledged).
        self._inflight: List[Dict[int, PersistRecord]] = [
            {} for _ in range(config.num_cores)
        ]
        # Per-core in-flight persists of the core's own writes, tagged
        # with the epoch of the line's earliest write. Barriers (and
        # LRP's persist engine) must wait for these too: a write may
        # have been persisted early by a coherence event, at a later
        # simulated time than the thread's own clock.
        self._issued: List[List[Tuple[int, PersistRecord]]] = [
            [] for _ in range(config.num_cores)
        ]

    # ------------------------------------------------------------------
    # Hooks (override in subclasses). All times are absolute cycles.
    # ------------------------------------------------------------------

    def on_write(self, core: int, line: CacheLine, event: MemoryEvent,
                 now: int) -> int:
        """A plain store is about to be recorded into ``line``."""
        self._apply_store(core, line, event, epoch=0)
        return 0

    def on_release(self, core: int, line: CacheLine, event: MemoryEvent,
                   now: int) -> int:
        """A release store (or successful release-RMW write) performs."""
        self._apply_store(core, line, event, epoch=0)
        return 0

    def on_rmw(self, core: int, line: CacheLine, event: MemoryEvent,
               now: int) -> int:
        """A successful RMW performs (ordering read off the event)."""
        if event.order.has_release:
            return self.on_release(core, line, event, now)
        return self.on_write(core, line, event, now)

    #: Contract flag for the batch engine: on_acquire implementations
    #: must not dereference their ``event`` argument (they may only use
    #: ``core``, ``now`` and ``sync_source``). Every mechanism in the
    #: tree satisfies this, which lets the batch engine skip building
    #: the MemoryEvent for acquire loads when trace recording is off
    #: (it passes ``event=None``). An override that needs event fields
    #: must set this False on its class; the fast-vs-reference
    #: equivalence tests will catch a stale flag.
    acquire_ignores_event = True

    def on_acquire(self, core: int, event: MemoryEvent, now: int,
                   sync_source: Optional[int] = None) -> int:
        """An acquire load (or the read half of an acquire-RMW) performs.

        ``sync_source`` is the core whose release this acquire reads
        from (None when the acquire does not synchronize) — only ARP's
        buffer barrier needs it.
        """
        return 0

    def on_evict(self, core: int, line: CacheLine, now: int) -> int:
        """``line`` is displaced from ``core``'s L1 (may hold pending)."""
        return 0

    def on_downgrade(self, owner: int, line: CacheLine,
                     to_state: MESIState, requester: int, now: int) -> int:
        """A remote request demotes ``owner``'s line; stall hits requester."""
        return 0

    def drain(self, now: int) -> int:
        """Persist everything still buffered (end of run)."""
        return 0

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _apply_store(self, core: int, line: CacheLine, event: MemoryEvent,
                     epoch: int) -> None:
        """Merge the store's value into the line's pending words."""
        line.record_write(event.addr, event.value, event.event_id, epoch)
        obs = self.obs
        if obs is not None and obs.provenance is not None:
            obs.provenance.note_store(core, line.addr)

    def _issue_line(self, core: int, line: CacheLine, now: int, *,
                    after: int = 0,
                    ordered_after: Optional[PersistRecord] = None,
                    trigger: str = "drain",
                    edge: Optional[Tuple[int, int]] = None
                    ) -> Optional[PersistRecord]:
        """Persist a line's pending words; clears them. None if clean."""
        if not line.pending_words:
            return None
        epoch = line.min_epoch or 0
        payload = line.take_persist_payload()
        record = self.nvm.issue_persist(line.addr, payload, now,
                                        after=after,
                                        ordered_after=ordered_after)
        self._record_core[record.issue_seq] = core
        self._inflight[core][line.addr] = record
        self._issued[core].append((epoch, record))
        self.stats[core].persists_issued += 1
        self.stats[core].writebacks_total += 1
        if self.obs is not None:
            self._narrate_persists(core, (record,), trigger, edge)
        return record

    def _narrate_persists(self, core: int,
                          records: Iterable[PersistRecord], trigger: str,
                          edge: Optional[Tuple[int, int]]) -> None:
        """Each line persist's trace span and provenance note, in issue
        order (called only with an observer attached)."""
        obs = self.obs
        for record in records:
            if obs.trace is not None:
                channel = self.nvm.channel_for(record.line_addr)
                obs.span(f"nvm-ch{channel}", f"persist c{core}",
                         record.issue_time,
                         record.complete_time - record.issue_time,
                         cat="persist")
            if obs.provenance is not None:
                obs.provenance.note_persist(core, record, trigger, edge)

    def _issue_lines(self, core: int, lines: Iterable[CacheLine],
                     now: int, *, after: int = 0,
                     ordered_after: Optional[PersistRecord] = None,
                     trigger: str = "drain",
                     edge: Optional[Tuple[int, int]] = None
                     ) -> List[PersistRecord]:
        """Persist many lines' pending words as one NVM batch.

        Bit-identical to calling :meth:`_issue_line` per line in order
        (the batch shares the ``after``/``ordered_after`` constraints,
        so the channel accounting has a closed form). Each record is
        narrated after the batch, in issue order: a persist's trace
        span and provenance note read only that record and its own
        line's entry, so they come out as the per-line path's do.
        """
        dirty = [line for line in lines if line.pending_words]
        if not dirty:
            return []
        if len(dirty) < 2:
            return [self._issue_line(core, dirty[0], now, after=after,
                                     ordered_after=ordered_after,
                                     trigger=trigger, edge=edge)]
        epochs = []
        items = []
        for line in dirty:
            epochs.append(line.min_epoch or 0)
            items.append((line.addr, line.take_persist_payload()))
        records = self.nvm.issue_persist_batch(
            items, now, after=after, ordered_after=ordered_after)
        record_core = self._record_core
        inflight = self._inflight[core]
        issued = self._issued[core]
        for epoch, record in zip(epochs, records):
            record_core[record.issue_seq] = core
            inflight[record.line_addr] = record
            issued.append((epoch, record))
        stats = self.stats[core]
        stats.persists_issued += len(records)
        stats.writebacks_total += len(records)
        if self.obs is not None:
            self._narrate_persists(core, records, trigger, edge)
        return records

    def _wait_for(self, waiter: int, now: int,
                  records: Iterable[Optional[PersistRecord]],
                  block_line: Optional[int] = None,
                  reason: str = "persist") -> int:
        """Block ``waiter`` until all ``records`` ack; returns the stall.

        Any record actually waited on is promoted to a critical-path
        writeback (counted once, against its issuing core).
        ``block_line`` additionally holds the line in a directory
        transient state until the acks, so that *other* threads cannot
        consume the not-yet-durable value either.
        """
        ready = now
        for record in records:
            if record is None:
                continue
            if record.complete_time > now:
                self._mark_critical(record)
            ready = max(ready, record.complete_time)
        if block_line is not None and ready > now:
            self.fabric.block_line_until(block_line, ready)
        return self._charge_stall(waiter, now, ready, reason)

    def _wait_until(self, waiter: int, now: int, ready: int,
                    reason: str = "persist") -> int:
        """Block ``waiter`` until absolute time ``ready``."""
        return self._charge_stall(waiter, now, ready, reason)

    def _charge_stall(self, waiter: int, now: int, ready: int,
                      reason: str = "persist") -> int:
        stall = max(0, ready - now)
        if stall:
            stats = self.stats[waiter]
            stats.persist_stall_cycles += stall
            stats.stall_reasons[reason] = (
                stats.stall_reasons.get(reason, 0) + stall)
            obs = self.obs
            if obs is not None:
                if obs.trace is not None:
                    obs.span(f"stall-c{waiter}", reason, now, stall,
                             cat="stall")
                if obs.provenance is not None:
                    obs.provenance.note_stall(reason, stall)
        return stall

    def _mark_critical(self, record: PersistRecord) -> None:
        if record.issue_seq in self._critical_seqs:
            return
        self._critical_seqs.add(record.issue_seq)
        issuer = self._record_core.get(record.issue_seq)
        if issuer is not None:
            self.stats[issuer].writebacks_critical += 1
            obs = self.obs
            if obs is not None and obs.provenance is not None:
                obs.provenance.note_critical(record.issue_seq)

    def _inflight_record(self, core: int, line_addr: int,
                         now: int) -> Optional[PersistRecord]:
        """An in-flight (not yet acknowledged) persist of the line, if any."""
        record = self._inflight[core].get(line_addr)
        if record is not None and record.complete_time <= now:
            del self._inflight[core][line_addr]
            return None
        return record

    def _outstanding(self, core: int, now: int,
                     below_epoch: Optional[int] = None
                     ) -> List[PersistRecord]:
        """In-flight persists of the core's writes that a barrier (or
        the persist engine) must still wait for.

        ``below_epoch`` restricts the wait to persists of lines whose
        earliest write belongs to an older epoch — LRP's one-sided
        semantics only order a release after *earlier* writes.
        Acknowledged entries are pruned as a side effect.
        """
        live: List[Tuple[int, PersistRecord]] = []
        result: List[PersistRecord] = []
        for epoch, record in self._issued[core]:
            if record.complete_time <= now:
                continue
            live.append((epoch, record))
            if below_epoch is None or epoch < below_epoch:
                result.append(record)
        self._issued[core] = live
        return result

    def _evict_inflight(self, core: int, record: PersistRecord,
                        now: int) -> None:
        """A clean line left ``core``'s L1 with ``record``, its latest
        persist, in ``_inflight``. If the persist is still in flight,
        put the directory entry in a transient state blocking requests
        for the line until the ack (the PutM handling of Section 5.2.3)
        — so no other thread can consume the value before it is
        durable; if it has acked, retire the entry.

        The eviction hooks probe ``_inflight`` themselves and call this
        only on a hit: most clean victims have no entry.
        """
        if record.complete_time <= now:
            del self._inflight[core][record.line_addr]
        else:
            self.fabric.block_line_until(record.line_addr,
                                         record.complete_time)
