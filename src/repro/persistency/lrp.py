"""LRP: Lazy Release Persistency (the paper's mechanism, Section 5).

Writes simply buffer in the L1 and never trigger persists on their own.
Persists happen when the coherence protocol detects that buffered state
is about to leave the private cache, upholding four invariants:

* **I1** — evicting a *released* line triggers the persist of all
  earlier writes, then of the releases in epoch order, then of the line
  itself — all **off the critical path** (nobody waits).
* **I2** — downgrading a released line (a remote request, i.e. the
  acquiring side of a synchronizes-with edge) blocks the **requester**
  until that whole chain, including the released line, has persisted.
* **I3** — a successful RMW marked acquire blocks the pipeline until
  the RMW's own write has persisted.
* **I4** — the directory persists write-backs it receives and blocks
  requests for that line until the ack.

Hardware state per core (Section 5.2.1, Figure 3): an epoch-id counter
(incremented on every release), a pending-persists counter (modeled by
the ack times of issued persists), per-line ``min_epoch`` +
``release-bit`` metadata, a 32-entry Release Epoch Table (RET) with a
watermark that triggers the persist of the oldest release, and the
persist engine that scans the L1.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.coherence.l1cache import CacheLine, MESIState
from repro.consistency.events import MemoryEvent
from repro.memory.nvm import PersistRecord
from repro.persistency.base import PersistencyMechanism


def _later(first: Optional[PersistRecord],
           second: Optional[PersistRecord]) -> Optional[PersistRecord]:
    """The record completing later (None counts as the distant past)."""
    if first is None:
        return second
    if second is None or second.complete_time <= first.complete_time:
        return first
    return second


class LRPMechanism(PersistencyMechanism):
    """Lazy Release Persistency (one-sided barriers, enforced lazily)."""

    name = "lrp"
    enforces_rp = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cores = self.config.num_cores
        self._epoch: List[int] = [1] * cores
        # Release Epoch Table: line addr -> release-epoch, insertion
        # order == epoch order (releases allocate entries in sequence).
        self._ret: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(cores)
        ]
        # All lines holding unpersisted writes (the persist engine's
        # L1-scan result, maintained incrementally for speed).
        self._pending: List[Dict[int, CacheLine]] = [
            {} for _ in range(cores)
        ]
        # The youngest release persist issued so far: releases must
        # persist in epoch order even across engine invocations, so
        # each release persist is pipeline-ordered after this record.
        self._release_tail: List[Optional[PersistRecord]] = [None] * cores
        self.stats_engine_runs = 0
        self.stats_ret_watermark_drains = 0
        self.stats_epoch_wraps = 0

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def on_write(self, core: int, line: CacheLine, event: MemoryEvent,
                 now: int) -> int:
        """Regular write: buffer only (min-epoch stamped if line clean)."""
        self._apply_store(core, line, event, epoch=self._epoch[core])
        self._pending[core][line.addr] = line
        return 0

    def on_release(self, core: int, line: CacheLine, event: MemoryEvent,
                   now: int) -> int:
        """Release: bump the epoch, tag the line, allocate a RET entry."""
        self._bump_epoch(core, now)
        # A release cannot coalesce with previous writes in the same
        # dirty line: the line is first persisted, then treated clean.
        if line.pending_words:
            if line.release_bit:  # is_released, pending known truthy
                # The line holds an older release: persist via the
                # engine so its preceding writes persist first.
                self._persist_engine(core, line, now, cause="release")
            else:
                self._pending[core].pop(line.addr, None)
                self._issue_line(core, line, now, trigger="release")
        self._apply_store(core, line, event, epoch=self._epoch[core])
        line.release_bit = True
        self._pending[core][line.addr] = line
        self._ret[core][line.addr] = self._epoch[core]
        self._check_watermark(core, now)
        return 0

    def on_rmw(self, core: int, line: CacheLine, event: MemoryEvent,
               now: int) -> int:
        """Successful RMW: release bookkeeping plus invariant I3."""
        if event.order.has_release:
            stall = self.on_release(core, line, event, now)
            if event.order.has_acquire:
                # I3 (+ release ordering): the RMW's write may persist
                # only after earlier writes; block until it is durable.
                ready, records = self._persist_engine(
                    core, line, now, cause="rmw-acquire")
                stall += self._wait_for(core, now + stall, records,
                                        reason="rmw-acquire")
            return stall
        if event.order.has_acquire:
            stall = self.on_write(core, line, event, now)
            self._pending[core].pop(line.addr, None)
            record = self._issue_line(core, line, now + stall,
                                      trigger="rmw-acquire")
            return stall + self._wait_for(core, now + stall, [record],
                                          reason="rmw-acquire")
        return self.on_write(core, line, event, now)

    def on_acquire(self, core: int, event: MemoryEvent, now: int,
                   sync_source=None) -> int:
        """Acquire loads need no local action (Section 5.2.2)."""
        return 0

    # ------------------------------------------------------------------
    # Coherence-triggered persists (invariants I1, I2, I4)
    # ------------------------------------------------------------------

    def on_evict(self, core: int, line: CacheLine, now: int) -> int:
        if not line.pending_words:
            record = self._inflight[core].get(line.addr)
            if record is not None:
                self._evict_inflight(core, record, now)
            return 0
        if line.release_bit:  # is_released, pending known truthy
            # I1: run the persist engine, off the critical path; the
            # directory blocks the line until its persist acks (the
            # PutM transient state of Section 5.2.3).
            ready, _records = self._persist_engine(core, line, now,
                                                   cause="eviction")
            self.fabric.block_line_until(line.addr, ready)
            return 0
        # Only-written victim: persist off the critical path; I4 blocks
        # requests for the line at the directory until the ack.
        self._pending[core].pop(line.addr, None)
        record = self._issue_line(core, line, now, trigger="eviction")
        self.fabric.block_line_until(line.addr, record.complete_time)
        return 0

    def on_downgrade(self, owner: int, line: CacheLine,
                     to_state: MESIState, requester: int, now: int) -> int:
        if line.pending_words:
            if line.release_bit:  # is_released, pending known truthy
                # I2: the requester blocks until the release and all of
                # its preceding writes have persisted. The directory
                # holds the line until then, so no other thread can
                # consume the not-yet-durable value.
                ready, records = self._persist_engine(
                    owner, line, now, cause="downgrade",
                    edge=(owner, requester))
                for record in records:
                    if record.complete_time > now:
                        self._mark_critical(record)
                if ready > now:
                    self.fabric.block_line_until(line.addr, ready)
                return self._wait_until(requester, now, ready,
                                        reason="inter-thread")
            # Only-written: persist off the critical path; the data is
            # forwarded immediately (no RP ordering without a release).
            self._pending[owner].pop(line.addr, None)
            self._issue_line(owner, line, now, trigger="downgrade",
                             edge=(owner, requester))
            return 0
        inflight = self._inflight_record(owner, line.addr, now)
        if inflight is not None:
            # The line's persist (e.g. from a RET-watermark drain) is
            # still in flight: the requester waits for durability.
            return self._wait_for(requester, now, [inflight],
                                  block_line=line.addr,
                                  reason="inter-thread")
        return 0

    # ------------------------------------------------------------------
    # The persist engine (Section 5.2.2)
    # ------------------------------------------------------------------

    def _persist_engine(self, core: int, trigger: CacheLine,
                        now: int, cause: str = "epoch-drain",
                        edge: Optional[Tuple[int, int]] = None
                        ) -> Tuple[int, List[PersistRecord]]:
        """Persist ``trigger`` (a released line) and everything older.

        ``cause`` names the coherence event that invoked the engine
        (provenance trigger taxonomy); ``edge`` is the owner->requester
        hb-edge for downgrade-invoked runs.

        Scans the pending lines: only-written lines with a smaller
        min-epoch are persisted immediately (unordered); released lines
        with a smaller epoch are buffered and persisted *after* all
        those writes ack, in epoch order; the trigger persists last.
        Returns the chain's ack time and the issued records.
        """
        self.stats_engine_runs += 1
        release_epoch = trigger.min_epoch
        if release_epoch is None:
            raise ValueError("persist-engine trigger must hold a release")
        pending = self._pending[core]
        pending.pop(trigger.addr, None)

        writes_tail: Optional[PersistRecord] = None
        records: List[PersistRecord] = []
        older_releases: List[CacheLine] = []
        older_writes: List[CacheLine] = []
        for line in list(pending.values()):
            if line.min_epoch is None or line.min_epoch >= release_epoch:
                continue
            if line.is_released:
                older_releases.append(line)
                continue
            pending.pop(line.addr, None)
            older_writes.append(line)
        for record in self._issue_lines(core, older_writes, now,
                                        trigger=cause, edge=edge):
            records.append(record)
            writes_tail = _later(writes_tail, record)

        # Writes of older epochs may already be in flight (persisted by
        # an earlier coherence event): the releases are ordered behind
        # those too.
        for record in self._outstanding(core, now,
                                        below_epoch=release_epoch):
            writes_tail = _later(writes_tail, record)

        # Releases are *scheduled* in epoch order, ordered behind every
        # prior-write persist; the memory system pipelines the ordered
        # stream (Section 5.2.2 algorithm, with ordering delegated to
        # the NVM-side queues rather than ack polling).
        older_releases.sort(key=lambda l: l.min_epoch or 0)
        ready = now if writes_tail is None else writes_tail.complete_time
        barrier = _later(writes_tail, self._release_tail[core])
        for release_line in older_releases + [trigger]:
            pending.pop(release_line.addr, None)
            self._ret[core].pop(release_line.addr, None)
            record = self._issue_line(core, release_line, now,
                                      ordered_after=barrier,
                                      trigger=cause, edge=edge)
            if record is None:
                continue
            records.append(record)
            barrier = record
            self._release_tail[core] = record
            ready = max(ready, record.complete_time)
        if self.obs is not None:
            self.obs.span(f"engine-c{core}", "persist-engine", now,
                          max(0, ready - now), cat="epoch-drain",
                          args={"persists": len(records)})
        return ready, records

    # ------------------------------------------------------------------
    # Epoch counter and RET management (Section 5.2.1)
    # ------------------------------------------------------------------

    def _bump_epoch(self, core: int, now: int) -> None:
        self._epoch[core] += 1
        if self._epoch[core] >= self.config.epoch_limit:
            # Epoch-id overflow: persist all not-yet-persisted lines
            # (ordered), then restart the epochs.
            self.stats_epoch_wraps += 1
            self._drain_core(core, now, trigger="epoch-wrap")
            self._epoch[core] = 1

    def _check_watermark(self, core: int, now: int) -> None:
        """RET at watermark: persist the oldest release, off-path."""
        while len(self._ret[core]) >= self.config.ret_watermark:
            self.stats_ret_watermark_drains += 1
            oldest_addr = next(iter(self._ret[core]))
            oldest_line = self._pending[core].get(oldest_addr)
            if oldest_line is None or not oldest_line.is_released:
                self._ret[core].pop(oldest_addr, None)
                continue
            self._persist_engine(core, oldest_line, now,
                                 cause="epoch-drain")

    def _drain_core(self, core: int, now: int,
                    trigger: str = "drain") -> int:
        """Persist every buffered line of a core (ordered); ack time."""
        pending = self._pending[core]
        writes_ack = now
        releases: List[CacheLine] = []
        writes: List[CacheLine] = []
        for line in list(pending.values()):
            if line.is_released:
                releases.append(line)
                continue
            pending.pop(line.addr, None)
            writes.append(line)
        for record in self._issue_lines(core, writes, now, trigger=trigger):
            writes_ack = max(writes_ack, record.complete_time)
        writes_tail: Optional[PersistRecord] = None
        for record in self._outstanding(core, now):
            writes_tail = _later(writes_tail, record)
        releases.sort(key=lambda l: l.min_epoch or 0)
        ready = max(writes_ack,
                    writes_tail.complete_time if writes_tail else now)
        barrier = _later(writes_tail, self._release_tail[core])
        for line in releases:
            pending.pop(line.addr, None)
            self._ret[core].pop(line.addr, None)
            record = self._issue_line(core, line, now,
                                      ordered_after=barrier,
                                      trigger=trigger)
            if record is not None:
                barrier = record
                self._release_tail[core] = record
                ready = max(ready, record.complete_time)
        return ready

    def drain(self, now: int) -> int:
        ready = now
        for core in range(self.config.num_cores):
            ready = max(ready, self._drain_core(core, now))
        return max(0, ready - now)

    # ------------------------------------------------------------------
    # Introspection (tests / ablations)
    # ------------------------------------------------------------------

    def ret_occupancy(self, core: int) -> int:
        return len(self._ret[core])

    def current_epoch(self, core: int) -> int:
        return self._epoch[core]
