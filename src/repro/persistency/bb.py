"""BB: Release Persistency through state-of-the-art buffered barriers.

Models the cache-based buffered-epoch-persistency barrier of Joshi et
al. [MICRO'15] as used by the paper's BB comparison point (Section 6.2):

* a barrier is inserted before each release and after each release (and
  before an acquire, if the thread has buffered writes);
* the barrier does **not** stall: it closes the current epoch and
  *proactively flushes* it — persists are issued immediately, chained
  after the previous epoch's ack so epochs persist in order;
* costs appear only on **conflicts** (Section 2.2.1):

  - *intra-thread*: writing a cache line whose previous-epoch flush is
    still in flight stalls until the ack (writes of different epochs
    cannot coalesce in one dirty line — Figure 2a);
  - *intra-thread*: evicting a dirty line of the open epoch persists it
    (after all older epochs) on the critical path of the demand miss;
  - *inter-thread*: a remote request for a dirty/in-flight line blocks
    the requester until the source's current epoch is durable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.coherence.l1cache import CacheLine, MESIState
from repro.consistency.events import MemoryEvent
from repro.persistency.base import PersistencyMechanism


class BBMechanism(PersistencyMechanism):
    """Buffered full persist barrier with proactive flushing."""

    name = "bb"
    enforces_rp = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cores = self.config.num_cores
        self._epoch: List[int] = [1] * cores
        # Dirty lines of the open (not yet flushed) epoch.
        self._open: List[Dict[int, CacheLine]] = [{} for _ in range(cores)]
        # The latest-completing persist of the flushed epochs: the next
        # epoch's persists are pipeline-ordered after it, and a remote
        # requester waiting for the source epoch waits for its ack.
        self._chain_tail: List[object] = [None] * cores
        # Ack times of recently closed epochs: a core may only have a
        # bounded number outstanding (the hardware's epoch-tag window).
        self._epoch_acks: List[List[int]] = [[] for _ in range(cores)]

    # ------------------------------------------------------------------
    # Stores / acquires
    # ------------------------------------------------------------------

    def on_write(self, core: int, line: CacheLine, event: MemoryEvent,
                 now: int) -> int:
        stall = self._wait_if_inflight(core, line.addr, now)
        self._apply_store(core, line, event, epoch=self._epoch[core])
        self._open[core][line.addr] = line
        return stall

    def on_release(self, core: int, line: CacheLine, event: MemoryEvent,
                   now: int) -> int:
        # Barrier before the release (proactive flush) ...
        stall = self._barrier(core, now)
        # ... the release write (cannot land on a line mid-flush) ...
        stall += self._wait_if_inflight(core, line.addr, now + stall)
        self._apply_store(core, line, event, epoch=self._epoch[core])
        self._open[core][line.addr] = line
        # ... and the barrier after the release.
        stall += self._barrier(core, now + stall)
        return stall

    def on_acquire(self, core: int, event: MemoryEvent, now: int,
                   sync_source=None) -> int:
        if self._open[core]:
            return self._barrier(core, now)
        return 0

    # ------------------------------------------------------------------
    # Coherence-triggered persists
    # ------------------------------------------------------------------

    def on_evict(self, core: int, line: CacheLine, now: int) -> int:
        """Evicting an open-epoch dirty line persists it on the miss path."""
        if not line.pending_words:
            record = self._inflight[core].get(line.addr)
            if record is not None:
                self._evict_inflight(core, record, now)
            return 0
        self._open[core].pop(line.addr, None)
        if self.config.bb_pipelined_epochs:
            record = self._issue_line(core, line, now,
                                      ordered_after=self._chain_tail[core],
                                      trigger="eviction")
        else:
            record = self._issue_line(core, line, now,
                                      after=self._chain_ack(core),
                                      trigger="eviction")
        self._advance_tail(core, record)
        return self._wait_for(core, now, [record], reason="eviction")

    def on_downgrade(self, owner: int, line: CacheLine,
                     to_state: MESIState, requester: int, now: int) -> int:
        """Inter-thread dependency: requester waits for the source epoch."""
        if line.pending_words:
            ready = self._flush_open(owner, now, trigger="downgrade",
                                     edge=(owner, requester))
            if ready > now:
                self.fabric.block_line_until(line.addr, ready)
            return self._wait_until_marked(requester, now, ready, owner)
        inflight = self._inflight_record(owner, line.addr, now)
        if inflight is not None:
            return self._wait_for(requester, now, [inflight],
                                  block_line=line.addr,
                                  reason="inter-thread")
        return 0

    # ------------------------------------------------------------------
    # The buffered barrier
    # ------------------------------------------------------------------

    def _barrier(self, core: int, now: int) -> int:
        """Close the open epoch and proactively flush it.

        Normally free; stalls only when the core exceeds its bounded
        window of outstanding (unacknowledged) epochs — the hardware
        can only tag a limited number of in-flight epochs, so a burst
        of barriers throttles on the oldest epoch's drain.
        """
        self.stats[core].barrier_count += 1
        epoch_ack = self._flush_open(core, now)
        self._epoch[core] += 1
        acks = self._epoch_acks[core]
        acks.append(epoch_ack)
        unacked = [t for t in acks if t > now]
        self._epoch_acks[core] = unacked
        window = self.config.bb_max_outstanding_epochs
        if len(unacked) <= window:
            return 0
        gate = sorted(unacked)[len(unacked) - window - 1]
        return self._wait_until(core, now, gate, reason="epoch-window")

    def _flush_open(self, core: int, now: int,
                    trigger: str = "epoch-drain", edge=None) -> int:
        """Issue persists for the open epoch, gated on the older epochs.

        Epoch ordering in the BB hardware is enforced with per-epoch
        outstanding-flush counters: the next epoch's flush *starts*
        once the previous epoch's acks have all arrived (Joshi et al.'s
        buffered epoch drain). This serial drain of whole epochs is the
        cost of full-barrier over-ordering that LRP's one-sided
        barriers avoid — the crux of the paper's Section 4.2 argument.

        Returns the time at which everything flushed so far is durable.
        """
        flushed = len(self._open[core])
        open_lines = list(self._open[core].values())
        if self.config.bb_pipelined_epochs:
            records = self._issue_lines(core, open_lines, now,
                                        ordered_after=self._chain_tail[core],
                                        trigger=trigger, edge=edge)
        else:
            records = self._issue_lines(core, open_lines, now,
                                        after=self._chain_ack(core),
                                        trigger=trigger, edge=edge)
        for record in records:
            self._advance_tail(core, record)
        self._open[core].clear()
        ack = self._chain_ack(core)
        if self.obs is not None and flushed:
            self.obs.span(f"epochs-c{core}", f"epoch {self._epoch[core]}",
                          now, max(0, ack - now), cat="epoch-drain",
                          args={"lines": flushed})
        return ack

    def _advance_tail(self, core: int, record) -> None:
        if record is None:
            return
        tail = self._chain_tail[core]
        if tail is None or record.complete_time > tail.complete_time:
            self._chain_tail[core] = record

    def _chain_ack(self, core: int) -> int:
        tail = self._chain_tail[core]
        return 0 if tail is None else tail.complete_time

    def _wait_if_inflight(self, core: int, line_addr: int, now: int) -> int:
        """Stall a write targeting a line whose flush is in flight."""
        record = self._inflight_record(core, line_addr, now)
        if record is None:
            return 0
        return self._wait_for(core, now, [record],
                              reason="write-conflict")

    def _wait_until_marked(self, waiter: int, now: int, ready: int,
                           issuer: int) -> int:
        """Wait for an epoch's durability, marking waited-on persists."""
        for record in self._inflight[issuer].values():
            if now < record.complete_time <= ready:
                self._mark_critical(record)
        return self._wait_until(waiter, now, ready,
                                reason="inter-thread")

    def drain(self, now: int) -> int:
        ready = now
        for core in range(self.config.num_cores):
            ready = max(ready, self._flush_open(core, now,
                                                trigger="drain"))
        return max(0, ready - now)
