"""SB: Release Persistency through strict (blocking) full barriers.

Per Section 6.2 of the paper:

* an SB is inserted **before** each release, blocking the thread until
  every cache line dirtied by earlier writes has persisted;
* an SB is inserted **after** each release, so the release itself is
  durable before execution proceeds (this is what lets the inter-thread
  component work: by the time anyone can acquire from this release, it
  has persisted or the downgrade blocks);
* inter-thread component: when a shared-memory dependency is detected
  via the coherence protocol (a remote core asks for a dirty line), the
  target thread blocks until the writes of the source thread's ongoing
  epoch have persisted.

SB buffers writes in the cache between barriers, but the barrier itself
stalls — no proactive flushing, no overlap.
"""

from __future__ import annotations

from typing import Dict, List

from repro.coherence.l1cache import CacheLine, MESIState
from repro.consistency.events import MemoryEvent
from repro.persistency.base import PersistencyMechanism


class SBMechanism(PersistencyMechanism):
    """Strict full persist barrier around every release."""

    name = "sb"
    enforces_rp = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Lines holding unpersisted writes, per core (the ongoing epoch).
        self._pending: List[Dict[int, CacheLine]] = [
            {} for _ in range(self.config.num_cores)
        ]

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def on_write(self, core: int, line: CacheLine, event: MemoryEvent,
                 now: int) -> int:
        self._apply_store(core, line, event, epoch=0)
        self._pending[core][line.addr] = line
        return 0

    def on_release(self, core: int, line: CacheLine, event: MemoryEvent,
                   now: int) -> int:
        # Barrier before the release: flush the ongoing epoch.
        stall = self._full_barrier(core, now)
        # The release write itself.
        self._apply_store(core, line, event, epoch=0)
        self._pending[core][line.addr] = line
        # Barrier after the release: the release is durable before the
        # thread proceeds.
        stall += self._full_barrier(core, now + stall)
        return stall

    # ------------------------------------------------------------------
    # Coherence-triggered persists
    # ------------------------------------------------------------------

    def on_evict(self, core: int, line: CacheLine, now: int) -> int:
        """A demand miss displaced a dirty line: persist it, blocking."""
        if not line.pending_words:
            record = self._inflight[core].get(line.addr)
            if record is not None:
                self._evict_inflight(core, record, now)
            return 0
        self._pending[core].pop(line.addr, None)
        record = self._issue_line(core, line, now, trigger="eviction")
        return self._wait_for(core, now, [record], reason="eviction")

    def on_downgrade(self, owner: int, line: CacheLine,
                     to_state: MESIState, requester: int, now: int) -> int:
        """Inter-thread dependency: requester waits for the source epoch."""
        if not line.pending_words:
            inflight = self._inflight_record(owner, line.addr, now)
            if inflight is not None:
                return self._wait_for(requester, now, [inflight],
                                      block_line=line.addr,
                                      reason="inter-thread")
            return 0
        edge = (owner, requester)
        records = list(self._issue_lines(
            owner, list(self._pending[owner].values()), now,
            trigger="downgrade", edge=edge))
        self._pending[owner].clear()
        if line.pending_words:  # line outside the pending map (defensive)
            records.append(self._issue_line(owner, line, now,
                                            trigger="downgrade", edge=edge))
        records.extend(self._outstanding(owner, now))
        return self._wait_for(requester, now, records,
                              block_line=line.addr,
                              reason="inter-thread")

    # ------------------------------------------------------------------
    # The barrier
    # ------------------------------------------------------------------

    def _full_barrier(self, core: int, now: int,
                      trigger: str = "barrier") -> int:
        """Persist every buffered write of ``core`` and block for acks.

        Also waits for in-flight persists of the core's earlier writes
        (e.g. issued by a remote downgrade at a later simulated time) —
        the barrier's contract is that *all* writes before it are
        durable when it completes.
        """
        self.stats[core].barrier_count += 1
        records = list(self._issue_lines(
            core, list(self._pending[core].values()), now, trigger=trigger))
        self._pending[core].clear()
        records.extend(self._outstanding(core, now))
        return self._wait_for(core, now, records, reason="barrier")

    def drain(self, now: int) -> int:
        stall = 0
        for core in range(self.config.num_cores):
            stall = max(stall, self._full_barrier(core, now,
                                                  trigger="drain"))
        return stall
