"""ARP: acquire-release persistency (Kolli et al., ISCA'17).

Included to demonstrate the paper's central negative result (Section 3):
the ARP rule is **too weak** to recover a log-free data structure. ARP
only guarantees

    W  po-> Rel  sw-> Acq  po-> W'   =>   W  p-> W'

and in particular allows a release to persist *before* the writes that
precede it in program order — exactly the Figure 1(e) failure where a
linked-list node's link persists before the node's fields.

The model here follows the persist-buffer-based implementation the ARP
paper builds on (delegated persist ordering): every store enqueues a
word persist; buffer epochs advance when an *acquire* finds the
release-flag raised (the one-sided barrier of Section 3.2). Within an
epoch persists are unordered; epochs drain in order; a synchronizing
acquire additionally chains the acquiring thread's next epoch behind
the releasing thread's persists so far — which enforces the ARP rule,
and nothing stronger. The buffer is unbounded, so ARP never stalls.
"""

from __future__ import annotations

from typing import List, Optional

from repro.coherence.l1cache import CacheLine
from repro.consistency.events import MemoryEvent
from repro.persistency.base import PersistencyMechanism


class ARPMechanism(PersistencyMechanism):
    """One-sided barriers with ARP's (insufficient) semantics."""

    name = "arp"
    enforces_rp = False
    #: ARP does enforce its own (weaker) cross-thread rule.
    enforces_arp = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cores = self.config.num_cores
        self._release_flag: List[bool] = [False] * cores
        # Ack time of all epochs already closed (the drain chain).
        self._closed_ack: List[int] = [0] * cores
        # Running max ack of the open epoch's persists.
        self._open_ack: List[int] = [0] * cores

    def _enqueue_persist(self, core: int, event: MemoryEvent,
                         now: int) -> None:
        """Word-granular persist into the per-thread buffer chain."""
        line_addr = event.addr & ~(self.config.line_bytes - 1)
        record = self.nvm.issue_persist(
            line_addr, {event.addr: (event.value, event.event_id)},
            now, after=self._closed_ack[core])
        self._record_core[record.issue_seq] = core
        self._open_ack[core] = max(self._open_ack[core],
                                   record.complete_time)
        self.stats[core].persists_issued += 1
        self.stats[core].writebacks_total += 1
        obs = self.obs
        if obs is not None:
            obs.span(f"nvm-ch{self.nvm.channel_for(line_addr)}",
                     f"persist c{core}", record.issue_time,
                     record.complete_time - record.issue_time,
                     cat="persist")
            if obs.provenance is not None:
                obs.provenance.note_word_persist(core, record,
                                                 trigger="store-buffer")

    def on_write(self, core: int, line: CacheLine, event: MemoryEvent,
                 now: int) -> int:
        # Persistency is handled by the buffer; the cache line carries
        # no persistency metadata under ARP.
        self._enqueue_persist(core, event, now)
        return 0

    def on_release(self, core: int, line: CacheLine, event: MemoryEvent,
                   now: int) -> int:
        """No barrier on a release — only the flag is raised (§3.2)."""
        self._enqueue_persist(core, event, now)
        self._release_flag[core] = True
        return 0

    def on_acquire(self, core: int, event: MemoryEvent, now: int,
                   sync_source: Optional[int] = None) -> int:
        """Place a full persist barrier iff the flag is raised."""
        chain_from_source = 0
        if sync_source is not None and sync_source != core:
            chain_from_source = max(self._closed_ack[sync_source],
                                    self._open_ack[sync_source])
        if self._release_flag[core] or chain_from_source:
            self.stats[core].barrier_count += 1
            self._closed_ack[core] = max(self._closed_ack[core],
                                         self._open_ack[core],
                                         chain_from_source)
            self._open_ack[core] = 0
            self._release_flag[core] = False
        return 0

    def drain(self, now: int) -> int:
        # All persists are already enqueued; nothing blocks.
        return 0
