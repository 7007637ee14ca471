"""Volatile execution (NOP): no persistency model is enforced.

Writebacks still reach the memory subsystem (the NVM *is* main
memory), so an NVM image exists — but nothing orders it, which is what
the crash-recovery experiments demonstrate: NOP leaves LFDs in
unrecoverable states. No hook ever stalls a thread.
"""

from __future__ import annotations

from repro.coherence.l1cache import CacheLine, MESIState
from repro.persistency.base import PersistencyMechanism


class NOPMechanism(PersistencyMechanism):
    """Baseline with zero persistency overhead (Section 6.2, "NOP")."""

    name = "nop"
    enforces_rp = False

    def on_evict(self, core: int, line: CacheLine, now: int) -> int:
        if line.pending_words:
            self._issue_line(core, line, now, trigger="eviction")
        return 0

    def on_downgrade(self, owner: int, line: CacheLine,
                     to_state: MESIState, requester: int, now: int) -> int:
        if line.pending_words:
            self._issue_line(owner, line, now, trigger="downgrade",
                             edge=(owner, requester))
        return 0

    def drain(self, now: int) -> int:
        for l1 in self.fabric.l1s:
            self._issue_lines(l1.core_id, l1.pending_lines(), now,
                              trigger="drain")
        return 0
