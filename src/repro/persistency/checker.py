"""Verification of Release Persistency over recorded executions.

Two checks, both grounded in the paper's Section 4:

* **Persist-order check** — RP demands ``W1 hb-> W2  =>  W1 p-> W2``.
  The NVM's persist log gives the durability order of line persists;
  each persisted word is tagged with the youngest store it carries, so
  a write's *effect* becomes durable either directly or by being
  coalesced under an hb-later write to the same word. A violation is a
  pair ``W1 hb-> W2`` such that crashing at some log prefix would show
  W2's effect without W1's.

* **Consistent-cut check** — for a concrete crash prefix, every write
  visible in the NVM image must have all of its hb-predecessors
  reflected (directly or via hb-later same-word overwrites). This is
  the checkable form of Izraelevitz & Scott's recovery criterion that
  LFD null recovery relies on.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.consistency.events import MemoryEvent, Trace
from repro.consistency.happens_before import HappensBefore
from repro.memory.nvm import NVMController

_NEVER = float("inf")


@dataclasses.dataclass(frozen=True)
class Violation:
    """An RP-violating pair: ``earlier hb-> later`` persisted backwards."""

    earlier: MemoryEvent
    later: MemoryEvent
    earlier_durable_at: float   # log index (inf = never durable)
    later_durable_at: float

    def __str__(self) -> str:
        return (
            f"W{self.earlier.event_id}(t{self.earlier.thread_id}, "
            f"addr={self.earlier.addr:#x}) hb-> "
            f"W{self.later.event_id}(t{self.later.thread_id}, "
            f"addr={self.later.addr:#x}) but durable at log indices "
            f"{self.earlier_durable_at} > {self.later_durable_at}")


class RPChecker:
    """Checks a finished run's persist log against the RP rules.

    The pre-populated baseline is installed without events, so every
    recorded write belongs to the measured run.
    """

    def __init__(self, trace: Trace, nvm: NVMController,
                 hb: Optional[HappensBefore] = None) -> None:
        self._trace = trace
        self._nvm = nvm
        # The persist order is constrained by the RP-rule closure
        # (Section 4.1) — see HappensBefore's "rp" mode.
        self._hb = hb or HappensBefore.from_trace(trace, mode="rp")
        self._log = nvm.persist_log()
        # word -> ordered list of (log index, store event id) persisted.
        self._word_history: Dict[int, List[Tuple[int, int]]] = {}
        for idx, record in enumerate(self._log):
            for word, event_id in record.word_events().items():
                self._word_history.setdefault(word, []).append(
                    (idx, event_id))

    @property
    def happens_before(self) -> HappensBefore:
        return self._hb

    def durable_index(self, write: MemoryEvent) -> float:
        """First log index at which ``write``'s effect is durable.

        The effect is durable when the write's own value persists, or
        when an hb-later write to the same word persists (the write was
        legitimately coalesced/overwritten within a consistent cut).
        """
        for idx, event_id in self._word_history.get(write.addr, ()):  # ordered
            if event_id == write.event_id:
                return idx
            if (event_id > write.event_id
                    and self._hb.ordered(write.event_id, event_id)):
                return idx
        return _NEVER

    def check_order(self) -> List[Violation]:
        """All RP violations in the persist log (empty = RP holds)."""
        violations: List[Violation] = []
        durable: Dict[int, float] = {}
        for earlier, later in self._hb.write_pairs():
            for event in (earlier, later):
                if event.event_id not in durable:
                    durable[event.event_id] = self.durable_index(event)
            if durable[later.event_id] < durable[earlier.event_id]:
                violations.append(Violation(
                    earlier=earlier, later=later,
                    earlier_durable_at=durable[earlier.event_id],
                    later_durable_at=durable[later.event_id]))
        return violations

    def check_cut(self, prefix_len: int) -> List[Violation]:
        """Consistent-cut violations for a crash after ``prefix_len``
        acknowledged persists (empty = the image is a consistent cut)."""
        violations: List[Violation] = []
        events = self._trace.events
        visible = self._nvm.durable_events_after_prefix(prefix_len)
        for later_id in set(visible.values()):
            later = events[later_id]
            for earlier_id in self._hb.predecessors(later_id):
                earlier = events[earlier_id]
                if not earlier.is_write_effect:
                    continue
                if not self._reflected(earlier, visible):
                    violations.append(Violation(
                        earlier=earlier, later=later,
                        earlier_durable_at=_NEVER,
                        later_durable_at=prefix_len))
        return violations

    def _reflected(self, write: MemoryEvent,
                   visible: Dict[int, int]) -> bool:
        """Is ``write``'s effect present in the durable word map?"""
        durable_event = visible.get(write.addr)
        if durable_event is None:
            return False
        if durable_event == write.event_id:
            return True
        return (durable_event > write.event_id
                and self._hb.ordered(write.event_id, durable_event))
