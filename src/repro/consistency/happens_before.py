"""Construction of the RC happens-before order (paper Section 2.1).

Given an execution trace, we build the happens-before DAG from the
formal rules of the paper:

* **Release one-sided barrier**: ``M po-> Rel  =>  M hb-> Rel``
* **Acquire one-sided barrier**: ``Acq po-> M  =>  Acq hb-> M``
* **Program-order address dependency**: same-address po implies hb
* **Release synchronizes-with acquire**: an acquire that reads from a
  release of another thread is hb-after it
* **RMW atomicity**: an RMW is a single event in our traces, so its
  read and write are trivially adjacent

Because the recorded execution is a total order, every generated edge
points from a lower ``event_id`` to a higher one; the event order is a
topological order, which makes the transitive closure a single forward
sweep with integer bitsets.

The edge set is *generating*: e.g. only events since a thread's last
release get a direct edge to the next release; earlier events reach it
transitively through that previous release (any event po-before a
release is hb-before it — including earlier releases).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.consistency.events import MemoryEvent, Trace


class HappensBefore:
    """The happens-before partial order of one execution.

    Two closure modes:

    * ``mode="rc"`` (default) — the full RC happens-before of
      Section 2.1, over all memory events.
    * ``mode="rp"`` — the closure of exactly the five RP rules of
      Section 4.1, which only involve write effects and acquires as
      transitive connectors. Notably, a *plain or acquire read* of a
      thread's own earlier write creates no RP edge (the RP
      same-address rule is write-to-write), so e.g. re-reading one's
      own release does not order later writes after it — matching what
      the LRP hardware enforces.
    """

    def __init__(self, events: Sequence[MemoryEvent],
                 max_events: int = 200_000, mode: str = "rc") -> None:
        if len(events) > max_events:
            raise ValueError(
                f"trace too large for closure ({len(events)} events; "
                f"limit {max_events}) — use a scaled-down run for checking")
        if mode not in ("rc", "rp"):
            raise ValueError(f"unknown happens-before mode {mode!r}")
        self._events = list(events)
        self._mode = mode
        self._edges: List[Set[int]] = [set() for _ in events]  # predecessors
        self._build_edges()
        self._closure: Optional[List[int]] = None

    @classmethod
    def from_trace(cls, trace: Trace, **kwargs) -> "HappensBefore":
        return cls(trace.events, **kwargs)

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def events(self) -> List[MemoryEvent]:
        return self._events

    def _build_edges(self) -> None:
        since_last_release: Dict[int, List[int]] = {}
        last_release: Dict[int, int] = {}
        last_acquire: Dict[int, int] = {}
        last_same_addr: Dict[Tuple[int, int], int] = {}
        rp = self._mode == "rp"

        for event in self._events:
            eid = event.event_id
            tid = event.thread_id
            preds = self._edges[eid]

            # In RP mode, plain reads are invisible to the persist
            # order: they neither persist nor connect rules.
            participates = (not rp or event.is_write_effect
                            or event.is_acquire)

            # Program-order address dependency. RC: all same-address
            # accesses chain; RP: write-to-write only (Section 4.1).
            addr_key = (tid, event.addr)
            if rp:
                if event.is_write_effect:
                    if addr_key in last_same_addr:
                        preds.add(last_same_addr[addr_key])
                    last_same_addr[addr_key] = eid
            else:
                if addr_key in last_same_addr:
                    preds.add(last_same_addr[addr_key])
                last_same_addr[addr_key] = eid

            # Acquire one-sided barrier: hb-after the latest acquire.
            if participates and tid in last_acquire \
                    and last_acquire[tid] != eid:
                preds.add(last_acquire[tid])

            # Release synchronizes-with acquire.
            if event.is_acquire and event.reads_from is not None:
                source = self._events[event.reads_from]
                if source.is_release and source.thread_id != tid:
                    preds.add(source.event_id)

            # Release one-sided barrier: everything since (and
            # including) the previous release is hb-before this release.
            if event.is_release:
                for prior in since_last_release.get(tid, ()):
                    preds.add(prior)
                if tid in last_release:
                    preds.add(last_release[tid])
                last_release[tid] = eid
                since_last_release[tid] = []
            elif participates:
                since_last_release.setdefault(tid, []).append(eid)

            if event.is_acquire:
                last_acquire[tid] = eid

            preds.discard(eid)

    # ------------------------------------------------------------------
    # Closure and queries
    # ------------------------------------------------------------------

    def _compute_closure(self) -> List[int]:
        """Per-event bitset of all hb-predecessors (transitive)."""
        closure = [0] * len(self._events)
        for eid in range(len(self._events)):
            acc = 0
            for pred in self._edges[eid]:
                acc |= closure[pred] | (1 << pred)
            closure[eid] = acc
        return closure

    @property
    def closure(self) -> List[int]:
        if self._closure is None:
            self._closure = self._compute_closure()
        return self._closure

    def ordered(self, first: int, second: int) -> bool:
        """True iff event ``first`` happens-before event ``second``."""
        if not (0 <= first < len(self._events)
                and 0 <= second < len(self._events)):
            raise IndexError("event id out of range")
        if first == second:
            return False
        return bool(self.closure[second] >> first & 1)

    def predecessors(self, eid: int) -> Set[int]:
        """All transitive hb-predecessors of event ``eid``."""
        bits = self.closure[eid]
        preds: Set[int] = set()
        index = 0
        while bits:
            if bits & 1:
                preds.add(index)
            bits >>= 1
            index += 1
        return preds

    def write_pairs(self) -> Iterable[Tuple[MemoryEvent, MemoryEvent]]:
        """All hb-ordered pairs of write-effect events (W1 hb-> W2).

        This is the exact set of pairs Release Persistency constrains
        (Section 4.1): ``W1 hb-> W2  =>  W1 p-> W2``.
        """
        writes = [e for e in self._events if e.is_write_effect]
        for later in writes:
            later_preds = self.closure[later.event_id]
            for earlier in writes:
                if earlier.event_id >= later.event_id:
                    break
                if later_preds >> earlier.event_id & 1:
                    yield earlier, later

    def validate_read_values(self) -> List[str]:
        """Check the read-value axiom over the trace (sanity check).

        Returns a list of violation descriptions (empty = consistent).
        Our scheduler produces SC executions, so this should always be
        empty; it guards the simulator itself.
        """
        problems: List[str] = []
        for event in self._events:
            if not event.is_read_effect:
                continue
            if event.reads_from is None:
                continue  # read of an initial / uninitialized value
            source = self._events[event.reads_from]
            if source.value != event.read_value:
                problems.append(
                    f"event {event.event_id} read {event.read_value!r} but "
                    f"its reads-from source {source.event_id} wrote "
                    f"{source.value!r}")
        return problems
