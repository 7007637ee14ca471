"""Request spans: per-request boundary clocks for service workloads.

The KV-service client generator (:mod:`repro.workloads.kvservice`)
terminates every request with a one-cycle ``work`` op whose ``site``
is the module constant :data:`REQUEST_BOUNDARY`. The scheduler loop
(:mod:`repro.core.fastsim`) tests that marker by *identity*
(``op.site is REQUEST_BOUNDARY``), a single pointer compare inside the
already-guarded telemetry branch, and appends two integers to the
thread's lanes in a :class:`SpanTracker`: the op's pre-advance clock
and the global memory-event count at that moment.

Those two integers per request reconstruct the full span: the boundary
op always costs ``1 + compute_cycles_per_op``, so request ``i`` on a
thread with boundary clocks ``b`` was dispatched at
``b[i-1] + 1 + compute`` (request 0 at the thread's start clock) and
completed at ``b[i]``. The event count is the request's *event
frontier* — every store the thread executed for this request has a
smaller event id — which is what lets the SLO layer compute when the
request's effects became durable even under lazy mechanisms that issue
the covering persists long after the request completed (the persist
log records the youngest store event per persisted word). Arrival
times and the durable point are reconstructed *post hoc* by
:mod:`repro.obs.slo` — the hot path never computes them, which is what
keeps makespans bit-identical with span tracking on (pinned by the obs
selftest).

Spans are opt-in (``Observer(spans=True)``) and the tracker is a
FastObs-style flat table: two plain per-thread ``list.append`` calls
per *request* (not per op) in the loop, everything else derived at
read time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Site marker of a request-terminating op. Workloads must reference
#: the constant itself (never a copy of the string): the execution
#: loops compare by identity, so only ops yielded with this exact
#: object close a request span.
REQUEST_BOUNDARY = "kv.request.boundary"


class SpanTracker:
    """Per-thread request-boundary records, written by the schedulers.

    ``boundaries[tid][i]`` is the pre-advance clock of thread ``tid``'s
    ``i``-th request-boundary op — i.e. the simulated cycle at which
    request ``i`` finished its structure operation and (for PUTs) its
    value serialization, just before the boundary op's own
    ``1 + compute`` cycles are charged. ``event_marks[tid][i]`` is the
    global memory-event count at the same moment (the request's event
    frontier). tests/test_kvservice.py pins the lanes against digests
    recorded with the per-op reference loop.
    """

    __slots__ = ("boundaries", "event_marks")

    def __init__(self) -> None:
        self.boundaries: List[List[int]] = []
        self.event_marks: List[List[int]] = []

    def lanes(self, num_threads: int
              ) -> Tuple[List[List[int]], List[List[int]]]:
        """The per-thread ``(boundaries, event_marks)`` lanes, grown to
        ``num_threads`` entries.

        Called once per run before the execution loop starts; the loop
        then appends by index without further checks.
        """
        while len(self.boundaries) < num_threads:
            self.boundaries.append([])
            self.event_marks.append([])
        return self.boundaries, self.event_marks

    def request_count(self) -> int:
        return sum(len(lane) for lane in self.boundaries)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON payload (rides ``RunSummary.obs["spans"]``)."""
        return {
            "boundaries": {str(tid): list(lane)
                           for tid, lane in enumerate(self.boundaries)
                           if lane},
            "event_marks": {str(tid): list(lane)
                            for tid, lane in enumerate(self.event_marks)
                            if lane},
            "requests": self.request_count(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanTracker":
        tracker = cls()
        lanes: Dict[str, List[int]] = data.get("boundaries", {})  # type: ignore
        marks: Dict[str, List[int]] = data.get("event_marks", {})  # type: ignore
        if lanes:
            num_threads = max(int(tid) for tid in lanes) + 1
            tracker.lanes(num_threads)
            for tid, lane in lanes.items():
                tracker.boundaries[int(tid)] = [int(b) for b in lane]
            for tid, lane in marks.items():
                tracker.event_marks[int(tid)] = [int(m) for m in lane]
        return tracker
