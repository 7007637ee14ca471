"""``repro.obs`` — observability for the simulator.

The subsystem has these layers:

* an :class:`Observer` instrumentation hub that the machine, scheduler
  and persistency mechanisms feed through guarded hooks
  (``if obs is not None: ...`` at every call site, so the disabled
  path costs one attribute load and never perturbs timing);
* the per-core compute-cycle counters (:attr:`Observer.counters`), the
  one series the attribution report needs that ``RunStats`` lacks:
  every other run metric (stall split, critical writebacks, coherence
  transitions, persists) is read from ``RunStats``, the one metrics
  store. The counters serialize into
  :class:`~repro.exp.runner.RunSummary` and thus travel through worker
  processes and the result cache for free;
* a :class:`~repro.obs.provenance.ProvenanceTracker` (opt-in via
  ``provenance=True``) that records the causal chain behind every
  persist and stall — trigger event, hb-edge, dirtying site — feeding
  the collapsed-stack flamegraphs (:mod:`repro.obs.flame`) and the
  differential run comparison (:mod:`repro.obs.diff`);
* exporters — a Chrome trace-event JSON writer
  (:mod:`repro.obs.trace`) and the critical-path attribution report
  (:mod:`repro.obs.report`) that splits a run's makespan into
  compute / coherence / persist-stall segments.

``python -m repro.obs`` exposes ``trace`` / ``report`` / ``audit`` /
``flame`` / ``diff`` / ``provenance`` / ``slo`` / ``overhead``
subcommands; the ``repro.bench.figures`` CLI collects the same data
behind ``--obs`` / ``--trace-out`` / ``--provenance-out``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.coverage import CoverageMap, coverage_from_obs
from repro.obs.provenance import ProvenanceTracker
from repro.obs.spans import REQUEST_BOUNDARY, SpanTracker
from repro.obs.trace import TraceCollector, write_chrome_trace

__all__ = [
    "Observer",
    "CoverageMap",
    "coverage_from_obs",
    "ProvenanceTracker",
    "REQUEST_BOUNDARY",
    "SpanTracker",
    "TraceCollector",
    "write_chrome_trace",
]


class Observer:
    """Per-run instrumentation hub: counters plus (optional) tracing.

    Instrumented components hold a reference that is ``None`` when
    observability is off; every hook site guards with
    ``if obs is not None`` so the disabled path stays near-zero cost.
    Hooks only *read* simulator state — attaching an observer never
    changes latencies, stats or the persist log (pinned by
    ``tests/test_obs.py``).

    ``counters`` holds ``sched.compute_cycles.c<i>`` for each core that
    ran an op, written by the batch engine at run end: the compute
    share of a core's clock, which the attribution report splits off.
    A plain dict of ints pickles between worker processes and into the
    result cache; everything else a run measures is in ``RunStats``.
    """

    __slots__ = ("counters", "trace", "provenance", "spans")

    def __init__(self, *, trace: bool = False,
                 provenance: bool = False,
                 spans: bool = False) -> None:
        self.counters: Dict[str, int] = {}
        self.trace: Optional[TraceCollector] = (
            TraceCollector() if trace else None)
        self.provenance: Optional[ProvenanceTracker] = (
            ProvenanceTracker() if provenance else None)
        # Request spans (repro.obs.spans): boundary clocks of service
        # workload requests. Flat per-thread lists, so the batch
        # engine records them with two appends per request.
        self.spans: Optional[SpanTracker] = (
            SpanTracker() if spans else None)

    # -- tracing (no-ops unless trace collection was requested) --------

    def span(self, track: str, name: str, ts: int, dur: int,
             cat: str = "sim", args: Optional[dict] = None) -> None:
        if self.trace is not None:
            self.trace.span(track, name, ts, dur, cat, args)

    def instant(self, track: str, name: str, ts: int,
                cat: str = "sim", args: Optional[dict] = None) -> None:
        if self.trace is not None:
            self.trace.instant(track, name, ts, cat, args)

    # -- export --------------------------------------------------------

    def export(self) -> Dict[str, object]:
        """Picklable dump: counters always (under ``metrics``);
        provenance, request spans and trace events when collected."""
        data: Dict[str, object] = {
            "metrics": {"counters": dict(sorted(self.counters.items()))}}
        if self.provenance is not None:
            data["provenance"] = self.provenance.to_dict()
        if self.spans is not None:
            data["spans"] = self.spans.to_dict()
        if self.trace is not None:
            data["trace_events"] = self.trace.chrome_events()
        return data
