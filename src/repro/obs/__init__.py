"""``repro.obs`` — observability for the simulator.

The subsystem has three layers:

* an :class:`Observer` instrumentation hub that the machine, scheduler,
  coherence fabric and persistency mechanisms feed through guarded
  hooks (``if obs is not None: ...`` at every call site, so the
  disabled path costs one attribute load and never perturbs timing);
* a :class:`~repro.obs.metrics.MetricsRegistry` of counters/histograms
  that serializes into :class:`~repro.exp.runner.RunSummary` and thus
  travels through worker processes and the result cache for free;
* a :class:`~repro.obs.timeline.TimelineSampler` (opt-in via
  ``timeline_interval``) that attributes the same quantities to fixed
  cycle windows — the time axis behind ``python -m repro.obs
  timeline`` and the Chrome counter tracks;
* a :class:`~repro.obs.provenance.ProvenanceTracker` (opt-in via
  ``provenance=True``) that records the causal chain behind every
  persist and stall — trigger event, hb-edge, dirtying site — feeding
  the collapsed-stack flamegraphs (:mod:`repro.obs.flame`) and the
  differential run comparison (:mod:`repro.obs.diff`);
* exporters — a Chrome trace-event JSON writer
  (:mod:`repro.obs.trace`) and the critical-path attribution report
  (:mod:`repro.obs.report`) that splits a run's makespan into
  compute / coherence / persist-stall segments.

``python -m repro.obs`` exposes ``trace`` / ``report`` / ``timeline``
/ ``audit`` / ``flame`` / ``diff`` / ``provenance`` / ``slo`` /
``overhead`` subcommands; the ``repro.bench.figures`` CLI collects
the same data behind ``--obs`` / ``--trace-out`` /
``--provenance-out``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.coverage import CoverageMap, coverage_from_obs
from repro.obs.metrics import Histogram, MetricsRegistry, merged_registries
from repro.obs.provenance import ProvenanceTracker
from repro.obs.spans import REQUEST_BOUNDARY, SpanTracker
from repro.obs.timeline import (
    TimelineSampler,
    chrome_counter_events,
    merged_timelines,
)
from repro.obs.trace import TraceCollector, write_chrome_trace

__all__ = [
    "Observer",
    "CoverageMap",
    "coverage_from_obs",
    "Histogram",
    "MetricsRegistry",
    "ProvenanceTracker",
    "REQUEST_BOUNDARY",
    "SpanTracker",
    "TimelineSampler",
    "TraceCollector",
    "merged_registries",
    "merged_timelines",
    "write_chrome_trace",
]


class Observer:
    """Per-run instrumentation hub: metrics plus (optional) tracing.

    Instrumented components hold a reference that is ``None`` when
    observability is off; every hook site guards with
    ``if obs is not None`` so the disabled path stays near-zero cost.
    Hooks only *read* simulator state — attaching an observer never
    changes latencies, stats or the persist log (pinned by
    ``tests/test_obs.py``).
    """

    __slots__ = ("metrics", "trace", "timeline", "provenance", "spans")

    def __init__(self, *, trace: bool = False,
                 timeline_interval: Optional[int] = None,
                 provenance: bool = False,
                 spans: bool = False) -> None:
        self.metrics = MetricsRegistry()
        self.trace: Optional[TraceCollector] = (
            TraceCollector() if trace else None)
        self.timeline: Optional[TimelineSampler] = (
            TimelineSampler(timeline_interval)
            if timeline_interval is not None else None)
        self.provenance: Optional[ProvenanceTracker] = (
            ProvenanceTracker() if provenance else None)
        # Request spans (repro.obs.spans): boundary clocks of service
        # workload requests. Flat per-thread lists, so the batch
        # engine records them with two appends per request.
        self.spans: Optional[SpanTracker] = (
            SpanTracker() if spans else None)

    # -- metrics -------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        counters = self.metrics.counters
        counters[name] = counters.get(name, 0) + value

    def observe(self, name: str, value: int) -> None:
        self.metrics.observe(name, value)

    # -- timeline (no-ops unless a sampling interval was requested) ----

    def tick(self, name: str, ts: int, value: int = 1) -> None:
        if self.timeline is not None:
            self.timeline.tick(name, ts, value)

    def gauge(self, name: str, ts: int, value: int) -> None:
        if self.timeline is not None:
            self.timeline.gauge(name, ts, value)

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
        """Picklable dump: metrics always, timeline series and trace
        events when collected. With both a trace and a timeline, the
        timeline additionally rides in the trace as counter tracks."""
        data: Dict[str, object] = {"metrics": self.metrics.to_dict()}
        if self.timeline is not None:
            data["timeline"] = self.timeline.to_dict()
        if self.provenance is not None:
            data["provenance"] = self.provenance.to_dict()
        if self.spans is not None:
            data["spans"] = self.spans.to_dict()
        if self.trace is not None:
            events = self.trace.chrome_events()
            if self.timeline is not None:
                events = events + chrome_counter_events(self.timeline)
            data["trace_events"] = events
        return data
