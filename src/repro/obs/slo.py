"""Service-level objectives over request spans: latency, throughput, crashes.

Everything here is *post hoc*: the execution loops record one boundary
clock per request (:mod:`repro.obs.spans`); this module reconstructs
full request records from them and computes the service story —

* **request latency, coordination-omission free.** The simulator runs
  clients closed-loop (request ``i+1`` starts when ``i`` finishes),
  which keeps schedules bit-identical whether or not spans are on. The
  *open-loop* latency is reconstructed by replaying the measured
  service times against the spec's deterministic arrival process
  (:func:`repro.workloads.kvservice.arrival_times`): a request that
  arrives while its client is still busy queues virtually —
  ``vstart = max(arrival, previous_finish)`` — so a burst piles
  queueing delay onto every request it delays, exactly the effect
  coordinated omission hides.
* **durability lag.** A request is *durable* once the store values it
  (and everything before it) produced are in NVM. Judging that by
  persist *issue* times would credit lazy mechanisms with zero lag —
  LRP deliberately issues the covering persists long after the request
  completed — so durability is resolved through store *event ids*
  instead: each span records the global memory-event count at the
  request boundary (the request's event frontier), each persist record
  names the youngest store event whose value it wrote per word, and
  :func:`durable_frontier` answers "by when had every persisted store
  with an event id below this frontier drained". Stores coalesced away
  before any persist (overwritten in cache) are treated as superseded
  by the store that did persist. The lag ``durable - completion`` is
  added to the open-loop latency for the durable percentiles — the
  LRP-vs-eager differentiator.
* **exact streaming percentiles.** :class:`LatencyReservoir` keeps a
  value -> count map (cycles are small ints), so its nearest-rank
  quantiles are *exact*, and ``tests/test_slo.py`` reconciles them
  against sorting the stored per-request records for every mechanism
  — no approximation to trust.
* **crash outcomes.** Crash the finished run at sampled persist-log
  prefixes (:func:`repro.core.recovery.crash_points`), validate null
  recovery, and count the requests that had completed but not yet
  persisted (lost on an un-synced crash). No recovery time is metered:
  null recovery is the same scan of the durable image under every
  mechanism that recovers, so a cycle charge for it would not tell
  them apart.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram

#: Chrome-trace process id for the request-span track (core/stall/
#: engine/nvm tracks use 1-4, timeline counters 5).
REQUEST_PID = 6

#: The percentiles every report carries.
SLO_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


@dataclasses.dataclass
class RequestRecord:
    """One reconstructed request span."""

    thread_id: int
    index: int
    #: Simulated (closed-loop) clocks from the span boundaries.
    dispatch: int
    completion: int
    #: Cycle at which every persist issued by ``completion`` drained.
    durable: int
    #: Virtual open-loop clocks from the arrival replay.
    arrival: int
    vstart: int

    @property
    def service(self) -> int:
        return self.completion - self.dispatch

    @property
    def latency(self) -> int:
        """Open-loop latency: virtual finish minus arrival."""
        return self.vstart + self.service - self.arrival

    @property
    def durable_lag(self) -> int:
        return self.durable - self.completion

    @property
    def durable_latency(self) -> int:
        return self.latency + self.durable_lag


# ----------------------------------------------------------------------
# Exact streaming percentiles
# ----------------------------------------------------------------------

class LatencyReservoir:
    """Exact streaming quantiles over integer cycle latencies.

    A value -> count map: O(1) per observation, mergeable across
    threads and runs, and — because nothing is dropped — its
    nearest-rank quantiles equal those of the fully stored sample
    (pinned by ``tests/test_slo.py`` against the per-request records).
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0

    def observe(self, value: int) -> None:
        self.counts[value] = self.counts.get(value, 0) + 1
        self.total += 1

    def merge(self, other: "LatencyReservoir") -> None:
        for value, count in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + count
        self.total += other.total

    def quantile(self, q: float) -> int:
        """Exact nearest-rank quantile (the ceil(q*n)-th smallest)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q!r}")
        if self.total == 0:
            return 0
        rank = max(1, math.ceil(round(q * self.total, 9)))
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= rank:
                return value
        raise AssertionError("rank exceeded reservoir population")

    @property
    def mean(self) -> float:
        if self.total == 0:
            return 0.0
        return sum(v * c for v, c in self.counts.items()) / self.total

    @property
    def max(self) -> int:
        return max(self.counts) if self.counts else 0

    def to_dict(self) -> Dict[str, object]:
        return {"counts": {str(v): c
                           for v, c in sorted(self.counts.items())},
                "total": self.total}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyReservoir":
        reservoir = cls()
        for value, count in data.get("counts", {}).items():  # type: ignore
            reservoir.counts[int(value)] = int(count)
        reservoir.total = int(data.get("total", 0))  # type: ignore
        return reservoir


def exact_quantile(values: Sequence[int], q: float) -> int:
    """Nearest-rank quantile by sorting — the reconciliation oracle."""
    if not values:
        return 0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile q must be in [0, 1], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Record reconstruction
# ----------------------------------------------------------------------

def durable_frontier(persist_log) -> Tuple[List[int], List[int]]:
    """``(event_ids, frontier)`` arrays for durability lookups.

    Built from the youngest-store event id each persist record carries
    per word. For one word, the persist that makes a store durable is
    the *first completing* persist carrying a store at least as young
    (an older value never re-establishes durability; a younger one
    supersedes it) — a suffix-min of ``complete_time`` over the word's
    records in event order. Across words, "everything below event id
    ``E`` is durable" is the max of those per-store durable times — a
    prefix max over the merged event order. The result:
    ``frontier[bisect_left(event_ids, E) - 1]`` is the cycle by which
    every persisted store with event id ``< E`` had drained.
    """
    by_word: Dict[int, List[Tuple[int, int]]] = {}
    for record in persist_log:
        complete = record.complete_time
        for addr, (_value, event) in record.words:
            by_word.setdefault(addr, []).append((event, complete))
    entries: List[Tuple[int, int]] = []
    for pairs in by_word.values():
        pairs.sort()
        durable_time = 0
        for event, complete in reversed(pairs):
            durable_time = (complete if durable_time == 0
                            else min(durable_time, complete))
            entries.append((event, durable_time))
    entries.sort()
    event_ids: List[int] = []
    frontier: List[int] = []
    running = 0
    for event, durable_time in entries:
        running = max(running, durable_time)
        event_ids.append(event)
        frontier.append(running)
    return event_ids, frontier


def durable_at(event_ids: List[int], frontier: List[int],
               completion: int, event_mark: int) -> int:
    """Cycle at which a request with this span is durable.

    ``event_mark`` is the request's event frontier (the global event
    count recorded at its boundary op); all the request's stores have
    smaller event ids.
    """
    position = bisect.bisect_left(event_ids, event_mark)
    if position == 0:
        return completion
    return max(completion, frontier[position - 1])


def build_records(spec, config, spans,
                  persist_log=()) -> List[RequestRecord]:
    """Reconstruct every request span from a run's SpanTracker.

    Each thread's lane must hold exactly ``spec.requests_per_thread``
    boundary clocks — a short lane means the run finished without
    spans enabled.
    """
    from repro.workloads.kvservice import arrival_times

    compute = config.compute_cycles_per_op
    event_ids, frontier = durable_frontier(persist_log)
    records: List[RequestRecord] = []
    for thread_id, lane in enumerate(spans.boundaries):
        if len(lane) != spec.requests_per_thread:
            raise ValueError(
                f"thread {thread_id} recorded {len(lane)} request "
                f"boundaries, spec expects {spec.requests_per_thread} "
                f"— was the run executed with spans enabled?")
        marks = spans.event_marks[thread_id]
        arrivals = arrival_times(spec, thread_id)
        vfinish = 0
        previous_end = 0
        for index, boundary in enumerate(lane):
            dispatch = previous_end
            completion = boundary
            arrival = arrivals[index]
            vstart = max(arrival, vfinish)
            vfinish = vstart + (completion - dispatch)
            records.append(RequestRecord(
                thread_id=thread_id, index=index,
                dispatch=dispatch, completion=completion,
                durable=durable_at(event_ids, frontier, completion,
                                   marks[index]),
                arrival=arrival, vstart=vstart))
            # The boundary op itself costs 1 + compute cycles; the
            # next request dispatches right after it.
            previous_end = boundary + 1 + compute
    return records


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def slo_summary(records: Sequence[RequestRecord],
                makespan: int) -> Dict[str, object]:
    """The flat SLO dict (``repro.obs slo --json-out`` / fig_kv rows).

    Every value is simulated cycles or a count, so the payloads are
    deterministic; ``tests/data/kv_slo.json`` pins them exactly.
    """
    latencies = LatencyReservoir()
    durables = LatencyReservoir()
    for record in records:
        latencies.observe(record.latency)
        durables.observe(record.durable_latency)
    summary: Dict[str, object] = {
        "requests": len(records),
        "makespan": makespan,
        "throughput_rpkc": round(len(records) / makespan * 1000.0, 4)
        if makespan else 0.0,
        "latency": {name: latencies.quantile(q)
                    for name, q in SLO_QUANTILES},
        "durable_latency": {name: durables.quantile(q)
                            for name, q in SLO_QUANTILES},
    }
    summary["latency"]["mean"] = round(latencies.mean, 2)
    summary["latency"]["max"] = latencies.max
    summary["durable_latency"]["max_lag"] = max(
        (r.durable_lag for r in records), default=0)
    return summary


def recovery_summary(result, num_points: int = 8, seed: int = 0,
                     records: Sequence[RequestRecord] = ()
                     ) -> Dict[str, object]:
    """Crash outcomes over sampled persist-log prefixes.

    Per crash point: does null recovery succeed, and how many requests
    had completed but were not yet durable (lost work on an un-synced
    crash). The lost counts need the run's request ``records``;
    without them the summary has no ``lost_requests``.
    """
    from repro.core.recovery import crash_points

    log = result.nvm.persist_log()
    completions = sorted(r.completion for r in records)
    durables = sorted(r.durable for r in records)
    points = crash_points(len(log), num_points, seed)
    lost: List[int] = []
    recovered = 0
    image = None
    for prefix in points:   # ascending: one image advances through them
        crash_cycle = log[prefix - 1].complete_time if prefix else 0
        image = result.nvm.image_after_prefix(prefix, since=image)
        if result.structure.validate_image(image).ok:
            recovered += 1
        if completions:
            completed = bisect.bisect_right(completions, crash_cycle)
            durable = bisect.bisect_right(durables, crash_cycle)
            lost.append(completed - durable)
    summary: Dict[str, object] = {
        "attempts": len(points),
        "recovered": recovered,
        "recovered_fraction": round(recovered / len(points), 4)
        if points else 0.0,
    }
    if lost:
        summary["lost_requests"] = {
            "mean": round(sum(lost) / len(lost), 2),
            "max": max(lost),
        }
    return summary


def service_report(result, spans,
                   num_crash_points: Optional[int] = None,
                   crash_seed: int = 0) -> Dict[str, object]:
    """The full per-run SLO payload (worker-side entry point).

    ``result`` is a finished :class:`SimulationResult` of a
    :class:`KVServiceSpec` run, ``spans`` its observer's SpanTracker.
    """
    records = build_records(result.spec, result.config, spans,
                            persist_log=result.nvm.persist_log())
    payload = slo_summary(records, result.makespan)
    if num_crash_points is not None:
        payload["recovery"] = recovery_summary(
            result, num_crash_points, crash_seed, records)
    return payload


# ----------------------------------------------------------------------
# Windowed series (sparklines) and exports
# ----------------------------------------------------------------------

def completion_series(records: Sequence[RequestRecord],
                      interval: int) -> List[int]:
    """Requests completed per ``interval``-cycle window."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    if not records:
        return []
    last = max(r.completion for r in records)
    series = [0] * (last // interval + 1)
    for record in records:
        series[record.completion // interval] += 1
    return series


def latency_p99_series(records: Sequence[RequestRecord],
                       interval: int) -> List[float]:
    """Windowed p99 open-loop latency (Histogram-interpolated).

    Uses :meth:`Histogram.quantile` — bucketed interpolation is plenty
    for a sparkline, and it exercises the same histogram machinery
    every other consumer uses.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if not records:
        return []
    last = max(r.completion for r in records)
    histograms = [Histogram() for _ in range(last // interval + 1)]
    for record in records:
        histograms[record.completion // interval].observe(record.latency)
    return [h.quantile(0.99) if h.count else 0.0 for h in histograms]


def write_slo_csv(records: Sequence[RequestRecord], handle) -> int:
    """Per-request CSV (one row per request); returns the row count."""
    import csv

    writer = csv.writer(handle)
    writer.writerow(["thread", "index", "arrival", "dispatch",
                     "completion", "durable", "service", "latency",
                     "durable_latency"])
    ordered = sorted(records, key=lambda r: (r.thread_id, r.index))
    for r in ordered:
        writer.writerow([r.thread_id, r.index, r.arrival, r.dispatch,
                         r.completion, r.durable, r.service, r.latency,
                         r.durable_latency])
    return len(ordered)


def chrome_request_events(records: Sequence[RequestRecord]
                          ) -> List[Dict[str, object]]:
    """Request spans as Chrome trace events (ph="X", own process).

    Mergeable with the core-op trace: requests live under their own
    pid so the trace viewer shows a ``requests`` process with one
    client track per thread, timestamps monotone per track.
    """
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": REQUEST_PID, "tid": 0,
        "args": {"name": "requests"},
    }]
    threads = sorted({r.thread_id for r in records})
    for tid in threads:
        events.append({"name": "thread_name", "ph": "M",
                       "pid": REQUEST_PID, "tid": tid,
                       "args": {"name": f"client{tid}"}})
    for r in sorted(records, key=lambda r: (r.thread_id, r.dispatch)):
        events.append({
            "name": f"req{r.index}", "cat": "request", "ph": "X",
            "ts": r.dispatch, "dur": max(r.service, 1),
            "pid": REQUEST_PID, "tid": r.thread_id,
            "args": {"latency": r.latency,
                     "durable_latency": r.durable_latency,
                     "arrival": r.arrival},
        })
    return events


def merged_reservoirs(dicts: Iterable[Dict[str, object]]
                      ) -> LatencyReservoir:
    """Merge serialized reservoirs (sweep-level aggregation)."""
    result = LatencyReservoir()
    for data in dicts:
        result.merge(LatencyReservoir.from_dict(data))
    return result
