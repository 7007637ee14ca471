"""Cross-run benchmark history: deltas vs baseline, regression gate.

The repo's self-benchmarks emit ``BENCH_*.json`` snapshots —
``python -m repro.exp --selftest`` writes ``BENCH_runner.json`` and
``python -m repro.bench.figures --timings-out`` writes
``BENCH_figures.json``. This module turns those snapshots into a
regression dashboard:

* each snapshot is flattened into dotted scalar metrics
  (``cache.warm_seconds``, ``figures.fig5.seconds``,
  ``figures.fig5.makespan.hashmap.lrp``, ...);
* every metric is classified by *kind*, which decides the direction
  and the noise threshold that separates drift from regression:

  - **timing** (``*_seconds``/``*.seconds``) — lower is better, noisy
    (wall-clock on shared CI), so gated with a generous relative
    threshold;
  - **quality** (``speedup*``, ``*hit_rate``, ``*throughput*``) —
    higher is better, same noise allowance;
  - **latency** (``p50``/``p99``/``p999``/``latency`` names
    from the KV-service SLO layer) — lower is better with the timing
    tolerance, but a distinct kind so SLO percentiles are never
    cross-gated against wall-clock timing names;
  - **contract** (booleans like ``identical_results``) — must stay
    true; any flip to false is a regression regardless of thresholds;
  - **exact** (other numerics, e.g. deterministic makespans) — any
    increase is a regression, any decrease an improvement (the
    simulator is deterministic, so these carry no noise);
  - **info** (``suite.*``, ``cpu_count``, ``workers``, ...) — shown
    but never gated.

* the comparison against the stored baselines
  (``benchmarks/baselines/BENCH_*.json``) renders as a markdown
  dashboard (``make bench-report``) and the CLI exits nonzero when
  any metric regressed — the CI hook for performance history.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Scalar = Union[int, float, bool, str]

#: Default directory of committed baseline snapshots.
BASELINE_DIR = os.path.join("benchmarks", "baselines")

#: Relative change tolerated on noisy (wall-clock / throughput)
#: metrics before it counts as a regression. Generous on purpose:
#: shared CI machines easily jitter tens of percent.
NOISE_THRESHOLD = 0.5

#: Metric-name fragments that mark a metric as informational only.
#: ``cache_hits``/``cache_misses`` ride along with the figure wall
#: times purely to explain *why* a timing is named ``cold_seconds``
#: vs ``warm_seconds`` — the name split is what keeps the gate
#: comparing like against like (a cold baseline metric simply goes
#: "removed", never gated against a warm current, and vice versa).
#: The model-checker snapshot (BENCH_mc.json) rides along the same
#: dashboard: its exploration counters (interleavings, schedules
#: explored, sleep-set prunes, backtrack points, reduction ratio) are
#: structural state-space sizes, not performance — informational, and
#: never cross-gated against timing metrics.
INFO_MARKERS = ("suite.", "spec.", "cpu_count", "workers", "jobs",
                "mechanisms", "workloads", "scale", "cached",
                "cache_hits", "cache_misses", "derived_from",
                "interleavings", "schedules_explored", "states_visited",
                "sleep_blocked", "backtrack_points", "reduction",
                "num_ops", "num_threads",
                # Telemetry overhead percentages (BENCH_obsfast.json)
                # are wall-clock-derived ratios: informational context
                # for the gated seconds metrics, not gated themselves.
                "overhead",
                # KV crash outcomes (BENCH_kv.json
                # ``kv.<mech>.recovery.recovered`` and
                # ``recovered_fraction``): how many sampled crash points
                # recovered, context for the gated crash metrics beside
                # them (``attempts``, ``lost_requests``).
                "recovered",
                # Cache-hit wall times (BENCH_runner.json
                # ``cache.warm_seconds``, BENCH_figures.json
                # ``figures.<fig>.warm_seconds``): a few milliseconds of
                # pickle loading that would flake any percentage
                # tolerance and says nothing about the simulator.
                "warm_seconds")

#: Simulated-cycle service-level metrics from the KV-service SLO layer
#: (BENCH_kv.json): request and durable latency percentiles. Lower
#: is better and they gate with the same generous
#: tolerance as timing metrics — but under their own kind, so a
#: latency-percentile name can never be confused with (or cross-gated
#: against) a wall-clock ``*_seconds`` timing name.
LATENCY_MARKERS = ("p50", "p90", "p99", "p999", "latency")


def flatten(data: object, prefix: str = "") -> Dict[str, Scalar]:
    """Flatten nested dicts/lists into dotted scalar metrics."""
    flat: Dict[str, Scalar] = {}
    if isinstance(data, dict):
        for key in sorted(data):
            name = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten(data[key], name))
    elif isinstance(data, (list, tuple)):
        # Lists in snapshots are enumerations (workload names etc.);
        # record them as one informational string.
        flat[prefix] = ",".join(str(item) for item in data)
    elif isinstance(data, (bool, int, float, str)):
        flat[prefix] = data
    elif data is None:
        pass
    else:
        flat[prefix] = str(data)
    return flat


def classify(name: str, value: Scalar) -> str:
    """Metric kind: ``timing``/``quality``/``latency``/``contract``/
    ``exact``/``info``."""
    lowered = name.lower()
    if any(marker in lowered for marker in INFO_MARKERS):
        return "info"
    if isinstance(value, bool):
        return "contract"
    if isinstance(value, str):
        return "info"
    # Wall-clock names win first, so a hypothetical
    # ``latency_probe_seconds`` still gates as timing — SLO names never
    # capture a timing metric and vice versa.
    if "seconds" in lowered:
        return "timing"
    if "throughput" in lowered:
        return "quality"
    if any(marker in lowered for marker in LATENCY_MARKERS):
        return "latency"
    if "speedup" in lowered or "hit_rate" in lowered:
        return "quality"
    return "exact"


@dataclasses.dataclass
class Delta:
    """One metric compared across baseline and current snapshots."""

    metric: str
    kind: str
    baseline: Optional[Scalar]
    current: Optional[Scalar]
    #: "ok" / "improved" / "regressed" / "new" / "removed" / "info"
    status: str
    #: Relative change for numeric kinds (None when not comparable).
    change: Optional[float] = None

    def describe_change(self) -> str:
        if self.change is None:
            return "-"
        return f"{self.change * 100:+.1f}%"


def _relative_change(baseline: float, current: float) -> float:
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return (current - baseline) / abs(baseline)


def compare_metric(name: str, kind: str,
                   baseline: Optional[Scalar],
                   current: Optional[Scalar],
                   threshold: float) -> Delta:
    """Judge one metric; the heart of the regression gate."""
    if baseline is None:
        return Delta(name, kind, None, current, "new")
    if current is None:
        return Delta(name, kind, baseline, None, "removed")
    if kind == "info":
        return Delta(name, kind, baseline, current, "info")
    if kind == "contract":
        if bool(current) == bool(baseline):
            status = "ok"
        elif current:  # False -> True: a promise newly kept
            status = "improved"
        else:
            status = "regressed"
        return Delta(name, kind, baseline, current, status)

    base = float(baseline)   # type: ignore[arg-type]
    cur = float(current)     # type: ignore[arg-type]
    change = _relative_change(base, cur)
    if kind == "quality":
        change = -change     # higher is better -> invert the sign
    if kind == "exact":
        if change > 0:
            status = "regressed"
        elif change < 0:
            status = "improved"
        else:
            status = "ok"
    else:
        if change > threshold:
            status = "regressed"
        elif change < -threshold:
            status = "improved"
        else:
            status = "ok"
    return Delta(name, kind, baseline, current, status,
                 change=_relative_change(base, cur))


@dataclasses.dataclass
class SnapshotComparison:
    """All metric deltas of one ``BENCH_*.json`` snapshot."""

    name: str
    deltas: List[Delta]
    baseline_missing: bool = False

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "regressed"]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "improved"]


def compare_snapshot(name: str, baseline: Optional[Dict[str, object]],
                     current: Dict[str, object],
                     threshold: float = NOISE_THRESHOLD
                     ) -> SnapshotComparison:
    """Compare a snapshot against its baseline, metric by metric."""
    flat_current = flatten(current)
    flat_baseline = flatten(baseline) if baseline is not None else {}
    deltas = []
    for metric in sorted(set(flat_baseline) | set(flat_current)):
        value = flat_current.get(metric, flat_baseline.get(metric))
        kind = classify(metric, value)
        deltas.append(compare_metric(
            metric, kind, flat_baseline.get(metric),
            flat_current.get(metric), threshold))
    return SnapshotComparison(name=name, deltas=deltas,
                              baseline_missing=baseline is None)


# ----------------------------------------------------------------------
# Snapshot discovery / baseline storage
# ----------------------------------------------------------------------

def discover_snapshots(root: str = ".") -> List[str]:
    """``BENCH_*.json`` files in ``root`` (the self-benchmark outputs)."""
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


def load_json(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def baseline_path(snapshot_path: str,
                  baseline_dir: str = BASELINE_DIR) -> str:
    return os.path.join(baseline_dir, os.path.basename(snapshot_path))


def update_baselines(snapshot_paths: Sequence[str],
                     baseline_dir: str = BASELINE_DIR) -> List[str]:
    """Copy the current snapshots over the stored baselines."""
    os.makedirs(baseline_dir, exist_ok=True)
    written = []
    for path in snapshot_paths:
        destination = baseline_path(path, baseline_dir)
        with open(destination, "w") as handle:
            json.dump(load_json(path), handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(destination)
    return written


def compare_all(snapshot_paths: Sequence[str],
                baseline_dir: str = BASELINE_DIR,
                threshold: float = NOISE_THRESHOLD
                ) -> List[SnapshotComparison]:
    comparisons = []
    for path in snapshot_paths:
        base_path = baseline_path(path, baseline_dir)
        baseline = load_json(base_path) if os.path.exists(base_path) \
            else None
        comparisons.append(compare_snapshot(
            os.path.basename(path), baseline, load_json(path),
            threshold))
    return comparisons


# ----------------------------------------------------------------------
# The markdown dashboard
# ----------------------------------------------------------------------

_STATUS_BADGE = {
    "ok": "ok",
    "info": "·",
    "new": "new",
    "removed": "removed",
    "improved": "**improved**",
    "regressed": "**REGRESSED**",
}


def _format_value(value: Optional[Scalar]) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_dashboard(comparisons: Iterable[SnapshotComparison],
                     threshold: float = NOISE_THRESHOLD) -> str:
    """Markdown dashboard over every snapshot comparison."""
    comparisons = list(comparisons)
    total_regressions = sum(len(c.regressions) for c in comparisons)
    total_improvements = sum(len(c.improvements) for c in comparisons)
    lines = ["# Benchmark regression dashboard", ""]
    if not comparisons:
        lines.append("No `BENCH_*.json` snapshots found — run "
                     "`make bench` / `python -m repro.exp --selftest` "
                     "first.")
        return "\n".join(lines)
    verdict = ("**REGRESSIONS DETECTED**" if total_regressions
               else "no regressions")
    lines.append(f"Verdict: {verdict} "
                 f"({total_regressions} regressed, "
                 f"{total_improvements} improved; noise threshold "
                 f"±{threshold * 100:.0f}% on timing/quality metrics, "
                 f"exact on deterministic ones).")
    for comparison in comparisons:
        lines.extend(["", f"## {comparison.name}", ""])
        if comparison.baseline_missing:
            lines.extend([
                "No stored baseline — all metrics reported as `new`. "
                "Accept with `python -m repro.bench.history "
                "--update-baseline`.", ""])
        lines.append("| metric | kind | baseline | current | change "
                     "| status |")
        lines.append("|---|---|---:|---:|---:|---|")
        for delta in comparison.deltas:
            lines.append(
                f"| `{delta.metric}` | {delta.kind} "
                f"| {_format_value(delta.baseline)} "
                f"| {_format_value(delta.current)} "
                f"| {delta.describe_change()} "
                f"| {_STATUS_BADGE[delta.status]} |")
        if comparison.regressions:
            lines.extend(["", "Regressed:"])
            for delta in comparison.regressions:
                lines.append(
                    f"- `{delta.metric}` "
                    f"{_format_value(delta.baseline)} -> "
                    f"{_format_value(delta.current)} "
                    f"({delta.describe_change()})")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.history",
        description="Compare BENCH_*.json snapshots against stored "
                    "baselines; exit 1 on regression.")
    parser.add_argument("--snapshots", nargs="*", metavar="FILE",
                        help="snapshot files (default: ./BENCH_*.json)")
    parser.add_argument("--baseline-dir", default=BASELINE_DIR)
    parser.add_argument("--threshold", type=float,
                        default=NOISE_THRESHOLD,
                        help="relative noise threshold for "
                             "timing/quality metrics "
                             "(default: %(default)s)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the markdown dashboard here "
                             "(default: stdout)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept the current snapshots as the new "
                             "baselines")
    args = parser.parse_args(argv)

    snapshots = (list(args.snapshots) if args.snapshots
                 else discover_snapshots())
    missing = [path for path in snapshots if not os.path.exists(path)]
    if missing:
        print(f"error: snapshot not found: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    if not snapshots:
        print("error: no BENCH_*.json snapshots found — run "
              "'make bench' or 'python -m repro.exp --selftest' first",
              file=sys.stderr)
        return 1

    if args.update_baseline:
        written = update_baselines(snapshots, args.baseline_dir)
        for path in written:
            print(f"baseline updated: {path}")
        return 0

    comparisons = compare_all(snapshots, args.baseline_dir,
                              args.threshold)
    dashboard = render_dashboard(comparisons, args.threshold)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dashboard)
        print(f"wrote dashboard to {args.output}")
    else:
        print(dashboard)
    regressions = sum(len(c.regressions) for c in comparisons)
    if regressions:
        print(f"FAILED: {regressions} metric(s) regressed vs baseline",
              file=sys.stderr)
        return 1
    print("no regressions vs baseline")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
