"""Single-cell profiling and perf-regression harness.

``python -m repro.bench.profile`` runs ONE figure cell — a (workload,
mechanism, scale) triple — cold, straight through :func:`simulate`
(no runner, no result cache), and reports wall time, simulated
makespan, ops/sec and a naive projection of the full 20-cell Figure 5
sweep at that scale. Optionally it repeats the run under
:mod:`cProfile` and prints the top-N functions, which is how the
batch-engine optimization campaign measured itself (captured
before/after listings live in ``examples/``).

Two jobs beyond interactive profiling:

* **Sizing paper-scale sweeps** — run one cell at ``--scale paper``
  and read the projected sweep time before committing a machine to
  the overnight run.
* **CI perf smoke** — ``--check-against`` compares the cold wall time
  of this run against a committed baseline JSON
  (``benchmarks/baselines/BENCH_profile.json``) and exits non-zero on
  a >``--tolerance`` slowdown or *any* makespan change (makespans are
  deterministic; wall times are not, hence the generous default
  tolerance for shared CI machines). Baselines carry the engine they
  were recorded on, so the wall gate is applied per engine — a
  fast-engine run never races a reference-engine baseline.

``--obs`` times a second, identical cell with the metrics+timeline
Observer attached and reports the telemetry overhead (and that the
makespan did not move), for either engine.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
import time
from typing import Dict, Optional, Sequence

from repro.bench.configs import (
    SCALED_CONFIG,
    SCALES,
    bench_config,
    figure_spec,
)
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds import WORKLOAD_NAMES
from repro.persistency import MECHANISMS

#: Cells in a full Figure 5 sweep: 5 workloads x (nop + sb/bb/lrp).
FIG5_CELLS = 20

#: Timeline window width (cycles) for the ``--obs`` telemetry pass —
#: the configuration the batch engine accepts without falling back.
OBS_TIMELINE_INTERVAL = 1000


def run_cell(workload: str, mechanism: str, *, scale: str = "quick",
             num_threads: int = 32, seed: int = 1,
             profiler: Optional[cProfile.Profile] = None,
             obs: bool = False) -> Dict[str, object]:
    """One cold figure cell; returns the measurement record.

    Cold means: the setup-prototype cache is dropped first, so the
    measured time includes building and populating the structure —
    the same work a fresh ``--no-cache`` figures run pays per cell.
    ``obs=True`` attaches a metrics+timeline Observer — the telemetry
    configuration the fast engine accepts — so the same harness prices
    the instrumented run.
    """
    spec = figure_spec(workload, num_threads=num_threads, scale=scale,
                       seed=seed)
    config = bench_config(SCALED_CONFIG)
    observer = None
    if obs:
        from repro.obs import Observer
        observer = Observer(timeline_interval=OBS_TIMELINE_INTERVAL)
    clear_setup_cache()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = simulate(spec, mechanism, config, observer=observer)
    if profiler is not None:
        profiler.disable()
    elapsed = time.perf_counter() - start
    return {
        "workload": workload,
        "mechanism": mechanism,
        "scale": scale,
        "num_threads": num_threads,
        "seed": seed,
        "seconds": round(elapsed, 3),
        "makespan": result.makespan,
        "executed_ops": result.executed_ops,
        "ops_per_second": round(result.executed_ops / elapsed, 1)
        if elapsed else None,
        # Naive per-cell extrapolation: every cell priced like this
        # one. Real sweeps vary per cell (queue under SB is the slow
        # corner), so read this as an order-of-magnitude budget.
        "projected_fig5_sweep_seconds": round(elapsed * FIG5_CELLS, 1),
    }


def check_against(record: Dict[str, object], baseline_path: str,
                  tolerance: float) -> Sequence[str]:
    """Regression check vs a committed baseline; returns failures."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for key in ("workload", "mechanism", "scale", "num_threads", "seed",
                "engine"):
        if baseline.get(key) != record[key]:
            failures.append(
                f"baseline is for {key}={baseline.get(key)!r}, this run "
                f"is {key}={record[key]!r} — not comparable")
    if failures:
        return failures
    if record["makespan"] != baseline["makespan"]:
        failures.append(
            f"makespan changed: {baseline['makespan']} -> "
            f"{record['makespan']} (deterministic metric; any change "
            "means the simulation itself changed)")
    limit = baseline["seconds"] * (1.0 + tolerance)
    if record["seconds"] > limit:
        failures.append(
            f"cold cell time regressed: {record['seconds']}s vs "
            f"baseline {baseline['seconds']}s "
            f"(limit {limit:.3f}s at +{tolerance * 100:.0f}%)")
    return failures


def _print_profile(profiler: cProfile.Profile, top: int) -> None:
    for sort in ("cumulative", "tottime"):
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.strip_dirs().sort_stats(sort).print_stats(top)
        print(f"--- top {top} by {sort} ---")
        print(buf.getvalue())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile one figure cell cold; optionally gate "
                    "against a committed perf baseline.")
    parser.add_argument("--workload", default="hashmap",
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--mechanism", default="lrp",
                        choices=sorted(MECHANISMS))
    parser.add_argument("--scale", default="quick",
                        choices=sorted(SCALES))
    parser.add_argument("--threads", type=int, default=32)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--engine", choices=("fast", "reference"),
                        default="fast",
                        help="'reference' forces REPRO_FASTSIM=0 for "
                             "before/after comparisons")
    parser.add_argument("--obs", action="store_true",
                        help="also time an identical cell with the "
                             "metrics+timeline Observer attached and "
                             "report the telemetry overhead")
    parser.add_argument("--top", type=int, default=20, metavar="N",
                        help="functions to show from a second, "
                             "cProfile'd run (0 = skip the profiled "
                             "pass; the timed run is never profiled)")
    parser.add_argument("--json-out", default=None, metavar="FILE")
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        help="baseline JSON (same schema as "
                             "--json-out); exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional slowdown vs the "
                             "baseline (default 0.5 = +50%%)")
    args = parser.parse_args(argv)

    os.environ["REPRO_FASTSIM"] = "0" if args.engine == "reference" else "1"

    record = run_cell(args.workload, args.mechanism, scale=args.scale,
                      num_threads=args.threads, seed=args.seed)
    record["engine"] = args.engine

    print(f"{args.workload}/{args.mechanism} @ {args.scale} "
          f"({args.threads} threads, seed {args.seed}, "
          f"{args.engine} engine)")
    print(f"  cold cell time : {record['seconds']} s")
    print(f"  makespan       : {record['makespan']} cycles")
    print(f"  executed ops   : {record['executed_ops']} "
          f"({record['ops_per_second']} ops/s)")
    print(f"  projected full Figure 5 sweep at this scale: "
          f"~{record['projected_fig5_sweep_seconds']} s "
          f"({FIG5_CELLS} cells, naive per-cell extrapolation)")

    if args.obs:
        obs_record = run_cell(args.workload, args.mechanism,
                              scale=args.scale, num_threads=args.threads,
                              seed=args.seed, obs=True)
        plain_seconds = record["seconds"]
        record["obs_seconds"] = obs_record["seconds"]
        record["obs_overhead_pct"] = (
            round((obs_record["seconds"] / plain_seconds - 1.0) * 100, 1)
            if plain_seconds else None)
        record["obs_makespan_identical"] = (
            obs_record["makespan"] == record["makespan"])
        print(f"  with telemetry  : {record['obs_seconds']} s "
              f"(+{record['obs_overhead_pct']}%, makespan "
              f"{'identical' if record['obs_makespan_identical'] else 'CHANGED'})")

    if args.top > 0:
        profiler = cProfile.Profile()
        run_cell(args.workload, args.mechanism, scale=args.scale,
                 num_threads=args.threads, seed=args.seed,
                 profiler=profiler)
        print()
        _print_profile(profiler, args.top)

    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    if args.check_against:
        failures = check_against(record, args.check_against,
                                 args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"perf check OK vs {args.check_against} "
              f"(+{args.tolerance * 100:.0f}% tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
