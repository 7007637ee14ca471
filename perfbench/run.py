"""Cold end-to-end benchmark of the LRP reproduction, with a per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig5-quick --seed 1 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both runs

Each workload run is a fresh interpreter with no result cache and none
of the ``REPRO_*`` switches set. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` repeats one untraced pass and then runs the same
cells traced, and prints the per-layer metrics. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. RATIONALE.md beside this file says why each workload and
metric is here.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workload.py"
OUT_DIR = ROOT / ".perfbench"

#: Extra interpreter launches per run that only measure set-up; the
#: reported ``setup_s`` is the median over these and the measured run.
SETUP_PROBES = 6

#: A workload run must be over within this many seconds.
RUN_BUDGET_S = 170.0

#: Traced self times must account for the traced wall time this well.
ATTRIBUTION_TOLERANCE = 0.05

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "sim_ops_per_s": "1/s"}

#: Per-layer metrics of the JSON line. The recovery and SLO self times
#: are printed in the table and written to the trace file, but kept out
#: of the JSON line: fig5 never enters recovery, only kv-service enters
#: the SLO layer, and a time that reads 0 on every run cannot be told
#: from one that was not measured.
PER_LAYER_UNITS = {
    "workloads.prepopulate_s": "s",
    "workloads.prepopulate_words": "count",
    "simulator.install_s": "s",
    "engine.self_s": "s",
    "engine.mem_ops": "count",
    "engine.fallback_cells": "count",
    "lfds.resume_s": "s",
    "coherence.self_s": "s",
    "coherence.l1_hit_ratio": "ratio",
    "coherence.misses": "count",
    "coherence.evictions": "count",
    "coherence.downgrades": "count",
    "persistency.hook_s": "s",
    "persistency.hook_calls": "count",
    "persistency.stall_cycles": "cycles",
    "nvm.issue_s": "s",
    "nvm.persists": "count",
    "nvm.vector_batches": "count",
    "recovery.image_words": "count",
    "recovery.points": "count",
    "obs.requests": "count",
    "exp.summarize_s": "s",
    "exp.first_result_s": "s",
    "exp.tail_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` switch (engine,
    numpy, job count, caches, heartbeats), with ``src`` importable."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(args: Sequence[str], deadline: float) -> Tuple[dict, float]:
    """Run one worker process; its JSON line and its launch time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before launching a worker")
    launched = time.monotonic()
    # A session of its own, so a worker that runs out of time is killed
    # together with any pool processes it started.
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=str(ROOT),
        env=worker_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran out of time")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1]), launched


def worker_args(workload: str, seed: int, mode: str,
                seconds: float = 0.0, passes: Optional[int] = None
                ) -> List[str]:
    args = ["--workload", workload, "--seed", str(seed), "--mode", mode,
            "--seconds", repr(seconds)]
    if passes is not None:
        args += ["--passes", str(passes)]
    return args


def totals(records: Sequence[dict]) -> Dict[str, int]:
    keys = ("mem_ops", "l1_hits", "l1_misses", "evictions", "downgrades",
            "stall_cycles", "persists")
    out = {key: sum(record[key] for record in records) for key in keys}
    out["fallback_cells"] = sum(1 for record in records
                                if record["fastsim_fallback"] is not None)
    out["crash_points"] = sum(len(record.get("crash", ()))
                              + record.get("slo", {}).get("points", 0)
                              for record in records)
    out["requests"] = sum(record.get("slo", {}).get("requests", 0)
                          for record in records)
    return out


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> Tuple[dict, Dict[str, float], dict]:
    """Set-up probes, then the untraced timed run and its check.

    Times are reported at reference host speed (see hostspeed.py), and
    the raw host seconds come back beside them for the report. A serial
    pass is scaled cell by cell. A launch is too short to sample the
    host around, so the median set-up is scaled by the median of every
    sample the run took: that removes the slow and fast spells, minutes
    long, that would otherwise move a whole batch of runs.
    """
    setups = []
    for _ in range(SETUP_PROBES):
        probe, launched = launch(worker_args(workload, seed, "probe"),
                                 deadline)
        setups.append(probe["first_call"] - launched)
    run, launched = launch(worker_args(workload, seed, "plain", seconds),
                           deadline)
    setups.append(run["first_call"] - launched)
    wall = statistics.median(p["scaled_s"] for p in run["passes"])
    samples = [sample for p in run["passes"] for sample in p["speed"]]
    # The pooled pass takes no samples; its set-up stays as measured.
    reference = (statistics.median(samples) if samples
                 else hostspeed.REFERENCE_S)
    setup = statistics.median(setups)
    metrics = {
        "wall_s": wall,
        "setup_s": hostspeed.scale(setup, reference, reference),
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_ops_per_s": totals(run["records"])["mem_ops"] / wall,
    }
    raw_metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in run["passes"]),
        "setup_s": setup,
        "passes": len(run["passes"]),
    }
    if samples:
        raw_metrics["reference_s"] = reference
    return run, metrics, raw_metrics


def per_layer(workload: str, seed: int, deadline: float
              ) -> Tuple[dict, dict, Dict[str, float], List[str]]:
    """One untraced pass with its check, then the same cells traced."""
    plain, _ = launch(worker_args(workload, seed, "plain", passes=1),
                      deadline)
    traced, _ = launch(worker_args(workload, seed, "traced"), deadline)
    problems = []
    if traced["sim_digest"] != plain["sim_digest"]:
        problems.append("traced sim_digest differs from the untraced run")
    if traced["engine"] != plain["engine"]:
        problems.append("traced engine record differs from the untraced "
                        "run")
    trace = traced["trace"]
    share = layers.attributed_share(trace, traced["wall_s"])
    if abs(1.0 - share) > ATTRIBUTION_TOLERANCE:
        problems.append(f"layer self times cover {share} of the traced "
                        "wall time")
    counts = totals(plain["records"])
    completions = plain["passes"][0]["completions"]
    metrics = {
        **{name: value for name, value in layers.layer_metrics(trace).items()
           if name in PER_LAYER_UNITS},
        "workloads.prepopulate_words": trace["counts"].get(
            "prepopulate_words", 0),
        "engine.mem_ops": counts["mem_ops"],
        "engine.fallback_cells": counts["fallback_cells"],
        "coherence.l1_hit_ratio": counts["l1_hits"] / max(
            1, counts["l1_hits"] + counts["l1_misses"]),
        "coherence.misses": counts["l1_misses"],
        "coherence.evictions": counts["evictions"],
        "coherence.downgrades": counts["downgrades"],
        "persistency.hook_calls": trace["calls"]["persistency"],
        "persistency.stall_cycles": counts["stall_cycles"],
        "nvm.persists": counts["persists"],
        "nvm.vector_batches": trace["counts"].get("vector_batches", 0),
        "recovery.image_words": trace["counts"].get("image_words", 0),
        "recovery.points": counts["crash_points"],
        "obs.requests": counts["requests"],
        "exp.first_result_s": completions[0],
        "exp.tail_s": (completions[-1] - completions[-2]
                       if len(completions) > 1 else completions[-1]),
        "trace.overhead_s": traced["wall_s"] - plain["passes"][0]["wall_s"],
        "trace.attributed": share,
    }
    return plain, traced, metrics, problems


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def simulated_lines(run: dict) -> List[str]:
    """Simulated results, for information: outputs of the modelled
    design, checked through the digest, not metrics that regress."""
    records = {record["cell"]: record for record in run["records"]}
    lines = []
    structures = dict.fromkeys(cell.split("/")[0] for cell in records)
    for structure in structures:
        row = {cell.split("/")[1]: record for cell, record in
               records.items() if cell.startswith(structure + "/")}
        parts = [f"{mech}={record['makespan']}"
                 for mech, record in row.items()]
        if "lrp" in row and "bb" in row:
            ratio = row["lrp"]["makespan"] / row["bb"]["makespan"]
            parts.append(f"lrp/bb={ratio:.3f}")
        for mech, record in row.items():
            if "slo" in record:
                parts.append(f"{mech} p99={record['slo']['p99']} "
                             f"durable_p99={record['slo']['durable_p99']}")
        lines.append(f"  makespan {structure:<10} " + "  ".join(parts))
    return lines


def report_header(workload: str, seed: int, run: dict) -> List[str]:
    host = run["host"]
    fallbacks = sorted({str(v) for v in
                        run["engine"]["fastsim_fallback"].values()})
    return [
        f"== {workload} seed={seed}  host: {host['cpu_count']} cpus, "
        f"python {host['python']}, numpy {host['numpy']}",
        f"  engine fallback per cell: {', '.join(fallbacks)}  "
        f"inline acquire: {run['engine']['inline_acquire']}",
        f"  sim_digest {run['sim_digest'][:16]}  ({run['golden']})",
        f"  check: {run['failed']} of {run['attempted']} units failed",
        *[f"  FAILED {note}" for note in run["notes"]],
    ]


def metric_lines(metrics: Dict[str, float], units: Dict[str, str]
                 ) -> List[str]:
    return [f"  {name:<28} {metrics[name]:>16.6g} {units.get(name, '')}"
            for name in metrics]


def save_run(workload: str, seed: int, kind: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.{kind}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def write_trace(workload: str, seed: int, traced: dict,
                metrics: Dict[str, float]) -> Path:
    return save_run(workload, seed, "trace", {
        "workload": workload, "seed": seed, "wall_s": traced["wall_s"],
        "metrics": metrics, "layer_s": layers.layer_metrics(traced["trace"]),
        **traced["trace"]})


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    if not trace:
        run, metrics, raw = end_to_end(workload, seed, seconds, deadline)
        lines = report_header(workload, seed, run) + simulated_lines(run)
        lines.append("  as measured (info): " + "  ".join(
            f"{name}={value:.6g}" for name, value in raw.items()))
        crash_points = totals(run["records"])["crash_points"]
        if crash_points:
            lines.append(f"  crash_points_per_s (info) "
                         f"{crash_points / metrics['wall_s']:.6g} 1/s")
        lines += metric_lines(metrics, END_TO_END_UNITS)
        units = END_TO_END_UNITS
        correct = run["failed"] == 0
        save_run(workload, seed, "run", run)
    else:
        run, traced, metrics, problems = per_layer(workload, seed,
                                                   deadline)
        lines = report_header(workload, seed, run)
        lines += [f"  TRACE PROBLEM {problem}" for problem in problems]
        lines.append("  traced self seconds by layer "
                     f"(traced wall {traced['wall_s']:.3f} s):")
        for layer in layers.LAYERS:
            lines.append(f"    {layer:<24} "
                         f"{traced['trace']['self_s'][layer]:>10.4f} s  "
                         f"{traced['trace']['calls'][layer]:>9} calls")
        lines += metric_lines(metrics, PER_LAYER_UNITS)
        save_run(workload, seed, "run", run)
        path = write_trace(workload, seed, traced, metrics)
        lines.append(f"  trace written to {path.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
        correct = run["failed"] == 0 and not problems
    print("\n".join(lines), flush=True)
    return {"correct": correct, "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def update_golden(seeds: Dict[str, int], deadline: float) -> None:
    golden = {}
    for workload, seed in seeds.items():
        run, _ = launch(worker_args(workload, seed, "plain", passes=1),
                        deadline)
        golden[workload] = {
            "seed": seed, "sim_digest": run["sim_digest"],
            "cells": {record["cell"]: record["digest"]
                      for record in run["records"]}}
        print(f"{workload}: {run['sim_digest']}", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 1, or 42 for "
                        "kv-service)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host seconds of timed passes per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer "
                        "metrics (default with 'all': both)")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from the default seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workload as worker

    if args.workload not in worker.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(worker.WORKLOADS)} or all")
    try:
        if args.update_golden:
            update_golden(worker.DEFAULT_SEEDS,
                          time.monotonic() + 4 * RUN_BUDGET_S)
            return 0
        if args.workload != "all":
            seed = (args.seed if args.seed is not None
                    else worker.DEFAULT_SEEDS[args.workload])
            result = run_workload(args.workload, seed, args.seconds,
                                  bool(args.trace),
                                  time.monotonic() + RUN_BUDGET_S)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        modes = (False, True) if args.trace is None else (bool(args.trace),)
        for workload in worker.WORKLOADS:
            seed = (args.seed if args.seed is not None
                    else worker.DEFAULT_SEEDS[workload])
            for trace in modes:
                result = run_workload(workload, seed, args.seconds, trace,
                                      time.monotonic() + RUN_BUDGET_S)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, value in result["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = value
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
