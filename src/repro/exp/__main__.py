"""``python -m repro.exp`` — runner self-test and benchmark emitter.

``--selftest`` runs a reduced figure-5-style suite three ways and
writes ``BENCH_runner.json``:

1. serially in-process (the pre-runner execution model),
2. through a process pool (``--jobs N``, default: all cores),
3. twice against a fresh result cache (cold, then warm).

It asserts that the parallel summaries are bit-identical to the serial
ones (makespans, stats and persist-log digests) and that the warm
cache pass is all hits — then records the wall-clock of each mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from typing import List, Optional, Sequence

from repro.bench.configs import SCALED_CONFIG, bench_config
from repro.exp.cache import (ResultCache, execute_prune, plan_prune,
                             read_stats_since_marker, write_stats_marker)
from repro.exp.progress import ProgressReporter
from repro.exp.runner import ExperimentRunner, Job, RunSummary, run_cli
from repro.workloads.harness import WorkloadSpec

#: Reduced-size suite: every LFD x every Figure 5 mechanism, small
#: enough that the self-test finishes in seconds even single-core.
SELFTEST_WORKLOADS = ("linkedlist", "hashmap", "bstree", "skiplist",
                      "queue")
SELFTEST_MECHANISMS = ("nop", "sb", "bb", "lrp")


def selftest_jobs(seed: int = 1) -> List[Job]:
    config = bench_config(SCALED_CONFIG)
    return [
        Job(spec=WorkloadSpec(structure=workload, num_threads=8,
                              initial_size=512, ops_per_thread=16,
                              seed=seed),
            mechanism=mech, config=config)
        for workload in SELFTEST_WORKLOADS
        for mech in SELFTEST_MECHANISMS
    ]


def _fingerprint(summaries: Sequence[RunSummary]) -> List[dict]:
    return [
        {
            "workload": s.spec.structure,
            "mechanism": s.mechanism,
            "makespan": s.makespan,
            "persists": s.persist_count,
            "log_digest": s.persist_log_digest,
            "stats": s.stats.summary(),
        }
        for s in summaries
    ]


def _timed_run(runner: ExperimentRunner, jobs: Sequence[Job],
               label: str) -> tuple:
    start = time.perf_counter()
    summaries = runner.run(jobs, label=label)
    return summaries, time.perf_counter() - start


def run_selftest(workers: int, output: str, verbose: bool = True,
                 obs: bool = False,
                 trace_out: Optional[str] = None,
                 provenance_out: Optional[str] = None,
                 seed: int = 1) -> dict:
    jobs = selftest_jobs(seed)
    progress = ProgressReporter() if verbose else None

    serial = ExperimentRunner(jobs=1, progress=progress)
    serial_summaries, serial_seconds = _timed_run(serial, jobs, "serial")

    parallel = ExperimentRunner(jobs=workers, progress=progress)
    parallel_summaries, parallel_seconds = _timed_run(parallel, jobs,
                                                      f"x{workers}")

    identical = (_fingerprint(serial_summaries)
                 == _fingerprint(parallel_summaries))

    with tempfile.TemporaryDirectory(prefix="repro-exp-cache-") as tmp:
        cache = ResultCache(tmp)
        cold = ExperimentRunner(jobs=workers, cache=cache,
                                progress=progress)
        cold_summaries, cold_seconds = _timed_run(cold, jobs, "cold")
        warm = ExperimentRunner(jobs=workers, cache=cache,
                                progress=progress)
        warm_summaries, warm_seconds = _timed_run(warm, jobs, "warm")
        hit_rate = warm.cache_hits / max(1, warm.cache_hits
                                         + warm.cache_misses)
        cache_identical = (_fingerprint(cold_summaries)
                           == _fingerprint(warm_summaries)
                           == _fingerprint(serial_summaries))

    obs_report = None
    if obs or trace_out or provenance_out:
        from repro.obs.report import attribute_summary
        from repro.obs.trace import dump_summary_traces

        obs_jobs = [dataclasses.replace(
                        job, collect_obs=True,
                        collect_trace=bool(trace_out),
                        collect_provenance=bool(provenance_out))
                    for job in jobs]
        observed = ExperimentRunner(jobs=workers, progress=progress)
        obs_summaries, obs_seconds = _timed_run(observed, obs_jobs, "obs")
        obs_identical = (_fingerprint(obs_summaries)
                         == _fingerprint(serial_summaries))
        reconciled = all(
            attribute_summary(s).persist_stall_total
            == s.stats.persist_stall_cycles
            for s in obs_summaries)
        obs_report = {
            "seconds": round(obs_seconds, 3),
            "identical_results": obs_identical,
            "persist_stalls_reconciled": reconciled,
        }
        if trace_out:
            obs_report["traces_written"] = len(
                dump_summary_traces(obs_summaries, trace_out))
            obs_report["trace_dir"] = trace_out
        if provenance_out:
            from repro.obs.diff import dump_summary_provenance

            obs_report["captures_written"] = len(
                dump_summary_provenance(obs_summaries, provenance_out))
            obs_report["provenance_dir"] = provenance_out

    report = {
        "suite": {
            "jobs": len(jobs),
            "workloads": list(SELFTEST_WORKLOADS),
            "mechanisms": list(SELFTEST_MECHANISMS),
            "spec": dataclasses.asdict(jobs[0].spec),
        },
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup_parallel_over_serial": round(
            serial_seconds / parallel_seconds, 3)
        if parallel_seconds else None,
        "identical_results": identical,
        "cache": {
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "hit_rate": round(hit_rate, 3),
            "speedup_warm_over_cold": round(cold_seconds / warm_seconds, 3)
            if warm_seconds else None,
            "identical_results": cache_identical,
        },
    }
    if obs_report is not None:
        report["obs"] = obs_report
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def _parse_duration(text: str) -> float:
    """``"7d"`` / ``"12h"`` / ``"30m"`` / ``"90s"`` / plain seconds."""
    text = text.strip().lower()
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    if text and text[-1] in scale:
        return float(text[:-1]) * scale[text[-1]]
    return float(text)


def _parse_size(text: str) -> int:
    """``"500M"`` / ``"2G"`` / ``"64K"`` / plain bytes."""
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in scale:
        return int(float(text[:-1]) * scale[text[-1]])
    return int(text)


def run_cache_command(argv: Sequence[str]) -> int:
    """``python -m repro.exp cache {stats,prune}`` — cache hygiene.

    ``stats`` prints entry count, total bytes and the hit rate
    accumulated since the previous ``stats`` call (runners append
    their per-batch counters to a sidecar; printing resets the
    window). ``prune`` plans deletions by age and/or size budget —
    dry-run by default, ``--apply`` to actually unlink.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp cache",
        description="Result-cache statistics and hygiene.")
    sub = parser.add_subparsers(dest="action")

    stats = sub.add_parser(
        "stats", help="entries, bytes, hit rate since last stats")
    stats.add_argument("--dir", default=None, metavar="DIR",
                       help="cache directory (default: "
                            "$REPRO_EXP_CACHE_DIR or ~/.cache/repro-exp)")
    stats.add_argument("--keep-window", action="store_true",
                       help="do not reset the since-last-stats window")

    prune = sub.add_parser(
        "prune", help="delete old entries (dry-run unless --apply)")
    prune.add_argument("--dir", default=None, metavar="DIR",
                       help="cache directory (default: "
                            "$REPRO_EXP_CACHE_DIR or ~/.cache/repro-exp)")
    prune.add_argument("--older-than", default=None, metavar="AGE",
                       help="drop entries older than AGE "
                            "(e.g. 7d, 12h, 900s)")
    prune.add_argument("--max-bytes", default=None, metavar="SIZE",
                       help="evict oldest-first down to SIZE "
                            "(e.g. 500M, 2G)")
    prune.add_argument("--apply", action="store_true",
                       help="actually delete (default is a dry run)")

    args = parser.parse_args(list(argv))
    if not args.action:
        parser.print_help()
        return 2
    cache = ResultCache(args.dir) if args.dir else ResultCache()

    if args.action == "stats":
        window = read_stats_since_marker(cache.stats_path)
        payload = {
            "dir": str(cache.root),
            "entries": cache.entry_count(),
            "bytes": cache.total_bytes(),
            "since_last_stats": window,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        if not args.keep_window:
            write_stats_marker(cache.stats_path)
        return 0

    if args.older_than is None and args.max_bytes is None:
        print("prune: nothing to do — give --older-than and/or "
              "--max-bytes", file=sys.stderr)
        return 2
    victims = plan_prune(
        cache,
        older_than_seconds=(_parse_duration(args.older_than)
                            if args.older_than is not None else None),
        max_bytes=(_parse_size(args.max_bytes)
                   if args.max_bytes is not None else None))
    total = sum(size for _path, size in victims)
    if not args.apply:
        print(f"prune (dry run): would delete {len(victims)} "
              f"entr{'y' if len(victims) == 1 else 'ies'} "
              f"({total} bytes) from {cache.root} — rerun with "
              "--apply to delete")
        return 0
    removed, freed = execute_prune(victims)
    print(f"prune: deleted {removed} "
          f"entr{'y' if removed == 1 else 'ies'} ({freed} bytes) "
          f"from {cache.root}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "cache":
        # Subcommand-style dispatch ahead of the flag parser, so the
        # hygiene CLI can grow options without colliding with the
        # selftest flags.
        return run_cache_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Parallel experiment-runner utilities. "
                    "(See also: python -m repro.exp cache --help.)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the serial-vs-parallel-vs-cached "
                             "equivalence and timing suite")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all CPU cores)")
    parser.add_argument("--seed", type=int, default=1, metavar="S",
                        help="workload seed threaded into every "
                             "WorkloadSpec of the suite "
                             "(default: %(default)s)")
    parser.add_argument("--output", default="BENCH_runner.json",
                        help="where to write the benchmark JSON "
                             "(default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the progress meter")
    parser.add_argument("--obs", action="store_true",
                        help="additionally run an obs-instrumented pass "
                             "and verify it is bit-identical and its "
                             "stall metrics reconcile")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="write one Chrome trace-event JSON per "
                             "job into DIR (implies --obs)")
    parser.add_argument("--provenance-out", default=None, metavar="DIR",
                        help="write one persist-provenance capture per "
                             "job into DIR, for 'repro.obs flame' / "
                             "'repro.obs diff' (implies --obs)")
    args = parser.parse_args(argv)

    if not args.selftest:
        parser.print_help()
        return 2

    workers = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    report = run_selftest(workers, args.output, verbose=not args.quiet,
                          obs=args.obs, trace_out=args.trace_out,
                          provenance_out=args.provenance_out,
                          seed=args.seed)
    ok = (report["identical_results"]
          and report["cache"]["identical_results"]
          and report["cache"]["hit_rate"] == 1.0)
    if "obs" in report:
        ok = (ok and report["obs"]["identical_results"]
              and report["obs"]["persist_stalls_reconciled"])
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nselftest {'PASSED' if ok else 'FAILED'}: "
          f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    run_cli(main, "repro.exp")
