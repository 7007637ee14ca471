"""Reproduction of every figure in the paper's evaluation (Section 6).

Each ``run_*`` function executes the simulations behind one paper
figure and returns a structured result that can render itself as the
same rows/series the paper reports. ``python -m repro.bench.figures``
runs the whole evaluation from the command line, and
``tests/figure_pins.py`` computes the pinned figure integers with them.

All simulations go through the :mod:`repro.exp` runner: every figure
row is an independent deterministic job, so the suite fans out across
CPU cores (``--jobs N``) and re-runs hit the content-addressed result
cache (disable with ``--no-cache``). The cache also makes a killed run
resumable: run the same command again and every cell that finished
before the kill is a cache hit. Results are identical to serial
execution by construction; pass ``runner=`` to pin a specific
:class:`~repro.exp.runner.ExperimentRunner`.

Absolute numbers differ from the paper (our substrate is a behavioral
Python simulator, not Pin on a testbed); the *shape* — who wins, by
roughly what factor — is the reproduction target. EXPERIMENTS.md
records paper-vs-measured for every figure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.bench.configs import (
    FIGURE8_THREADS,
    FIGURE_MECHANISMS,
    KV_FIGURE_MECHANISMS,
    SCALED_CONFIG,
    bench_config,
    figure_spec,
    kv_figure_spec,
    uncached,
)
from repro.bench.report import render_series, render_table
from repro.common.params import MachineConfig
from repro.exp.runner import (
    ExperimentRunner,
    Job,
    RunSummary,
    get_default_runner,
    run_cli,
)
from repro.lfds import WORKLOAD_NAMES
from repro.workloads.harness import WorkloadSpec


# ----------------------------------------------------------------------
# Figures 5 and 7: normalized execution time
# ----------------------------------------------------------------------

@dataclasses.dataclass
class NormalizedExecutionResult:
    """Execution time of each mechanism normalized to NOP, per LFD."""

    title: str
    workloads: List[str]
    mechanisms: List[str]
    results: Dict[str, Dict[str, RunSummary]]

    def normalized(self, workload: str, mechanism: str) -> float:
        nop = self.results[workload]["nop"].makespan
        return self.results[workload][mechanism].makespan / nop

    def improvement(self, workload: str, slower: str,
                    faster: str) -> float:
        """Fractional exec-time improvement of ``faster`` vs ``slower``."""
        slow = self.results[workload][slower].makespan
        fast = self.results[workload][faster].makespan
        return (slow - fast) / slow

    def mean_improvement(self, slower: str, faster: str) -> float:
        gains = [self.improvement(w, slower, faster)
                 for w in self.workloads]
        return sum(gains) / len(gains)

    def render(self) -> str:
        rows = []
        for workload in self.workloads:
            rows.append([workload] + [
                self.normalized(workload, mech)
                for mech in self.mechanisms
            ])
        return render_table(self.title,
                            ["workload"] + self.mechanisms, rows)

    def all_summaries(self) -> List[RunSummary]:
        """Every run of the figure, in (workload, mechanism) order."""
        return [self.results[workload][mech]
                for workload in self.workloads
                for mech in ["nop"] + self.mechanisms]

    def render_attribution(self) -> str:
        """Critical-path split per run (requires obs-collected runs)."""
        from repro.obs.report import render_summaries

        return render_summaries(
            self.all_summaries(),
            title=f"Critical-path attribution — {self.title}")


def run_normalized_execution(config: MachineConfig, title: str, *,
                             scale: str = "quick", num_threads: int = 32,
                             seed: int = 1,
                             workloads: Optional[Sequence[str]] = None,
                             runner: Optional[ExperimentRunner] = None,
                             collect_obs: bool = False,
                             collect_trace: bool = False,
                             collect_provenance: bool = False
                             ) -> NormalizedExecutionResult:
    """Shared engine for Figures 5 and 7."""
    workloads = list(workloads or WORKLOAD_NAMES)
    mechanisms = ["nop"] + FIGURE_MECHANISMS
    config = bench_config(config)
    jobs = [
        Job(spec=figure_spec(workload, num_threads=num_threads,
                             scale=scale, seed=seed),
            mechanism=mech, config=config,
            collect_obs=(collect_obs or collect_trace
                         or collect_provenance),
            collect_trace=collect_trace,
            collect_provenance=collect_provenance)
        for workload in workloads
        for mech in mechanisms
    ]
    summaries = (runner or get_default_runner()).run(jobs, label=title[:8])
    results: Dict[str, Dict[str, RunSummary]] = {}
    for job, summary in zip(jobs, summaries):
        results.setdefault(job.spec.structure, {})[job.mechanism] = summary
    return NormalizedExecutionResult(
        title=title, workloads=workloads,
        mechanisms=FIGURE_MECHANISMS, results=results)


def run_figure5(*, scale: str = "quick", num_threads: int = 32,
                seed: int = 1,
                workloads: Optional[Sequence[str]] = None,
                runner: Optional[ExperimentRunner] = None,
                collect_obs: bool = False,
                collect_trace: bool = False,
                collect_provenance: bool = False
                ) -> NormalizedExecutionResult:
    """Figure 5: exec time normalized to NOP, cached NVM mode."""
    return run_normalized_execution(
        SCALED_CONFIG,
        "Figure 5: execution time normalized to No-Persistency "
        "(cached mode, lower is better)",
        scale=scale, num_threads=num_threads, seed=seed,
        workloads=workloads, runner=runner,
        collect_obs=collect_obs, collect_trace=collect_trace,
        collect_provenance=collect_provenance)


def run_figure7(*, scale: str = "quick", num_threads: int = 32,
                seed: int = 1,
                workloads: Optional[Sequence[str]] = None,
                runner: Optional[ExperimentRunner] = None,
                collect_obs: bool = False,
                collect_trace: bool = False,
                collect_provenance: bool = False
                ) -> NormalizedExecutionResult:
    """Figure 7: same as Figure 5 with the NVM DRAM cache disabled."""
    return run_normalized_execution(
        uncached(SCALED_CONFIG),
        "Figure 7: execution time normalized to No-Persistency "
        "(uncached mode, lower is better)",
        scale=scale, num_threads=num_threads, seed=seed,
        workloads=workloads, runner=runner,
        collect_obs=collect_obs, collect_trace=collect_trace,
        collect_provenance=collect_provenance)


# ----------------------------------------------------------------------
# Figure 6: critical-path writebacks
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Figure6Result:
    """% of writebacks on the execution critical path, BB vs LRP."""

    workloads: List[str]
    fractions: Dict[str, Dict[str, float]]   # workload -> mech -> frac

    def render(self) -> str:
        rows = [
            [w, f"{self.fractions[w]['bb'] * 100:.0f}%",
             f"{self.fractions[w]['lrp'] * 100:.0f}%"]
            for w in self.workloads
        ]
        return render_table(
            "Figure 6: percentage of write-backs in the critical path "
            "(lower is better)",
            ["workload", "BB", "LRP"], rows)


def run_figure6(fig5: Optional[NormalizedExecutionResult] = None, *,
                scale: str = "quick", num_threads: int = 32,
                seed: int = 1,
                runner: Optional[ExperimentRunner] = None) -> Figure6Result:
    """Figure 6 is derived from the Figure 5 runs."""
    fig5 = fig5 or run_figure5(scale=scale, num_threads=num_threads,
                               seed=seed, runner=runner)
    fractions = {
        workload: {
            mech: fig5.results[workload][mech]
            .stats.critical_writeback_fraction
            for mech in ("bb", "lrp")
        }
        for workload in fig5.workloads
    }
    return Figure6Result(workloads=fig5.workloads, fractions=fractions)


# ----------------------------------------------------------------------
# Figure 8: persistency overhead vs thread count
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Figure8Result:
    """% overhead over NOP, per workload, as threads scale."""

    thread_counts: List[int]
    overheads: Dict[str, Dict[str, List[float]]]  # wl -> mech -> [%]
    #: Raw runs (submission order), kept only when obs was collected so
    #: the attribution report can be rendered after the sweep.
    summaries: Optional[List[RunSummary]] = None

    def render(self) -> str:
        blocks = []
        for workload, series in self.overheads.items():
            blocks.append(render_series(
                f"Figure 8 ({workload}): % persistency overhead over "
                "No-Persistency vs threads (lower is better)",
                "threads", self.thread_counts,
                {m.upper(): v for m, v in series.items()}))
        return "\n\n".join(blocks)


def run_figure8(*, scale: str = "quick",
                thread_counts: Optional[Sequence[int]] = None,
                workloads: Optional[Sequence[str]] = None,
                mechanisms: Sequence[str] = ("bb", "lrp"),
                seed: int = 1,
                runner: Optional[ExperimentRunner] = None,
                collect_obs: bool = False,
                collect_trace: bool = False,
                collect_provenance: bool = False) -> Figure8Result:
    """Figure 8(a-e): overhead sweep over 1-32 worker threads."""
    thread_counts = list(thread_counts or FIGURE8_THREADS)
    workloads = list(workloads or WORKLOAD_NAMES)
    config = bench_config(SCALED_CONFIG)
    all_mechs = ["nop"] + list(mechanisms)
    jobs = [
        Job(spec=figure_spec(workload, num_threads=threads,
                             scale=scale, seed=seed),
            mechanism=mech, config=config,
            collect_obs=(collect_obs or collect_trace
                         or collect_provenance),
            collect_trace=collect_trace,
            collect_provenance=collect_provenance)
        for workload in workloads
        for threads in thread_counts
        for mech in all_mechs
    ]
    summaries = (runner or get_default_runner()).run(jobs, label="Figure 8")
    overheads: Dict[str, Dict[str, List[float]]] = {
        workload: {mech: [] for mech in mechanisms}
        for workload in workloads
    }
    index = 0
    for workload in workloads:
        for _threads in thread_counts:
            nop = summaries[index]
            index += 1
            for mech in mechanisms:
                run = summaries[index]
                index += 1
                overheads[workload][mech].append(
                    run.stats.overhead_vs(nop.stats) * 100.0)
    return Figure8Result(
        thread_counts=thread_counts, overheads=overheads,
        summaries=list(summaries)
        if (collect_obs or collect_trace or collect_provenance)
        else None)


# ----------------------------------------------------------------------
# Section 6.4: data-structure size sensitivity
# ----------------------------------------------------------------------

@dataclasses.dataclass
class SizeSensitivityResult:
    """% overhead over NOP as the structure size is swept."""

    workload: str
    sizes: List[int]
    overheads: Dict[str, List[float]]

    def render(self) -> str:
        return render_series(
            f"Size sensitivity ({self.workload}): % overhead over "
            "No-Persistency vs initial size",
            "size", self.sizes,
            {m.upper(): v for m, v in self.overheads.items()})


def run_size_sensitivity(workload: str = "hashmap", *,
                         sizes: Sequence[int] = (8192, 16384, 32768,
                                                 65536),
                         num_threads: int = 16,
                         ops_per_thread: int = 32,
                         mechanisms: Sequence[str] = ("bb", "lrp"),
                         seed: int = 1,
                         runner: Optional[ExperimentRunner] = None
                         ) -> SizeSensitivityResult:
    """The paper varied sizes 8K-1M and saw no significant change."""
    config = bench_config(SCALED_CONFIG)
    all_mechs = ["nop"] + list(mechanisms)
    jobs = [
        Job(spec=WorkloadSpec(structure=workload, num_threads=num_threads,
                              initial_size=size,
                              ops_per_thread=ops_per_thread, seed=seed),
            mechanism=mech, config=config)
        for size in sizes
        for mech in all_mechs
    ]
    summaries = (runner or get_default_runner()).run(jobs, label="size")
    overheads: Dict[str, List[float]] = {m: [] for m in mechanisms}
    index = 0
    for _size in sizes:
        nop = summaries[index]
        index += 1
        for mech in mechanisms:
            run = summaries[index]
            index += 1
            overheads[mech].append(
                run.stats.overhead_vs(nop.stats) * 100.0)
    return SizeSensitivityResult(workload=workload, sizes=list(sizes),
                                 overheads=overheads)


# ----------------------------------------------------------------------
# RET-size ablation (Section 5.2.1 design choice)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class RetAblationResult:
    """LRP execution time and engine activity across RET sizes."""

    workload: str
    ret_sizes: List[int]
    normalized: List[float]
    watermark_drains: List[int]

    def render(self) -> str:
        rows = [
            [self.ret_sizes[i], self.normalized[i],
             self.watermark_drains[i]]
            for i in range(len(self.ret_sizes))
        ]
        return render_table(
            f"RET ablation ({self.workload}): LRP exec time normalized "
            "to NOP and watermark-triggered drains vs RET entries",
            ["RET entries", "LRP/NOP", "watermark drains"], rows)


def run_ret_ablation(workload: str = "hashmap", *,
                     ret_sizes: Sequence[int] = (4, 8, 16, 32, 64),
                     num_threads: int = 16, scale: str = "quick",
                     seed: int = 1,
                     runner: Optional[ExperimentRunner] = None
                     ) -> RetAblationResult:
    """Sweep the Release Epoch Table size (paper default: 32)."""
    spec = figure_spec(workload, num_threads=num_threads, scale=scale,
                       seed=seed)
    base = bench_config(SCALED_CONFIG)
    jobs = [Job(spec=spec, mechanism="nop", config=base)]
    for entries in ret_sizes:
        config = dataclasses.replace(
            base, ret_entries=entries,
            ret_watermark=max(1, (entries * 3) // 4))
        jobs.append(Job(spec=spec, mechanism="lrp", config=config))
    summaries = (runner or get_default_runner()).run(jobs, label="RET")
    nop, lrp_runs = summaries[0], summaries[1:]
    normalized = [run.makespan / nop.makespan for run in lrp_runs]
    drains = [run.mechanism_counters["ret_watermark_drains"]
              for run in lrp_runs]
    return RetAblationResult(workload=workload,
                             ret_sizes=list(ret_sizes),
                             normalized=normalized,
                             watermark_drains=drains)


# ----------------------------------------------------------------------
# KV service: request-level SLO comparison (ROADMAP service scenario)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class KVServiceResult:
    """Per-mechanism request SLOs for the KV-service scenario.

    Not a figure from the paper: this is the service-level restatement
    of its argument. LRP should match or beat BB on *response* latency
    (persists stay off the critical path) while paying for it in
    durability lag — requests whose effects reach NVM long after the
    client saw the reply, which the lost column prices as lost work on
    an un-synced crash.
    """

    mechanisms: List[str]
    #: mechanism -> repro.obs.slo.service_report payload.
    payloads: Dict[str, Dict[str, object]]
    summaries: Dict[str, RunSummary]

    def latency(self, mechanism: str, quantile: str = "p99") -> int:
        return self.payloads[mechanism]["latency"][quantile]

    def durable_latency(self, mechanism: str,
                        quantile: str = "p99") -> int:
        return self.payloads[mechanism]["durable_latency"][quantile]

    def render(self) -> str:
        rows = []
        for mech in self.mechanisms:
            payload = self.payloads[mech]
            recovery = payload.get("recovery", {})
            rows.append([
                mech.upper(),
                payload["makespan"],
                payload["throughput_rpkc"],
                payload["latency"]["p50"],
                payload["latency"]["p99"],
                payload["latency"]["p999"],
                payload["durable_latency"]["p99"],
                payload["durable_latency"]["max_lag"],
                recovery.get("lost_requests", {}).get("mean", "-"),
            ])
        return render_table(
            "KV service: open-loop request SLOs per mechanism "
            "(cycles; lost = completed-but-not-durable at a crash)",
            ["mechanism", "makespan", "req/kcyc", "p50", "p99", "p999",
             "durable p99", "max lag", "lost mean"], rows)


def run_figure_kv(*, scale: str = "quick", structure: str = "hashmap",
                  mechanisms: Optional[Sequence[str]] = None,
                  crash_points: int = 8, seed: int = 42,
                  runner: Optional[ExperimentRunner] = None
                  ) -> KVServiceResult:
    """The KV-service SLO comparison (one job per mechanism).

    Workers run with ``collect_spans`` so the SLO payload (latency and
    durable-latency percentiles, crash outcomes, lost requests) comes back
    precomputed in ``RunSummary.obs["slo"]``; the crash campaign reuses
    the recovery machinery at ``crash_points`` sampled log prefixes.
    """
    mechanisms = list(mechanisms or KV_FIGURE_MECHANISMS)
    spec = kv_figure_spec(structure=structure, scale=scale, seed=seed)
    config = bench_config(SCALED_CONFIG)
    jobs = [
        Job(spec=spec, mechanism=mech, config=config,
            collect_spans=True, crash_points=crash_points,
            crash_seed=seed)
        for mech in mechanisms
    ]
    summaries = (runner or get_default_runner()).run(jobs, label="kv")
    payloads: Dict[str, Dict[str, object]] = {}
    results: Dict[str, RunSummary] = {}
    for job, summary in zip(jobs, summaries):
        results[job.mechanism] = summary
        payloads[job.mechanism] = (summary.obs or {}).get("slo", {})
    return KVServiceResult(mechanisms=mechanisms, payloads=payloads,
                           summaries=results)


# ----------------------------------------------------------------------
# Recovery matrix (Figure 1 / Section 3 argument, as an experiment)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class RecoveryMatrixResult:
    """Crash-recovery outcomes per (workload, mechanism)."""

    rows: List[Dict[str, object]]

    def outcome(self, workload: str, mechanism: str) -> Dict[str, object]:
        for row in self.rows:
            if (row["workload"] == workload
                    and row["mechanism"] == mechanism):
                return row
        raise KeyError((workload, mechanism))

    def render(self) -> str:
        table = [
            [row["workload"], row["mechanism"], row["crash_points"],
             row["unrecoverable"],
             "OK" if row["unrecoverable"] == 0 else "VIOLATIONS"]
            for row in self.rows
        ]
        return render_table(
            "Recovery matrix: null recovery across crash points "
            "(RP mechanisms must always recover; ARP/NOP must not)",
            ["workload", "mechanism", "crash points", "unrecoverable",
             "verdict"], table)


def run_recovery_matrix(*, workloads: Optional[Sequence[str]] = None,
                        mechanisms: Sequence[str] = (
                            "nop", "arp", "sb", "bb", "dpo", "hops",
                            "lrp"),
                        num_threads: int = 8, initial_size: int = 256,
                        ops_per_thread: int = 24, seeds: Sequence[int] = (0, 1),
                        crash_points: int = 40,
                        runner: Optional[ExperimentRunner] = None
                        ) -> RecoveryMatrixResult:
    """Crash every mechanism on every LFD at many persist-log points.

    Each (workload, mechanism, seed) cell is one runner job; the crash
    campaign itself runs inside the worker (only its counts travel
    back), so the matrix parallelizes like every other figure.
    """
    workloads = list(workloads or WORKLOAD_NAMES)
    config = bench_config(SCALED_CONFIG)
    jobs = [
        Job(spec=WorkloadSpec(structure=workload,
                              num_threads=num_threads,
                              initial_size=initial_size,
                              ops_per_thread=ops_per_thread,
                              seed=seed),
            mechanism=mech, config=config,
            crash_points=crash_points, crash_seed=seed)
        for workload in workloads
        for mech in mechanisms
        for seed in seeds
    ]
    summaries = (runner or get_default_runner()).run(jobs, label="recovery")
    rows: List[Dict[str, object]] = []
    index = 0
    for workload in workloads:
        for mech in mechanisms:
            attempts = 0
            failures = 0
            for _seed in seeds:
                summary = summaries[index]
                index += 1
                attempts += summary.crash_attempts or 0
                failures += summary.crash_failures or 0
            rows.append({
                "workload": workload,
                "mechanism": mech,
                "crash_points": attempts,
                "unrecoverable": failures,
            })
    return RecoveryMatrixResult(rows=rows)


# ----------------------------------------------------------------------
# Command-line entry point
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> None:
    import argparse
    import json
    import os

    from repro.exp.runner import make_runner, set_default_runner

    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation figures.")
    parser.add_argument("--scale", choices=("quick", "full", "paper"),
                        default="quick",
                        help="workload sizing tier; 'paper' runs the "
                             "paper's element counts outright. 'size' "
                             "and 'recovery' are fixed sweeps that "
                             "ignore it")
    parser.add_argument("--figures", nargs="*", default=None,
                        choices=("fig5", "fig6", "fig7", "fig8", "size",
                                 "ret", "recovery", "kv"),
                        help="subset, e.g. fig5 fig6 fig7 fig8 size "
                             "ret recovery kv")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the simulations "
                             "(default: all CPU cores; 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk "
                             "result cache")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the progress meter on stderr")
    parser.add_argument("--obs", action="store_true",
                        help="collect repro.obs metrics during the "
                             "figure runs and print the critical-path "
                             "attribution report after each figure")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="write one Chrome trace-event JSON per "
                             "figure run into DIR (implies --obs)")
    parser.add_argument("--provenance-out", default=None, metavar="DIR",
                        help="write one persist-provenance capture per "
                             "figure run into DIR, for 'repro.obs "
                             "flame' / 'repro.obs diff' (implies --obs)")
    parser.add_argument("--timings-out", default=None, metavar="FILE",
                        help="write per-figure cache hits and misses "
                             "and the deterministic Figure 5 (and KV) "
                             "makespans as JSON")
    args = parser.parse_args(argv)
    wanted = set(args.figures or
                 ["fig5", "fig6", "fig7", "fig8", "size", "ret",
                  "recovery", "kv"])
    obs = args.obs or bool(args.trace_out) or bool(args.provenance_out)
    trace = bool(args.trace_out)
    provenance = bool(args.provenance_out)

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    runner = make_runner(jobs=jobs, use_cache=not args.no_cache,
                         verbose=not args.quiet)
    set_default_runner(runner)

    traced: List[RunSummary] = []
    figure_cells: Dict[str, Dict[str, object]] = {}

    def counted(name: str, run):
        # Which cells of the figure were simulated and which came from
        # the result cache. Wall time is perfbench's to measure, cold.
        hits_before = runner.cache_hits
        misses_before = runner.cache_misses
        result = run()
        figure_cells[name] = {
            "cache_hits": runner.cache_hits - hits_before,
            "cache_misses": runner.cache_misses - misses_before,
        }
        return result

    fig5 = None
    if wanted & {"fig5", "fig6"}:
        fig5 = counted("fig5", lambda: run_figure5(
            scale=args.scale, collect_obs=obs, collect_trace=trace,
            collect_provenance=provenance))
        if "fig5" in wanted:
            print(fig5.render())
            print(f"\nmean improvement BB over SB: "
                  f"{fig5.mean_improvement('sb', 'bb') * 100:.0f}%")
            print(f"mean improvement LRP over BB: "
                  f"{fig5.mean_improvement('bb', 'lrp') * 100:.0f}%\n")
            if obs:
                print(fig5.render_attribution(), "\n")
        if obs:
            traced.extend(fig5.all_summaries())
    if "fig6" in wanted:
        # Figure 6 reuses the Figure 5 runs: no cells of its own.
        fig6 = run_figure6(fig5)
        figure_cells["fig6"] = {"derived_from": "fig5"}
        print(fig6.render(), "\n")
    if "fig7" in wanted:
        fig7 = counted("fig7", lambda: run_figure7(
            scale=args.scale, collect_obs=obs, collect_trace=trace,
            collect_provenance=provenance))
        print(fig7.render(), "\n")
        if obs:
            print(fig7.render_attribution(), "\n")
            traced.extend(fig7.all_summaries())
    if "fig8" in wanted:
        fig8 = counted("fig8", lambda: run_figure8(
            scale=args.scale, collect_obs=obs, collect_trace=trace,
            collect_provenance=provenance))
        print(fig8.render(), "\n")
        if obs and fig8.summaries:
            from repro.obs.report import render_summaries

            print(render_summaries(
                fig8.summaries,
                title="Critical-path attribution — Figure 8 sweep"),
                "\n")
            traced.extend(fig8.summaries)
    if "size" in wanted:
        print(counted("size", run_size_sensitivity).render(), "\n")
    if "ret" in wanted:
        print(counted("ret", lambda: run_ret_ablation(
            scale=args.scale)).render(), "\n")
    if "recovery" in wanted:
        print(counted("recovery", run_recovery_matrix).render())
    fig_kv = None
    if "kv" in wanted:
        fig_kv = counted("kv", lambda: run_figure_kv(scale=args.scale))
        print(fig_kv.render())

    if trace and traced:
        from repro.obs.trace import dump_summary_traces

        written = dump_summary_traces(traced, args.trace_out)
        print(f"\nwrote {len(written)} Chrome trace files to "
              f"{args.trace_out}/")

    if provenance and traced:
        from repro.obs.diff import dump_summary_provenance

        captures = dump_summary_provenance(traced, args.provenance_out)
        print(f"\nwrote {len(captures)} provenance captures to "
              f"{args.provenance_out}/")

    if args.timings_out:
        snapshot: Dict[str, object] = {
            "scale": args.scale,
            "jobs": jobs,
            "cached": not args.no_cache,
            "figures": figure_cells,
        }
        if fig5 is not None:
            # Deterministic anchors: tests compare them exactly.
            snapshot["fig5_makespan"] = {
                workload: {
                    mech: fig5.results[workload][mech].makespan
                    for mech in ["nop"] + fig5.mechanisms
                }
                for workload in fig5.workloads
            }
        if fig_kv is not None:
            # The same for the service scenario, in simulated cycles.
            snapshot["kv_slo"] = {
                mech: {
                    "makespan": fig_kv.payloads[mech]["makespan"],
                    "p99": fig_kv.latency(mech),
                    "durable_p99": fig_kv.durable_latency(mech),
                }
                for mech in fig_kv.mechanisms
            }
        with open(args.timings_out, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote figure cache counts and makespans to "
              f"{args.timings_out}")


if __name__ == "__main__":
    # Cells that finished before an interrupt are in the result cache,
    # so rerunning the same command resumes the sweep.
    run_cli(main, "repro.bench.figures",
            "rerun the same command to resume from the result cache")
