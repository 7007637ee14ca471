"""``python -m repro.obs`` — tracing, attribution, and self-test.

Subcommands:

* ``trace out.json`` — run one small simulation with full tracing and
  write a ``chrome://tracing`` / Perfetto-loadable trace-event file;
* ``report`` — run one workload under several mechanisms and print the
  critical-path attribution report (the textual explanation of the
  paper's Figures 5-8: where each mechanism's makespan goes);
* ``timeline`` — run with cycle-windowed sampling and render the
  per-window compute/coherence/stall shares, queue depths and NVM
  bandwidth as ASCII sparklines (``--csv`` for the raw series,
  ``--trace-out`` for Perfetto counter tracks);
* ``audit`` — re-verify the persist order and consistent-cut
  guarantees of a finished run against the RP model (zero violations
  expected for the enforcing mechanisms, nonzero for nop/ARP);
* ``provenance`` — run with persist-provenance tracking and write the
  capture (causal chain per persist/stall) as JSON, for later ``flame``
  / ``diff`` rendering;
* ``flame`` — collapse a provenance capture (or a fresh run) into
  Brendan-Gregg folded stacks (``site;trigger;mechanism value``),
  loadable in speedscope / flamegraph.pl, plus an ASCII top-N table;
* ``diff`` — align two same-workload/seed captures across mechanisms
  and report first divergence, per-site deltas, and persists
  avoided-vs-moved;
* ``fastsmoke`` — gate the batched engine's telemetry: one paper-scale
  cell plain vs observed (ABBA rounds, median ratio), makespan
  identity, overhead bounded by ``--overhead-limit``; writes
  ``BENCH_obsfast.json``;
* ``slo`` — run the KV-service workload with request-span tracking and
  print the service report: throughput, exact p50/p99/p999 request and
  durable latency, windowed sparklines, optional crash columns
  (``--crash-points``), per-request CSV (``--csv``), request spans as
  a Chrome trace (``--trace-out``) and the JSON payload
  (``--json-out``);
* ``kvsmoke`` — gate the span-tracking overhead on the KV service:
  ABBA rounds plain vs spans-on (makespans must be identical),
  streaming-vs-exact percentile reconciliation, SLO payloads for
  lrp/bb/sb; writes ``BENCH_kv.json``;
* ``--selftest`` — end-to-end check on a tiny workload: obs hooks
  disabled vs. enabled yield bit-identical runs, the trace export
  round-trips through ``json`` with monotone per-track timestamps, the
  attribution reconciles exactly with ``RunStats``, the timeline's
  window sums reconcile with the aggregate counters, and the
  provenance flamegraph's stall cycles reconcile exactly with
  ``persist_stall_cycles``.

CLI failures (unknown mechanism, unwritable output path, export
without the requested data) exit 1 with a one-line diagnostic; missing
parent directories of an output path are created.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

from repro.common.params import MachineConfig, NVMMode
from repro.core.simulator import SimulationResult, simulate
from repro.obs import (
    Observer,
    TimelineSampler,
    write_chrome_trace,
)
from repro.obs import diff as diff_mod
from repro.obs import flame
from repro.obs import slo
from repro.obs.report import (
    attribute_run,
    render_attribution,
)
from repro.obs.timeline import render_timeline, sparkline, \
    write_timeline_csv
from repro.workloads.harness import WorkloadSpec
from repro.workloads.kvservice import KVServiceSpec

SELFTEST_MECHANISMS = ("nop", "sb", "bb", "lrp")

#: The service-comparison row of the KV story: lazy release persistency
#: against the eager blocking baselines.
KV_MECHANISMS = ("lrp", "bb", "sb")

#: Every mechanism the self-test's KV span checks run.
FULL_MECHANISMS = ("nop", "sb", "bb", "arp", "dpo", "hops", "lrp")

#: Window width (cycles) used when the user does not pass --interval.
DEFAULT_TIMELINE_INTERVAL = 1000


def _ensure_parent(path: str) -> None:
    """Create an output path's parent directory if it is missing.

    All obs CLI output paths go through here (the PR 3 error-path
    contract: never a traceback — a genuinely uncreatable parent
    surfaces as OSError, which main() turns into a one-line exit 1).
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _spec_from_args(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(structure=args.workload,
                        num_threads=args.threads,
                        initial_size=args.size,
                        ops_per_thread=args.ops,
                        seed=args.seed)


def _config_from_args(args: argparse.Namespace) -> MachineConfig:
    mode = NVMMode.UNCACHED if args.uncached else NVMMode.CACHED
    return MachineConfig(num_cores=max(args.threads, 1), nvm_mode=mode)


def _observed_run(spec: WorkloadSpec, mechanism: str,
                  config: MachineConfig, *, trace: bool,
                  timeline_interval: Optional[int] = None,
                  provenance: bool = False
                  ) -> Tuple[SimulationResult, Observer]:
    observer = Observer(trace=trace, timeline_interval=timeline_interval,
                        provenance=provenance)
    result = simulate(spec, mechanism, config, observer=observer)
    return result, observer


def _capture_run(spec: WorkloadSpec, mechanism: str,
                 config: MachineConfig) -> dict:
    """One provenance-tracked run, distilled into a capture dict."""
    from repro.exp.runner import Job, execute_job

    summary = execute_job(Job(spec=spec, mechanism=mechanism,
                              config=config, collect_provenance=True))
    return diff_mod.make_capture(summary)


def _add_workload_args(parser: argparse.ArgumentParser,
                       single_workload: bool = True) -> None:
    if single_workload:
        parser.add_argument("--workload", default="hashmap",
                            help="LFD to run (default: %(default)s)")
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--size", type=int, default=256,
                        help="initial structure size")
    parser.add_argument("--ops", type=int, default=24,
                        help="operations per thread")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--uncached", action="store_true",
                        help="uncached NVM mode (Figure 7 regime)")


def cmd_trace(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    config = _config_from_args(args)
    result, observer = _observed_run(spec, args.mechanism, config,
                                     trace=True)
    events = observer.trace.chrome_events()
    _ensure_parent(args.output)
    write_chrome_trace(events, args.output)
    attribution = attribute_run(result.stats, observer.metrics.counters)
    print(f"wrote {len(events)} trace events to {args.output} "
          f"(load in chrome://tracing or https://ui.perfetto.dev)")
    print(f"{spec.structure}/{args.mechanism}: makespan "
          f"{result.makespan} cycles, persist stalls "
          f"{attribution.persist_stall_total} cycles")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    config = _config_from_args(args)
    attributions = []
    for mechanism in args.mechanisms:
        result, observer = _observed_run(spec, mechanism, config,
                                         trace=False)
        attributions.append(
            attribute_run(result.stats, observer.metrics.counters))
    print(render_attribution(
        attributions,
        title=f"Critical-path attribution: {spec.structure}, "
              f"{spec.num_threads} threads, "
              f"{spec.ops_per_thread} ops/thread "
              f"({config.nvm_mode.value} NVM)"))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    if args.from_export:
        with open(args.from_export) as handle:
            document = json.load(handle)
        timeline_data = document.get("timeline")
        if timeline_data is None:
            raise ValueError(
                f"{args.from_export}: export carries no timeline series "
                f"(re-run with a timeline interval, e.g. "
                f"'python -m repro.obs timeline --export-out ...')")
        sampler = TimelineSampler.from_dict(timeline_data)
        title = f"Timeline re-rendered from {args.from_export}"
    else:
        spec = _spec_from_args(args)
        config = _config_from_args(args)
        result, observer = _observed_run(
            spec, args.mechanism, config,
            trace=args.trace_out is not None,
            timeline_interval=args.interval)
        sampler = observer.timeline
        assert sampler is not None
        title = (f"Timeline: {spec.structure}/{args.mechanism}, "
                 f"{spec.num_threads} threads, "
                 f"makespan {result.makespan} cycles")
        if args.export_out:
            _ensure_parent(args.export_out)
            with open(args.export_out, "w") as handle:
                json.dump(observer.export(), handle)
            print(f"wrote observer export to {args.export_out}")
        if args.trace_out:
            # export() appends the counter tracks to the span events.
            events = observer.export()["trace_events"]
            _ensure_parent(args.trace_out)
            write_chrome_trace(events, args.trace_out)
            print(f"wrote {len(events)} trace events (incl. counter "
                  f"tracks) to {args.trace_out}")
    print(render_timeline(sampler, title=title, width=args.width))
    if args.csv:
        _ensure_parent(args.csv)
        with open(args.csv, "w", newline="") as handle:
            rows = write_timeline_csv(sampler, handle)
        print(f"wrote {rows} windows x {len(sampler.names())} series "
              f"to {args.csv}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs.audit import audit_simulation

    config = _config_from_args(args)
    print(f"Persist-order audit: mechanism={args.mechanism}, "
          f"{args.threads} threads, {args.ops} ops/thread, "
          f"{args.cuts} crash cuts per run")
    failed = False
    dirty = False
    for workload in args.workloads:
        spec = WorkloadSpec(structure=workload, num_threads=args.threads,
                            initial_size=args.size,
                            ops_per_thread=args.ops, seed=args.seed)
        result = simulate(spec, args.mechanism, config)
        report = audit_simulation(result, cut_samples=args.cuts,
                                  cut_seed=args.seed)
        print(f"[audit] {report.summary()}")
        if not report.clean:
            dirty = True
            for line in report.detail_lines(args.detail):
                print(line)
        failed = failed or report.failed
    if failed:
        print("[audit] FAILED: an RP-enforcing mechanism violated the "
              "persist order")
        return 1
    if dirty and args.strict:
        print("[audit] FAILED (--strict): violations found")
        return 1
    print("[audit] PASSED")
    return 0


def cmd_provenance(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    config = _config_from_args(args)
    capture = _capture_run(spec, args.mechanism, config)
    _ensure_parent(args.output)
    diff_mod.write_capture(capture, args.output)
    prov = capture["provenance"]
    triggers: dict = {}
    for entry in prov["persists"]:
        triggers[entry["trigger"]] = triggers.get(entry["trigger"], 0) + 1
    print(f"wrote provenance capture to {args.output}")
    print(f"{spec.structure}/{args.mechanism}: "
          f"{len(prov['persists'])} persists "
          f"({', '.join(f'{t}: {n}' for t, n in sorted(triggers.items()))}), "
          f"{capture['persist_stall_cycles']} stall cycles over "
          f"{len(prov['stalls'])} (site, reason) pairs")
    return 0


def cmd_flame(args: argparse.Namespace) -> int:
    if args.from_capture:
        capture = diff_mod.load_capture(args.from_capture)
    else:
        spec = _spec_from_args(args)
        config = _config_from_args(args)
        capture = _capture_run(spec, args.mechanism, config)
    prov = capture["provenance"]
    folds = flame.collapse_stacks(prov, args.mode)
    _ensure_parent(args.output)
    flame.write_collapsed(folds, args.output)
    unit = "cycles" if args.mode == "stalls" else "persists"
    print(f"wrote {len(folds)} folded stacks ({flame.total(folds)} "
          f"{unit}) to {args.output} (feed to flamegraph.pl or "
          f"https://speedscope.app)")
    print(flame.render_table(prov, args.mode, limit=args.limit))
    if args.mode == "stalls":
        stats_total = capture["persist_stall_cycles"]
        if flame.total(folds) != stats_total:
            print(f"error: flame total {flame.total(folds)} != "
                  f"persist_stall_cycles {stats_total}", file=sys.stderr)
            return 1
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    if args.captures:
        base = diff_mod.load_capture(args.captures[0])
        other = diff_mod.load_capture(args.captures[1])
    else:
        spec = _spec_from_args(args)
        config = _config_from_args(args)
        base = _capture_run(spec, args.base, config)
        other = _capture_run(spec, args.other, config)
    result = diff_mod.diff_captures(base, other)
    if args.json_out:
        _ensure_parent(args.json_out)
        with open(args.json_out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote machine-readable diff to {args.json_out}")
    print(diff_mod.render_diff(result, limit=args.limit))
    return 0


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------

def _check_monotone(events: List[dict]) -> None:
    """Per track, data-event timestamps must be non-decreasing."""
    last: dict = {}
    for event in events:
        if event.get("ph") == "M":
            continue
        track = (event["pid"], event["tid"])
        ts = event["ts"]
        if event.get("dur", 0) < 0:
            raise AssertionError(f"negative dur in {event}")
        if track in last and ts < last[track]:
            raise AssertionError(
                f"ts regression on track {track}: {last[track]} -> {ts}")
        last[track] = ts


def run_selftest(verbose: bool = True) -> bool:
    """Tiny-workload end-to-end check of the whole obs stack."""
    from repro.exp.runner import execute_job, Job

    spec = WorkloadSpec(structure="hashmap", num_threads=4,
                        initial_size=64, ops_per_thread=12, seed=1)
    config = MachineConfig(num_cores=4)
    interval = 500
    ok = True
    captures: dict = {}
    for mechanism in SELFTEST_MECHANISMS:
        plain = simulate(spec, mechanism, config)
        observed, observer = _observed_run(spec, mechanism, config,
                                           trace=True,
                                           timeline_interval=interval,
                                           provenance=True)

        identical = (plain.makespan == observed.makespan
                     and plain.stats.summary() == observed.stats.summary())

        with tempfile.NamedTemporaryFile("w+", suffix=".json") as tmp:
            # export() merges the timeline counter tracks into the span
            # events, so the monotonicity check covers both.
            write_chrome_trace(observer.export()["trace_events"], tmp)
            tmp.flush()
            tmp.seek(0)
            document = json.load(tmp)
        events = document["traceEvents"]
        _check_monotone(events)

        attribution = attribute_run(observed.stats,
                                    observer.metrics.counters)
        reconciles = (attribution.persist_stall_total
                      == observed.stats.persist_stall_cycles)
        critical = attribution.critical_core
        adds_up = (critical.compute + critical.coherence
                   + critical.persist_stall == critical.total
                   and critical.total == observed.makespan
                   and all(c.coherence >= 0 for c in attribution.cores))

        # The timeline's window sums must reconcile exactly with the
        # aggregate counters/stats over the same run.
        timeline = observer.timeline
        counters = observer.metrics.counters
        tl_compute = all(
            sum(timeline.dense(f"compute.c{core}"))
            == counters.get(f"sched.compute_cycles.c{core}", 0)
            for core in range(config.num_cores))
        tl_stall = (sum(sum(timeline.dense(name))
                        for name in timeline.names()
                        if name.startswith("stall.c"))
                    == observed.stats.persist_stall_cycles)
        tl_nvm = (sum(sum(timeline.dense(name))
                      for name in timeline.names()
                      if name.startswith("nvm.lines.ch"))
                  == counters.get("persist.lines", 0))
        tl_reconciles = tl_compute and tl_stall and tl_nvm

        # Provenance pin: the stall flamegraph folds must sum exactly
        # to persist_stall_cycles (same single charge point), and the
        # persist-count folds must cover every recorded persist.
        prov = observer.export()["provenance"]
        stall_folds = flame.collapse_stacks(prov, "stalls")
        persist_folds = flame.collapse_stacks(prov, "persists")
        prov_reconciles = (
            flame.total(stall_folds)
            == observed.stats.persist_stall_cycles
            and flame.total(persist_folds) == len(prov["persists"]))

        # The obs path must also compose with the runner/cache layer.
        summary = execute_job(Job(spec=spec, mechanism=mechanism,
                                  config=config, collect_obs=True,
                                  timeline_interval=interval,
                                  collect_provenance=True))
        carried = (summary.obs is not None
                   and summary.obs["metrics"]["counters"]
                   == observer.metrics.counters
                   and summary.obs.get("timeline")
                   == timeline.to_dict()
                   and summary.obs.get("provenance") == prov)
        captures[mechanism] = diff_mod.make_capture(summary)

        passed = (identical and reconciles and adds_up
                  and tl_reconciles and prov_reconciles and carried)
        ok = ok and passed
        if verbose:
            print(f"[obs-selftest] {mechanism:4s}  "
                  f"identical={identical}  trace_events={len(events)}  "
                  f"stall_reconciled={reconciles}  "
                  f"segments_add_up={adds_up}  "
                  f"timeline_reconciled={tl_reconciles}  "
                  f"provenance_reconciled={prov_reconciles}  "
                  f"summary_carries={carried}")

    # Diff pin: LRP-vs-BB on the same workload/seed must align and
    # report avoided persists (BB's proactive flushes that LRP's lazy
    # triggers never issue).
    gap = diff_mod.diff_captures(captures["bb"], captures["lrp"])
    diff_ok = (gap["persists"]["avoided"] > 0
               and gap["first_divergence"] is not None)
    ok = ok and diff_ok
    if verbose:
        divergence = gap["first_divergence"]
        at = divergence["index"] if divergence else "never"
        print(f"[obs-selftest] diff  lrp-vs-bb  "
              f"avoided={gap['persists']['avoided']}  "
              f"moved={gap['persists']['moved']}  diverges_at={at}")

    # KV-service span pins, across the full mechanism matrix:
    # (a) the streaming reservoir's p50/p99/p999 equal the exact
    #     nearest-rank quantiles of the stored per-request records
    #     (both request latency and durable latency);
    # (b) makespans are bit-identical with span tracking on vs off.
    kv_spec = KVServiceSpec(structure="hashmap", num_threads=4,
                            initial_size=64, requests_per_thread=12,
                            seed=1)
    kv_ok = True
    for mechanism in FULL_MECHANISMS:
        plain = simulate(kv_spec, mechanism, config)
        observer = Observer(spans=True)
        observed = simulate(kv_spec, mechanism, config,
                            observer=observer)
        identical = plain.makespan == observed.makespan
        counted = (observer.spans.request_count()
                   == kv_spec.total_requests)
        records = slo.build_records(
            kv_spec, observed.config, observer.spans,
            persist_log=observed.nvm.persist_log())
        exact = True
        for values in ([r.latency for r in records],
                       [r.durable_latency for r in records]):
            reservoir = slo.LatencyReservoir()
            for value in values:
                reservoir.observe(value)
            exact = exact and all(
                reservoir.quantile(q) == slo.exact_quantile(values, q)
                for _name, q in slo.SLO_QUANTILES)
        cell_ok = identical and counted and exact
        kv_ok = kv_ok and cell_ok
        if verbose:
            print(f"[obs-selftest] kv    {mechanism:4s}  "
                  f"identical={identical}  "
                  f"requests={observer.spans.request_count()}  "
                  f"quantiles_exact={exact}")
    ok = ok and kv_ok

    if verbose:
        print(f"[obs-selftest] {'PASSED' if ok else 'FAILED'}")
    return ok


# ----------------------------------------------------------------------
# Fast-telemetry smoke benchmark
# ----------------------------------------------------------------------

def cmd_fastsmoke(args: argparse.Namespace) -> int:
    """Gate the batched engine's telemetry overhead and correctness.

    One paper-scale figure cell (hashmap/lrp by default) runs through
    the batched engine plain and with a metrics+timeline Observer
    attached, in ABBA rounds whose per-round ratios are summarized by
    their median (see the inline comment on why min-of-N is the wrong
    estimator on a shared box). Alongside the wall numbers the run
    checks the invariant the overhead figure is meaningless without:
    every makespan identical (telemetry must not perturb simulation).
    """
    import time

    from repro.bench.configs import SCALED_CONFIG, bench_config, \
        figure_spec

    spec = figure_spec(args.workload, num_threads=args.threads,
                       scale=args.scale, seed=args.seed)
    config = bench_config(SCALED_CONFIG)
    interval = args.interval

    print(f"[obsfast] {spec.structure}/{args.mechanism} "
          f"--scale {args.scale}: {spec.num_threads} threads x "
          f"{spec.ops_per_thread} ops, median of {args.rounds} "
          f"ABBA rounds")
    # Cold cells (setup + simulation). Ambient load on a shared box
    # drifts on a minutes timescale — far more than the overhead being
    # measured — so comparing a min-of-N plain against a min-of-N
    # observed (whose minima may come from different load eras) is
    # hopeless. Instead each round times plain/observed/observed/plain
    # back to back (ABBA: linear drift within the round cancels) and
    # yields one overhead ratio; the median over rounds is robust to
    # the odd round that a background task stomped on.
    from repro.core.simulator import clear_setup_cache

    ratios: List[float] = []
    best_plain = best_obs = float("inf")
    makespans = set()

    def timed_cell(observe: bool) -> float:
        clear_setup_cache()
        t0 = time.perf_counter()
        result = simulate(spec, args.mechanism, config,
                          observer=Observer(timeline_interval=interval)
                          if observe else None)
        dt = time.perf_counter() - t0
        makespans.add(result.makespan)
        return dt

    try:
        for _ in range(args.rounds):
            a1 = timed_cell(False)
            b1 = timed_cell(True)
            b2 = timed_cell(True)
            a2 = timed_cell(False)
            ratios.append((b1 + b2) / (a1 + a2))
            best_plain = min(best_plain, a1, a2)
            best_obs = min(best_obs, b1, b2)
    finally:
        clear_setup_cache()

    ratios.sort()
    mid = len(ratios) // 2
    median_ratio = (ratios[mid] if len(ratios) % 2
                    else (ratios[mid - 1] + ratios[mid]) / 2)
    overhead_pct = 100.0 * (median_ratio - 1.0)
    makespan_identical = len(makespans) == 1

    snapshot = {
        "suite.cell": f"{spec.structure}/{args.mechanism}",
        "suite.scale": args.scale,
        "suite.rounds": args.rounds,
        "suite.timeline_interval": interval,
        "makespan": makespans.pop() if makespan_identical else -1,
        "seconds_plain": round(best_plain, 4),
        "seconds_obs": round(best_obs, 4),
        "telemetry_overhead_pct": round(overhead_pct, 2),
        "makespan_identical": makespan_identical,
    }
    _ensure_parent(args.bench_out)
    with open(args.bench_out, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"[obsfast] plain {best_plain:.3f}s  observed {best_obs:.3f}s"
          f"  overhead +{overhead_pct:.1f}% "
          f"(limit {args.overhead_limit:.0f}%)")
    print(f"[obsfast] makespan_identical={makespan_identical}")
    print(f"[obsfast] wrote {args.bench_out}")
    failures = []
    if not makespan_identical:
        failures.append("telemetry perturbed the makespan")
    if overhead_pct > args.overhead_limit:
        failures.append(f"telemetry overhead {overhead_pct:.1f}% exceeds "
                        f"{args.overhead_limit:.0f}%")
    for failure in failures:
        print(f"[obsfast] FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("[obsfast] PASSED")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# KV-service SLO reporting and smoke gate
# ----------------------------------------------------------------------

def _kv_spec_from_args(args: argparse.Namespace) -> KVServiceSpec:
    return KVServiceSpec(structure=args.workload,
                         num_threads=args.threads,
                         initial_size=args.size,
                         requests_per_thread=args.requests,
                         read_ratio=args.read_ratio,
                         zipf_theta=args.zipf_theta,
                         seed=args.seed)


def _kv_run(spec: KVServiceSpec, mechanism: str, config: MachineConfig,
            crash_points: Optional[int] = None, crash_seed: int = 0):
    """One span-tracked KV run -> (result, records, SLO payload)."""
    observer = Observer(spans=True)
    result = simulate(spec, mechanism, config, observer=observer)
    records = slo.build_records(spec, result.config, observer.spans,
                                persist_log=result.nvm.persist_log())
    payload = slo.slo_summary(records, result.makespan)
    if crash_points is not None:
        payload["recovery"] = slo.recovery_summary(
            result, crash_points, crash_seed, records)
    return result, records, payload


def _render_kv_rows(payloads: dict) -> List[str]:
    """The per-mechanism service-comparison table."""
    lines = [f"{'mech':5s} {'makespan':>9s} {'req/kcyc':>9s} "
             f"{'p50':>7s} {'p99':>7s} {'p999':>7s} "
             f"{'d.p99':>7s} {'d.lag':>7s} {'lost':>6s}"]
    for mechanism, payload in payloads.items():
        latency = payload["latency"]
        durable = payload["durable_latency"]
        recovery = payload.get("recovery")
        lost = (f"{recovery['lost_requests']['mean']:6.1f}"
                if recovery and "lost_requests" in recovery
                else f"{'-':>6s}")
        lines.append(
            f"{mechanism:5s} {payload['makespan']:9d} "
            f"{payload['throughput_rpkc']:9.2f} "
            f"{latency['p50']:7d} {latency['p99']:7d} "
            f"{latency['p999']:7d} {durable['p99']:7d} "
            f"{durable['max_lag']:7d} {lost}")
    return lines


def cmd_slo(args: argparse.Namespace) -> int:
    spec = _kv_spec_from_args(args)
    config = _config_from_args(args)
    single = len(args.mechanisms) == 1
    if args.csv and not single:
        raise ValueError("--csv writes per-request rows for one run; "
                         "pass exactly one --mechanisms entry")
    if args.trace_out and not single:
        raise ValueError("--trace-out exports one run's request spans; "
                         "pass exactly one --mechanisms entry")

    payloads: dict = {}
    all_records: dict = {}
    crash_points = args.crash_points if args.crash_points else None
    for mechanism in args.mechanisms:
        _result, records, payload = _kv_run(
            spec, mechanism, config,
            crash_points=crash_points, crash_seed=args.seed)
        payloads[mechanism] = payload
        all_records[mechanism] = records

    print(f"KV service SLO: {spec.structure}, {spec.num_threads} "
          f"clients x {spec.requests_per_thread} requests, "
          f"read {spec.read_ratio:.2f}, zipf {spec.zipf_theta:.2f}, "
          f"{config.nvm_mode.value} NVM "
          f"(latencies in cycles, open-loop reconstruction)")
    for line in _render_kv_rows(payloads):
        print(line)
    for mechanism, records in all_records.items():
        completions = slo.completion_series(records, args.interval)
        p99s = [int(value)
                for value in slo.latency_p99_series(records,
                                                    args.interval)]
        print(f" {mechanism:5s} completions/{args.interval}cyc  "
              f"{sparkline(completions, width=args.width)}")
        print(f" {mechanism:5s} p99 latency/{args.interval}cyc  "
              f"{sparkline(p99s, width=args.width)}")

    if args.csv:
        _ensure_parent(args.csv)
        with open(args.csv, "w", newline="") as handle:
            rows = slo.write_slo_csv(all_records[args.mechanisms[0]],
                                     handle)
        print(f"wrote {rows} request rows to {args.csv}")
    if args.trace_out:
        events = slo.chrome_request_events(
            all_records[args.mechanisms[0]])
        _ensure_parent(args.trace_out)
        write_chrome_trace(events, args.trace_out)
        print(f"wrote {len(events)} request-span events to "
              f"{args.trace_out} (load in chrome://tracing or "
              f"https://ui.perfetto.dev)")
    if args.json_out:
        _ensure_parent(args.json_out)
        with open(args.json_out, "w") as handle:
            json.dump({"spec": {
                "structure": spec.structure,
                "num_threads": spec.num_threads,
                "requests_per_thread": spec.requests_per_thread,
                "read_ratio": spec.read_ratio,
                "zipf_theta": spec.zipf_theta,
                "seed": spec.seed,
            }, "mechanisms": payloads}, handle, indent=1,
                sort_keys=True)
            handle.write("\n")
        print(f"wrote SLO payloads to {args.json_out}")
    return 0


def cmd_kvsmoke(args: argparse.Namespace) -> int:
    """Gate the KV-service span tracking: overhead, identity, exactness.

    The same ABBA discipline as ``fastsmoke`` (see the comment there on
    why back-to-back rounds beat min-of-N on a shared box), but the
    observed side attaches a spans-only Observer — the per-request hook
    the scheduler loop records. Alongside the overhead number, the
    gates the figure is meaningless without: every makespan identical
    (span tracking must not perturb the simulation) and streaming
    percentiles exactly equal to the stored-record percentiles. The
    snapshot also carries the lrp/bb/sb SLO payloads so
    the history dashboard gates service latency/throughput drift.
    """
    import time

    from repro.core.simulator import clear_setup_cache

    spec = _kv_spec_from_args(args)
    config = _config_from_args(args)

    print(f"[kvsmoke] {spec.structure}/kv: {spec.num_threads} clients "
          f"x {spec.requests_per_thread} requests, median of "
          f"{args.rounds} ABBA rounds")

    makespans = set()

    def timed_cell(observe: bool) -> float:
        clear_setup_cache()
        t0 = time.perf_counter()
        result = simulate(spec, args.mechanism, config,
                          observer=Observer(spans=True)
                          if observe else None)
        dt = time.perf_counter() - t0
        makespans.add(result.makespan)
        return dt

    ratios: List[float] = []
    best_plain = best_obs = float("inf")
    try:
        for _ in range(args.rounds):
            a1 = timed_cell(False)
            b1 = timed_cell(True)
            b2 = timed_cell(True)
            a2 = timed_cell(False)
            ratios.append((b1 + b2) / (a1 + a2))
            best_plain = min(best_plain, a1, a2)
            best_obs = min(best_obs, b1, b2)
    finally:
        clear_setup_cache()

    ratios.sort()
    mid = len(ratios) // 2
    median_ratio = (ratios[mid] if len(ratios) % 2
                    else (ratios[mid - 1] + ratios[mid]) / 2)
    overhead_pct = 100.0 * (median_ratio - 1.0)
    makespan_identical = len(makespans) == 1

    # The service-comparison payloads (and the streaming-vs-exact
    # percentile reconciliation, on every mechanism's records).
    payloads: dict = {}
    quantiles_exact = True
    for mechanism in KV_MECHANISMS:
        _result, records, payload = _kv_run(
            spec, mechanism, config,
            crash_points=args.crash_points, crash_seed=args.seed)
        payloads[mechanism] = payload
        for values in ([r.latency for r in records],
                       [r.durable_latency for r in records]):
            reservoir = slo.LatencyReservoir()
            for value in values:
                reservoir.observe(value)
            quantiles_exact &= all(
                reservoir.quantile(q) == slo.exact_quantile(values, q)
                for _name, q in slo.SLO_QUANTILES)

    snapshot = {
        "suite.cell": f"{spec.structure}/kv/{args.mechanism}",
        "suite.threads": spec.num_threads,
        "suite.requests": spec.total_requests,
        "suite.rounds": args.rounds,
        "seconds_plain": round(best_plain, 4),
        "seconds_obs": round(best_obs, 4),
        "telemetry_overhead_pct": round(overhead_pct, 2),
        "makespan_identical": makespan_identical,
        "quantiles_exact": quantiles_exact,
        "kv": payloads,
    }
    _ensure_parent(args.bench_out)
    with open(args.bench_out, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"[kvsmoke] plain {best_plain:.3f}s  observed {best_obs:.3f}s"
          f"  overhead +{overhead_pct:.1f}% "
          f"(limit {args.overhead_limit:.0f}%)")
    print(f"[kvsmoke] makespan_identical={makespan_identical}  "
          f"quantiles_exact={quantiles_exact}")
    for line in _render_kv_rows(payloads):
        print(f"[kvsmoke] {line}")
    print(f"[kvsmoke] wrote {args.bench_out}")
    failures = []
    if not makespan_identical:
        failures.append("span tracking perturbed the makespan")
    if not quantiles_exact:
        failures.append("streaming percentiles diverge from the "
                        "stored-record percentiles")
    if overhead_pct > args.overhead_limit:
        failures.append(f"span-tracking overhead {overhead_pct:.1f}% "
                        f"exceeds {args.overhead_limit:.0f}%")
    for failure in failures:
        print(f"[kvsmoke] FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("[kvsmoke] PASSED")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability utilities: trace export, "
                    "critical-path attribution, self-test.")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny-workload end-to-end obs check")
    subparsers = parser.add_subparsers(dest="command")

    trace_parser = subparsers.add_parser(
        "trace", help="run one simulation and export a Chrome trace")
    trace_parser.add_argument("output",
                              help="trace-event JSON destination")
    trace_parser.add_argument("--mechanism", default="lrp")
    _add_workload_args(trace_parser)

    report_parser = subparsers.add_parser(
        "report", help="print the critical-path attribution report")
    report_parser.add_argument("--mechanisms", nargs="+",
                               default=list(SELFTEST_MECHANISMS))
    _add_workload_args(report_parser)

    timeline_parser = subparsers.add_parser(
        "timeline",
        help="cycle-windowed telemetry as sparklines / CSV / counters")
    timeline_parser.add_argument("--mechanism", default="lrp")
    timeline_parser.add_argument(
        "--interval", type=int, default=DEFAULT_TIMELINE_INTERVAL,
        help="window width in cycles (default: %(default)s)")
    timeline_parser.add_argument(
        "--width", type=int, default=72,
        help="sparkline width in characters (default: %(default)s)")
    timeline_parser.add_argument(
        "--csv", metavar="FILE",
        help="also dump every raw series as CSV")
    timeline_parser.add_argument(
        "--trace-out", metavar="FILE",
        help="also export a Chrome trace with counter tracks")
    timeline_parser.add_argument(
        "--export-out", metavar="FILE",
        help="also dump the full observer export as JSON")
    timeline_parser.add_argument(
        "--from-export", metavar="FILE",
        help="re-render the timeline of a saved --export-out file "
             "instead of running a simulation")
    _add_workload_args(timeline_parser)

    provenance_parser = subparsers.add_parser(
        "provenance",
        help="run with persist-provenance tracking; write the capture")
    provenance_parser.add_argument(
        "output", help="capture JSON destination (for flame / diff)")
    provenance_parser.add_argument("--mechanism", default="lrp")
    _add_workload_args(provenance_parser)

    flame_parser = subparsers.add_parser(
        "flame",
        help="collapsed-stack flamegraph of persist stalls / persists")
    flame_parser.add_argument(
        "output", help="folded-stacks destination (speedscope-loadable)")
    flame_parser.add_argument("--mechanism", default="lrp")
    flame_parser.add_argument(
        "--mode", choices=list(flame.MODES), default="stalls",
        help="stalls = stall cycles per site;reason (reconciles with "
             "persist_stall_cycles); persists = persist counts per "
             "site;trigger (default: %(default)s)")
    flame_parser.add_argument(
        "--limit", type=int, default=15,
        help="rows in the ASCII top-N table (default: %(default)s)")
    flame_parser.add_argument(
        "--from-capture", metavar="FILE",
        help="fold a saved provenance capture instead of running")
    _add_workload_args(flame_parser)

    diff_parser = subparsers.add_parser(
        "diff",
        help="explain the gap between two mechanisms on one workload")
    diff_parser.add_argument(
        "--base", default="bb",
        help="reference mechanism (default: %(default)s)")
    diff_parser.add_argument(
        "--other", default="lrp",
        help="mechanism being explained (default: %(default)s)")
    diff_parser.add_argument(
        "--captures", nargs=2, metavar=("BASE", "OTHER"),
        help="diff two saved capture files instead of running")
    diff_parser.add_argument(
        "--json-out", metavar="FILE",
        help="also write the machine-readable diff as JSON")
    diff_parser.add_argument(
        "--limit", type=int, default=12,
        help="rows per delta table (default: %(default)s)")
    _add_workload_args(diff_parser)

    fastsmoke_parser = subparsers.add_parser(
        "fastsmoke",
        help="gate the batched engine's telemetry overhead and "
             "makespan identity; write BENCH_obsfast.json")
    fastsmoke_parser.add_argument("--mechanism", default="lrp")
    fastsmoke_parser.add_argument("--workload", default="hashmap")
    fastsmoke_parser.add_argument("--threads", type=int, default=32)
    fastsmoke_parser.add_argument(
        "--scale", default="paper", choices=("quick", "full", "paper"),
        help="figure-cell scale (default: %(default)s)")
    fastsmoke_parser.add_argument("--seed", type=int, default=1)
    fastsmoke_parser.add_argument(
        "--rounds", type=int, default=5,
        help="ABBA rounds (plain/observed/observed/plain, one overhead "
             "ratio each); the median ratio is the reported overhead "
             "(default: %(default)s)")
    fastsmoke_parser.add_argument(
        "--interval", type=int, default=DEFAULT_TIMELINE_INTERVAL,
        help="timeline window width in cycles (default: %(default)s)")
    fastsmoke_parser.add_argument(
        "--overhead-limit", type=float, default=15.0,
        help="max telemetry overhead percent (default: %(default)s)")
    fastsmoke_parser.add_argument(
        "--bench-out", metavar="FILE", default="BENCH_obsfast.json",
        help="snapshot destination (default: %(default)s)")

    slo_parser = subparsers.add_parser(
        "slo",
        help="KV-service report: throughput, exact latency "
             "percentiles, durability lag, crash losses")
    slo_parser.add_argument(
        "--mechanisms", nargs="+", default=list(KV_MECHANISMS),
        help="mechanisms to compare (default: %(default)s)")
    slo_parser.add_argument("--workload", default="hashmap",
                            help="keyed LFD backing the store "
                                 "(default: %(default)s)")
    slo_parser.add_argument("--threads", type=int, default=8,
                            help="client threads (default: %(default)s)")
    slo_parser.add_argument("--size", type=int, default=512,
                            help="initial store size "
                                 "(default: %(default)s)")
    slo_parser.add_argument("--requests", type=int, default=64,
                            help="requests per client "
                                 "(default: %(default)s)")
    slo_parser.add_argument("--read-ratio", type=float, default=0.9)
    slo_parser.add_argument("--zipf-theta", type=float, default=0.99)
    slo_parser.add_argument("--seed", type=int, default=42)
    slo_parser.add_argument("--uncached", action="store_true",
                            help="uncached NVM mode")
    slo_parser.add_argument(
        "--crash-points", type=int, default=8,
        help="crash prefixes sampled for the lost-request column; "
             "0 disables (default: %(default)s)")
    slo_parser.add_argument(
        "--interval", type=int, default=DEFAULT_TIMELINE_INTERVAL,
        help="sparkline window width in cycles (default: %(default)s)")
    slo_parser.add_argument(
        "--width", type=int, default=72,
        help="sparkline width in characters (default: %(default)s)")
    slo_parser.add_argument(
        "--csv", metavar="FILE",
        help="per-request records as CSV (single mechanism only)")
    slo_parser.add_argument(
        "--trace-out", metavar="FILE",
        help="request spans as a Chrome trace (single mechanism only)")
    slo_parser.add_argument(
        "--json-out", metavar="FILE",
        help="full SLO payloads as JSON")

    kvsmoke_parser = subparsers.add_parser(
        "kvsmoke",
        help="gate the KV-service span-tracking overhead and "
             "exactness; write BENCH_kv.json")
    kvsmoke_parser.add_argument("--mechanism", default="lrp",
                                help="mechanism timed in the ABBA "
                                     "rounds (default: %(default)s)")
    kvsmoke_parser.add_argument("--workload", default="hashmap")
    kvsmoke_parser.add_argument("--threads", type=int, default=16)
    kvsmoke_parser.add_argument("--size", type=int, default=1024)
    kvsmoke_parser.add_argument("--requests", type=int, default=192,
                                help="requests per client "
                                     "(default: %(default)s)")
    kvsmoke_parser.add_argument("--read-ratio", type=float, default=0.9)
    kvsmoke_parser.add_argument("--zipf-theta", type=float,
                                default=0.99)
    kvsmoke_parser.add_argument("--seed", type=int, default=42)
    kvsmoke_parser.add_argument("--uncached", action="store_true")
    kvsmoke_parser.add_argument(
        "--rounds", type=int, default=5,
        help="ABBA rounds (plain/spans/spans/plain, one overhead "
             "ratio each); the median ratio is the reported overhead "
             "(default: %(default)s)")
    kvsmoke_parser.add_argument(
        "--crash-points", type=int, default=8,
        help="crash prefixes per mechanism for the recovery payload "
             "(default: %(default)s)")
    kvsmoke_parser.add_argument(
        "--overhead-limit", type=float, default=15.0,
        help="max span-tracking overhead percent "
             "(default: %(default)s)")
    kvsmoke_parser.add_argument(
        "--bench-out", metavar="FILE", default="BENCH_kv.json",
        help="snapshot destination (default: %(default)s)")

    audit_parser = subparsers.add_parser(
        "audit",
        help="re-verify persist order / consistent cuts against the "
             "RP model")
    audit_parser.add_argument("--mechanism", default="lrp")
    audit_parser.add_argument(
        "--workloads", nargs="+", metavar="LFD",
        help="workloads to audit (default: all five)")
    audit_parser.add_argument(
        "--cuts", type=int, default=8,
        help="crash cuts sampled per run (default: %(default)s)")
    audit_parser.add_argument(
        "--detail", type=int, default=5,
        help="violation provenance lines shown per run "
             "(default: %(default)s)")
    audit_parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on any violation, even for mechanisms "
             "without an RP guarantee (nop/arp)")
    _add_workload_args(audit_parser, single_workload=False)

    args = parser.parse_args(argv)
    if args.command == "audit" and args.workloads is None:
        from repro.lfds import WORKLOAD_NAMES
        args.workloads = list(WORKLOAD_NAMES)
    try:
        if args.selftest:
            return 0 if run_selftest() else 1
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "timeline":
            return cmd_timeline(args)
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "provenance":
            return cmd_provenance(args)
        if args.command == "flame":
            return cmd_flame(args)
        if args.command == "diff":
            return cmd_diff(args)
        if args.command == "fastsmoke":
            return cmd_fastsmoke(args)
        if args.command == "slo":
            return cmd_slo(args)
        if args.command == "kvsmoke":
            return cmd_kvsmoke(args)
    except (ValueError, OSError) as exc:
        # Operator errors (unknown mechanism/workload, unwritable or
        # missing file, export without the requested data) get a
        # one-line diagnostic, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
