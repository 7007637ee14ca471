"""``python -m repro.obs`` — tracing, attribution and service reports.

Subcommands:

* ``trace out.json`` — run one small simulation with full tracing and
  write a ``chrome://tracing`` / Perfetto-loadable trace-event file;
* ``report`` — run one workload under several mechanisms and print the
  critical-path attribution report (the textual explanation of the
  paper's Figures 5-8: where each mechanism's makespan goes);
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
* ``slo`` — run the KV-service workload with request-span tracking and
  print the service report: throughput, exact p50/p99/p999 request and
  durable latency, windowed sparklines, optional crash columns
  (``--crash-points``), per-request CSV (``--csv``), request spans as
  a Chrome trace (``--trace-out``) and the JSON payload
  (``--json-out``);
* ``overhead`` — gate the telemetry's cost: a paper-scale hashmap/lrp
  cell with metrics, and the KV service with request spans, each
  timed plain against observed in ABBA rounds. Exits 1 when either
  median overhead exceeds 15% or a makespan moves; writes no file.

What these tools must never do (perturb a run, or report numbers that
do not reconcile with ``RunStats``) is pinned by the tier-1 tests:
``tests/test_obs.py``, ``test_provenance.py``, ``test_kvservice.py``
and ``test_slo.py``.

CLI failures (unknown mechanism, unwritable output path, export
without the requested data) raise ValueError or OSError, which
:func:`~repro.exp.runner.run_cli` prints as one
``repro.obs: error: ...`` line before exiting 1; missing parent
directories of an output path are created. Ctrl-C prints one line and
exits 130.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.common.params import MachineConfig, NVMMode
from repro.core.simulator import SimulationResult, simulate
from repro.exp.runner import Job, execute_job, run_cli
from repro.obs import Observer, write_chrome_trace
from repro.obs import diff as diff_mod
from repro.obs import flame
from repro.obs import slo
from repro.obs.report import (
    attribute_run,
    render_attribution,
)
from repro.workloads.harness import WorkloadSpec
from repro.workloads.kvservice import KVServiceSpec

#: Mechanisms the attribution report compares by default.
REPORT_MECHANISMS = ("nop", "sb", "bb", "lrp")

#: The service-comparison row of the KV story: lazy release persistency
#: against the eager blocking baselines.
KV_MECHANISMS = ("lrp", "bb", "sb")

#: Sparkline window width (cycles) of ``slo`` without --interval.
DEFAULT_SLO_INTERVAL = 1000

#: Highest median telemetry overhead, in percent, ``overhead`` accepts.
OVERHEAD_LIMIT_PCT = 15.0


def _ensure_parent(path: str) -> None:
    """Create an output path's parent directory if it is missing.

    All obs CLI output paths go through here. A genuinely uncreatable
    parent surfaces as OSError, which run_cli turns into a one-line
    exit 1, never a traceback.
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
                  config: MachineConfig, *, trace: bool
                  ) -> Tuple[SimulationResult, Observer]:
    observer = Observer(trace=trace)
    result = simulate(spec, mechanism, config, observer=observer)
    return result, observer


def _capture_run(spec: WorkloadSpec, mechanism: str,
                 config: MachineConfig) -> dict:
    """One provenance-tracked run, distilled into a capture dict."""
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
    attribution = attribute_run(result.stats, observer.counters)
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
            attribute_run(result.stats, observer.counters))
    print(render_attribution(
        attributions,
        title=f"Critical-path attribution: {spec.structure}, "
              f"{spec.num_threads} threads, "
              f"{spec.ops_per_thread} ops/thread "
              f"({config.nvm_mode.value} NVM)"))
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
# KV-service SLO reporting
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
    """One span-tracked KV run -> (records, SLO payload)."""
    observer = Observer(spans=True)
    result = simulate(spec, mechanism, config, observer=observer)
    records = slo.build_records(spec, result.config, observer.spans,
                                persist_log=result.nvm.persist_log())
    payload = slo.slo_summary(records, result.makespan)
    if crash_points is not None:
        payload["recovery"] = slo.recovery_summary(
            result, crash_points, crash_seed, records)
    return records, payload


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
        records, payload = _kv_run(
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
        p99s = slo.latency_p99_series(records, args.interval)
        print(f" {mechanism:5s} completions/{args.interval}cyc  "
              f"{slo.sparkline(completions, width=args.width)}")
        print(f" {mechanism:5s} p99 latency/{args.interval}cyc  "
              f"{slo.sparkline(p99s, width=args.width)}")

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


# ----------------------------------------------------------------------
# Telemetry overhead gate
# ----------------------------------------------------------------------

def overhead_cells() -> List[Tuple[str, object, str, MachineConfig,
                                   Callable[[], Observer]]]:
    """The cells ``overhead`` times: (label, spec, mechanism, config,
    observer factory)."""
    from repro.bench.configs import SCALED_CONFIG, bench_config, \
        figure_spec

    return [
        ("hashmap/lrp paper scale, metrics",
         figure_spec("hashmap", num_threads=32, scale="paper", seed=1),
         "lrp", bench_config(SCALED_CONFIG), Observer),
        ("kv hashmap/lrp 16x192, spans",
         KVServiceSpec(structure="hashmap", num_threads=16,
                       initial_size=1024, requests_per_thread=192,
                       seed=42),
         "lrp", MachineConfig(num_cores=16),
         lambda: Observer(spans=True)),
    ]


def abba_overhead(spec, mechanism: str, config: MachineConfig,
                  observer: Callable[[], Observer],
                  rounds: int) -> Tuple[float, Set[int]]:
    """Median telemetry overhead in percent over ``rounds`` ABBA
    rounds of cold cells, and the set of makespans seen.

    Load on a shared host drifts on a minutes timescale, far more than
    the overhead being measured, so a min-of-N plain against a min-of-N
    observed compares minima from different load eras. Each round
    instead times plain/observed/observed/plain back to back (linear
    drift within the round cancels) and yields one ratio; the median
    over rounds is robust to a round a background task stomped on.
    """
    from repro.core.simulator import clear_setup_cache

    makespans: Set[int] = set()

    def timed(observe: bool) -> float:
        clear_setup_cache()
        start = time.perf_counter()
        result = simulate(spec, mechanism, config,
                          observer=observer() if observe else None)
        elapsed = time.perf_counter() - start
        makespans.add(result.makespan)
        return elapsed

    ratios = []
    try:
        for _ in range(rounds):
            plain_a, observed_a = timed(False), timed(True)
            observed_b, plain_b = timed(True), timed(False)
            ratios.append((observed_a + observed_b) / (plain_a + plain_b))
    finally:
        clear_setup_cache()
    return 100.0 * (statistics.median(ratios) - 1.0), makespans


def cmd_overhead(args: argparse.Namespace) -> int:
    if args.rounds < 1:
        raise ValueError("--rounds must be >= 1")
    failures = []
    for label, spec, mechanism, config, observer in overhead_cells():
        overhead_pct, makespans = abba_overhead(spec, mechanism, config,
                                                observer, args.rounds)
        print(f"[overhead] {label}: {overhead_pct:+.1f}% (median of "
              f"{args.rounds} ABBA rounds), makespan "
              f"{', '.join(str(m) for m in sorted(makespans))}")
        if len(makespans) != 1:
            failures.append(f"{label}: telemetry changed the makespan")
        if overhead_pct > OVERHEAD_LIMIT_PCT:
            failures.append(f"{label}: overhead {overhead_pct:.1f}% "
                            f"exceeds {OVERHEAD_LIMIT_PCT:.0f}%")
    for failure in failures:
        print(f"[overhead] FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("[overhead] PASSED")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability utilities: trace export, "
                    "critical-path attribution, service reports.")
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
                               default=list(REPORT_MECHANISMS))
    _add_workload_args(report_parser)

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
        "--interval", type=int, default=DEFAULT_SLO_INTERVAL,
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

    overhead_parser = subparsers.add_parser(
        "overhead",
        help="gate the telemetry overhead (at most 15%%) and makespan "
             "identity on a paper-scale metrics cell and the KV service "
             "with request spans")
    overhead_parser.add_argument(
        "--rounds", type=int, default=5,
        help="ABBA rounds per cell (plain/observed/observed/plain, one "
             "overhead ratio each); the median ratio is the reported "
             "overhead (default: %(default)s)")

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
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "audit":
        return cmd_audit(args)
    if args.command == "provenance":
        return cmd_provenance(args)
    if args.command == "flame":
        return cmd_flame(args)
    if args.command == "diff":
        return cmd_diff(args)
    if args.command == "slo":
        return cmd_slo(args)
    if args.command == "overhead":
        return cmd_overhead(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    run_cli(main, "repro.obs")
