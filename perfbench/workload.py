"""The benchmark's workloads: pinned cells, timed passes and the check.

Run by ``perfbench/run.py`` as a fresh process per workload run, with
``src`` on ``PYTHONPATH``. The process prints one JSON line on stdout.

It calls only the simulator's public entry points, the ones
:func:`repro.exp.runner.execute_job` makes: ``simulate`` then
``summarize``, plus ``crash_test`` or ``slo.service_report`` where a
workload needs them, and ``ExperimentRunner`` for the pooled workload.
Every cell is written out here instead of being read from
``repro.bench.configs``, so retuning those tables does not move the
benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.params import MachineConfig
from repro.core import fastsim, simulator
from repro.core.machine import Machine
from repro.core.recovery import crash_test
from repro.exp import runner
from repro.exp.progress import NullProgress
from repro.obs import Observer, slo
from repro.workloads.harness import WorkloadSpec
from repro.workloads.kvservice import KVServiceSpec

import hostspeed

WORKLOADS = ("fig5-quick", "fig5-quick-pool", "kv-service",
             "crash-recovery")

#: The seed each workload runs with when none is given, and the seed
#: its committed golden digests were made with.
DEFAULT_SEEDS = {"fig5-quick": 1, "fig5-quick-pool": 1,
                 "kv-service": 42, "crash-recovery": 1}

#: The scaled Table-1 machine every figure uses, without per-event
#: trace retention.
CONFIG = MachineConfig(l1_size_bytes=8 * 1024, num_memory_controllers=8,
                       compute_cycles_per_op=4, record_trace=False)

THREADS = 32

#: Quick-tier sizes: (structure, initial elements, ops per thread).
QUICK_SIZES = (
    ("linkedlist", 256, 10),
    ("hashmap", 65536, 32),
    ("bstree", 65536, 32),
    ("skiplist", 65536, 24),
    ("queue", 1024, 32),
)
KEYED_64K = ("hashmap", "bstree", "skiplist")
FIG5_MECHANISMS = ("nop", "sb", "bb", "lrp")
#: The mechanisms that must recover at every crash point. ARP and NOP
#: are left out: their unrecoverable images are the paper's Figure-1
#: result, not failures.
RP_MECHANISMS = ("sb", "bb", "lrp")

#: Persist-log prefixes crash-tested per crash-recovery cell, and RTO
#: crash points per KV-service SLO report.
CRASH_POINTS = 3
KV_CRASH_POINTS = 8


@dataclasses.dataclass(frozen=True)
class Cell:
    """One simulation of a workload, and the analysis that follows it."""

    spec: object
    mechanism: str
    #: crash_test the finished run at this many log prefixes.
    crash_points: int = 0
    #: Record request spans and run the SLO report with this many RTO
    #: crash points (KV service cells).
    slo_points: int = 0

    @property
    def label(self) -> str:
        return f"{self.spec.structure}/{self.mechanism}"

    @property
    def per_thread(self) -> int:
        if isinstance(self.spec, KVServiceSpec):
            return self.spec.requests_per_thread
        return self.spec.ops_per_thread

    @property
    def units(self) -> int:
        """Correctness units: the cell, or each of its crash points."""
        return self.crash_points or 1


def cells(workload: str, seed: int) -> List[Cell]:
    """The cells of ``workload`` under ``seed``, in run order."""
    if workload in ("fig5-quick", "fig5-quick-pool"):
        return [
            Cell(WorkloadSpec(structure=name, num_threads=THREADS,
                              initial_size=size, ops_per_thread=ops,
                              update_ratio=1.0, seed=seed), mech)
            for name, size, ops in QUICK_SIZES
            for mech in FIG5_MECHANISMS
        ]
    if workload == "kv-service":
        spec = KVServiceSpec(structure="hashmap", num_threads=THREADS,
                             initial_size=8192, requests_per_thread=512,
                             read_ratio=0.9, zipf_theta=0.99, seed=seed)
        return [Cell(spec, mech, slo_points=KV_CRASH_POINTS)
                for mech in RP_MECHANISMS]
    if workload == "crash-recovery":
        sizes = {name: (size, ops) for name, size, ops in QUICK_SIZES}
        return [
            Cell(WorkloadSpec(structure=name, num_threads=THREADS,
                              initial_size=sizes[name][0],
                              ops_per_thread=sizes[name][1],
                              update_ratio=1.0, seed=seed),
                 mech, crash_points=CRASH_POINTS)
            for name in KEYED_64K
            for mech in RP_MECHANISMS
        ]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------
# Per-cell records and the simulation digest
# ----------------------------------------------------------------------

def cell_digest(summary) -> str:
    """Digest of one run's simulation outputs.

    Makespan, the Figure-6 writeback counts, outcome counts and the
    persist-log digest. SLO/RTO payloads and mechanism-private
    counters are left out: they are analyses of the run, not the run.
    """
    stats = summary.stats
    payload = json.dumps({
        "makespan": summary.makespan,
        "writebacks": stats.total_writebacks,
        "critical_writebacks": stats.critical_writebacks,
        "outcomes": sorted(summary.outcome_counts.items()),
        "persist_log": summary.persist_log_digest,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def sim_digest(labels: Sequence[str], digests: Sequence[str]) -> str:
    """One digest over a workload's cells, in run order."""
    hasher = hashlib.sha256()
    for label, digest in zip(labels, digests):
        hasher.update(f"{label}={digest}\n".encode("ascii"))
    return hasher.hexdigest()


def cell_record(cell: Cell, summary) -> Dict[str, object]:
    """What a timed pass keeps of one cell: its digest, engine and
    the simulator's own counts."""
    per_core = summary.stats.per_core
    return {
        "cell": cell.label,
        "digest": cell_digest(summary),
        "fastsim_fallback": summary.fastsim_fallback,
        "makespan": summary.makespan,
        "mem_ops": sum(c.reads + c.writes + c.rmws for c in per_core),
        "l1_hits": sum(c.l1_hits for c in per_core),
        "l1_misses": sum(c.l1_misses for c in per_core),
        "evictions": sum(c.evictions for c in per_core),
        "downgrades": sum(c.downgrades_received for c in per_core),
        "stall_cycles": sum(c.persist_stall_cycles for c in per_core),
        "persists": summary.persist_count,
    }


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------

def _observer(cell: Cell):
    return Observer(spans=True) if cell.slo_points else None


def _analyse(cell: Cell, result, observer, seed: int,
             record: Dict[str, object]) -> None:
    """The per-cell analysis a workload times with its simulation."""
    if cell.slo_points:
        report = slo.service_report(result, observer.spans,
                                    num_crash_points=cell.slo_points,
                                    crash_seed=seed)
        recovery = report["recovery"]
        record["slo"] = {
            "requests": report["requests"],
            "p99": report["latency"]["p99"],
            "durable_p99": report["durable_latency"]["p99"],
            "points": recovery["attempts"],
            "recovered": recovery["recovered"],
        }
    if cell.crash_points:
        campaign = crash_test(result, num_points=cell.crash_points,
                              seed=seed)
        record["crash"] = [outcome.recovered
                           for outcome in campaign.outcomes]


def serial_pass(cell_list: Sequence[Cell], seed: int,
                tracer=None) -> Dict[str, object]:
    """Simulate, summarize and analyse every cell in this process.

    Untraced passes sample the host's speed between cells and also
    report their time at reference speed (``scaled_s``).
    """
    # Every pass pre-populates its structures, as a cold run does.
    simulator.clear_setup_cache()
    records: List[Dict[str, object]] = []
    completions: List[float] = []
    clock = time.perf_counter
    speed = [hostspeed.sample()] if tracer is None else []
    if tracer is not None:
        tracer.enter("bench")
    wall = scaled = 0.0
    for cell in cell_list:
        if tracer is not None:
            before = tracer.begin_cell()
        start = clock()
        observer = _observer(cell)
        result = simulator.simulate(cell.spec, cell.mechanism, CONFIG,
                                    observer=observer)
        record = cell_record(cell, runner.summarize(result))
        _analyse(cell, result, observer, seed, record)
        del result, observer
        records.append(record)
        elapsed = clock() - start
        wall += elapsed
        completions.append(wall)
        if tracer is not None:
            tracer.end_cell(cell.label, wall - elapsed, wall, before)
        else:
            speed.append(hostspeed.sample())
            scaled += hostspeed.scale(elapsed, speed[-2], speed[-1])
    if tracer is not None:
        tracer.exit()
    return {"wall_s": wall, "scaled_s": scaled, "speed": speed,
            "completions": completions, "records": records}


class CompletionClock(NullProgress):
    """Runner progress hook: seconds from batch start to each result."""

    def __init__(self) -> None:
        self.started = 0.0
        self.completions: List[float] = []

    def start(self, total: int, label: str = "") -> None:
        self.started = time.perf_counter()

    def job_done(self, label: str, *, cached: bool) -> None:
        self.completions.append(time.perf_counter() - self.started)


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_pass(cell_list: Sequence[Cell], seed: int) -> Dict[str, object]:
    """The same cells through ``ExperimentRunner(jobs=nproc)``, with
    no result cache: what ``figures --no-cache`` runs."""
    clock = CompletionClock()
    pool = runner.ExperimentRunner(jobs=host_cpus(), cache=None,
                                   progress=clock)
    jobs = [runner.Job(spec=cell.spec, mechanism=cell.mechanism,
                       config=CONFIG)
            for cell in cell_list]
    start = time.perf_counter()
    summaries = pool.run(jobs)
    wall = time.perf_counter() - start
    # The workers occupy every CPU, so the host cannot be sampled while
    # they run, and the pooled pass is reported as measured.
    return {"wall_s": wall, "scaled_s": wall, "speed": [],
            "completions": sorted(clock.completions),
            "records": [cell_record(cell, summary)
                        for cell, summary in zip(cell_list, summaries)]}


def timed_phase(workload: str, cell_list: Sequence[Cell], seed: int,
                seconds: float, max_passes: Optional[int] = None
                ) -> Tuple[List[Dict[str, object]], float]:
    """Whole passes over the cells for about ``seconds`` host seconds;
    the passes and the peak resident memory of the first one.

    A pass starts only if the median pass so far still fits in the
    budget, so a run never stops half way through a pass; the first
    pass always runs. Memory is read after the first pass because later
    passes grow the heap further, which a cold run never does.
    """
    pooled = workload == "fig5-quick-pool"
    run = pool_pass if pooled else serial_pass
    passes: List[Dict[str, object]] = []
    elapsed = 0.0
    while True:
        current = run(cell_list, seed)
        if not passes:
            rss_mb = peak_rss_mb(include_children=pooled)
        passes.append(current)
        elapsed += current["wall_s"]
        median = statistics.median(p["wall_s"] for p in passes)
        if max_passes is not None and len(passes) >= max_passes:
            break
        if elapsed + median > seconds:
            break
    return passes, rss_mb


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, or of its largest child."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0   # ru_maxrss is in KiB on Linux


def engine_record(records: Sequence[Dict[str, object]],
                  mechanisms: Sequence[str]) -> Dict[str, object]:
    """Which engine ran each cell, and whether the batch engine takes
    its inline-acquire path for each mechanism."""
    return {
        "fastsim_fallback": {r["cell"]: r["fastsim_fallback"]
                             for r in records},
        "inline_acquire": {
            mech: fastsim.acquire_hook_is_noop(Machine(CONFIG, mech)
                                               .mechanism)
            for mech in mechanisms},
    }


# ----------------------------------------------------------------------
# The correctness check
# ----------------------------------------------------------------------

def completed_all_ops(cell: Cell, result) -> None:
    """Every worker or client finished all its ops or requests."""
    short = [
        index for index in range(cell.spec.num_threads)
        if (result.stats.per_core[index].ops_completed != cell.per_thread
            or len(result.outcomes[index]) != cell.per_thread)
    ]
    if short:
        raise AssertionError(f"threads {short[:8]} did not complete "
                             f"{cell.per_thread} ops")


def _final_state(cell: Cell, result) -> None:
    result.verify_final_state()


def _durable_final_state(cell: Cell, result) -> None:
    result.verify_durable_final_state()


#: Oracles run on every re-simulated cell, after the timed phase.
ORACLES: Tuple[Callable, ...] = (_final_state, _durable_final_state,
                                 completed_all_ops)


def check(cell_list: Sequence[Cell], seed: int,
          passes: Sequence[Dict[str, object]],
          golden: Optional[Dict[str, object]] = None,
          oracles: Sequence[Callable] = ORACLES
          ) -> Tuple[int, int, List[str]]:
    """Check the timed passes' outputs; ``(attempted, failed, notes)``.

    Each cell is simulated again with the same inputs: the rerun must
    reproduce the timed digest, and the oracles run on it. Timed
    crash points and RTO points of sb/bb/lrp must all have recovered.
    The golden digests are compared only when they were made with this
    seed. A failed check counts its cell's units as failed; it never
    stops the check.
    """
    golden_cells = None
    if golden is not None and golden.get("seed") == seed:
        golden_cells = golden["cells"]
    attempted = failed = 0
    notes: List[str] = []
    for index, cell in enumerate(cell_list):
        attempted += cell.units
        timed = [p["records"][index] for p in passes]
        problems: List[str] = []
        digests = {record["digest"] for record in timed}
        if len(digests) != 1:
            problems.append("timed passes disagree")
        if (golden_cells is not None
                and golden_cells.get(cell.label) not in digests):
            problems.append("digest differs from the golden")
        try:
            observer = _observer(cell)
            result = simulator.simulate(cell.spec, cell.mechanism, CONFIG,
                                        observer=observer)
            if cell_digest(runner.summarize(result)) not in digests:
                problems.append("rerun digest differs from the timed run")
            for oracle in oracles:
                try:
                    oracle(cell, result)
                except AssertionError as exc:
                    problems.append(f"{oracle.__name__.strip('_')}: {exc}")
            del result, observer
        except Exception as exc:  # a crashing cell is a failed cell
            problems.append(f"rerun raised {exc!r}")
        unrecovered = 0
        for record in timed:
            unrecovered = max(unrecovered,
                              sum(1 for ok in record.get("crash", ())
                                  if not ok))
            slo = record.get("slo")
            if slo is not None and slo["recovered"] != slo["points"]:
                problems.append(f"{slo['points'] - slo['recovered']} "
                                "RTO crash points unrecoverable")
            if (slo is not None and slo["requests"]
                    != cell.per_thread * cell.spec.num_threads):
                problems.append("SLO report lost requests")
        if problems:
            failed += cell.units
            notes.append(f"{cell.label}: {'; '.join(problems)}")
        elif unrecovered:
            failed += unrecovered
            notes.append(f"{cell.label}: {unrecovered} crash points "
                         "unrecoverable")
    return attempted, failed, notes


def load_golden(workload: str) -> Optional[Dict[str, object]]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")
    try:
        with open(path) as handle:
            return json.load(handle).get(workload)
    except FileNotFoundError:
        return None


# ----------------------------------------------------------------------
# Process entry point
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", default="plain",
                        choices=("probe", "plain", "traced"))
    parser.add_argument("--passes", type=int, default=None,
                        help="stop after this many timed passes")
    args = parser.parse_args(argv)

    cell_list = cells(args.workload, args.seed)
    first_call = time.monotonic()
    out: Dict[str, object] = {"workload": args.workload, "seed": args.seed,
                              "first_call": first_call}
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    mechanisms = sorted({cell.mechanism for cell in cell_list})
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer()
        restore = layers.install(tracer)
        try:
            traced = serial_pass(cell_list, args.seed, tracer=tracer)
            engine = engine_record(traced["records"], mechanisms)
        finally:
            restore()
        out.update(
            wall_s=traced["wall_s"], records=traced["records"],
            engine=engine, trace=tracer.export(),
            sim_digest=sim_digest([r["cell"] for r in traced["records"]],
                                  [r["digest"] for r in traced["records"]]))
        print(json.dumps(out))
        return 0

    passes, out["peak_rss_mb"] = timed_phase(
        args.workload, cell_list, args.seed, args.seconds, args.passes)
    records = passes[0]["records"]
    golden = load_golden(args.workload)
    attempted, failed, notes = check(cell_list, args.seed, passes, golden)
    if golden is None or golden["seed"] != args.seed:
        golden_status = ("not compared: golden made with seed "
                         f"{golden['seed'] if golden else None}")
    elif any("golden" in note for note in notes):
        golden_status = "DIFFERS from the golden"
    else:
        golden_status = "matches the golden"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    out.update(
        passes=[{key: p[key] for key in
                 ("wall_s", "scaled_s", "speed", "completions")}
                for p in passes],
        records=records,
        engine=engine_record(records, mechanisms),
        sim_digest=sim_digest([r["cell"] for r in records],
                              [r["digest"] for r in records]),
        golden=golden_status,
        attempted=attempted, failed=failed, notes=notes,
        host={"cpu_count": host_cpus(),
              "python": platform.python_version(),
              "numpy": numpy_version})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
