"""Parallel experiment runner.

Every benchmark simulation is an independent, deterministic function of
``(WorkloadSpec, MachineConfig, mechanism)`` — the evaluation suite is
embarrassingly parallel. The runner fans :class:`Job` batches out over
a :class:`concurrent.futures.ProcessPoolExecutor`, returns results in
the submission order regardless of completion order, and consults a
content-addressed :class:`~repro.exp.cache.ResultCache` so re-running
a figure is a cache hit.

Workers return a :class:`RunSummary` — the picklable distillation of a
:class:`~repro.core.simulator.SimulationResult` (stats, makespan,
outcome counts, persist-log digest, mechanism counters) — rather than
the full result, whose machine/structure graphs are both heavy and
pointless to ship between processes. Jobs that carry ``crash_points``
additionally run the crash-recovery campaign inside the worker and
return only its counts.

Determinism: a worker process builds the whole machine from the job's
spec/config (fresh RNGs seeded from the spec), so parallel execution
yields bit-identical makespans, stats and persist logs to serial
execution. ``tests/test_exp_runner.py`` locks this in.

Resume: each summary goes into the cache the moment its job finishes,
serial or pooled, and the cache publishes every entry with an atomic
rename. A run killed at any instant therefore resumes by running the
same jobs again: finished ones come back as cache hits and only the
rest execute. ``tests/test_exp_runner.py`` pins this on a SIGKILLed
``repro.bench.figures`` run, and on one interrupted with Ctrl-C
(SIGINT to its process group): pool workers ignore SIGINT, and the
runner terminates them and re-raises ``KeyboardInterrupt``;
:func:`run_cli`, the entry point of every CLI that takes ``--jobs``,
reports it in one line.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import os
import signal
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.params import MachineConfig
from repro.common.stats import RunStats
from repro.core.simulator import SimulationResult, simulate
from repro.exp.cache import ResultCache, code_version, stable_digest
from repro.exp.progress import NullProgress, ProgressReporter
from repro.workloads.harness import WorkloadSpec


@dataclasses.dataclass(frozen=True)
class Job:
    """One simulation to run (plus an optional crash campaign)."""

    spec: WorkloadSpec
    mechanism: str
    config: MachineConfig
    # When set, the worker also crash-tests the finished run at this
    # many persist-log prefixes (the recovery-matrix experiment).
    crash_points: Optional[int] = None
    crash_seed: int = 0
    # Observability (repro.obs): attach an Observer inside the worker
    # and ship its metrics (and, with collect_trace, the Chrome trace
    # events) back in ``RunSummary.obs``. Never affects timing.
    collect_obs: bool = False
    collect_trace: bool = False
    # Persist provenance (repro.obs.provenance): causal chains per
    # persist/stall, shipped back in ``RunSummary.obs["provenance"]``
    # (implies obs collection; bit-identical like the rest).
    collect_provenance: bool = False
    # Request spans (repro.obs.spans): record per-request boundary
    # clocks; for KVServiceSpec jobs the worker additionally computes
    # the SLO payload (repro.obs.slo.service_report) into
    # ``RunSummary.obs["slo"]``, reusing ``crash_points``/``crash_seed``
    # for its crash outcomes. Bit-identical and batch-engine-compatible.
    collect_spans: bool = False
    # Schedule perturbation (repro.fuzz): ((decision_index, rank), ...)
    # priority nudges installed on the scheduler before the run.
    schedule_nudges: Optional[Tuple[Tuple[int, int], ...]] = None
    # Fuzzing leg (repro.fuzz.leg.FuzzLegSpec): when set, the worker
    # additionally harvests a coverage map (implies provenance
    # collection) and crash-tests coverage-weighted persist-log
    # prefixes, returning both in ``RunSummary.fuzz``.
    fuzz: Optional[object] = None

    def key(self) -> str:
        """Content-addressed cache key (includes the code version)."""
        return stable_digest({
            "job": self,
            "code": code_version(),
        })

    def label(self) -> str:
        return (f"{self.spec.structure}/{self.mechanism}"
                f"/t{self.spec.num_threads}")


@dataclasses.dataclass
class RunSummary:
    """The picklable summary of one simulation run.

    Carries everything the figure pipeline reads off a
    :class:`SimulationResult`; the heavyweight machine state stays in
    the worker process.
    """

    spec: WorkloadSpec
    mechanism: str
    config: MachineConfig
    makespan: int
    stats: RunStats
    #: ``"<op>:ok" / "<op>:fail"`` -> count, over all workers' outcomes.
    outcome_counts: Dict[str, int]
    persist_count: int
    #: Digest of the ordered persist log — serial/parallel equivalence
    #: checks compare durability *content*, not just the makespan.
    persist_log_digest: str
    #: Mechanism-specific counters (``stats_*`` attributes, e.g. LRP's
    #: ``ret_watermark_drains`` for the RET ablation).
    mechanism_counters: Dict[str, int]
    crash_attempts: Optional[int] = None
    crash_failures: Optional[int] = None
    #: Serialized :class:`~repro.obs.Observer` export (metrics dict,
    #: plus ``trace_events`` when the job asked for a trace). ``None``
    #: unless the job was run with ``collect_obs``.
    obs: Optional[Dict[str, object]] = None
    #: Fuzzing-leg payload (coverage list, crash outcomes, executed
    #: ops); ``None`` unless the job carried a ``fuzz`` spec.
    fuzz: Optional[Dict[str, object]] = None
    #: Always None: the batch engine is the only scheduler loop, so no
    #: run falls back. Kept because benchmark records carry the field.
    fastsim_fallback: Optional[str] = None


def summarize(result: SimulationResult) -> RunSummary:
    """Distil a finished simulation into its picklable summary."""
    outcome_counts: Dict[str, int] = collections.Counter()
    for worker_results in result.outcomes:
        for op, _key, outcome in worker_results:
            ok = outcome is not None and outcome is not False
            outcome_counts[f"{op}:{'ok' if ok else 'fail'}"] += 1

    hasher = hashlib.sha256()
    for record in result.nvm.persist_log():
        hasher.update(repr((record.line_addr, record.words,
                            record.complete_time)).encode("ascii"))

    mechanism_counters = {
        name[len("stats_"):]: value
        for name, value in vars(result.machine.mechanism).items()
        if name.startswith("stats_") and isinstance(value, int)
    }
    return RunSummary(
        spec=result.spec,
        mechanism=result.mechanism,
        config=result.config,
        makespan=result.makespan,
        stats=result.stats,
        outcome_counts=dict(outcome_counts),
        persist_count=result.nvm.persist_count,
        persist_log_digest=hasher.hexdigest(),
        mechanism_counters=mechanism_counters,
    )


def execute_job(job: Job) -> RunSummary:
    """Run one job to completion (the worker-process entry point)."""
    observer = None
    if (job.collect_obs or job.collect_trace or job.collect_provenance
            or job.collect_spans or job.fuzz is not None):
        from repro.obs import Observer

        observer = Observer(trace=job.collect_trace,
                            provenance=(job.collect_provenance
                                        or job.fuzz is not None),
                            spans=job.collect_spans)
    nudges = (dict(job.schedule_nudges)
              if job.schedule_nudges is not None else None)
    result = simulate(job.spec, job.mechanism, job.config,
                      observer=observer, schedule_nudges=nudges)
    summary = summarize(result)
    if observer is not None:
        summary.obs = observer.export()
    if job.fuzz is not None:
        from repro.fuzz.leg import run_fuzz_leg

        summary.fuzz = run_fuzz_leg(result, summary.obs, job.fuzz)
        # The coverage map also rides in the obs export proper, so
        # anything that consumes RunSummary.obs (cache, merged sweeps)
        # sees it without knowing about the fuzzer.
        summary.obs["coverage"] = summary.fuzz["coverage"]
    if job.collect_spans and observer is not None and observer.spans:
        from repro.obs import slo
        from repro.workloads.kvservice import KVServiceSpec

        if isinstance(job.spec, KVServiceSpec):
            summary.obs["slo"] = slo.service_report(
                result, observer.spans,
                num_crash_points=job.crash_points,
                crash_seed=job.crash_seed)
    if job.crash_points is not None:
        from repro.core.recovery import crash_test

        campaign = crash_test(result, num_points=job.crash_points,
                              seed=job.crash_seed)
        summary.crash_attempts = campaign.attempts
        summary.crash_failures = len(campaign.failures)
    return summary


def _exit_with_parent(runner: Optional[int]) -> None:
    """Pool-worker initializer: leave Ctrl-C to the runner, and end the
    worker when the runner dies.

    Ctrl-C signals the whole process group, and the runner alone
    handles it (see :meth:`ExperimentRunner._run_pool`); an idle worker
    would otherwise die printing a ``KeyboardInterrupt`` traceback.

    A worker blocked on the executor's call queue never learns that the
    runner was SIGKILLed, and would idle as an orphan forever. A daemon
    thread polls the parent pid and exits once it is no longer the
    runner's. ``runner`` is the runner's pid, taken before the fork, so
    a worker re-parented before this ran exits at once. Under the
    forkserver start method a worker is the server's child, so
    ``runner`` is None and the worker watches the parent it starts
    with; the server exits with the runner.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid() if runner is None else runner

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class ExperimentRunner:
    """Fans jobs out across processes, with optional result caching.

    ``jobs=1`` (the default) runs everything in-process — bit-identical
    to the pre-runner serial path and free of pool startup cost, which
    on small batches would dominate. ``jobs=N`` uses a process pool of
    N workers; results always come back in submission order.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[NullProgress] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress or NullProgress()
        self.cache_hits = 0
        self.cache_misses = 0

    def run(self, jobs: Sequence[Job], label: str = "") -> List[RunSummary]:
        """Execute ``jobs``; results are in the same order as ``jobs``."""
        jobs = list(jobs)
        results: List[Optional[RunSummary]] = [None] * len(jobs)
        self.progress.start(len(jobs), label)

        pending: List[int] = []
        keys: Dict[int, str] = {}
        hits = misses = 0
        for index, job in enumerate(jobs):
            if self.cache is not None:
                key = job.key()
                keys[index] = key
                hit = self.cache.get(key)
                if hit is not None:
                    results[index] = hit
                    hits += 1
                    self.progress.job_done(job.label(), cached=True)
                    continue
                misses += 1
            pending.append(index)
        self.cache_hits += hits
        self.cache_misses += misses

        if self.jobs == 1 or len(pending) <= 1:
            for index in pending:
                results[index] = execute_job(jobs[index])
                self._store(keys.get(index), results[index])
                self.progress.job_done(jobs[index].label(), cached=False)
        else:
            self._run_pool(jobs, pending, keys, results)

        self.progress.finish()
        if self.cache is not None:
            # Feed the `python -m repro.exp cache stats` sidecar once
            # per batch (never per lookup), with this batch's lookups.
            self.cache.flush_stats(hits, misses)
        assert all(summary is not None for summary in results)
        return results  # type: ignore[return-value]

    def _run_pool(self, jobs: List[Job], pending: List[int],
                  keys: Dict[int, str],
                  results: List[Optional[RunSummary]]) -> None:
        # Imported here, not at module level: serial runs then never
        # load concurrent.futures or multiprocessing.
        from concurrent.futures import (FIRST_COMPLETED,
                                        ProcessPoolExecutor, wait)
        from multiprocessing import get_start_method

        workers = min(self.jobs, len(pending))
        runner = (None if get_start_method() == "forkserver"
                  else os.getpid())
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_exit_with_parent,
                                 initargs=(runner,)) as pool:
            futures = {
                pool.submit(execute_job, jobs[index]): index
                for index in pending
            }
            outstanding = set(futures)
            try:
                while outstanding:
                    done, outstanding = wait(outstanding,
                                             return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        results[index] = future.result()
                        self._store(keys.get(index), results[index])
                        self.progress.job_done(jobs[index].label(),
                                               cached=False)
            except KeyboardInterrupt:
                # The workers ignore SIGINT: end them now instead of
                # after their current and queued jobs. Finished jobs
                # are already in the cache. Waiting for the pool's
                # manager thread keeps it from racing the interpreter's
                # exit hook, which then writes to its closed wakeup
                # pipe and prints a traceback.
                for process in list(pool._processes.values()):
                    process.terminate()
                pool.shutdown(wait=True, cancel_futures=True)
                raise

    def _store(self, key: Optional[str],
               summary: Optional[RunSummary]) -> None:
        if self.cache is not None and key is not None and summary is not None:
            self.cache.put(key, summary)


# ----------------------------------------------------------------------
# Process-wide default runner (configured by the bench CLI / env vars)
# ----------------------------------------------------------------------

_default_runner: Optional[ExperimentRunner] = None


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set, else 1 (serial)."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def get_default_runner() -> ExperimentRunner:
    """The runner the figure pipeline uses when none is passed in."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner(jobs=default_jobs())
    return _default_runner


def set_default_runner(runner: Optional[ExperimentRunner]) -> None:
    """Install (or with None, reset) the process-wide default runner."""
    global _default_runner
    _default_runner = runner


def run_cli(main: Callable[[], Optional[int]], prog: str,
            hint: str = "") -> None:
    """Run a CLI's ``main`` and exit with its status, never with a
    traceback. Ctrl-C prints one line to stderr and exits with status
    130 (128 + SIGINT); ``hint`` is appended to that line. A
    ValueError or OSError (bad option value, missing or malformed
    input file) prints ``prog: error: ...`` and exits with status 1."""
    try:
        status = main()
    except KeyboardInterrupt:
        print(f"{prog}: interrupted{'; ' + hint if hint else ''}",
              file=sys.stderr)
        status = 130
    except (ValueError, OSError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        status = 1
    sys.exit(status)


def make_runner(jobs: Optional[int] = None, use_cache: bool = False,
                verbose: bool = False) -> ExperimentRunner:
    """Convenience constructor used by the CLIs."""
    return ExperimentRunner(
        jobs=jobs if jobs is not None else default_jobs(),
        cache=ResultCache() if use_cache else None,
        progress=ProgressReporter() if verbose else None,
    )
