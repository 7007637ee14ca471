"""Tests for the parallel experiment runner and result cache.

The load-bearing property is determinism: fanning jobs out across
processes must produce bit-identical summaries (makespans, stats,
persist-log digests) to serial in-process execution, and cache keys
must be stable across processes so a cache written by one run is hit
by the next. On top of that sits the resume contract: a SIGKILLed
``repro.bench.figures`` run, rerun, re-executes only the cells that
had not finished, and its pool workers do not outlive it.
"""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.configs import SCALED_CONFIG, bench_config
from repro.bench.figures import run_figure5
from repro.exp.cache import (
    ResultCache,
    code_version,
    execute_prune,
    plan_prune,
    read_stats_since_marker,
    stable_digest,
    write_stats_marker,
)
from repro.exp.runner import (
    ExperimentRunner,
    Job,
    execute_job,
    summarize,
)
from repro.core.simulator import simulate, simulate_all_mechanisms
from repro.workloads.harness import WorkloadSpec

CONFIG = bench_config(SCALED_CONFIG)
ROOT = Path(__file__).resolve().parent.parent

#: Quick-scale Figure 5: five structures x (nop, sb, bb, lrp).
FIG5_CELLS = 20


def small_jobs(workloads=("queue", "linkedlist"),
               mechanisms=("nop", "sb", "bb", "lrp")):
    """A reduced Figure 5 slice: every mechanism on two LFDs."""
    return [
        Job(spec=WorkloadSpec(structure=workload, num_threads=4,
                              initial_size=64, ops_per_thread=8, seed=3),
            mechanism=mech, config=CONFIG)
        for workload in workloads
        for mech in mechanisms
    ]


def fingerprints(summaries):
    return [(s.spec.structure, s.mechanism, s.makespan,
             s.persist_count, s.persist_log_digest, s.stats.summary())
            for s in summaries]


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial(self):
        """Same jobs, 1 vs 2 worker processes: identical summaries."""
        jobs = small_jobs()
        serial = ExperimentRunner(jobs=1).run(jobs)
        parallel = ExperimentRunner(jobs=2).run(jobs)
        assert fingerprints(serial) == fingerprints(parallel)

    def test_summary_matches_direct_simulation(self):
        """A runner summary equals summarizing simulate() directly."""
        job = small_jobs()[3]
        via_runner = ExperimentRunner(jobs=1).run([job])[0]
        direct = summarize(simulate(job.spec, job.mechanism, job.config))
        assert via_runner.makespan == direct.makespan
        assert via_runner.persist_log_digest == direct.persist_log_digest
        assert via_runner.stats.summary() == direct.stats.summary()

    def test_record_trace_off_keeps_makespan(self):
        """Disabling trace retention never changes timing."""
        spec = WorkloadSpec(structure="hashmap", num_threads=4,
                            initial_size=64, ops_per_thread=8, seed=7)
        with_trace = simulate(
            spec, "lrp",
            dataclasses.replace(SCALED_CONFIG, record_trace=True))
        without = simulate(
            spec, "lrp",
            dataclasses.replace(SCALED_CONFIG, record_trace=False))
        assert with_trace.makespan == without.makespan
        assert (summarize(with_trace).persist_log_digest
                == summarize(without).persist_log_digest)
        assert len(with_trace.trace.events) == len(without.trace)
        with pytest.raises(RuntimeError):
            _ = without.trace.events

    def test_results_in_submission_order(self):
        jobs = small_jobs()
        results = ExperimentRunner(jobs=2).run(jobs)
        assert [(r.spec.structure, r.mechanism) for r in results] \
            == [(j.spec.structure, j.mechanism) for j in jobs]

    def test_figure5_through_explicit_runners(self):
        """Fig 5 at reduced size: serial and parallel runners agree."""
        kwargs = dict(scale="quick", num_threads=2, workloads=["queue"])
        serial = run_figure5(runner=ExperimentRunner(jobs=1), **kwargs)
        parallel = run_figure5(runner=ExperimentRunner(jobs=2), **kwargs)
        for mech in serial.mechanisms:
            assert serial.normalized("queue", mech) \
                == parallel.normalized("queue", mech)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        jobs = small_jobs(workloads=("queue",))
        cache = ResultCache(tmp_path)
        first = ExperimentRunner(jobs=1, cache=cache)
        cold = first.run(jobs)
        assert first.cache_hits == 0
        assert first.cache_misses == len(jobs)

        second = ExperimentRunner(jobs=1, cache=cache)
        warm = second.run(jobs)
        assert second.cache_hits == len(jobs)
        assert second.cache_misses == 0
        assert fingerprints(cold) == fingerprints(warm)

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = small_jobs(workloads=("queue",), mechanisms=("lrp",))[0]
        ExperimentRunner(jobs=1, cache=cache).run([job])

        changed = Job(spec=job.spec, mechanism=job.mechanism,
                      config=dataclasses.replace(job.config,
                                                 ret_entries=8,
                                                 ret_watermark=6))
        runner = ExperimentRunner(jobs=1, cache=cache)
        runner.run([changed])
        assert runner.cache_hits == 0
        assert runner.cache_misses == 1

    def test_spec_and_mechanism_in_key(self):
        job = small_jobs()[0]
        other_mech = Job(spec=job.spec, mechanism="lrp", config=job.config)
        other_spec = Job(spec=dataclasses.replace(job.spec, seed=99),
                         mechanism=job.mechanism, config=job.config)
        assert len({job.key(), other_mech.key(), other_spec.key()}) == 3

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = small_jobs(workloads=("queue",), mechanisms=("nop",))[0]
        cache.put(job.key(), execute_job(job))
        # Truncate the entry on disk.
        [path] = list(tmp_path.rglob("*.pkl"))
        path.write_bytes(b"not a pickle")
        assert cache.get(job.key()) is None

    def test_crash_campaign_counts_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job(spec=WorkloadSpec(structure="queue", num_threads=2,
                                    initial_size=32, ops_per_thread=6,
                                    seed=0),
                  mechanism="lrp", config=CONFIG,
                  crash_points=8, crash_seed=0)
        runner = ExperimentRunner(jobs=1, cache=cache)
        [summary] = runner.run([job])
        assert summary.crash_attempts and summary.crash_attempts > 0
        assert summary.crash_failures == 0
        [warm] = ExperimentRunner(jobs=1, cache=cache).run([job])
        assert warm.crash_attempts == summary.crash_attempts


class TestKeyStability:
    def test_stable_digest_is_not_hash_randomized(self):
        digest = stable_digest({"b": 2, "a": [1, (2, 3)]})
        assert digest == stable_digest({"a": [1, [2, 3]], "b": 2})

    def test_key_stable_across_processes(self):
        """The same Job hashes to the same key in a fresh interpreter
        (cache entries written by one run are hits for the next)."""
        job = small_jobs(workloads=("queue",), mechanisms=("lrp",))[0]
        program = (
            "import json, sys\n"
            "from repro.bench.configs import SCALED_CONFIG, bench_config\n"
            "from repro.exp.runner import Job\n"
            "from repro.exp.cache import code_version\n"
            "from repro.workloads.harness import WorkloadSpec\n"
            "job = Job(spec=WorkloadSpec(structure='queue', num_threads=4,"
            " initial_size=64, ops_per_thread=8, seed=3),"
            " mechanism='lrp', config=bench_config(SCALED_CONFIG))\n"
            "print(json.dumps({'key': job.key(),"
            " 'code': code_version()}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", program], capture_output=True,
            text=True, check=True, env=dict(os.environ),
        ).stdout
        remote = json.loads(out)
        assert remote["code"] == code_version()
        assert remote["key"] == job.key()


class TestSatelliteFixes:
    def test_simulate_all_mechanisms_accepts_any_sequence(self):
        spec = WorkloadSpec(structure="queue", num_threads=2,
                            initial_size=16, ops_per_thread=4, seed=0)
        as_list = simulate_all_mechanisms(spec, ["nop", "lrp"])
        as_tuple = simulate_all_mechanisms(spec, ("nop", "lrp"))
        assert set(as_list) == set(as_tuple) == {"nop", "lrp"}
        assert as_list["lrp"].makespan == as_tuple["lrp"].makespan


# ----------------------------------------------------------------------
# Cache stats sidecar and pruning (python -m repro.exp cache)
# ----------------------------------------------------------------------

class TestCacheStatsAndPrune:
    def test_flush_stats_accumulates(self, tmp_path):
        cache = ResultCache(tmp_path)
        # Older sidecar lines also carry ``shared_hits``; one still
        # parses as a session.
        cache.stats_path.write_text(json.dumps(
            {"hits": 2, "misses": 0, "shared_hits": 2, "at": 0.0}) + "\n")
        assert cache.flush_stats(hits=1, misses=1) is True
        window = read_stats_since_marker(cache.stats_path)
        assert (window["hits"], window["misses"],
                window["sessions"]) == (3, 1, 2)
        assert "shared_hits" not in window

    def test_flush_stats_noop_without_activity(self, tmp_path):
        assert ResultCache(tmp_path).flush_stats(hits=0, misses=0) is False

    def test_runner_batches_count_each_lookup_once(self, tmp_path):
        """Batches through one runner: the sidecar window holds exactly
        the runner's own lookups, one session per batch."""
        jobs = small_jobs(workloads=("queue",),
                          mechanisms=("nop", "sb", "lrp"))
        runner = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.run(jobs[:2])   # 2 misses
        runner.run(jobs[2:])   # 1 miss
        runner.run(jobs)       # 3 hits
        window = read_stats_since_marker(runner.cache.stats_path)
        assert (runner.cache_hits, runner.cache_misses) == (3, 3)
        assert (window["hits"], window["misses"], window["sessions"]) \
            == (runner.cache_hits, runner.cache_misses, 3)
        assert window["hit_rate"] == 0.5

    def test_marker_resets_window(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.flush_stats(hits=0, misses=1)
        write_stats_marker(cache.stats_path)
        window = read_stats_since_marker(cache.stats_path)
        assert window["sessions"] == 0 and window["hit_rate"] is None

    def _populated(self, tmp_path, ages):
        cache = ResultCache(tmp_path)
        now = time.time()
        for index, age in enumerate(ages):
            key = f"{index:02d}" + "0" * 62
            cache.put(key, {"payload": "x" * 100})
            path = cache._path(key)
            os.utime(path, (now - age, now - age))
        return cache, now

    def test_plan_prune_older_than(self, tmp_path):
        cache, now = self._populated(tmp_path, [10.0, 1000.0, 5000.0])
        victims = plan_prune(cache, older_than_seconds=500.0, now=now)
        assert len(victims) == 2
        # Pure planning: nothing deleted yet.
        assert cache.entry_count() == 3

    def test_plan_prune_max_bytes_evicts_oldest_first(self, tmp_path):
        cache, now = self._populated(tmp_path, [10.0, 1000.0, 5000.0])
        entry = cache.total_bytes() // 3
        victims = plan_prune(cache, max_bytes=2 * entry, now=now)
        assert len(victims) == 1
        assert "02" in victims[0][0].name  # the oldest entry

    def test_execute_prune_unlinks(self, tmp_path):
        cache, now = self._populated(tmp_path, [10.0, 1000.0, 5000.0])
        victims = plan_prune(cache, older_than_seconds=500.0, now=now)
        removed, freed = execute_prune(victims)
        assert removed == 2 and freed > 0
        assert cache.entry_count() == 1


class TestCacheCLI:
    def run_cli(self, *argv):
        from repro.exp.__main__ import main

        return main(list(argv))

    def test_stats_reports_and_resets_window(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"v": 1})
        cache.flush_stats(hits=1, misses=1)
        assert self.run_cli("cache", "stats", "--dir",
                            str(tmp_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1 and payload["bytes"] > 0
        assert payload["since_last_stats"]["hits"] == 1
        assert self.run_cli("cache", "stats", "--dir",
                            str(tmp_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["since_last_stats"]["sessions"] == 0

    def test_prune_dry_run_then_apply(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"v": 1})
        old = time.time() - 10 * 86400
        os.utime(cache._path("aa" * 32), (old, old))
        assert self.run_cli("cache", "prune", "--dir", str(tmp_path),
                            "--older-than", "7d") == 0
        assert "dry run" in capsys.readouterr().out
        assert cache.entry_count() == 1  # dry run deleted nothing
        assert self.run_cli("cache", "prune", "--dir", str(tmp_path),
                            "--older-than", "7d", "--apply") == 0
        assert cache.entry_count() == 0

    def test_prune_requires_a_limit(self, tmp_path):
        assert self.run_cli("cache", "prune", "--dir",
                            str(tmp_path)) == 2


#: Bad input to the CLIs that run through ``run_cli``.
BAD_INPUTS = {
    "fuzz-replay-missing": ["repro.fuzz", "--replay", "missing.json"],
    "fuzz-replay-malformed": ["repro.fuzz", "--replay", "malformed.json"],
    "fuzz-replay-list": ["repro.fuzz", "--replay", "list.json"],
    "fuzz-replay-no-fields": ["repro.fuzz", "--replay", "fieldless.json"],
    "fuzz-budget-0": ["repro.fuzz", "--budget", "0"],
    "fuzz-unknown-mechanism": ["repro.fuzz", "--mechanism", "bogus"],
    "fuzz-unknown-workload": ["repro.fuzz", "--workload", "bogus"],
    "figures-jobs-0": ["repro.bench.figures", "--jobs", "0"],
    "bench-jobs-0": ["repro.bench", "--jobs", "0"],
    "prune-bad-age": ["repro.exp", "cache", "prune", "--older-than", "abc"],
    "prune-bad-size": ["repro.exp", "cache", "prune", "--max-bytes", "5X"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_line_error(tmp_path, case):
    """Bad option values and unreadable input files end in one
    ``prog: error: ...`` line on stderr, never a traceback."""
    (tmp_path / "malformed.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "fieldless.json").write_text(
        '{"format": "repro-fuzz-repro-v1"}')
    done = subprocess.run(
        [sys.executable, "-m", *BAD_INPUTS[case]],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "REPRO_EXP_CACHE_DIR": str(tmp_path / "cache")},
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120)
    lines = done.stderr.splitlines()
    assert done.returncode == 1, lines
    assert len(lines) == 1 and ": error: " in lines[0], lines
    assert "Traceback" not in done.stderr


# ----------------------------------------------------------------------
# Killed runs: resume from the cache, leave no orphaned workers
# ----------------------------------------------------------------------

def _start_fig5(cache_dir, cwd, *extra, stderr=None):
    """``figures --figures fig5 --jobs 2`` in a session of its own."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.bench.figures", "--figures", "fig5",
         "--jobs", "2", "--quiet", *extra],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "REPRO_EXP_CACHE_DIR": str(cache_dir)},
        cwd=str(cwd), stdout=subprocess.DEVNULL, stderr=stderr,
        start_new_session=True)


def _wait_for_cached_cells(proc, cache_dir, cells=3):
    deadline = time.monotonic() + 300
    while len(list(cache_dir.rglob("*.pkl"))) < cells:
        assert proc.poll() is None, "figures exited early"
        assert time.monotonic() < deadline, "no cells cached"
        time.sleep(0.2)


def _rerun_fig5(cache_dir, tmp_path):
    """Rerun to completion; its ``--timings-out`` snapshot."""
    timings = tmp_path / "timings.json"
    rerun = _start_fig5(cache_dir, tmp_path, "--timings-out", str(timings))
    try:
        assert rerun.wait(timeout=600) == 0
    finally:
        _kill_session(rerun)
    return json.loads(timings.read_text())


def _kill_session(proc):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _wait_for_pool_ignoring_sigint(proc, workers=2):
    """Wait until ``proc`` has ``workers`` children that all ignore
    SIGINT: pool workers past their initializer, so a Ctrl-C now finds
    the runner inside its pool."""
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    if not children.exists():
        pytest.skip("no /proc/<pid>/task/<pid>/children here")
    deadline = time.monotonic() + 120
    while True:
        assert proc.poll() is None, "exited before its pool started"
        assert time.monotonic() < deadline, "no pool workers"
        pids = children.read_text().split()
        masks = []
        for pid in pids:
            with contextlib.suppress(OSError):
                status = Path(f"/proc/{pid}/status").read_text()
                masks.append(int(status.split("SigIgn:")[1].split()[0],
                                 16))
        if (len(pids) >= workers and len(masks) == len(pids)
                and all(mask & 1 << (signal.SIGINT - 1) for mask in masks)):
            return
        time.sleep(0.05)


def _wait_for_cpu_seconds(proc, seconds):
    """Wait until ``proc`` has used ``seconds`` of CPU time, well past
    interpreter start-up, so a Ctrl-C now lands inside the CLI."""
    stat = Path(f"/proc/{proc.pid}/stat")
    if not stat.exists():
        pytest.skip("no /proc/<pid>/stat here")
    ticks = os.sysconf("SC_CLK_TCK")
    deadline = time.monotonic() + 120
    while True:
        assert proc.poll() is None, "exited before it was interrupted"
        assert time.monotonic() < deadline, "used no CPU time"
        fields = stat.read_text().rsplit(")", 1)[1].split()
        if int(fields[11]) + int(fields[12]) >= seconds * ticks:
            return
        time.sleep(0.05)


def _interrupt(argv, tmp_path, wait):
    """Run ``python -m argv`` in a session of its own, send Ctrl-C to
    its process group once ``wait(proc)`` returns; (status, stderr
    lines)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=str(tmp_path), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True)
    try:
        wait(proc)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        _kill_session(proc)
    return proc.returncode, stderr.decode().splitlines()


#: Pooled CLIs besides ``figures``, each a run long enough to be
#: interrupted inside its pool, and the one stderr line Ctrl-C leaves.
POOLED_CLIS = {
    "bench": (["repro.bench", "--figures", "fig5", "--jobs", "2",
               "--no-cache", "--quiet"],
              "repro.bench: interrupted; rerun the same command to "
              "resume from the result cache"),
}

#: CLIs that run in process, each with a run long enough to be
#: interrupted after 1 s of CPU time, and the one stderr line Ctrl-C
#: leaves.
SERIAL_CLIS = {
    "fuzz": (["repro.fuzz", "--mechanism", "lrp", "--budget", "1000",
              "--size", "16384", "--ops", "256", "--threads", "8",
              "--quiet"],
             "repro.fuzz: interrupted"),
    "slo": (["repro.obs", "slo", "--requests", "20000", "--threads", "8",
             "--mechanisms", "lrp"],
            "repro.obs: interrupted"),
}


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestKilledRun:
    def test_sigkilled_figures_run_resumes_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        proc = _start_fig5(cache_dir, tmp_path)
        try:
            _wait_for_cached_cells(proc, cache_dir)
        finally:
            _kill_session(proc)
        cached = len(list(cache_dir.rglob("*.pkl")))
        assert cached < FIG5_CELLS

        snapshot = _rerun_fig5(cache_dir, tmp_path)
        assert snapshot["figures"]["fig5"]["cache_hits"] == cached
        assert (snapshot["figures"]["fig5"]["cache_misses"]
                == FIG5_CELLS - cached)
        committed = json.loads((ROOT / "BENCH_figures.json").read_text())
        assert snapshot["fig5_makespan"] == committed["fig5_makespan"]

    def test_ctrl_c_prints_one_line_and_resumes(self, tmp_path):
        """SIGINT to the process group (Ctrl-C in a terminal): exit
        status 130, one line on stderr and no traceback from the
        runner or its workers; the rerun resumes from the cache."""
        cache_dir = tmp_path / "cache"
        proc = _start_fig5(cache_dir, tmp_path, stderr=subprocess.PIPE)
        try:
            _wait_for_cached_cells(proc, cache_dir)
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            _kill_session(proc)
        assert proc.returncode == 130
        lines = stderr.decode().splitlines()
        assert len(lines) == 1 and "interrupted" in lines[0], lines
        cached = len(list(cache_dir.rglob("*.pkl")))
        assert 3 <= cached < FIG5_CELLS

        snapshot = _rerun_fig5(cache_dir, tmp_path)
        assert snapshot["figures"]["fig5"]["cache_hits"] == cached
        assert (snapshot["figures"]["fig5"]["cache_misses"]
                == FIG5_CELLS - cached)

    @pytest.mark.parametrize("cli", sorted(POOLED_CLIS))
    def test_ctrl_c_on_a_pooled_cli_prints_one_line(self, tmp_path, cli):
        """Ctrl-C while the runner waits on its pool: exit status 130
        and one line on stderr, as for ``figures``."""
        argv, line = POOLED_CLIS[cli]
        status, lines = _interrupt(argv, tmp_path,
                                   _wait_for_pool_ignoring_sigint)
        assert status == 130, lines
        assert lines == [line]

    @pytest.mark.parametrize("cli", sorted(SERIAL_CLIS))
    def test_ctrl_c_on_a_serial_cli_prints_one_line(self, tmp_path, cli):
        """Ctrl-C on a CLI that runs its simulations in process (a
        ``repro.fuzz`` campaign, a ``repro.obs slo`` report): exit
        status 130 and one stderr line."""
        argv, line = SERIAL_CLIS[cli]
        status, lines = _interrupt(
            argv, tmp_path, lambda proc: _wait_for_cpu_seconds(proc, 1.0))
        assert status == 130, lines
        assert lines == [line]

    def test_pool_workers_exit_with_a_killed_parent(self, tmp_path):
        proc = _start_fig5(tmp_path / "cache", tmp_path, "--no-cache")
        try:
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            if not children.exists():
                pytest.skip("no /proc/<pid>/task/<pid>/children here")
            deadline = time.monotonic() + 60
            workers = []
            while len(workers) < 2:
                assert proc.poll() is None, "figures exited early"
                assert time.monotonic() < deadline, "no pool workers"
                time.sleep(0.05)
                workers = [int(pid) for pid in children.read_text().split()]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 10
            while (any(_running(pid) for pid in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            _kill_session(proc)

    def test_forkserver_workers_outlive_the_watch(self):
        """A forkserver worker's parent is the server, not the runner,
        and the parent watch must not end it."""
        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("no forkserver start method here")
        script = (
            "import multiprocessing, sys\n"
            "from test_exp_runner import fingerprints, small_jobs\n"
            "from repro.exp.runner import ExperimentRunner\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('forkserver')\n"
            "    jobs = small_jobs(workloads=('queue',),\n"
            "                      mechanisms=('nop', 'lrp'))\n"
            "    pooled = ExperimentRunner(jobs=2).run(jobs)\n"
            "    serial = ExperimentRunner(jobs=1).run(jobs)\n"
            "    sys.exit(fingerprints(pooled) != fingerprints(serial))\n")
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": path},
                              cwd=str(ROOT), timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
