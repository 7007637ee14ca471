"""Exact pins of every quick-scale figure besides Figure 5's makespans.

The paper's evidence is simulated cycles and counts, so each figure
is pinned by its integers, compared for exact equality:

* ``fig6`` — ``critical_writebacks`` and ``total_writebacks`` of the
  bb and lrp Figure 5 cells (the counts behind the Figure 6
  fractions);
* ``fig7`` — the uncached-mode makespans, per workload and mechanism;
* ``fig8`` — the thread-sweep makespans, per workload, thread count
  and mechanism;
* ``size`` — the §6.4 size-sweep makespans, per size and mechanism;
* ``ret`` — the RET ablation's NOP makespan and, per RET size, the
  LRP makespan and its ``ret_watermark_drains``;
* ``recovery`` — ``crash_points`` and ``unrecoverable`` of every
  recovery-matrix row;
* ``bb_epochs`` — the ack-gated (``bb_pipelined_epochs=False``) BB
  makespan of the 16-thread quick hashmap, whose pipelined BB and NOP
  makespans are ``fig8["hashmap"]["16"]``;
* ``bst`` — the NOP, BB and LRP makespans of the Natarajan-Mittal
  tree (``bstree``) and the tombstone tree (``bstree_tomb``) at 16
  threads, 16K keys and 32 ops each, with BB's ``total_persists`` and
  ``total_ops``;
* ``buffer_class`` — the makespan and ``total_persists`` of the
  hashmap at that size under NOP and the five RP enforcers.

Figure 5's own makespans are pinned by ``BENCH_figures.json``. Every
figure is computed as ``python -m repro.bench.figures`` computes it,
through a serial runner with no result cache; the three ablations,
which that command does not run, call ``simulate`` directly. The
Figure 6 counts are checked against the telemetry-on Figure 5 pass of
``tests/test_fastsim.py``; the other entries by
``tests/test_figure_pins.py``.

Regenerate (only when a figure is meant to change) with::

    PYTHONPATH=src python -m tests.figure_pins
"""

import dataclasses
import json
from pathlib import Path

from repro.bench import figures
from repro.bench.configs import SCALED_CONFIG, bench_config, figure_spec
from repro.core.simulator import clear_setup_cache, simulate
from repro.exp.runner import ExperimentRunner
from repro.workloads.harness import WorkloadSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "figure_pins.json"


class RecordingRunner(ExperimentRunner):
    """A serial, uncached runner that keeps every (job, summary) pair."""

    def __init__(self) -> None:
        super().__init__(jobs=1)
        self.runs = []

    def run(self, jobs, label=""):
        jobs = list(jobs)
        summaries = super().run(jobs, label=label)
        self.runs.extend(zip(jobs, summaries))
        return summaries


def fig6_counts(stats_by_cell):
    """``{workload: {mech: [critical, total]}}`` for bb and lrp, from
    ``{(workload, mech): RunStats}`` of the Figure 5 cells."""
    pins = {}
    for (workload, mech), stats in sorted(stats_by_cell.items()):
        if mech in ("bb", "lrp"):
            pins.setdefault(workload, {})[mech] = [
                stats.critical_writebacks, stats.total_writebacks]
    return pins


def fig6():
    runner = RecordingRunner()
    figures.run_figure5(runner=runner)
    return fig6_counts({(job.spec.structure, job.mechanism): summary.stats
                        for job, summary in runner.runs})


def fig7():
    runner = RecordingRunner()
    figures.run_figure7(runner=runner)
    pins = {}
    for job, summary in runner.runs:
        pins.setdefault(job.spec.structure, {})[job.mechanism] = \
            summary.makespan
    return pins


def fig8():
    runner = RecordingRunner()
    figures.run_figure8(runner=runner)
    pins = {}
    for job, summary in runner.runs:
        pins.setdefault(job.spec.structure, {}).setdefault(
            str(job.spec.num_threads), {})[job.mechanism] = summary.makespan
    return pins


def size():
    runner = RecordingRunner()
    figures.run_size_sensitivity(runner=runner)
    pins = {}
    for job, summary in runner.runs:
        pins.setdefault(str(job.spec.initial_size), {})[job.mechanism] = \
            summary.makespan
    return pins


def ret():
    runner = RecordingRunner()
    figures.run_ret_ablation(runner=runner)
    (_, nop), *lrp_runs = runner.runs
    return {
        "nop": nop.makespan,
        "lrp": {
            str(job.config.ret_entries): {
                "makespan": summary.makespan,
                "ret_watermark_drains":
                    summary.mechanism_counters["ret_watermark_drains"],
            }
            for job, summary in lrp_runs
        },
    }


def recovery():
    result = figures.run_recovery_matrix(runner=ExperimentRunner(jobs=1))
    pins = {}
    for row in result.rows:
        pins.setdefault(row["workload"], {})[row["mechanism"]] = {
            "crash_points": row["crash_points"],
            "unrecoverable": row["unrecoverable"],
        }
    return pins


def bb_epochs():
    config = dataclasses.replace(bench_config(SCALED_CONFIG),
                                 bb_pipelined_epochs=False)
    spec = figure_spec("hashmap", num_threads=16)
    return {"ack_gated": simulate(spec, "bb", config).makespan}


def _ablation_runs(structure, mechanisms):
    """``{mech: {"makespan", "total_persists", "total_ops"}}`` of one
    structure at 16 threads, 16K keys and 32 ops per thread."""
    spec = WorkloadSpec(structure=structure, num_threads=16,
                        initial_size=16384, ops_per_thread=32, seed=1)
    config = bench_config(SCALED_CONFIG)
    runs = {}
    for mech in mechanisms:
        result = simulate(spec, mech, config)
        runs[mech] = {"makespan": result.makespan,
                      "total_persists": result.stats.total_persists,
                      "total_ops": result.stats.total_ops}
    return runs


def bst():
    pins = {}
    for structure in ("bstree", "bstree_tomb"):
        runs = _ablation_runs(structure, ("nop", "bb", "lrp"))
        pins[structure] = {
            "makespan": {mech: run["makespan"]
                         for mech, run in runs.items()},
            "bb_total_persists": runs["bb"]["total_persists"],
            "bb_total_ops": runs["bb"]["total_ops"],
        }
    return pins


def buffer_class():
    runs = _ablation_runs("hashmap",
                          ("nop", "sb", "bb", "dpo", "hops", "lrp"))
    return {mech: {"makespan": run["makespan"],
                   "total_persists": run["total_persists"]}
            for mech, run in runs.items()}


#: Figure name -> zero-argument function computing its pins.
FIGURES = {"fig6": fig6, "fig7": fig7, "fig8": fig8, "size": size,
           "ret": ret, "recovery": recovery, "bb_epochs": bb_epochs,
           "bst": bst, "buffer_class": buffer_class}


def compute(name):
    """One figure's pins, computed cold (setup prototypes dropped)."""
    clear_setup_cache()
    try:
        return FIGURES[name]()
    finally:
        clear_setup_cache()


def golden():
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    pins = {name: compute(name) for name in FIGURES}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote pins of {len(pins)} figures to {GOLDEN}")
