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
  recovery-matrix row.

Figure 5's own makespans are pinned by ``BENCH_figures.json``. Every
figure is computed as ``python -m repro.bench.figures`` computes it,
through a serial runner with no result cache. The Figure 6 counts are
checked against the telemetry-on Figure 5 pass of
``tests/test_fastobs.py``; the other figures by
``tests/test_figure_pins.py``.

Regenerate (only when a figure is meant to change) with::

    PYTHONPATH=src python -m tests.figure_pins
"""

import json
from pathlib import Path

from repro.bench import figures
from repro.core.simulator import clear_setup_cache
from repro.exp.runner import ExperimentRunner

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


#: Figure name -> zero-argument function computing its pins.
FIGURES = {"fig6": fig6, "fig7": fig7, "fig8": fig8, "size": size,
           "ret": ret, "recovery": recovery}


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
