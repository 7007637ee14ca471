"""Smoke tests for the benchmark harness (tiny configurations)."""

import json
from pathlib import Path

import pytest

from repro.bench import figures
from repro.bench.configs import (
    PAPER_CONFIG,
    SCALED_CONFIG,
    figure_spec,
    uncached,
)
from repro.bench.figures import (
    RetAblationResult,
    run_figure5,
    run_figure6,
    run_figure8,
    run_normalized_execution,
    run_recovery_matrix,
    run_ret_ablation,
    run_size_sensitivity,
)
from repro.bench.report import render_series, render_table
from repro.common.params import NVMMode
from repro.core.simulator import clear_setup_cache, simulate

BENCH_FIGURES = Path(__file__).resolve().parent.parent / "BENCH_figures.json"


class TestConfigs:
    def test_paper_config_is_table1(self):
        assert PAPER_CONFIG.num_cores == 64
        assert PAPER_CONFIG.l1_size_bytes == 32 * 1024

    def test_scaled_config_documented_scaling(self):
        assert SCALED_CONFIG.l1_size_bytes == 8 * 1024
        assert SCALED_CONFIG.num_memory_controllers == 8
        assert "8KB" in SCALED_CONFIG.describe()

    def test_uncached_flips_mode_only(self):
        config = uncached(SCALED_CONFIG)
        assert config.nvm_mode is NVMMode.UNCACHED
        assert config.l1_size_bytes == SCALED_CONFIG.l1_size_bytes

    def test_figure_spec_lookup(self):
        spec = figure_spec("hashmap", num_threads=4, scale="quick")
        assert spec.structure == "hashmap"
        assert spec.num_threads == 4

    def test_figure_spec_rejects_unknown(self):
        with pytest.raises(ValueError):
            figure_spec("btree", scale="quick")
        with pytest.raises(ValueError):
            figure_spec("hashmap", scale="huge")


class TestReport:
    def test_render_table(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text
        assert "x" in lines[-1]

    def test_render_table_empty_rows(self):
        text = render_table("T", ["col"], [])
        assert "col" in text

    def test_render_series(self):
        text = render_series("S", "threads", [1, 2],
                             {"BB": [1.0, 2.0], "LRP": [0.5, 0.25]})
        assert "threads" in text
        assert "LRP" in text


class TestSmokeRuns:
    def test_fig5_quick_cell_matches_committed_makespan(self):
        """One cold quick-scale Figure 5 cell reproduces its committed
        makespan (hashmap/lrp: 9216 cycles) to the cycle."""
        from repro.bench.configs import bench_config

        committed = json.loads(BENCH_FIGURES.read_text())["fig5_makespan"]
        clear_setup_cache()
        result = simulate(figure_spec("hashmap", scale="quick"), "lrp",
                          bench_config(SCALED_CONFIG))
        clear_setup_cache()
        assert result.makespan == committed["hashmap"]["lrp"] == 9216

    def test_normalized_execution_tiny(self):
        result = run_normalized_execution(
            SCALED_CONFIG, "tiny", scale="quick", num_threads=2,
            workloads=["queue"])
        value = result.normalized("queue", "lrp")
        assert value > 0
        assert "tiny" in result.render()
        assert isinstance(result.mean_improvement("sb", "lrp"), float)

    def test_figure6_tiny(self):
        result = run_figure6(run_figure5(num_threads=2,
                                         workloads=["queue"]))
        for value in result.fractions["queue"].values():
            assert 0.0 <= value <= 1.0
        assert "Figure 6" in result.render()

    def test_figure8_tiny(self):
        result = run_figure8(thread_counts=(1, 2), workloads=["queue"])
        assert len(result.overheads["queue"]["lrp"]) == 2
        assert "Figure 8 (queue)" in result.render()

    def test_size_sensitivity_tiny(self):
        result = run_size_sensitivity("queue", sizes=(32, 64),
                                      num_threads=2, ops_per_thread=4)
        assert len(result.overheads["bb"]) == 2
        assert "queue" in result.render()

    def test_ret_ablation_tiny(self):
        result = run_ret_ablation("queue", ret_sizes=(4, 32),
                                  num_threads=2)
        assert len(result.normalized) == 2
        assert "RET" in result.render()

    def test_recovery_matrix_tiny(self):
        result = run_recovery_matrix(workloads=["hashmap"],
                                     mechanisms=("nop", "lrp"),
                                     num_threads=2, initial_size=32,
                                     ops_per_thread=6, seeds=(0,),
                                     crash_points=8)
        lrp_row = result.outcome("hashmap", "lrp")
        assert lrp_row["unrecoverable"] == 0
        assert "recovery" in result.render().lower()
        with pytest.raises(KeyError):
            result.outcome("hashmap", "xyz")


class TestMain:
    def test_scale_reaches_ret_ablation(self, monkeypatch):
        calls = []

        def stub(**kwargs):
            calls.append(kwargs)
            return RetAblationResult("hashmap", [], [], [])

        monkeypatch.setattr(figures, "run_ret_ablation", stub)
        # main() installs a process-wide default runner; undo it after.
        monkeypatch.setattr("repro.exp.runner._default_runner", None)
        figures.main(["--figures", "ret", "--scale", "full", "--no-cache",
                      "--quiet", "--jobs", "1"])
        assert calls == [{"scale": "full"}]
