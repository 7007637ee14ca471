"""Tests for the benchmark history / regression dashboard.

The contract: snapshots flatten to classified scalar metrics, noisy
metrics only regress past the noise threshold, deterministic metrics
regress on any increase, boolean contracts regress on any flip to
false — and the CLI exits nonzero exactly when something regressed.
"""

import json

import pytest

from repro.bench.history import (
    NOISE_THRESHOLD,
    classify,
    compare_metric,
    compare_snapshot,
    flatten,
    main as history_main,
    render_dashboard,
)


class TestFlatten:
    def test_nested_dicts_become_dotted_metrics(self):
        flat = flatten({"a": {"b": 1, "c": {"d": 2.5}}, "e": True})
        assert flat == {"a.b": 1, "a.c.d": 2.5, "e": True}

    def test_lists_become_info_strings(self):
        flat = flatten({"workloads": ["a", "b"]})
        assert flat == {"workloads": "a,b"}

    def test_none_is_dropped(self):
        assert flatten({"a": None, "b": 1}) == {"b": 1}


class TestClassify:
    @pytest.mark.parametrize("name,value,kind", [
        ("serial_seconds", 4.0, "timing"),
        ("figures.fig5.seconds", 4.0, "timing"),
        ("cache.speedup_warm_over_cold", 100.0, "quality"),
        ("cache.hit_rate", 1.0, "quality"),
        ("identical_results", True, "contract"),
        ("fig5_makespan.hashmap.lrp", 123456, "exact"),
        ("suite.jobs", 20, "info"),
        ("cpu_count", 8, "info"),
        ("workloads", "a,b", "info"),
        # Crash-point counts beside BENCH_kv's gated crash metrics, and
        # cache-hit wall times from BENCH_runner / BENCH_figures.
        ("kv.lrp.recovery.recovered", 8, "info"),
        ("kv.lrp.recovery.recovered_fraction", 1.0, "info"),
        ("cache.warm_seconds", 0.01, "info"),
        ("figures.fig5.warm_seconds", 0.009, "info"),
    ])
    def test_kinds(self, name, value, kind):
        assert classify(name, value) == kind

    @pytest.mark.parametrize("name,value,kind", [
        # BENCH_mc.json exploration counters: descriptive scale facts,
        # not regressions — a new litmus program changing the totals
        # must never gate CI.
        ("programs.mp3_chain.schedules_explored", 10, "info"),
        ("programs.mp3_chain.states_visited", 63, "info"),
        ("programs.chain4.interleavings", 277200, "info"),
        ("programs.chain4.backtrack_points", 77, "info"),
        ("programs.bcast4.sleep_blocked", 0, "info"),
        ("programs.bcast4.num_threads", 4, "info"),
        ("programs.bcast4.num_ops", 8, "info"),
        ("totals.reduction", 4756.2, "info"),
        # ... while the selftest wall time stays a gated timing metric.
        ("totals.seconds", 1.7, "timing"),
    ])
    def test_mc_exploration_counters_are_info(self, name, value, kind):
        assert classify(name, value) == kind

    @pytest.mark.parametrize("name,value,kind", [
        # BENCH_kv.json SLO metrics: latency percentiles and means
        # gate with a tolerance (lower is better), throughput as quality
        # (higher is better) — never as zero-tolerance exact values,
        # and never as wall-clock timings.
        ("kv.lrp.p50", 210, "latency"),
        ("kv.lrp.p99", 5200, "latency"),
        ("kv.lrp.p999", 9100, "latency"),
        ("kv.bb.latency.mean", 453.58, "latency"),
        ("kv.bb.durable_latency.p99", 7000, "latency"),
        ("kv.lrp.throughput", 0.41, "quality"),
        # A wall-clock name always stays a timing, even when it also
        # mentions latency — no cross-gating between the two families.
        ("kv.latency_probe_seconds", 2.0, "timing"),
        ("kv.smoke_seconds", 2.0, "timing"),
    ])
    def test_kv_slo_metrics_gate_with_tolerance(self, name, value, kind):
        assert classify(name, value) == kind


class TestCompareMetric:
    def test_timing_within_noise_is_ok(self):
        delta = compare_metric("t_seconds", "timing", 10.0, 12.0, 0.5)
        assert delta.status == "ok"

    def test_timing_past_threshold_regresses(self):
        delta = compare_metric("t_seconds", "timing", 10.0, 16.0, 0.5)
        assert delta.status == "regressed"
        assert delta.change == pytest.approx(0.6)

    def test_timing_improvement(self):
        assert compare_metric("t_seconds", "timing", 10.0, 4.0,
                              0.5).status == "improved"

    def test_latency_lower_is_better_with_tolerance(self):
        # Within the noise threshold: drift, not a regression.
        assert compare_metric("kv.lrp.p99", "latency", 1000, 1200,
                              0.5).status == "ok"
        # Past it: a real SLO regression.
        assert compare_metric("kv.lrp.p99", "latency", 1000, 1600,
                              0.5).status == "regressed"
        # Large improvements register as such.
        assert compare_metric("kv.bb.latency.mean", "latency",
                              1000, 400, 0.5).status == "improved"

    def test_throughput_higher_is_better(self):
        assert compare_metric("kv.lrp.throughput", "quality", 1.0, 0.4,
                              0.5).status == "regressed"
        assert compare_metric("kv.lrp.throughput", "quality", 1.0, 1.6,
                              0.5).status == "improved"

    def test_quality_direction_is_inverted(self):
        assert compare_metric("speedup", "quality", 10.0, 4.0,
                              0.5).status == "regressed"
        assert compare_metric("speedup", "quality", 10.0, 16.0,
                              0.5).status == "improved"

    def test_exact_regresses_on_any_increase(self):
        assert compare_metric("makespan", "exact", 1000, 1001,
                              0.5).status == "regressed"
        assert compare_metric("makespan", "exact", 1000, 999,
                              0.5).status == "improved"
        assert compare_metric("makespan", "exact", 1000, 1000,
                              0.5).status == "ok"

    def test_contract_flip_to_false_regresses(self):
        assert compare_metric("ok", "contract", True, False,
                              0.5).status == "regressed"
        assert compare_metric("ok", "contract", False, True,
                              0.5).status == "improved"
        assert compare_metric("ok", "contract", True, True,
                              0.5).status == "ok"

    def test_new_and_removed(self):
        assert compare_metric("m", "timing", None, 1.0,
                              0.5).status == "new"
        assert compare_metric("m", "timing", 1.0, None,
                              0.5).status == "removed"

    def test_zero_baseline(self):
        assert compare_metric("m", "exact", 0, 0, 0.5).status == "ok"
        assert compare_metric("m", "exact", 0, 5,
                              0.5).status == "regressed"


class TestCompareSnapshot:
    def test_info_never_gates(self):
        comparison = compare_snapshot(
            "s.json", {"cpu_count": 1}, {"cpu_count": 64})
        assert not comparison.regressions

    def test_missing_baseline_reports_new(self):
        comparison = compare_snapshot("s.json", None,
                                      {"serial_seconds": 1.0})
        assert comparison.baseline_missing
        assert comparison.deltas[0].status == "new"
        assert not comparison.regressions


SNAPSHOT = {
    "serial_seconds": 4.0,
    "identical_results": True,
    "fig5_makespan": {"hashmap": {"lrp": 100000}},
    "cpu_count": 1,
}


def write_fixture(tmp_path, *, regress=False):
    """A snapshot + baseline pair, optionally with regressions."""
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    snapshot_path = tmp_path / "BENCH_fixture.json"
    (baseline_dir / "BENCH_fixture.json").write_text(
        json.dumps(SNAPSHOT))
    current = dict(SNAPSHOT)
    if regress:
        current["serial_seconds"] = 40.0            # 10x slower
        current["identical_results"] = False        # broken contract
        current["fig5_makespan"] = {"hashmap": {"lrp": 100001}}
    snapshot_path.write_text(json.dumps(current))
    return snapshot_path, baseline_dir


class TestCLI:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        snapshot, baselines = write_fixture(tmp_path)
        rc = history_main(["--snapshots", str(snapshot),
                           "--baseline-dir", str(baselines)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        snapshot, baselines = write_fixture(tmp_path, regress=True)
        out_path = tmp_path / "REPORT.md"
        rc = history_main(["--snapshots", str(snapshot),
                           "--baseline-dir", str(baselines),
                           "--output", str(out_path)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err
        report = out_path.read_text()
        assert "REGRESSIONS DETECTED" in report
        assert "`serial_seconds`" in report
        assert "`identical_results`" in report
        assert "`fig5_makespan.hashmap.lrp`" in report

    def test_update_baseline_then_clean(self, tmp_path):
        snapshot, baselines = write_fixture(tmp_path, regress=True)
        assert history_main(["--snapshots", str(snapshot),
                             "--baseline-dir", str(baselines),
                             "--update-baseline"]) == 0
        assert history_main(["--snapshots", str(snapshot),
                             "--baseline-dir", str(baselines)]) == 0

    def test_missing_snapshot_errors(self, tmp_path, capsys):
        rc = history_main(["--snapshots", str(tmp_path / "nope.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_repo_snapshot_round_trips(self, capsys):
        """The committed BENCH_runner.json compares clean against the
        committed baseline copy."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        snapshot = root / "BENCH_runner.json"
        if not snapshot.exists():  # e.g. after `make clean`
            pytest.skip("BENCH_runner.json not present")
        rc = history_main(["--snapshots", str(snapshot),
                           "--baseline-dir",
                           str(root / "benchmarks" / "baselines")])
        assert rc == 0


class TestDashboardRendering:
    def test_empty_dashboard(self):
        text = render_dashboard([])
        assert "No `BENCH_*.json` snapshots" in text

    def test_threshold_shown(self):
        comparison = compare_snapshot("s.json", SNAPSHOT, SNAPSHOT)
        text = render_dashboard([comparison],
                                threshold=NOISE_THRESHOLD)
        assert "±50%" in text
        assert "| `serial_seconds` | timing |" in text
