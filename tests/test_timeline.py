"""Tests for the cycle-windowed timeline telemetry (repro.obs.timeline).

The load-bearing guarantees:

* timeline sampling is opt-in and *passive*: enabling it yields
  bit-identical makespans, stats and persist logs;
* the per-window sums reconcile exactly with the aggregate counters
  and stats over the same run;
* serialization round-trips, merging is sum-for-series /
  max-for-gauges and refuses mismatched window widths;
* the Chrome counter export keeps per-track timestamps monotone;
* the ``timeline`` subcommand renders/exports, and its error paths
  exit 1 with a one-line diagnostic instead of a traceback.
"""

import hashlib
import json

import pytest

from repro.common.params import MachineConfig
from repro.core.simulator import simulate
from repro.exp.runner import Job, execute_job
from repro.obs import Observer, TimelineSampler, merged_timelines
from repro.obs.timeline import (
    COUNTER_PID,
    chrome_counter_events,
    coherence_series,
    render_timeline,
    sparkline,
    write_timeline_csv,
)
from repro.obs.__main__ import main as obs_main
from repro.workloads.harness import WorkloadSpec

MECHANISMS = ("nop", "sb", "bb", "lrp")
INTERVAL = 500


def tiny_spec():
    return WorkloadSpec(structure="hashmap", num_threads=4,
                        initial_size=64, ops_per_thread=12, seed=1)


def tiny_config():
    return MachineConfig(num_cores=4)


def persist_digest(result):
    hasher = hashlib.sha256()
    for record in result.nvm.persist_log():
        hasher.update(repr((record.line_addr, record.words,
                            record.complete_time)).encode("ascii"))
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def runs():
    """(plain result, observed result, observer) per mechanism."""
    spec, config = tiny_spec(), tiny_config()
    out = {}
    for mech in MECHANISMS:
        plain = simulate(spec, mech, config)
        observer = Observer(timeline_interval=INTERVAL)
        observed = simulate(spec, mech, config, observer=observer)
        out[mech] = (plain, observed, observer)
    return out


# ----------------------------------------------------------------------
# The sampler
# ----------------------------------------------------------------------

class TestTimelineSampler:
    def test_tick_accumulates_within_window(self):
        sampler = TimelineSampler(100)
        sampler.tick("a", 10, 3)
        sampler.tick("a", 99, 4)
        sampler.tick("a", 100, 5)
        assert sampler.series["a"] == {0: 7, 1: 5}
        assert sampler.dense("a") == [7, 5]

    def test_gauge_keeps_window_maximum(self):
        sampler = TimelineSampler(100)
        sampler.gauge("q", 10, 3)
        sampler.gauge("q", 20, 9)
        sampler.gauge("q", 30, 1)
        sampler.gauge("q", 250, 0)
        assert sampler.gauges["q"] == {0: 9, 2: 0}
        assert sampler.dense("q") == [9, 0, 0]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TimelineSampler(0)

    def test_grouped_sums_and_maxes_across_prefix(self):
        sampler = TimelineSampler(10)
        sampler.tick("compute.c0", 5, 2)
        sampler.tick("compute.c1", 5, 3)
        sampler.tick("compute.c1", 15, 1)
        sampler.gauge("pqdepth.c0", 5, 4)
        sampler.gauge("pqdepth.c1", 7, 6)
        assert sampler.grouped("compute.c", "sum") == [5, 1]
        assert sampler.grouped("pqdepth.c", "max") == [6, 0]

    def test_dict_round_trip(self):
        sampler = TimelineSampler(50)
        sampler.tick("a", 10)
        sampler.gauge("b", 120, 7)
        data = sampler.to_dict()
        json.dumps(data)  # plain-JSON serializable
        back = TimelineSampler.from_dict(data)
        assert back.interval == 50
        assert back.series == sampler.series
        assert back.gauges == sampler.gauges

    def test_merge_sums_series_and_maxes_gauges(self):
        a, b = TimelineSampler(10), TimelineSampler(10)
        a.tick("s", 5, 2)
        b.tick("s", 5, 3)
        a.gauge("g", 5, 2)
        b.gauge("g", 5, 9)
        a.merge(b)
        assert a.series["s"] == {0: 5}
        assert a.gauges["g"] == {0: 9}

    def test_merge_rejects_interval_mismatch(self):
        with pytest.raises(ValueError, match="different intervals"):
            TimelineSampler(10).merge(TimelineSampler(20))

    def test_merge_across_runs_with_different_intervals_refuses(self):
        """Two real runs sampled at different window widths must refuse
        to merge — summing misaligned windows would silently corrupt
        the time axis — and the diagnostic must name both intervals."""
        spec, config = tiny_spec(), tiny_config()
        coarse = Observer(timeline_interval=500)
        fine = Observer(timeline_interval=250)
        simulate(spec, "lrp", config, observer=coarse)
        simulate(spec, "lrp", config, observer=fine)
        with pytest.raises(ValueError) as excinfo:
            merged_timelines([coarse.timeline.to_dict(),
                              fine.timeline.to_dict()])
        assert "500" in str(excinfo.value)
        assert "250" in str(excinfo.value)

    def test_failed_interval_merge_leaves_target_untouched(self):
        # The interval check runs before any accumulation, so a refused
        # merge must not leave half-summed windows behind.
        target, other = TimelineSampler(10), TimelineSampler(20)
        target.tick("s", 5, 2)
        target.gauge("g", 5, 4)
        other.tick("s", 5, 99)
        before = (dict(target.series["s"]), dict(target.gauges["g"]))
        with pytest.raises(ValueError):
            target.merge(other)
        assert (target.series["s"], target.gauges["g"]) \
            == ({0: 2}, {0: 4}) == before

    def test_merged_timelines(self):
        a, b = TimelineSampler(10), TimelineSampler(10)
        a.tick("s", 5, 1)
        b.tick("s", 5, 2)
        merged = merged_timelines([a.to_dict(), b.to_dict()])
        assert merged.series["s"] == {0: 3}
        assert merged_timelines([]) is None


# ----------------------------------------------------------------------
# Determinism and reconciliation
# ----------------------------------------------------------------------

class TestTimelineNeverChangesResults:
    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_bit_identical_with_timeline_enabled(self, runs, mech):
        plain, observed, _ = runs[mech]
        assert plain.makespan == observed.makespan
        assert plain.stats.summary() == observed.stats.summary()
        assert persist_digest(plain) == persist_digest(observed)


class TestTimelineReconciliation:
    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_compute_windows_sum_to_counters(self, runs, mech):
        _, _, observer = runs[mech]
        timeline = observer.timeline
        for core in range(tiny_config().num_cores):
            assert (sum(timeline.dense(f"compute.c{core}"))
                    == observer.metrics.counters.get(
                        f"sched.compute_cycles.c{core}", 0))

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_stall_windows_sum_to_persist_stalls(self, runs, mech):
        _, observed, observer = runs[mech]
        timeline = observer.timeline
        total = sum(sum(timeline.dense(name)) for name in timeline.names()
                    if name.startswith("stall.c"))
        assert total == observed.stats.persist_stall_cycles

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_nvm_windows_sum_to_persist_lines(self, runs, mech):
        _, _, observer = runs[mech]
        timeline = observer.timeline
        total = sum(sum(timeline.dense(name)) for name in timeline.names()
                    if name.startswith("nvm.lines.ch"))
        assert total == observer.metrics.counters.get("persist.lines", 0)

    def test_coherence_series_is_mem_minus_stall_clamped(self):
        sampler = TimelineSampler(10)
        sampler.tick("mem.c0", 5, 10)
        sampler.tick("stall.c0", 5, 4)
        sampler.tick("mem.c0", 15, 2)
        sampler.tick("stall.c0", 15, 5)  # boundary skew -> clamp
        assert coherence_series(sampler) == [6, 0]

    def test_mechanism_specific_series_present(self, runs):
        _, _, lrp_obs = runs["lrp"]
        assert any(n.startswith("lrp.ret.c") for n in
                   lrp_obs.timeline.names())
        assert any(n.startswith("lrp.engine.c") for n in
                   lrp_obs.timeline.names())
        _, _, bb_obs = runs["bb"]
        assert any(n.startswith("bb.epoch_drains.c") for n in
                   bb_obs.timeline.names())


# ----------------------------------------------------------------------
# Runner / summary integration
# ----------------------------------------------------------------------

class TestSummaryCarriesTimeline:
    def test_execute_job_serializes_timeline(self):
        job = Job(spec=tiny_spec(), mechanism="lrp", config=tiny_config(),
                  timeline_interval=INTERVAL)
        summary = execute_job(job)
        assert summary.obs is not None
        timeline = TimelineSampler.from_dict(summary.obs["timeline"])
        assert timeline.interval == INTERVAL
        assert timeline.num_windows() > 0

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_summary_carries_the_observer_export(self, mech):
        """A runner job ships exactly the metrics, timeline and
        provenance an in-process Observer records for the same run."""
        observer = Observer(timeline_interval=INTERVAL, provenance=True)
        simulate(tiny_spec(), mech, tiny_config(), observer=observer)
        summary = execute_job(Job(spec=tiny_spec(), mechanism=mech,
                                  config=tiny_config(), collect_obs=True,
                                  timeline_interval=INTERVAL,
                                  collect_provenance=True))
        assert summary.obs == observer.export()

    def test_obs_off_leaves_summary_bare(self):
        summary = execute_job(Job(spec=tiny_spec(), mechanism="lrp",
                                  config=tiny_config()))
        assert summary.obs is None

    def test_sweep_merge_doubles_sums(self):
        job = Job(spec=tiny_spec(), mechanism="sb", config=tiny_config(),
                  timeline_interval=INTERVAL)
        data = execute_job(job).obs["timeline"]
        merged = merged_timelines([data, data])
        single = TimelineSampler.from_dict(data)
        name = next(n for n in single.names() if n.startswith("compute.c"))
        assert (sum(merged.dense(name, merged.num_windows()))
                == 2 * sum(single.dense(name)))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

class TestRendering:
    def test_sparkline_downsamples_by_max(self):
        values = [0] * 100
        values[50] = 9  # a one-window spike must survive downsampling
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert line.count("█") == 1

    def test_sparkline_flat_when_all_zero(self):
        assert sparkline([0, 0, 0]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_render_timeline_includes_groups(self, runs):
        _, _, observer = runs["lrp"]
        text = render_timeline(observer.timeline, title="t")
        assert "compute cycles" in text
        assert "persist-stall cycles" in text
        assert "RET occupancy" in text

    def test_render_empty_sampler(self):
        assert "(no samples recorded)" in render_timeline(
            TimelineSampler(100))

    def test_csv_has_all_series(self, runs, tmp_path):
        _, _, observer = runs["lrp"]
        path = tmp_path / "tl.csv"
        with open(path, "w", newline="") as handle:
            rows = write_timeline_csv(observer.timeline, handle)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["window", "start_cycle"]
        assert set(header[2:]) == set(observer.timeline.names())
        assert len(lines) == rows + 1

    def test_csv_columns_in_natural_order(self, tmp_path):
        # The documented column order: trailing core/channel ids sort
        # numerically (c2 before c10), so CSVs of different runs are
        # line-comparable. Plain string sort would scramble this.
        sampler = TimelineSampler(100)
        for core in (10, 0, 2, 1, 11):
            sampler.tick(f"compute.c{core}", 50, 1)
        for channel in (3, 0, 10):
            sampler.tick(f"nvm.lines.ch{channel}", 50, 1)
        sampler.tick("coh.evictions", 50, 1)
        assert sampler.names() == [
            "coh.evictions",
            "compute.c0", "compute.c1", "compute.c2",
            "compute.c10", "compute.c11",
            "nvm.lines.ch0", "nvm.lines.ch3", "nvm.lines.ch10",
        ]
        path = tmp_path / "order.csv"
        with open(path, "w", newline="") as handle:
            write_timeline_csv(sampler, handle)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["window", "start_cycle"] + sampler.names()


class TestCounterEvents:
    def test_counter_tracks_monotone_and_named(self, runs):
        _, _, observer = runs["lrp"]
        events = chrome_counter_events(observer.timeline)
        meta = [e for e in events if e["ph"] == "M"]
        data = [e for e in events if e["ph"] == "C"]
        assert all(e["pid"] == COUNTER_PID for e in events)
        named = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert named == set(observer.timeline.names())
        last = {}
        for event in data:
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, -1)
            last[key] = event["ts"]

    def test_series_end_with_zero_sample(self):
        sampler = TimelineSampler(10)
        sampler.tick("s", 25, 3)
        data = [e for e in chrome_counter_events(sampler)
                if e["ph"] == "C"]
        assert data[-1]["args"]["value"] == 0
        assert data[-1]["ts"] == 30

    def test_export_merges_counters_into_trace(self):
        observer = Observer(trace=True, timeline_interval=INTERVAL)
        simulate(tiny_spec(), "sb", tiny_config(), observer=observer)
        exported = observer.export()
        assert "timeline" in exported
        assert any(e.get("ph") == "C" for e in exported["trace_events"])


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------

WORKLOAD_ARGS = ["--threads", "2", "--size", "32", "--ops", "6"]


class TestTimelineCLI:
    def test_renders_and_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "tl.csv"
        export_path = tmp_path / "export.json"
        rc = obs_main(["timeline", "--mechanism", "lrp", "--interval",
                       "200", "--csv", str(csv_path), "--export-out",
                       str(export_path)] + WORKLOAD_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "windows x 200 cycles" in out
        assert csv_path.exists()
        document = json.loads(export_path.read_text())
        assert document["timeline"]["interval"] == 200

    def test_from_export_round_trip(self, tmp_path, capsys):
        export_path = tmp_path / "export.json"
        assert obs_main(["timeline", "--interval", "200", "--export-out",
                         str(export_path)] + WORKLOAD_ARGS) == 0
        capsys.readouterr()
        rc = obs_main(["timeline", "--from-export", str(export_path)])
        assert rc == 0
        assert "re-rendered" in capsys.readouterr().out

    def test_trace_out_contains_counter_tracks(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        rc = obs_main(["timeline", "--trace-out", str(trace_path)]
                      + WORKLOAD_ARGS)
        assert rc == 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(e.get("ph") == "C" for e in events)


class TestCLIErrorPaths:
    def test_unknown_mechanism_is_one_line(self, capsys):
        rc = obs_main(["timeline", "--mechanism", "bogus"]
                      + WORKLOAD_ARGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_parent_dir_is_created(self, tmp_path, capsys):
        # The obs CLI contract: a missing parent directory of an
        # output path is created rather than tracebacking.
        missing = tmp_path / "no-such-dir" / "trace.json"
        rc = obs_main(["timeline", "--trace-out", str(missing)]
                      + WORKLOAD_ARGS)
        assert rc == 0
        assert missing.exists()
        assert json.loads(missing.read_text())["traceEvents"]

    def test_unwritable_trace_out(self, tmp_path, capsys):
        # A parent path that *cannot* be a directory (it is a file)
        # still exits 1 with a one-line diagnostic, no traceback.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = obs_main(["timeline", "--trace-out",
                       str(blocker / "trace.json")] + WORKLOAD_ARGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_export_without_timeline(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"metrics": {"counters": {}}}))
        rc = obs_main(["timeline", "--from-export", str(bare)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no timeline series" in err
