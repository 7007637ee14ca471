"""Tests for the repro.obs observability subsystem.

The load-bearing guarantees:

* attaching an :class:`Observer` never changes simulation results —
  with hooks disabled (the default) the :class:`RunSummary` is
  byte-identical, and with hooks enabled everything except the ``obs``
  payload still is;
* the Chrome trace export round-trips through ``json`` and timestamps
  are monotone per track;
* the critical-path attribution reconciles exactly with
  ``RunStats.persist_stall_cycles`` and its segments sum to the
  makespan;
* ``python -m repro.obs overhead`` fails when telemetry costs more
  than 15% or moves a makespan (checked on a fake clock).
"""

import dataclasses
import json
import pickle
from types import SimpleNamespace

import pytest

from repro.common.params import MachineConfig
from repro.core.simulator import simulate
from repro.exp.runner import Job, execute_job
from repro.obs import Histogram, MetricsRegistry, Observer, merged_registries
from repro.obs.metrics import top_counters
from repro.obs.report import (
    attribute_run,
    attribute_summary,
    render_attribution,
    render_summaries,
)
from repro.obs.trace import TraceCollector, dump_summary_traces, \
    write_chrome_trace
from repro.workloads.harness import WorkloadSpec

MECHANISMS = ("nop", "sb", "bb", "lrp")


def tiny_spec():
    return WorkloadSpec(structure="hashmap", num_threads=4,
                        initial_size=64, ops_per_thread=12, seed=1)


def tiny_config():
    return MachineConfig(num_cores=4)


@pytest.fixture(scope="module")
def runs():
    """(plain result, observed result, observer) per mechanism."""
    spec, config = tiny_spec(), tiny_config()
    out = {}
    for mech in MECHANISMS:
        plain = simulate(spec, mech, config)
        observer = Observer(trace=True)
        observed = simulate(spec, mech, config, observer=observer)
        out[mech] = (plain, observed, observer)
    return out


# ----------------------------------------------------------------------
# Non-perturbation
# ----------------------------------------------------------------------

class TestNonPerturbation:
    def test_disabled_summary_is_byte_identical(self):
        """Default jobs (no obs) pickle to the exact same bytes."""
        job = Job(spec=tiny_spec(), mechanism="lrp", config=tiny_config())
        a, b = execute_job(job), execute_job(job)
        assert a.obs is None
        assert pickle.dumps(a) == pickle.dumps(b)

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_observer_never_changes_results(self, runs, mech):
        plain, observed, _ = runs[mech]
        assert plain.makespan == observed.makespan
        assert plain.stats.summary() == observed.stats.summary()
        assert plain.stats.stall_breakdown() == \
            observed.stats.stall_breakdown()
        assert len(plain.nvm.persist_log()) == \
            len(observed.nvm.persist_log())

    def test_obs_off_leaves_summary_bare(self):
        summary = execute_job(Job(spec=tiny_spec(), mechanism="lrp",
                                  config=tiny_config()))
        assert summary.obs is None

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_summary_carries_the_observer_export(self, mech):
        """A runner job ships exactly the metrics and provenance an
        in-process Observer records for the same run."""
        observer = Observer(provenance=True)
        simulate(tiny_spec(), mech, tiny_config(), observer=observer)
        summary = execute_job(Job(spec=tiny_spec(), mechanism=mech,
                                  config=tiny_config(), collect_obs=True,
                                  collect_provenance=True))
        assert summary.obs == observer.export()

    def test_obs_summary_identical_except_payload(self):
        job = Job(spec=tiny_spec(), mechanism="lrp", config=tiny_config())
        plain = execute_job(job)
        carried = execute_job(dataclasses.replace(job, collect_obs=True))
        assert carried.obs is not None
        stripped = dataclasses.replace(carried, obs=None)
        assert pickle.dumps(stripped) == pickle.dumps(plain)


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------

def _data_events(events):
    return [e for e in events if e.get("ph") != "M"]


class TestTraceExport:
    def test_round_trips_through_json(self, runs, tmp_path):
        _, _, observer = runs["lrp"]
        path = tmp_path / "trace.json"
        events = observer.trace.chrome_events()
        write_chrome_trace(events, str(path))
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["traceEvents"] == events
        assert document["displayTimeUnit"] == "ms"

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_timestamps_monotone_per_track(self, runs, mech):
        _, _, observer = runs[mech]
        last = {}
        for event in _data_events(observer.trace.chrome_events()):
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, 0), event
            assert event.get("dur", 0) >= 0, event
            last[track] = event["ts"]

    def test_metadata_precedes_data_and_names_tracks(self, runs):
        _, _, observer = runs["lrp"]
        events = observer.trace.chrome_events()
        kinds = [e["ph"] for e in events]
        first_data = kinds.index("X") if "X" in kinds else len(kinds)
        assert all(k == "M" for k in kinds[:first_data])
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "core0" in names
        assert "cores" in names  # process group label

    def test_spans_use_microsecond_cycles(self):
        collector = TraceCollector()
        collector.span("core0", "WORK", ts=10, dur=5)
        collector.instant("core0", "evict", ts=12)
        data = _data_events(collector.chrome_events())
        assert data[0]["ts"] == 10 and data[0]["dur"] == 5
        assert data[1]["ph"] == "i" and data[1]["ts"] == 12

    def test_dump_summary_traces_skips_traceless(self, tmp_path):
        job = Job(spec=tiny_spec(), mechanism="bb", config=tiny_config())
        no_trace = execute_job(dataclasses.replace(job, collect_obs=True))
        with_trace = execute_job(
            dataclasses.replace(job, collect_obs=True, collect_trace=True))
        written = dump_summary_traces([no_trace, with_trace],
                                      str(tmp_path))
        assert len(written) == 1
        assert "hashmap-bb-t4" in written[0]
        with open(written[0], encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestHistogram:
    def test_power_of_two_buckets(self):
        hist = Histogram()
        for value, bucket in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2),
                              (5, 3), (8, 3), (9, 4), (-3, 0)):
            before = hist.buckets.get(bucket, 0)
            hist.observe(value)
            assert hist.buckets[bucket] == before + 1, (value, bucket)

    def test_stats_and_mean(self):
        hist = Histogram()
        for value in (2, 4, 6):
            hist.observe(value)
        assert (hist.count, hist.total, hist.min, hist.max) == (3, 12, 2, 6)
        assert hist.mean == 4.0
        assert Histogram().mean == 0.0

    def test_dict_round_trip_and_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(3)
        b.observe(100)
        restored = Histogram.from_dict(
            json.loads(json.dumps(a.to_dict())))
        restored.merge(b)
        assert restored.count == 2
        assert (restored.min, restored.max) == (3, 100)

    def test_negative_values_counted_as_clamped(self):
        hist = Histogram()
        hist.observe(-3)
        hist.observe(-1)
        hist.observe(0)       # non-negative: lands in bucket 0 unclamped
        hist.observe(5)
        assert hist.clamped == 2
        assert hist.buckets[0] == 3
        assert hist.min == -3  # the exact stats keep the true value

    def test_clamped_serializes_and_merges(self):
        a, b = Histogram(), Histogram()
        a.observe(-2)
        b.observe(-7)
        b.observe(4)
        restored = Histogram.from_dict(
            json.loads(json.dumps(a.to_dict())))
        assert restored.clamped == 1
        restored.merge(b)
        assert restored.clamped == 2

    def test_clamped_defaults_for_old_exports(self):
        legacy = {"count": 1, "sum": 3, "min": 3, "max": 3,
                  "buckets": {"2": 1}}
        assert Histogram.from_dict(legacy).clamped == 0


class TestHistogramQuantile:
    def test_extremes_are_exact(self):
        hist = Histogram()
        for value in (3, 17, 90):
            hist.observe(value)
        assert hist.quantile(0.0) == 3.0
        assert hist.quantile(1.0) == 90.0

    def test_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_out_of_range_q_raises(self):
        hist = Histogram()
        hist.observe(1)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_single_value_all_quantiles_collapse(self):
        hist = Histogram()
        hist.observe(42)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 42.0

    def test_median_lands_in_correct_bucket(self):
        hist = Histogram()
        # 10 small values and 10 large ones: the median rank (10) is
        # the last of the small bucket, p75 lands among the large.
        for _ in range(10):
            hist.observe(4)       # bucket 2: (2, 4]
        for _ in range(10):
            hist.observe(1000)    # bucket 10: (512, 1024]
        assert 2.0 < hist.quantile(0.5) <= 4.0
        assert 512.0 < hist.quantile(0.75) <= 1000.0

    def test_interpolation_clamped_to_observed_range(self):
        # One bucket spans (512, 1024] but the only values are 600:
        # interpolated quantiles must stay at the observed bounds.
        hist = Histogram()
        for _ in range(5):
            hist.observe(600)
        assert hist.quantile(0.5) == 600.0
        assert hist.quantile(0.99) == 600.0

    def test_quantiles_are_monotone(self):
        hist = Histogram()
        for value in (1, 2, 5, 9, 30, 70, 200, 900, 4000, 4001):
            hist.observe(value)
        quantiles = [hist.quantile(q / 100) for q in range(0, 101, 5)]
        assert quantiles == sorted(quantiles)
        assert quantiles[0] == 1.0
        assert quantiles[-1] == 4001.0

    def test_clamped_negatives_anchor_bucket_zero(self):
        # `clamped`-aware: negatives are stored in bucket 0 but the
        # interpolation floor is the true (negative) minimum.
        hist = Histogram()
        hist.observe(-8)
        hist.observe(-8)
        hist.observe(0)
        hist.observe(64)
        assert hist.quantile(0.0) == -8.0
        assert -8.0 <= hist.quantile(0.25) <= 0.0
        assert hist.quantile(1.0) == 64.0

    def test_matches_exact_on_power_of_two_data(self):
        # Values that sit exactly on bucket upper bounds reproduce the
        # exact nearest-rank answer.
        hist = Histogram()
        values = [2 ** k for k in range(1, 9)]  # 2..256, one per bucket
        for value in values:
            hist.observe(value)
        assert hist.quantile(0.5) == 16.0   # rank 4 of 8
        assert hist.quantile(1.0) == 256.0


class TestRegistry:
    def test_count_observe_and_prefix_scan(self):
        reg = MetricsRegistry()
        reg.count("stall.barrier", 10)
        reg.count("stall.barrier", 5)
        reg.count("persist.lines")
        reg.observe("persist.latency", 60)
        assert reg.counter("stall.barrier") == 15
        assert reg.counter("missing") == 0
        assert reg.counters_with_prefix("stall.") == {"stall.barrier": 15}
        assert reg.histograms["persist.latency"].count == 1

    def test_merged_registries(self):
        regs = []
        for value in (1, 2):
            reg = MetricsRegistry()
            reg.count("noc.msgs", value)
            reg.observe("l1.set_occupancy", value)
            regs.append(reg.to_dict())
        merged = merged_registries(regs)
        assert merged.counter("noc.msgs") == 3
        assert merged.histograms["l1.set_occupancy"].count == 2

    def test_top_counters(self):
        reg = MetricsRegistry()
        reg.count("coh.evictions", 7)
        reg.count("coh.invalidations", 9)
        reg.count("other", 100)
        assert top_counters(reg, "coh.") == [
            "coh.invalidations=9", "coh.evictions=7"]


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

class TestAttribution:
    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_reconciles_with_run_stats(self, runs, mech):
        _, observed, observer = runs[mech]
        attribution = attribute_run(observed.stats,
                                    observer.metrics.counters)
        assert (attribution.persist_stall_total
                == observed.stats.persist_stall_cycles)

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_segments_sum_to_makespan(self, runs, mech):
        _, observed, observer = runs[mech]
        attribution = attribute_run(observed.stats,
                                    observer.metrics.counters)
        critical = attribution.critical_core
        assert critical.total == observed.makespan == attribution.makespan
        assert (critical.compute + critical.coherence
                + critical.persist_stall) == critical.total
        assert all(core.coherence >= 0 for core in attribution.cores)

    def test_summary_attribution_and_render(self):
        job = Job(spec=tiny_spec(), mechanism="sb", config=tiny_config(),
                  collect_obs=True)
        summary = execute_job(job)
        attribution = attribute_summary(summary)
        assert (attribution.persist_stall_total
                == summary.stats.persist_stall_cycles)
        report = render_summaries([summary], title="Tiny SB run")
        assert "Tiny SB run" in report
        assert "hashmap" in report and "sb" in report

    def test_attribute_summary_requires_obs(self):
        job = Job(spec=tiny_spec(), mechanism="nop", config=tiny_config())
        with pytest.raises(ValueError, match="no\\s+obs data"):
            attribute_summary(execute_job(job))

    def test_render_handles_empty(self):
        report = render_attribution([], title="empty")
        assert "empty" in report


# ----------------------------------------------------------------------
# The telemetry overhead gate
# ----------------------------------------------------------------------

class TestOverheadGate:
    """Exit status of ``python -m repro.obs overhead``. Every fake run
    advances a fake clock by a fixed cost, so no host timing enters."""

    def gate(self, monkeypatch, observed_cost, observed_makespan):
        from repro.obs import __main__ as obs_cli

        clock = [0.0]

        def fake_simulate(spec, mechanism, config, observer=None):
            observed = observer is not None
            clock[0] += observed_cost if observed else 1.0
            return SimpleNamespace(
                makespan=observed_makespan if observed else 100)

        monkeypatch.setattr(obs_cli, "simulate", fake_simulate)
        monkeypatch.setattr(obs_cli, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        return obs_cli.main(["overhead", "--rounds", "3"])

    def test_passes_within_the_limit(self, monkeypatch, capsys):
        assert self.gate(monkeypatch, 1.10, 100) == 0
        out = capsys.readouterr().out
        assert out.count("+10.0%") == 2 and "PASSED" in out

    def test_fails_above_the_limit(self, monkeypatch, capsys):
        assert self.gate(monkeypatch, 1.20, 100) == 1
        assert capsys.readouterr().err.count("exceeds 15%") == 2

    def test_fails_when_telemetry_moves_a_makespan(self, monkeypatch,
                                                    capsys):
        assert self.gate(monkeypatch, 1.0, 101) == 1
        assert capsys.readouterr().err.count("changed the makespan") == 2
