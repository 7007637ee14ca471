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
from repro.obs import Observer
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
# Counters
# ----------------------------------------------------------------------

class TestCounters:
    def test_count_accumulates(self):
        observer = Observer()
        observer.count("stall.barrier", 10)
        observer.count("stall.barrier", 5)
        observer.count("persist.lines")
        assert observer.counters == {"stall.barrier": 15,
                                     "persist.lines": 1}
        assert observer.export() == {"metrics": {"counters": {
            "persist.lines": 1, "stall.barrier": 15}}}


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

class TestAttribution:
    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_reconciles_with_run_stats(self, runs, mech):
        _, observed, observer = runs[mech]
        attribution = attribute_run(observed.stats,
                                    observer.counters)
        assert (attribution.persist_stall_total
                == observed.stats.persist_stall_cycles)

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_segments_sum_to_makespan(self, runs, mech):
        _, observed, observer = runs[mech]
        attribution = attribute_run(observed.stats,
                                    observer.counters)
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
