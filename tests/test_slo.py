"""Tests for the request-level SLO layer (repro.obs.slo).

Every percentile is the nearest-rank one of the stored records, the
durable frontier must implement the store-event semantics (suffix-min
per word, prefix-max across words), and the reconstructed records must
replay the open-loop arrival process coordination-omission free. The
lrp/bb/sb payloads of the 16-client KV cell are simulated cycles and
counts, pinned exactly in ``tests/data/kv_slo.json``.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.params import MachineConfig
from repro.core.simulator import simulate
from repro.obs import Observer
from repro.obs.slo import (
    SLO_QUANTILES,
    SPARK_BLOCKS,
    RequestRecord,
    build_records,
    chrome_request_events,
    completion_series,
    durable_at,
    durable_frontier,
    exact_quantile,
    latency_p99_series,
    recovery_summary,
    service_report,
    slo_summary,
    sparkline,
    write_slo_csv,
)
from repro.workloads.kvservice import KVServiceSpec, arrival_times

MECHANISMS = ("sb", "bb", "lrp")
ALL_MECHANISMS = ("nop", "sb", "bb", "arp", "dpo", "hops", "lrp")
ROOT = Path(__file__).resolve().parent.parent


def tiny_spec():
    return KVServiceSpec(structure="hashmap", num_threads=4,
                         initial_size=64, requests_per_thread=12,
                         seed=1)


def tiny_config():
    return MachineConfig(num_cores=4)


def observed_run(mechanism="lrp", spec=None):
    spec = spec or tiny_spec()
    observer = Observer(spans=True)
    result = simulate(spec, mechanism, tiny_config(), observer=observer)
    return result, observer


# ----------------------------------------------------------------------
# Exact percentiles
# ----------------------------------------------------------------------

def test_exact_quantile_edge_cases():
    assert exact_quantile([], 0.99) == 0
    with pytest.raises(ValueError):
        exact_quantile([], 1.5)
    assert exact_quantile([42], 0.0) == 42
    assert exact_quantile([42], 1.0) == 42
    empty = slo_summary([], makespan=0)
    assert empty["latency"]["p99"] == 0
    assert empty["latency"]["mean"] == 0.0
    assert empty["latency"]["max"] == 0


# ----------------------------------------------------------------------
# Durable frontier semantics (synthetic persist logs)
# ----------------------------------------------------------------------

class FakeRecord:
    def __init__(self, words, complete_time):
        self.words = tuple(words)
        self.complete_time = complete_time


def test_frontier_empty_log():
    event_ids, frontier = durable_frontier(())
    assert event_ids == [] and frontier == []
    assert durable_at(event_ids, frontier, 100, 5) == 100


def test_frontier_single_store():
    # Store event 3 at addr 8, persisted at cycle 50.
    log = [FakeRecord([(8, (1, 3))], 50)]
    event_ids, frontier = durable_frontier(log)
    assert (event_ids, frontier) == ([3], [50])
    # A request whose frontier is past the store waits for the drain;
    # one below it does not.
    assert durable_at(event_ids, frontier, 10, 4) == 50
    assert durable_at(event_ids, frontier, 10, 3) == 10
    assert durable_at(event_ids, frontier, 60, 4) == 60


def test_frontier_superseding_store_coalesces():
    # Same word persisted twice: the younger store (event 7, drains at
    # 40) supersedes the older (event 2, drains at 90) — a request
    # above event 2 only is durable once *some* persist at least as
    # young has drained, which is min(90, 40) = 40.
    log = [FakeRecord([(8, (1, 2))], 90), FakeRecord([(8, (2, 7))], 40)]
    event_ids, frontier = durable_frontier(log)
    assert event_ids == [2, 7]
    assert durable_at(event_ids, frontier, 0, 3) == 40
    # Above both stores: the global frontier is the prefix max.
    assert durable_at(event_ids, frontier, 0, 8) == 40


def test_frontier_across_words_is_prefix_max():
    # Word A's store (event 1) drains late, word B's (event 5) early:
    # a request above both waits for the slower word.
    log = [FakeRecord([(8, (1, 1))], 200), FakeRecord([(16, (1, 5))], 30)]
    event_ids, frontier = durable_frontier(log)
    assert event_ids == [1, 5]
    assert frontier == [200, 200]
    assert durable_at(event_ids, frontier, 10, 2) == 200
    assert durable_at(event_ids, frontier, 10, 6) == 200


# ----------------------------------------------------------------------
# Record reconstruction
# ----------------------------------------------------------------------

def test_build_records_requires_spans():
    from repro.obs.spans import SpanTracker

    spec = tiny_spec()
    with pytest.raises(ValueError, match="spans enabled"):
        empty = SpanTracker()
        empty.lanes(spec.num_threads)
        build_records(spec, tiny_config(), empty)


def test_records_replay_the_arrival_process():
    result, observer = observed_run("lrp")
    spec = result.spec
    records = build_records(spec, result.config, observer.spans,
                            persist_log=result.nvm.persist_log())
    assert len(records) == spec.total_requests
    per_thread = {}
    for record in records:
        per_thread.setdefault(record.thread_id, []).append(record)
    for thread_id, lane in per_thread.items():
        arrivals = arrival_times(spec, thread_id)
        vfinish = 0
        for index, record in enumerate(lane):
            assert record.index == index
            assert record.arrival == arrivals[index]
            # Open-loop queueing: vstart is the later of arrival and
            # the previous virtual finish; latency covers the queue.
            assert record.vstart == max(record.arrival, vfinish)
            vfinish = record.vstart + record.service
            assert record.service >= 0
            assert record.latency >= record.service
            assert record.durable >= record.completion
            assert record.durable_latency == \
                record.latency + record.durable_lag


def test_lrp_lags_eager_mechanisms_on_durability():
    """The paper's trade, in SLO terms: LRP trades durability lag for
    response latency; BB persists near the critical path so its lag
    stays small."""
    spec = KVServiceSpec(structure="hashmap", num_threads=8,
                         initial_size=128, requests_per_thread=32,
                         seed=1)
    lags = {}
    for mechanism in ("bb", "lrp"):
        observer = Observer(spans=True)
        result = simulate(spec, mechanism, MachineConfig(num_cores=8),
                          observer=observer)
        records = build_records(spec, result.config, observer.spans,
                                persist_log=result.nvm.persist_log())
        all_lags = [r.durable_lag for r in records]
        lags[mechanism] = (max(all_lags),
                           sum(all_lags) / len(all_lags))
    assert lags["lrp"][0] > lags["bb"][0]      # worst-case lag
    assert lags["lrp"][1] > 5 * lags["bb"][1]  # mean lag, decisively


# ----------------------------------------------------------------------
# Summaries, series, exports
# ----------------------------------------------------------------------

def test_slo_summary_quantiles_match_oracle():
    result, observer = observed_run("bb")
    records = build_records(result.spec, result.config, observer.spans,
                            persist_log=result.nvm.persist_log())
    summary = slo_summary(records, result.makespan)
    latencies = [r.latency for r in records]
    assert summary["requests"] == len(records)
    assert summary["latency"]["p99"] == exact_quantile(latencies, 0.99)
    assert summary["latency"]["max"] == max(latencies)
    assert summary["durable_latency"]["p999"] == exact_quantile(
        [r.durable_latency for r in records], 0.999)


def test_service_report_with_recovery():
    result, observer = observed_run("lrp")
    payload = service_report(result, observer.spans, num_crash_points=4)
    assert payload["requests"] == result.spec.total_requests
    recovery = payload["recovery"]
    assert recovery["attempts"] == 4
    # LRP is release-persistent: null recovery always succeeds.
    assert recovery["recovered"] == 4
    assert set(recovery) == {"attempts", "recovered", "recovered_fraction",
                             "lost_requests"}


def test_recovery_summary_without_spans():
    result = simulate(tiny_spec(), "bb", tiny_config())
    summary = recovery_summary(result, num_points=4)
    assert summary["attempts"] == 4
    assert "lost_requests" not in summary


def test_completion_and_p99_series():
    result, observer = observed_run("sb")
    records = build_records(result.spec, result.config, observer.spans,
                            persist_log=result.nvm.persist_log())
    series = completion_series(records, 500)
    assert sum(series) == len(records)
    p99s = latency_p99_series(records, 500)
    assert len(p99s) == len(series)
    # No window holds 100 requests, so each nearest-rank p99 is the
    # window's largest latency.
    assert series and max(series) < 100
    assert p99s == [max((r.latency for r in records
                         if r.completion // 500 == window), default=0)
                    for window in range(len(series))]
    with pytest.raises(ValueError):
        completion_series(records, 0)


def test_sparkline_downsamples_by_max():
    values = [0] * 100
    values[50] = 9  # a one-window spike must survive downsampling
    line = sparkline(values, width=10)
    assert len(line) == 10
    assert line.count("█") == 1


def test_sparkline_flat_when_all_zero():
    assert sparkline([0, 0, 0]) == "▁▁▁"
    assert sparkline([]) == ""


def test_sparkline_empty_and_all_zero_windows():
    """A gap of empty windows renders as the flat baseline glyph, an
    empty series as the empty string — never an exception."""
    assert sparkline([]) == ""
    assert sparkline([0, 0, 0, 0]) == SPARK_BLOCKS[0] * 4
    # Zero windows inside a live series stay at the baseline.
    line = sparkline([0, 8, 0, 8, 0])
    assert line[0] == line[2] == line[4] == SPARK_BLOCKS[0]
    assert line[1] == line[3] != SPARK_BLOCKS[0]


def test_csv_and_chrome_exports():
    result, observer = observed_run("lrp")
    records = build_records(result.spec, result.config, observer.spans,
                            persist_log=result.nvm.persist_log())
    handle = io.StringIO()
    rows = write_slo_csv(records, handle)
    assert rows == len(records)
    lines = handle.getvalue().strip().splitlines()
    assert lines[0].startswith("thread,")
    assert len(lines) == len(records) + 1

    events = chrome_request_events(records)
    spans = [e for e in events if e.get("ph") == "X"]
    assert len(spans) == len(records)
    for event in spans:
        assert event["pid"] == 6
        assert event["dur"] >= 1
    # Monotone per track, as Chrome requires.
    by_tid = {}
    for event in spans:
        by_tid.setdefault(event["tid"], []).append(event["ts"])
    for stamps in by_tid.values():
        assert stamps == sorted(stamps)
    json.dumps(events)  # must be plain-JSON serializable


# ----------------------------------------------------------------------
# The figure entry point
# ----------------------------------------------------------------------

def test_run_figure_kv_quick():
    from repro.bench.figures import run_figure_kv
    from repro.exp.runner import ExperimentRunner

    result = run_figure_kv(scale="quick", crash_points=4,
                           runner=ExperimentRunner(jobs=1))
    assert result.mechanisms == ["sb", "bb", "lrp"]
    for mech in result.mechanisms:
        payload = result.payloads[mech]
        assert payload["requests"] > 0
        assert payload["latency"]["p99"] >= payload["latency"]["p50"]
        assert payload["recovery"]["recovered_fraction"] == 1.0
    rendered = result.render()
    assert "LRP" in rendered and "durable p99" in rendered


def test_kv_slo_payloads_are_pinned(tmp_path):
    """``repro.obs slo`` on the 16-client x 192-request cell reproduces
    the committed lrp/bb/sb payloads exactly: makespans, latency and
    durable-latency percentiles, throughput and crash losses."""
    out = tmp_path / "slo.json"
    subprocess.run(
        [sys.executable, "-m", "repro.obs", "slo", "--threads", "16",
         "--size", "1024", "--requests", "192", "--json-out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=str(tmp_path), check=True, stdout=subprocess.DEVNULL,
        timeout=300)
    payloads = json.loads(out.read_text())["mechanisms"]
    pinned = json.loads((ROOT / "tests" / "data" / "kv_slo.json")
                        .read_text())
    assert sorted(payloads) == sorted(pinned) == ["bb", "lrp", "sb"]
    for mechanism in pinned:
        assert payloads[mechanism] == pinned[mechanism], mechanism
