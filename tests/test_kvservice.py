"""Tests for the KV-service workload and its request spans.

Load-bearing guarantees:

* the client generators are deterministic functions of the spec (keys,
  op mix, value sizes, arrivals), with YCSB-style zipfian skew and
  bursty arrival windows actually present in the draws;
* the harness correctness oracle applies unchanged — the final
  structure state matches :func:`expected_final_keys` replayed over
  the recorded outcomes;
* span tracking is *free* in the semantics: makespans, persist-log
  digests and outcomes are bit-identical with spans on or off, and
  the recorded (boundary, event-mark) lanes reproduce the golden
  digests the reference heap loop recorded
  (:mod:`tests.engine_digests`).
"""

import dataclasses

import pytest

from repro.common.params import MachineConfig
from repro.core.simulator import clear_setup_cache, simulate
from repro.obs import Observer
from repro.workloads.kvservice import (
    KVServiceSpec,
    arrival_times,
    key_permutation,
    value_cycles,
    zipf_cdf,
)

MECHANISMS = ("nop", "sb", "bb", "lrp")


def tiny_spec(**overrides):
    base = dict(structure="hashmap", num_threads=4, initial_size=64,
                requests_per_thread=12, seed=1)
    base.update(overrides)
    return KVServiceSpec(**base)


def tiny_config():
    return MachineConfig(num_cores=4)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------

def test_queue_rejected():
    with pytest.raises(ValueError, match="keyed structure"):
        tiny_spec(structure="queue")


@pytest.mark.parametrize("field,value", [
    ("num_threads", 0),
    ("requests_per_thread", 0),
    ("read_ratio", 1.5),
    ("zipf_theta", -0.1),
    ("value_bytes_min", 0),
    ("mean_interarrival", 0),
    ("burst_factor", 0.5),
    ("burst_len", 100),
])
def test_invalid_spec_fields_rejected(field, value):
    with pytest.raises(ValueError):
        tiny_spec(**{field: value})


def test_effective_key_range_defaults_to_twice_size():
    assert tiny_spec(initial_size=64).effective_key_range == 128
    assert tiny_spec(key_range=1000).effective_key_range == 1000
    assert tiny_spec(initial_size=0).effective_key_range == 2


def test_total_requests():
    assert tiny_spec().total_requests == 48


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------

def test_zipf_cdf_monotone_and_skewed():
    cdf = zipf_cdf(1000, 0.99)
    assert len(cdf) == 1000
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] == 1.0
    # YCSB-style skew: the top 10% of ranks draw well over half the
    # probability mass (uniform would give them exactly 10%).
    assert cdf[99] > 0.5


def test_zipf_theta_zero_is_uniform():
    cdf = zipf_cdf(100, 0.0)
    assert cdf[9] == pytest.approx(0.1)


def test_key_permutation_is_a_permutation_and_seeded():
    perm = key_permutation(128, 1)
    assert sorted(perm) == list(range(128))
    assert perm == key_permutation(128, 1)
    assert perm != key_permutation(128, 2)


def test_arrival_times_deterministic_and_per_thread():
    spec = tiny_spec()
    assert arrival_times(spec, 0) == arrival_times(spec, 0)
    assert arrival_times(spec, 0) != arrival_times(spec, 1)
    arrivals = arrival_times(spec, 0)
    assert len(arrivals) == spec.requests_per_thread
    assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))


def test_arrival_bursts_are_faster():
    # With burst_len=16 of every burst_period=64 requests arriving
    # burst_factor x faster, the mean in-burst gap must be well below
    # the out-of-burst mean.
    spec = tiny_spec(requests_per_thread=256, mean_interarrival=400,
                     burst_factor=8.0, burst_period=64, burst_len=16)
    arrivals = arrival_times(spec, 0)
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    in_burst, out_burst = [], []
    for index, gap in enumerate(gaps, start=1):
        (in_burst if index % spec.burst_period < spec.burst_len
         else out_burst).append(gap)
    mean_in = sum(in_burst) / len(in_burst)
    mean_out = sum(out_burst) / len(out_burst)
    assert mean_in * 3 < mean_out


def test_value_cycles_rounds_up_to_lines():
    assert value_cycles(1) == 1
    assert value_cycles(64) == 1
    assert value_cycles(65) == 2
    assert value_cycles(4096) == 64


# ----------------------------------------------------------------------
# End-to-end correctness: the harness oracle still applies
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_final_state_matches_outcomes(mechanism):
    result = simulate(tiny_spec(), mechanism, tiny_config())
    result.verify_final_state()  # raises on mismatch


def test_runs_are_deterministic():
    spec, config = tiny_spec(), tiny_config()
    first = simulate(spec, "lrp", config)
    second = simulate(spec, "lrp", config)
    assert first.makespan == second.makespan
    assert first.outcomes == second.outcomes


# ----------------------------------------------------------------------
# Span tracking: free, bit-identical, engine-invariant
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_spans_do_not_change_the_run(mechanism):
    spec, config = tiny_spec(), tiny_config()
    plain = simulate(spec, mechanism, config)
    observer = Observer(spans=True)
    observed = simulate(spec, mechanism, config, observer=observer)
    assert observed.makespan == plain.makespan
    assert observed.outcomes == plain.outcomes
    assert [r.complete_time for r in observed.nvm.persist_log()] == \
        [r.complete_time for r in plain.nvm.persist_log()]
    # One boundary (and one event mark) per request, per thread.
    assert observer.spans.request_count() == spec.total_requests
    for lane, marks in zip(observer.spans.boundaries,
                           observer.spans.event_marks):
        assert len(lane) == spec.requests_per_thread
        assert len(marks) == spec.requests_per_thread
        assert all(a < b for a, b in zip(lane, lane[1:]))
        assert all(a < b for a, b in zip(marks, marks[1:]))


def test_spans_keep_the_batch_engine_engaged(monkeypatch):
    from repro.core import fastsim

    calls = []
    original = fastsim.run

    def spy(scheduler):
        calls.append(scheduler)
        return original(scheduler)

    monkeypatch.setattr(fastsim, "run", spy)
    clear_setup_cache()
    observer = Observer(spans=True)
    simulate(tiny_spec(), "lrp", tiny_config(), observer=observer)
    assert calls
    assert observer.spans.request_count() == tiny_spec().total_requests


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_span_lanes_identical_across_engines(mechanism):
    """The batch engine records the exact lanes the heap loop did."""
    from tests import engine_digests

    assert (engine_digests.spans_digest(mechanism)
            == engine_digests.golden()[f"spans/{mechanism}"])


def test_span_tracker_roundtrips_through_dict():
    observer = Observer(spans=True)
    simulate(tiny_spec(), "bb", tiny_config(), observer=observer)
    from repro.obs.spans import SpanTracker

    data = observer.spans.to_dict()
    restored = SpanTracker.from_dict(data)
    assert restored.to_dict() == data


def test_provenance_tagging_keeps_boundary_identity():
    """Site tagging must not break the identity compare on boundaries."""
    observer = Observer(spans=True, provenance=True)
    spec = tiny_spec()
    simulate(spec, "lrp", tiny_config(), observer=observer)
    assert observer.spans.request_count() == spec.total_requests
