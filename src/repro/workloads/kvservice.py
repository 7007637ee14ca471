"""KV-server service workload: an open-loop client request generator.

The harness in :mod:`repro.workloads.harness` drives the paper's
fixed-op benchmark loops; this module drives the ROADMAP's
production-shaped story instead — a persistent KV *service* under
skewed, bursty client traffic:

* **GET / PUT / DEL request mix** over the existing log-free
  structures (GET = ``contains``, PUT = ``insert``, DEL = ``delete``),
  so the harness correctness oracle
  (:func:`repro.workloads.harness.expected_final_keys`) applies
  unchanged;
* **zipfian key skew** (cached cumulative table + bisect per draw,
  ranks mapped to keys through a seeded permutation so the hot keys
  are spread over the address space);
* **value-size distribution**: PUTs pay a deterministic serialization
  charge of one compute cycle per line of value payload, so large
  values lengthen the request without perturbing persist traffic;
* **bursty arrivals, deterministically seeded**: the arrival process
  is *virtual* — requests carry arrival timestamps reconstructed by
  :func:`arrival_times` from the spec alone, and the SLO layer
  (:mod:`repro.obs.slo`) replays the measured service times against
  them coordination-omission-free. The simulator itself runs the
  clients closed-loop, which keeps the schedule (and therefore every
  makespan and persist log) bit-identical whether or not anyone is
  measuring.

Every request ends with a one-cycle boundary op carrying
:data:`repro.obs.spans.REQUEST_BOUNDARY` as its site; with spans
enabled the execution loops record its pre-advance clock, from which
the span layer reconstructs dispatch/completion per request.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.rng import make_rng
from repro.common.stats import CoreStats
from repro.core.thread import work
from repro.lfds import LogFreeStructure
from repro.obs.spans import REQUEST_BOUNDARY
from repro.workloads.harness import Outcome, _tagged

#: Cycles of serialization work per line (64 B) of PUT value payload.
SERIALIZE_CYCLES_PER_LINE = 1


@dataclasses.dataclass(frozen=True)
class KVServiceSpec:
    """One KV-service configuration.

    Deliberately attribute-compatible with
    :class:`~repro.workloads.harness.WorkloadSpec` where the setup
    pipeline cares (``structure``, ``num_threads``, ``initial_size``,
    ``seed``, ``effective_key_range``), so structure construction,
    pre-population and the setup-prototype cache work unchanged;
    :func:`repro.core.simulator.simulate` only dispatches on the spec
    type to pick the worker builder.
    """

    structure: str = "hashmap"
    num_threads: int = 8
    initial_size: int = 1024
    requests_per_thread: int = 64
    #: Fraction of requests that are GETs; the remainder splits 1:1
    #: into PUTs and DELs, keeping the store near its initial size.
    read_ratio: float = 0.9
    #: Zipfian skew exponent (0 = uniform; ~0.99 = YCSB-style skew).
    zipf_theta: float = 0.99
    key_range: Optional[int] = None  # default: 2 * initial_size
    #: PUT value payload bounds (bytes); sizes are drawn log-uniformly.
    value_bytes_min: int = 64
    value_bytes_max: int = 4096
    #: Virtual arrival process: mean inter-arrival gap per client
    #: (cycles), with bursts of ``burst_len`` requests every
    #: ``burst_period`` requests arriving ``burst_factor``x faster.
    mean_interarrival: int = 400
    burst_factor: float = 8.0
    burst_period: int = 64
    burst_len: int = 16
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError("need at least one client")
        if self.requests_per_thread < 1:
            raise ValueError("need at least one request per client")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if self.zipf_theta < 0.0:
            raise ValueError("zipf_theta must be non-negative")
        if self.structure == "queue":
            raise ValueError("KV service needs a keyed structure; "
                             "'queue' has no GET/DEL-by-key")
        if self.initial_size < 0:
            raise ValueError("initial_size must be non-negative")
        if not 0 < self.value_bytes_min <= self.value_bytes_max:
            raise ValueError("need 0 < value_bytes_min <= value_bytes_max")
        if self.mean_interarrival < 1:
            raise ValueError("mean_interarrival must be >= 1 cycle")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1 (a burst "
                             "shortens gaps)")
        if not 0 <= self.burst_len <= self.burst_period:
            raise ValueError("need 0 <= burst_len <= burst_period")

    @property
    def effective_key_range(self) -> int:
        if self.key_range is not None:
            return self.key_range
        return max(2 * self.initial_size, 2)

    @property
    def total_requests(self) -> int:
        return self.num_threads * self.requests_per_thread


# ----------------------------------------------------------------------
# Zipfian key popularity
# ----------------------------------------------------------------------

_ZIPF_CACHE: Dict[Tuple[int, float], List[float]] = {}
_PERM_CACHE: Dict[Tuple[int, int], List[int]] = {}
_CACHE_MAX = 8


def zipf_cdf(key_range: int, theta: float) -> List[float]:
    """Cumulative popularity of ranks 0..key_range-1 (cached)."""
    cache_key = (key_range, round(theta, 9))
    table = _ZIPF_CACHE.get(cache_key)
    if table is None:
        weights = [1.0 / (rank + 1) ** theta for rank in range(key_range)]
        total = sum(weights)
        table = []
        acc = 0.0
        for weight in weights:
            acc += weight
            table.append(acc / total)
        table[-1] = 1.0  # guard against float undershoot
        if len(_ZIPF_CACHE) >= _CACHE_MAX:
            _ZIPF_CACHE.clear()
        _ZIPF_CACHE[cache_key] = table
    return table


def key_permutation(key_range: int, seed: int) -> List[int]:
    """Rank -> key map: a seeded shuffle, so the popular ranks land on
    keys spread across the whole range (and across hash buckets)
    instead of clustering at 0 (cached)."""
    cache_key = (key_range, seed)
    perm = _PERM_CACHE.get(cache_key)
    if perm is None:
        perm = list(range(key_range))
        make_rng(seed, "kvperm").shuffle(perm)
        if len(_PERM_CACHE) >= _CACHE_MAX:
            _PERM_CACHE.clear()
        _PERM_CACHE[cache_key] = perm
    return perm


# ----------------------------------------------------------------------
# The virtual open-loop arrival process
# ----------------------------------------------------------------------

def arrival_times(spec: KVServiceSpec, thread_id: int) -> List[int]:
    """Deterministic request arrival cycles for one client thread.

    Exponential inter-arrival gaps with mean ``mean_interarrival``;
    the first ``burst_len`` requests of every ``burst_period``-request
    window arrive ``burst_factor``x faster — a mid-burst crash of the
    SLO report's campaign lands inside one of these. Derived purely from
    the spec: the simulator never reads these timestamps, the SLO
    layer replays measured service times against them.
    """
    rng = make_rng(spec.seed, "kvarrival", thread_id)
    arrivals: List[int] = []
    now = 0.0
    for index in range(spec.requests_per_thread):
        mean = float(spec.mean_interarrival)
        if index % spec.burst_period < spec.burst_len:
            mean /= spec.burst_factor
        now += rng.expovariate(1.0 / mean)
        arrivals.append(int(now))
    return arrivals


# ----------------------------------------------------------------------
# Client workers
# ----------------------------------------------------------------------

def value_cycles(value_bytes: int) -> int:
    """Serialization charge for a PUT payload (cycles)."""
    lines = (value_bytes + 63) // 64
    return lines * SERIALIZE_CYCLES_PER_LINE


def build_workers(spec: KVServiceSpec, structure: LogFreeStructure,
                  outcomes: List[List[Outcome]],
                  stats: List[CoreStats],
                  tag_sites: bool = False) -> List[Callable]:
    """Client coroutine factories, one per hardware thread."""

    def make_factory(worker_index: int) -> Callable:
        def factory(thread_id: int):
            return _client(spec, structure, thread_id,
                           outcomes[worker_index], stats, tag_sites)
        return factory

    return [make_factory(i) for i in range(spec.num_threads)]


def _client(spec: KVServiceSpec, structure: LogFreeStructure,
            thread_id: int, results: List[Outcome],
            stats: List[CoreStats], tag_sites: bool = False):
    """One client: requests_per_thread GET/PUT/DEL requests.

    Outcomes use the harness vocabulary (``contains``/``insert``/
    ``delete``) so :func:`expected_final_keys` verifies final state
    unchanged. Every request ends with the REQUEST_BOUNDARY work op —
    yielded directly (never through ``_tagged``) so the site marker
    keeps its identity even with provenance tagging on.
    """
    rng = make_rng(spec.seed, "kvclient", thread_id)
    cdf = zipf_cdf(spec.effective_key_range, spec.zipf_theta)
    perm = key_permutation(spec.effective_key_range, spec.seed)
    lfd = spec.structure
    structure.use_arena(thread_id)
    for req_index in range(spec.requests_per_thread):
        rank = bisect.bisect_left(cdf, rng.random())
        key = perm[rank]
        roll = rng.random()
        if roll < spec.read_ratio:
            gen = structure.contains(key)
            if tag_sites:
                gen = _tagged(gen, f"{lfd}.contains")
            found = yield from gen
            results.append(("contains", key, found))
        elif rng.random() < 0.5:
            # PUT: insert, then serialize the value payload. Sizes are
            # log-uniform over the configured bounds — a heavy-ish
            # tail without unbounded draws.
            value_bytes = int(math.exp(rng.uniform(
                math.log(spec.value_bytes_min),
                math.log(spec.value_bytes_max))))
            value = thread_id * 1_000_000 + req_index + 1
            gen = structure.insert(key, value, tid=thread_id)
            if tag_sites:
                gen = _tagged(gen, f"{lfd}.insert")
            ok = yield from gen
            results.append(("insert", key, ok))
            yield work(value_cycles(value_bytes),
                       site=f"{lfd}.put.serialize" if tag_sites else None)
        else:
            gen = structure.delete(key)
            if tag_sites:
                gen = _tagged(gen, f"{lfd}.delete")
            ok = yield from gen
            results.append(("delete", key, ok))
        stats[thread_id].ops_completed += 1
        # Request boundary: always the request's final op, so its
        # pre-advance clock is the request completion cycle.
        yield work(1, site=REQUEST_BOUNDARY)
