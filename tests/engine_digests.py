"""Golden digests of everything the scheduler loop can be seen to do.

Figures 5-8 depend on which writebacks land on the critical path under
one smallest-clock-first interleaving, so the loop that computes that
interleaving is pinned here by sha256 digest, case by case:

* ``run/<structure>/<mechanism>/<record|norecord>`` and
  ``seed/<n>`` — makespan, executed ops, per-core stats, the persist
  log, the final memory image, the outcomes and (with trace recording
  on) every recorded memory event;
* ``export/...`` — the same run fingerprint plus
  ``Observer.export()`` (JSON, ``sort_keys``) of a metrics observer,
  whose metrics are counters;
* ``observed/...`` — trace and/or provenance collectors, whose export
  carries the Chrome trace events and the provenance chains;
* ``nudged/...`` — the fuzzer's schedule nudges: none, a rank that
  wraps modulo the runnable count, a nudge whose pick finishes its
  thread, and a mixed set;
* ``spans/<mechanism>`` — the KV service's request-span lanes.

The committed digests (``tests/data/engine_digests.json``) were
recorded with the per-op heap and min-scan scheduler loops that
preceded the single batch loop; wherever the batch loop could also
run a case, it produced the same digests. The ``export/`` digests
were recorded again once the cycle-windowed timeline was retired, and
every digest that carries an export (``export/``, ``observed/`` and
``nudged-observed/``) once the metrics histograms were: each earlier
export, with its timeline series, counter tracks and histograms
removed, is byte for byte the one pinned now.

Regenerate (only when an execution is meant to change) with::

    PYTHONPATH=src python -m tests.engine_digests
"""

import dataclasses
import hashlib
import json
from functools import partial
from pathlib import Path

from repro.common.params import MachineConfig
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds import WORKLOAD_NAMES
from repro.obs import Observer
from repro.workloads.harness import WorkloadSpec
from repro.workloads.kvservice import KVServiceSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "engine_digests.json"

ALL_MECHANISMS = ("nop", "sb", "bb", "arp", "dpo", "hops", "lrp")

#: Tiny but adversarial: 2-way 1KB L1s force constant misses,
#: evictions, upgrades and cross-core downgrades.
SMALL_CONFIG = dict(l1_size_bytes=1024, l1_assoc=2,
                    num_memory_controllers=2, compute_cycles_per_op=2)

#: Observer modes of the ``observed/`` cases.
OBSERVED_MODES = {
    "trace": dict(trace=True),
    "provenance": dict(provenance=True),
    "trace+provenance": dict(trace=True, provenance=True),
}

#: Schedule nudges (decision index -> rank) of the ``nudged/`` cases.
#: ``finishing`` nudges every decision to rank 1, so threads are
#: picked past their last op while others remain runnable: such a pick
#: executes no op, and the same decision index is taken again among
#: the remaining threads.
NUDGES = {
    "empty": {},
    "wrap": {0: 7, 4: 5, 11: 6},
    "finishing": {index: 1 for index in range(2000)},
    "mixed": {0: 3, 5: 1, 9: 2},
}

#: (structure, mechanism) cells of the ``nudged/`` cases: every
#: structure once, weak and RP-enforcing mechanisms both.
NUDGED_CELLS = (("queue", "lrp"), ("hashmap", "arp"),
                ("linkedlist", "nop"), ("bstree", "bb"),
                ("skiplist", "sb"))

KV_MECHANISMS = ("nop", "sb", "bb", "lrp")


def fingerprint(result, record) -> str:
    """Everything observable about a run, hashed."""
    h = hashlib.sha256()
    h.update(repr((result.makespan, result.executed_ops)).encode())
    h.update(repr(dataclasses.asdict(result.stats)).encode())
    for core_stats in result.machine.stats:
        h.update(repr(dataclasses.asdict(core_stats)).encode())
    for rec in result.nvm.persist_log():
        h.update(repr(rec).encode())
    h.update(repr(sorted(result.trace.memory_snapshot().items())).encode())
    h.update(repr(result.outcomes).encode())
    if record:
        for event in result.trace.events:
            h.update(repr(event._key()).encode())
    return h.hexdigest()


def _with_export(digest, observer) -> str:
    """``digest`` extended by the observer's export as JSON."""
    return hashlib.sha256(
        (digest + json.dumps(observer.export(), sort_keys=True)).encode()
    ).hexdigest()


def _run_spec(structure, seed=7):
    return WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=32, ops_per_thread=10, seed=seed)


def _observed_spec(structure):
    return WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=64, ops_per_thread=12, seed=1)


def _simulate(spec, mechanism, config, **kwargs):
    clear_setup_cache()
    return simulate(spec, mechanism, config, **kwargs)


def run_digest(structure, mechanism, record, seed=7) -> str:
    config = MachineConfig(record_trace=record, **SMALL_CONFIG)
    result = _simulate(_run_spec(structure, seed=seed), mechanism, config)
    return fingerprint(result, record)


def export_digest(structure, mechanism, **observer_kwargs) -> str:
    observer = Observer(**observer_kwargs)
    result = _simulate(_observed_spec(structure), mechanism,
                       MachineConfig(num_cores=4, **SMALL_CONFIG),
                       observer=observer)
    return _with_export(fingerprint(result, record=False), observer)


def nudged_digest(structure, mechanism, name, observe=False) -> str:
    observer = (Observer(trace=True, provenance=True) if observe
                else None)
    config = MachineConfig(record_trace=True, **SMALL_CONFIG)
    result = _simulate(_run_spec(structure), mechanism, config,
                       observer=observer, schedule_nudges=NUDGES[name])
    digest = fingerprint(result, record=True)
    return _with_export(digest, observer) if observe else digest


def spans_digest(mechanism) -> str:
    spec = KVServiceSpec(structure="hashmap", num_threads=4,
                         initial_size=64, requests_per_thread=12, seed=1)
    observer = Observer(spans=True)
    result = _simulate(spec, mechanism, MachineConfig(num_cores=4),
                       observer=observer)
    return hashlib.sha256(json.dumps(
        [result.makespan, observer.spans.to_dict()],
        sort_keys=True).encode()).hexdigest()


def cases():
    """Case id -> zero-argument digest function, in a stable order."""
    table = {}
    for structure in WORKLOAD_NAMES:
        for mechanism in ALL_MECHANISMS:
            for record in (False, True):
                tag = "record" if record else "norecord"
                table[f"run/{structure}/{mechanism}/{tag}"] = partial(
                    run_digest, structure, mechanism, record)
    for seed in (1, 2, 3):
        table[f"seed/{seed}"] = partial(
            run_digest, "hashmap", "lrp", False, seed)
    for structure in WORKLOAD_NAMES:
        for mechanism in ALL_MECHANISMS:
            table[f"export/{structure}/{mechanism}"] = partial(
                export_digest, structure, mechanism)
    for mode, kwargs in OBSERVED_MODES.items():
        for mechanism in ALL_MECHANISMS:
            table[f"observed/{mode}/hashmap/{mechanism}"] = partial(
                export_digest, "hashmap", mechanism, **kwargs)
    for structure in WORKLOAD_NAMES:
        if structure == "hashmap":
            continue
        for mechanism in ("bb", "lrp"):
            table[f"observed/trace+provenance/{structure}/{mechanism}"] = (
                partial(export_digest, structure, mechanism,
                        **OBSERVED_MODES["trace+provenance"]))
    for name in NUDGES:
        for structure, mechanism in NUDGED_CELLS:
            table[f"nudged/{name}/{structure}/{mechanism}"] = partial(
                nudged_digest, structure, mechanism, name)
    for structure, mechanism in NUDGED_CELLS[:2]:
        table[f"nudged-observed/mixed/{structure}/{mechanism}"] = partial(
            nudged_digest, structure, mechanism, "mixed", observe=True)
    for mechanism in KV_MECHANISMS:
        table[f"spans/{mechanism}"] = partial(spans_digest, mechanism)
    return table


def golden():
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    digests = {case: digest() for case, digest in cases().items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
