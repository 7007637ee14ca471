"""Top-level simulation driver: spec + mechanism -> results.

:func:`simulate` assembles a machine, installs the pre-populated LFD as
the durable baseline, runs the workers to completion, drains the
buffers and returns everything the benchmarks and recovery experiments
need (statistics, trace, NVM persist log, the structure itself).
"""

from __future__ import annotations

import copy
import dataclasses
import gc
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.params import DEFAULT_CONFIG, MachineConfig
from repro.common.stats import RunStats
from repro.core.machine import Machine
from repro.core.scheduler import Scheduler
from repro.obs import Observer
from repro.lfds import LogFreeStructure
from repro.workloads import kvservice
from repro.workloads.harness import (
    Outcome,
    WorkloadSpec,
    build_initial_memory,
    build_workers,
    expected_final_keys,
    make_structure,
)


# ----------------------------------------------------------------------
# Setup-phase memoization
# ----------------------------------------------------------------------
#
# Pre-populating a structure (random key draw + node-by-node build of
# the initial image) costs more than the measured simulation itself at
# bench scales. The built (structure, memory image) pair depends only
# on the fields below, so it is memoized: each run gets a deepcopy of
# the prototype structure (cheap — LFDs hold scalars and allocators,
# never the word image) and *shares* the frozen memory image
# (installed with share=True). Nothing writes that image: the run's
# trace keeps the words it writes, and each crash image the words its
# persists carry, over it. Beside the pair sits the image's walk store
# (repro.memory.nvm.CrashImage): crash campaigns over runs of one
# prototype validate its unchanged baseline once per structure layout,
# and the store goes when the prototype does.

_PROTO_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_PROTO_CACHE_MAX = 8


def _setup_prototype(spec: WorkloadSpec, config: MachineConfig
                     ) -> Tuple[LogFreeStructure, Dict[int, Optional[int]],
                                Dict[tuple, tuple]]:
    key = (spec.structure, spec.initial_size, spec.effective_key_range,
           spec.seed, config.line_bytes)
    entry = _PROTO_CACHE.get(key)
    if entry is None:
        # The node-by-node build allocates hundreds of thousands of
        # objects at bench scales; pause the cyclic GC so its
        # generation sweeps don't tax the allocation loop (the same
        # trick fastsim.run applies to the measured phase).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            structure = make_structure(spec, config)
            memory = build_initial_memory(spec, structure)
        finally:
            if gc_was_enabled:
                gc.enable()
        entry = (structure, memory, {})
        _PROTO_CACHE[key] = entry
        if len(_PROTO_CACHE) > _PROTO_CACHE_MAX:
            _PROTO_CACHE.popitem(last=False)
    else:
        _PROTO_CACHE.move_to_end(key)
    return entry


def clear_setup_cache() -> None:
    """Drop memoized setup prototypes and their walk stores (tests /
    memory pressure)."""
    _PROTO_CACHE.clear()


@dataclasses.dataclass
class SimulationResult:
    """Everything produced by one simulation run."""

    spec: WorkloadSpec
    mechanism: str
    config: MachineConfig
    machine: Machine
    structure: LogFreeStructure
    outcomes: List[List[Outcome]]
    stats: RunStats
    makespan: int
    #: Total operations executed (= schedule decisions taken) — the
    #: decision-index space the fuzzer's schedule nudges range over.
    executed_ops: int = 0

    @property
    def trace(self):
        return self.machine.trace

    @property
    def nvm(self):
        return self.machine.nvm

    def verify_final_state(self) -> None:
        """Assert the structure's final contents match the oracle."""
        expected = expected_final_keys(self.spec, self.outcomes)
        actual = self.structure.collect_keys(
            self.trace.memory_snapshot())
        if actual != expected:
            missing = sorted(expected - actual)[:10]
            extra = sorted(actual - expected)[:10]
            raise AssertionError(
                f"final-state mismatch for {self.spec.structure}: "
                f"missing={missing} extra={extra}")

    def verify_durable_final_state(self) -> None:
        """Assert the drained NVM image equals the architectural state
        for every word the measured phase wrote or persisted.

        Both read one initial image under their own words, so only a
        word that the run wrote or that a persist carried can differ,
        and only those are compared.
        """
        image = self.nvm.final_image()
        trace = self.trace
        stale = sorted(
            addr for addr in set(image.overlay).union(trace.written())
            if image.get(addr) != trace.load(addr))
        if stale:
            raise AssertionError(
                f"{len(stale)} words differ between NVM and memory "
                f"after drain, e.g. {stale[:5]}")


def simulate(spec: WorkloadSpec,
             mechanism: str = "lrp",
             config: Optional[MachineConfig] = None,
             observer: Optional[Observer] = None,
             schedule_nudges: Optional[Dict[int, int]] = None
             ) -> SimulationResult:
    """Run one full benchmark configuration.

    ``observer`` attaches the :mod:`repro.obs` instrumentation; the
    default (None) leaves every hook disabled and the run bit-identical
    to an unobserved one. ``schedule_nudges`` installs the fuzzer's
    priority perturbations (:meth:`Scheduler.set_nudges`).
    """
    config = config or DEFAULT_CONFIG
    if spec.num_threads > config.num_cores:
        config = dataclasses.replace(config, num_cores=spec.num_threads)
    machine = Machine(config, mechanism, observer=observer)
    proto_structure, proto_memory, walks = _setup_prototype(spec, config)
    structure = copy.deepcopy(proto_structure)
    machine.install_initial_state(proto_memory, share=True, walks=walks)

    outcomes: List[List[Outcome]] = [[] for _ in range(spec.num_threads)]
    # Op-site tagging feeds only the provenance tracker; skip the
    # wrapper generators entirely otherwise so the hot path is
    # untouched when provenance is off.
    tag_sites = observer is not None and observer.provenance is not None
    # The KV-service spec shares the whole setup pipeline (structure,
    # pre-population, prototype cache) with WorkloadSpec — only the
    # worker builder differs (client request generators instead of the
    # fixed-op harness loop).
    if isinstance(spec, kvservice.KVServiceSpec):
        workers = kvservice.build_workers(spec, structure, outcomes,
                                          machine.stats,
                                          tag_sites=tag_sites)
    else:
        workers = build_workers(spec, structure, outcomes, machine.stats,
                                tag_sites=tag_sites)
    scheduler = Scheduler(machine, workers)
    if schedule_nudges is not None:
        scheduler.set_nudges(schedule_nudges)
    makespan = scheduler.run()
    machine.finish(makespan)

    stats = RunStats(
        mechanism=machine.mechanism.name,
        workload=spec.structure,
        num_threads=spec.num_threads,
        per_core=machine.stats[:spec.num_threads],
    )
    return SimulationResult(
        spec=spec, mechanism=machine.mechanism.name, config=config,
        machine=machine, structure=structure, outcomes=outcomes,
        stats=stats, makespan=makespan,
        executed_ops=scheduler.executed_ops)


def simulate_all_mechanisms(
        spec: WorkloadSpec,
        mechanisms: Sequence[str] = ("nop", "sb", "bb", "lrp"),
        config: Optional[MachineConfig] = None
) -> Dict[str, SimulationResult]:
    """Run the same spec under several mechanisms (Figure 5/7 rows)."""
    return {name: simulate(spec, name, config) for name in mechanisms}
