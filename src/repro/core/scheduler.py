"""Deterministic smallest-clock-first scheduler.

Each hardware thread runs a generator coroutine that yields
:class:`~repro.core.thread.Op` objects. The scheduler always advances
the runnable thread with the lowest local clock — a conservative
time-ordered interleaving: memory operations perform atomically in
(simulated) timestamp order, which yields a sequentially consistent
execution whose timing reflects contention, persist stalls and cache
behaviour. The loop itself is :func:`repro.core.fastsim.run`.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Mapping, \
    Optional

from repro.core import fastsim
from repro.core.machine import Machine
from repro.core.thread import Op

WorkerGen = Generator[Op, object, None]
WorkerFactory = Callable[[int], WorkerGen]


class SimThread:
    """One hardware thread driving a workload coroutine.

    The loop resumes ``gen`` by sending it ``_pending_result``, the
    result of the thread's previous op (None on the first resume,
    which starts the coroutine).
    """

    __slots__ = ("thread_id", "gen", "clock", "done", "_pending_result")

    def __init__(self, thread_id: int, gen: WorkerGen) -> None:
        self.thread_id = thread_id
        self.gen = gen
        self.clock = 0
        self.done = False
        self._pending_result: object = None


class Scheduler:
    """Runs worker coroutines on a machine until all complete."""

    def __init__(self, machine: Machine,
                 workers: Iterable[WorkerFactory]) -> None:
        self.machine = machine
        self.threads: List[SimThread] = [
            SimThread(tid, factory(tid))
            for tid, factory in enumerate(workers)
        ]
        if len(self.threads) > machine.config.num_cores:
            raise ValueError(
                f"{len(self.threads)} workers exceed "
                f"{machine.config.num_cores} cores")
        self._executed_ops = 0
        # Priority nudges (repro.fuzz): decision index -> runnable rank.
        self._nudges: Optional[Dict[int, int]] = None

    @property
    def executed_ops(self) -> int:
        """Operations executed so far (= schedule decisions taken)."""
        return self._executed_ops

    def set_nudges(self, nudges: Optional[Mapping[int, int]]) -> None:
        """Install schedule-perturbation nudges (the fuzzing hook).

        ``nudges`` maps a *decision index* (the number of operations
        executed machine-wide when the scheduler next picks a thread)
        to a *rank*: instead of the runnable thread with the smallest
        ``(clock, thread_id)`` key (rank 0), the scheduler picks the
        rank-th smallest, modulo the number of runnable threads. The
        batch loop ends a quantum at each nudged decision index, so a
        run without nudges (None or an empty mapping) pays one integer
        compare per op for the hook.
        """
        self._nudges = dict(nudges) if nudges is not None else None

    def run(self) -> int:
        """Execute until every thread finishes; returns the makespan."""
        return fastsim.run(self)

    def makespan(self) -> int:
        """The slowest thread's final clock (run wall-time in cycles)."""
        return max((t.clock for t in self.threads), default=0)
