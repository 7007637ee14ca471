"""Dynamic partial-order reduction over litmus schedules.

Classic Flanagan–Godefroid DPOR with sleep sets:

* A *race* is a pair of conflicting accesses (same word, at least one
  write-capable — a CAS is conservatively write-capable even when its
  write part would fail dynamically) not ordered by the dependency
  happens-before of the executed prefix. Whenever the step just
  executed races with an earlier step ``e``, a thread that can lead
  the reversal is added to the **backtrack set** of the state before
  ``e``. The thread of the racing step alone is not always enough —
  its access may first require steps of *other* threads it depends
  on — so the choice follows source-DPOR (Abdulla, Aronis, Jonsson,
  Sagonas 2014): among the events after ``e`` that do not
  happen-after ``e`` (plus the racing access itself), the *initials*
  are those with no dependency predecessor inside that window; if
  none of their threads is scheduled at ``pre(e)`` yet, the smallest
  is added.
* **Sleep sets** prune re-exploration: after a thread's subtree at a
  state is done, the thread goes to sleep there; a sleeping thread is
  woken (removed on inheritance) only by the execution of a dependent
  step. The litmus state space is acyclic, so together these visit
  every Mazurkiewicz trace *exactly once* — pinned by
  ``tests/test_mc.py``'s class-set comparison against brute-force
  enumeration.

The dependency relation the explorer bets on is purely *static* (word
addresses and write-capability are schedule-independent in a litmus
program); :class:`DependencyOrder` reconstructs the same relation from
a recorded trace so representative executions can be canonicalized
(:func:`trace_key`) and compared against brute-force enumeration.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.consistency.events import EventKind, MemoryEvent, Trace
from repro.consistency.happens_before import HappensBefore
from repro.consistency.litmus import LitmusOp, Program, count_interleavings


class DependencyOrder(HappensBefore):
    """The Mazurkiewicz dependency order of one execution.

    The RC happens-before edge set extended with full program order
    and an edge for every pair of conflicting accesses. Two schedules
    are equivalent (same trace) iff they induce the same dependency
    order on the per-thread operation labels — which is exactly what
    :func:`trace_key` hashes.
    """

    def __init__(self, events: Sequence[MemoryEvent], **kwargs) -> None:
        kwargs.setdefault("mode", "rc")
        super().__init__(events, **kwargs)

    def _build_edges(self) -> None:
        super()._build_edges()
        last_of_thread: Dict[int, int] = {}
        accesses: Dict[int, List[Tuple[int, bool]]] = {}
        for event in self._events:
            eid = event.event_id
            preds = self._edges[eid]
            tid = event.thread_id
            if tid in last_of_thread:
                preds.add(last_of_thread[tid])
            last_of_thread[tid] = eid
            # Static write-capability: an RMW counts as a write even
            # when its write part failed (the explorer cannot know the
            # outcome before running the schedule, so the dependency
            # relation must not depend on it either).
            writes = event.kind is not EventKind.READ
            for prior, prior_writes in accesses.get(event.addr, ()):
                if writes or prior_writes:
                    preds.add(prior)
            accesses.setdefault(event.addr, []).append((eid, writes))
            preds.discard(eid)


def trace_key(trace: Trace) -> Tuple:
    """Canonical key of a trace's Mazurkiewicz equivalence class.

    Operations are labeled ``(thread_id, index-in-thread)`` — labels
    are schedule-independent — and the key is the set of (label,
    transitive dependency-predecessor labels) pairs. Two schedules
    yield equal keys iff they are equivalent.
    """
    dep = DependencyOrder(trace.events)
    counters: Dict[int, int] = {}
    labels: List[Tuple[int, int]] = []
    for event in trace.events:
        index = counters.get(event.thread_id, 0)
        counters[event.thread_id] = index + 1
        labels.append((event.thread_id, index))
    entries = []
    for event in trace.events:
        preds = sorted(labels[p] for p in dep.predecessors(event.event_id))
        entries.append((labels[event.event_id], tuple(preds)))
    return tuple(sorted(entries))


@dataclasses.dataclass
class DPORStats:
    """Exploration counters of one DPOR or brute-force run."""

    interleavings: int = 0        # total distinct schedules (multinomial)
    schedules_explored: int = 0   # completed representative executions

    @property
    def reduction(self) -> float:
        """Interleavings covered per schedule actually executed."""
        if not self.schedules_explored:
            return 0.0
        return self.interleavings / self.schedules_explored


class _Frame:
    """Per-depth exploration state (the node before step ``depth``)."""

    __slots__ = ("backtrack", "done", "sleep")

    def __init__(self, backtrack: Set[int], sleep: Set[int]) -> None:
        self.backtrack = backtrack
        self.done: Set[int] = set()
        self.sleep = sleep


class DPORExplorer:
    """Explores one litmus program; yields representative schedules.

    Deterministic: threads are tried in ascending id order, so the
    schedule list (and every downstream verdict/witness) is a pure
    function of the program.
    """

    def __init__(self, program: Program) -> None:
        self._program: List[List[LitmusOp]] = [list(ops) for ops in program]
        self._addrs = [[op.addr for op in ops] for ops in self._program]
        self._writes = [[op.kind != "r" for op in ops]
                        for ops in self._program]
        self.stats = DPORStats(
            interleavings=count_interleavings(self._program))
        # Mutable exploration state (rebuilt by run()).
        self._cursors: List[int] = []
        self._schedule: List[int] = []
        self._closure: List[int] = []       # per step: dep-predecessor bitset
        self._step_addr: List[int] = []
        self._prev_last: List[Optional[int]] = []
        self._last_step: List[Optional[int]] = []
        self._accesses: Dict[int, List[Tuple[int, bool]]] = {}
        self._frames: List[_Frame] = []
        self._results: List[List[int]] = []

    def run(self) -> List[List[int]]:
        """All representative schedules, one per Mazurkiewicz trace."""
        num_threads = len(self._program)
        self._cursors = [0] * num_threads
        self._schedule = []
        self._closure = []
        self._step_addr = []
        self._prev_last = []
        self._last_step = [None] * num_threads
        self._accesses = {}
        self._frames = []
        self._results = []
        self.stats = DPORStats(
            interleavings=count_interleavings(self._program))
        self._explore(frozenset())
        return self._results

    # ------------------------------------------------------------------

    def _explore(self, sleep: FrozenSet[int]) -> None:
        cursors = self._cursors
        program = self._program
        enabled = [t for t in range(len(program))
                   if cursors[t] < len(program[t])]
        if not enabled:
            self.stats.schedules_explored += 1
            self._results.append(list(self._schedule))
            return
        available = [t for t in enabled if t not in sleep]
        if not available:
            # Every continuation from here is equivalent to one already
            # explored from an ancestor — prune the whole branch.
            return
        frame = _Frame(backtrack={available[0]}, sleep=set(sleep))
        self._frames.append(frame)
        while True:
            todo = [t for t in sorted(frame.backtrack)
                    if t not in frame.done and t not in frame.sleep]
            if not todo:
                break
            thread = todo[0]
            frame.done.add(thread)
            child_sleep = self._step(thread, frame.sleep)
            self._explore(child_sleep)
            self._unstep(thread)
            frame.sleep.add(thread)
        self._frames.pop()

    def _step(self, thread: int, sleep: Set[int]) -> FrozenSet[int]:
        """Execute ``thread``'s next op; register races; return the
        child's sleep set (sleepers independent of this step stay)."""
        index = self._cursors[thread]
        addr = self._addrs[thread][index]
        writes = self._writes[thread][index]
        depth = len(self._schedule)
        closure = self._closure

        last = self._last_step[thread]
        if last is None:
            view = 0
        else:
            # The thread's dependency view: its previous step and
            # everything that step transitively depends on.
            view = closure[last] | (1 << last)
        acc = view
        races = []
        # Latest conflicting access first: an earlier same-word access
        # already ordered below a later one is not an *immediate* race
        # (the reversal is reached through the later one's race).
        for prior, prior_writes in reversed(self._accesses.get(addr, ())):
            if not (writes or prior_writes):
                continue
            if not (acc >> prior) & 1:
                races.append(prior)
            acc |= closure[prior] | (1 << prior)

        for prior in races:
            # Race: this step and step ``prior`` conflict and are
            # unordered — the reversal is a different trace. Schedule
            # one of the reversal's initial threads at the state
            # *before* ``prior``.
            frame = self._frames[prior]
            initials = self._race_initials(prior, depth, thread, acc)
            if frame.backtrack.isdisjoint(initials):
                frame.backtrack.add(min(initials))

        closure.append(acc)
        self._schedule.append(thread)
        self._step_addr.append(addr)
        self._accesses.setdefault(addr, []).append((depth, writes))
        self._prev_last.append(last)
        self._last_step[thread] = depth
        self._cursors[thread] = index + 1
        return frozenset(
            q for q in sleep if not self._next_op_conflicts(q, addr, writes))

    def _race_initials(self, prior: int, depth: int, thread: int,
                       step_deps: int) -> Set[int]:
        """Threads able to lead the reversal of the race with ``prior``.

        Consider the window of executed steps after ``prior`` that do
        *not* happen-after it, closed by the racing access itself (the
        step ``thread`` is about to take, with dependency-predecessor
        bitset ``step_deps``). The *initials* are the window members
        with no dependency predecessor inside the window — each one's
        thread can be scheduled at ``pre(prior)`` to start an
        execution in which the race runs the other way. Adding only
        ``thread`` is not enough: its access may depend on
        intermediate steps of other threads, and ``thread`` may be
        asleep at ``pre(prior)`` while an initial is not.
        """
        closure = self._closure
        schedule = self._schedule
        window = 0
        initials: Set[int] = set()
        for j in range(prior + 1, depth):
            deps = closure[j]
            if (deps >> prior) & 1:
                continue                 # happens-after prior: excluded
            if not deps & window:
                initials.add(schedule[j])
            window |= 1 << j
        if not step_deps & window:
            initials.add(thread)
        return initials

    def _next_op_conflicts(self, thread: int, addr: int,
                           writes: bool) -> bool:
        index = self._cursors[thread]
        if index >= len(self._program[thread]):
            return False
        return (self._addrs[thread][index] == addr
                and (writes or self._writes[thread][index]))

    def _unstep(self, thread: int) -> None:
        self._schedule.pop()
        self._closure.pop()
        addr = self._step_addr.pop()
        self._accesses[addr].pop()
        self._last_step[thread] = self._prev_last.pop()
        self._cursors[thread] -= 1


def explore_program(program: Program) -> Tuple[List[List[int]], DPORStats]:
    """Convenience wrapper: run DPOR, return (schedules, stats)."""
    explorer = DPORExplorer(program)
    schedules = explorer.run()
    return schedules, explorer.stats
