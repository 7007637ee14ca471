"""Per-layer host-time attribution for the traced benchmark run.

The traced run wraps the simulator's public entry points from outside
(nothing under ``src/`` is edited) and charges the host time spent in
each call to a named layer. Spans nest on one stack: a layer's *self*
time is its span's duration minus the part its child spans cover, so
every host second lands in exactly one layer, and a call nested inside
a call of the same layer counts once (one call, one busy interval).

Only aggregates and per-cell totals are kept in memory; the full
record is written out once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List

#: Layer names, in the order the per-layer table prints them. ``bench``
#: is the benchmark's own code: whatever the root span covers
#: that no wrapped entry point does.
LAYERS = (
    "workloads.prepopulate",
    "simulator",
    "simulator.install",
    "engine",
    "lfds",
    "coherence",
    "persistency",
    "nvm",
    "recovery.image",
    "recovery.validate",
    "obs.slo",
    "exp.summarize",
    "bench",
)

#: The mechanism hooks the machine and the batch engine call.
MECHANISM_HOOKS = ("on_write", "on_release", "on_rmw", "on_acquire",
                   "on_evict", "on_downgrade", "drain")


class Tracer:
    """A span stack with per-layer self time, busy time and call counts.

    ``clock`` is injectable so the arithmetic can be tested on
    synthetic spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.busy_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Work counts observed at the wrappers (words, batches).
        self.counts: Dict[str, int] = {}
        #: One entry per finished cell: label, start/end and the self
        #: seconds each layer accrued inside it.
        self.cells: List[Dict[str, object]] = []
        self._depth: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        # Each frame is [layer, start, seconds covered by children].
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        depth = self._depth[layer]
        self._depth[layer] = depth + 1
        if depth == 0:
            self.calls[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        now = self.clock()
        layer, start, children = self._stack.pop()
        duration = now - start
        self.self_s[layer] += duration - children
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        if depth == 0:
            self.busy_s[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @property
    def depth(self) -> int:
        return len(self._stack)

    def begin_cell(self) -> Dict[str, float]:
        return dict(self.self_s)

    def end_cell(self, label: str, start: float, end: float,
                 before: Dict[str, float]) -> None:
        self.cells.append({
            "cell": label, "start": start, "end": end,
            "self_s": {layer: self.self_s[layer] - before[layer]
                       for layer in LAYERS
                       if self.self_s[layer] != before[layer]},
        })

    def export(self) -> Dict[str, object]:
        return {"self_s": self.self_s, "busy_s": self.busy_s,
                "calls": self.calls, "counts": self.counts,
                "cells": self.cells}


def _wrap_call(tracer: Tracer, layer: str, func: Callable) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(func)
    def traced(*args, **kwargs):
        enter(layer)
        try:
            return func(*args, **kwargs)
        finally:
            exit_()
    return traced


def _traced_generator(tracer: Tracer, layer: str, gen):
    """Delegate to ``gen``, charging each resume to ``layer``.

    Yields the inner generator's op objects unchanged (the engines
    compare some op fields by identity) and returns its return value.
    """
    enter, exit_ = tracer.enter, tracer.exit
    enter(layer)
    try:
        op = next(gen)
    except StopIteration as stop:
        return stop.value
    finally:
        exit_()
    while True:
        sent = yield op
        enter(layer)
        try:
            op = gen.send(sent)
        except StopIteration as stop:
            return stop.value
        finally:
            exit_()


def _patch(owner, name: str, tracer: Tracer, layer: str, undo: List,
           count=None) -> None:
    """Replace ``owner.name`` with a traced wrapper.

    ``count`` is an optional ``(counter, amount)`` pair: ``amount``
    maps the call's result to the work it did, added to ``counter``.
    """
    original = owner.__dict__[name]
    undo.append((owner, name, original))
    func = original
    if count is not None:
        counter, amount = count

        def func(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.count(counter, amount(result))
            return result

    setattr(owner, name, _wrap_call(tracer, layer, func))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the simulator's public entry points; returns an undo.

    Mechanism hooks and ``validate_image`` are replaced only on the
    classes that define them, so a subclass that inherits a hook still
    resolves to the very object its base class holds. That keeps the
    batch engine's identity test for a no-op ``on_acquire``
    (:func:`repro.core.fastsim.acquire_hook_is_noop`) answering exactly
    as it does without tracing. ``repro.core.recovery.crash_test``
    reaches ``image_after_prefix`` and ``validate_image`` through the
    objects it is handed, so it needs no wrapper of its own.
    """
    from repro.core import scheduler, simulator
    from repro.core.machine import Machine
    from repro.exp import runner
    from repro.lfds import STRUCTURES
    from repro.memory.nvm import NVMController
    from repro.obs import slo
    from repro.persistency import MECHANISMS
    from repro.workloads import kvservice

    undo: List = []
    _patch(simulator, "simulate", tracer, "simulator", undo)
    _patch(simulator, "make_structure", tracer, "workloads.prepopulate",
           undo)
    _patch(simulator, "build_initial_memory", tracer,
           "workloads.prepopulate", undo, count=("prepopulate_words", len))
    _patch(Machine, "install_initial_state", tracer, "simulator.install",
           undo)
    _patch(scheduler.Scheduler, "run", tracer, "engine", undo)
    _patch(Machine, "coherence_access", tracer, "coherence", undo)
    _patch(NVMController, "issue_persist", tracer, "nvm", undo)
    _patch(NVMController, "issue_persist_batch", tracer, "nvm", undo,
           count=("vector_batches", lambda records: len(records) >= 16))
    _patch(NVMController, "image_after_prefix", tracer, "recovery.image",
           undo, count=("image_words", len))
    _patch(slo, "service_report", tracer, "obs.slo", undo)
    _patch(runner, "summarize", tracer, "exp.summarize", undo)

    defined = {(klass, hook)
               for mechanism in MECHANISMS.values()
               for klass in mechanism.__mro__
               for hook in MECHANISM_HOOKS if hook in klass.__dict__}
    defined |= {(klass, "validate_image")
                for structure in STRUCTURES.values()
                for klass in structure.__mro__
                if "validate_image" in klass.__dict__}
    for klass, name in defined:
        _patch(klass, name, tracer,
               "recovery.validate" if name == "validate_image"
               else "persistency", undo)

    make_fast_path = Machine.make_fast_path

    def traced_fast_path(machine, fastobs=None):
        fast_miss, fast_upgrade = make_fast_path(machine, fastobs=fastobs)
        return (_wrap_call(tracer, "coherence", fast_miss),
                _wrap_call(tracer, "coherence", fast_upgrade))

    undo.append((Machine, "make_fast_path", make_fast_path))
    Machine.make_fast_path = traced_fast_path

    for module in (simulator, kvservice):
        builder = module.build_workers

        def traced_builder(*args, _builder=builder, **kwargs):
            return [
                (lambda tid, _factory=factory: _traced_generator(
                    tracer, "lfds", _factory(tid)))
                for factory in _builder(*args, **kwargs)
            ]

        undo.append((module, "build_workers", builder))
        module.build_workers = traced_builder

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def layer_metrics(trace: Dict[str, object]) -> Dict[str, float]:
    """The per-layer ``*_s`` figures from a tracer export."""
    self_s = trace["self_s"]  # type: ignore[index]
    return {
        "workloads.prepopulate_s": self_s["workloads.prepopulate"],
        "simulator.install_s": (self_s["simulator"]
                                + self_s["simulator.install"]),
        "engine.self_s": self_s["engine"],
        "lfds.resume_s": self_s["lfds"],
        "coherence.self_s": self_s["coherence"],
        "persistency.hook_s": self_s["persistency"],
        "nvm.issue_s": self_s["nvm"],
        "recovery.image_s": self_s["recovery.image"],
        "recovery.validate_s": self_s["recovery.validate"],
        "obs.slo_s": self_s["obs.slo"],
        "exp.summarize_s": self_s["exp.summarize"],
    }


def attributed_share(trace: Dict[str, object], wall_s: float) -> float:
    """Named layers' self seconds over the traced wall time.

    Everything except the ``bench`` residual counts: a share near 1.0
    means the wrapped entry points account for the whole run.
    """
    named = sum(value for layer, value in trace["self_s"].items()
                if layer != "bench")
    return named / wall_s
