"""Tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``.
They use small cells, so they take seconds, not the minutes a
benchmark run takes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workload  # noqa: E402
from repro.core.machine import Machine  # noqa: E402
from repro.workloads.harness import WorkloadSpec  # noqa: E402
from repro.workloads.kvservice import KVServiceSpec  # noqa: E402


def small_cells():
    spec = WorkloadSpec(structure="hashmap", num_threads=2,
                        initial_size=64, ops_per_thread=4, seed=1)
    kv = KVServiceSpec(structure="hashmap", num_threads=2, initial_size=64,
                       requests_per_thread=8, seed=1)
    return [
        workload.Cell(spec, "nop"),
        workload.Cell(spec, "lrp"),
        workload.Cell(WorkloadSpec(structure="bstree", num_threads=2,
                                   initial_size=64, ops_per_thread=4,
                                   seed=1), "sb", crash_points=3),
        workload.Cell(kv, "bb", slo_points=3),
    ]


def digest_of(passed):
    records = passed["records"]
    return workload.sim_digest([r["cell"] for r in records],
                               [r["digest"] for r in records])


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def test_self_time_on_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 8.0, 10.0])
    tracer = layers.Tracer(clock=lambda: next(ticks))
    tracer.enter("engine")            # 0
    tracer.enter("lfds")              # 1
    tracer.exit()                     # 3
    tracer.enter("persistency")       # 4
    tracer.enter("nvm")               # 5
    tracer.exit()                     # 6
    tracer.enter("persistency")       # 6.5, nested in its own layer
    tracer.exit()                     # 7
    tracer.exit()                     # 8
    tracer.exit()                     # 10
    assert tracer.self_s["lfds"] == 2.0
    assert tracer.self_s["nvm"] == 1.0
    assert tracer.self_s["persistency"] == 3.0
    assert tracer.self_s["engine"] == 4.0
    assert sum(tracer.self_s.values()) == 10.0
    # The nested persistency call counts once, and so does its time.
    assert tracer.calls["persistency"] == 1
    assert tracer.busy_s["persistency"] == 4.0
    assert tracer.busy_s["engine"] == 10.0
    assert tracer.depth == 0


def test_traced_generator_passes_ops_and_results_through():
    def inner():
        total = 0
        for op in ("a", "b", "c"):
            total += yield op
        return total

    tracer = layers.Tracer()
    gen = layers._traced_generator(tracer, "lfds", inner())
    assert next(gen) == "a"
    assert gen.send(1) == "b"
    assert gen.send(2) == "c"
    with pytest.raises(StopIteration) as stop:
        gen.send(3)
    assert stop.value.value == 6
    assert tracer.calls["lfds"] == 4
    assert tracer.depth == 0


def test_tracing_keeps_digest_and_engine_record():
    cells = small_cells()
    mechanisms = sorted({cell.mechanism for cell in cells})
    plain = workload.serial_pass(cells, seed=1)
    plain_engine = workload.engine_record(plain["records"], mechanisms)
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        traced = workload.serial_pass(cells, seed=1, tracer=tracer)
        traced_engine = workload.engine_record(traced["records"],
                                               mechanisms)
    finally:
        restore()
    assert digest_of(traced) == digest_of(plain)
    assert traced_engine == plain_engine
    # The batch engine's inline-acquire test answers as untraced.
    assert plain_engine["inline_acquire"] == {
        "bb": False, "lrp": True, "nop": True, "sb": True}
    assert tracer.calls["recovery.validate"] > 0
    assert tracer.calls["obs.slo"] == 1
    assert tracer.depth == 0
    # Self times add up to the root span, which covers the cells and
    # the benchmark's few steps between them.
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.busy_s["bench"])
    assert traced["wall_s"] <= tracer.busy_s["bench"]
    # Undo really restores the plain entry points.
    assert not hasattr(Machine.install_initial_state, "__wrapped__")


# ----------------------------------------------------------------------
# The correctness check
# ----------------------------------------------------------------------

def test_failing_oracle_is_counted_not_raised():
    cells = small_cells()
    passes = [workload.serial_pass(cells, seed=1)]

    def wrong_on_lrp(cell, result):
        if cell.mechanism == "lrp":
            raise AssertionError("injected")

    oracles = workload.ORACLES + (wrong_on_lrp,)
    attempted, failed, notes = workload.check(
        cells, 1, passes, oracles=oracles)
    assert attempted == 1 + 1 + 3 + 1
    assert failed == 1
    assert len(notes) == 1 and "hashmap/lrp" in notes[0]

    def wrong_on_crash_cell(cell, result):
        if cell.crash_points:
            raise AssertionError("injected")

    attempted, failed, notes = workload.check(
        cells, 1, passes,
        oracles=workload.ORACLES + (wrong_on_crash_cell,))
    assert failed == 3   # every crash point of the failing cell


def test_unrecovered_crash_point_is_a_failure():
    cells = small_cells()
    passes = [workload.serial_pass(cells, seed=1)]
    passes[0]["records"][2]["crash"][1] = False
    attempted, failed, notes = workload.check(cells, 1, passes)
    assert (attempted, failed) == (6, 1)


def test_golden_is_compared_only_for_its_seed():
    cells = small_cells()
    passes = [workload.serial_pass(cells, seed=1)]
    bogus = {cell.label: "0" * 64 for cell in cells}
    _, failed, _ = workload.check(cells, 1, passes,
                                  golden={"seed": 7, "cells": bogus})
    assert failed == 0
    _, failed, notes = workload.check(cells, 1, passes,
                                      golden={"seed": 1, "cells": bogus})
    assert failed == 6
    assert all("golden" in note for note in notes)
    good = {r["cell"]: r["digest"] for r in passes[0]["records"]}
    _, failed, _ = workload.check(cells, 1, passes,
                                  golden={"seed": 1, "cells": good})
    assert failed == 0


def test_sim_digest_ignores_python_hash_seed():
    script = (
        "import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "import test_perfbench as t, workload\n"
        "print(t.digest_of(workload.serial_pass(t.small_cells(), 1)))\n"
    ).format(src=str(ROOT / "src"), here=str(HERE))
    digests = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_committed_golden_covers_every_workload_cell():
    for name in workload.WORKLOADS:
        golden = workload.load_golden(name)
        assert golden["seed"] == workload.DEFAULT_SEEDS[name]
        labels = [cell.label for cell in
                  workload.cells(name, golden["seed"])]
        assert list(golden["cells"]) == labels


def test_launcher_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "kv-service", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
