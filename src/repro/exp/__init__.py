"""Parallel experiment runner with content-addressed result caching.

``repro.exp`` decouples *what* the evaluation runs (the figure
definitions in :mod:`repro.bench.figures`) from *how* the simulations
execute: serially in-process, or fanned out across CPU cores, with or
without an on-disk result cache. ``tests/test_exp_runner.py`` pins
that the three give bit-identical results; ``python -m repro.exp
cache`` reports on and prunes the cache.
"""

from repro.exp.cache import ResultCache, code_version, stable_digest
from repro.exp.progress import NullProgress, ProgressReporter
from repro.exp.runner import (
    ExperimentRunner,
    Job,
    RunSummary,
    execute_job,
    get_default_runner,
    make_runner,
    set_default_runner,
    summarize,
)

__all__ = [
    "ExperimentRunner",
    "Job",
    "NullProgress",
    "ProgressReporter",
    "ResultCache",
    "RunSummary",
    "code_version",
    "execute_job",
    "get_default_runner",
    "make_runner",
    "set_default_runner",
    "stable_digest",
    "summarize",
]
