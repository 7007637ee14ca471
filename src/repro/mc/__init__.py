"""Small-scope model checking of litmus programs (exhaustive DPOR).

The fuzzer (:mod:`repro.fuzz`) samples schedules; this package proves
things at litmus scope instead: :class:`DPORExplorer` enumerates every
Mazurkiewicz trace of a program exactly once via dynamic partial-order
reduction with sleep sets, and :mod:`repro.mc.judge` decides, per
persistency mechanism, whether *any* reachable crash state of *any*
execution breaks Release Persistency's consistent-cut guarantee.

``tests/test_mc.py`` pins the whole construction against brute-force
enumeration and the independent Px86-derived axioms of
:mod:`repro.mc.px86`.
"""

from repro.mc.dpor import DependencyOrder, DPORExplorer, DPORStats, \
    explore_program, trace_key
from repro.mc.judge import CrashWitness, TraceJudgement, judge_trace, \
    enumerate_crash_states, materialize_persist_log
from repro.mc.programs import LitmusProgram, PROGRAMS, SUITE, get_program
from repro.mc.px86 import px86_allows, px86_write_pairs
from repro.mc.checker import DEFAULT_MECHANISMS, MechanismVerdict, \
    ProgramCheck, check_program

__all__ = [
    "DependencyOrder",
    "DPORExplorer",
    "DPORStats",
    "explore_program",
    "trace_key",
    "CrashWitness",
    "TraceJudgement",
    "judge_trace",
    "enumerate_crash_states",
    "materialize_persist_log",
    "LitmusProgram",
    "PROGRAMS",
    "SUITE",
    "get_program",
    "px86_allows",
    "px86_write_pairs",
    "DEFAULT_MECHANISMS",
    "MechanismVerdict",
    "ProgramCheck",
    "check_program",
]
