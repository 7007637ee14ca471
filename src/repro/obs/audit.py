"""Persist-order audit: re-verify RP guarantees over finished runs.

``python -m repro.obs audit`` runs workloads under one mechanism and
replays the recorded execution through the verification layer of
:mod:`repro.persistency.checker`:

* the **persist-order check** — Release Persistency demands
  ``W1 hb-> W2  =>  W1 p-> W2`` (Section 4.1), checked pairwise over
  the RP-rule happens-before closure against the NVM persist log;
* the **consistent-cut check** — crash images at sampled persist-log
  prefixes must satisfy Izraelevitz & Scott's recovery criterion
  (every visible write has all hb-predecessors reflected).

Mechanisms that claim Release Persistency (``enforces_rp``: SB, BB,
LRP) must audit clean; NOP and ARP are *expected* to violate — that
asymmetry is the paper's Figure 1 argument, and the audit reports it
rather than failing on it (``--strict`` fails on any violation).

Each violation carries hb-pair provenance (which write pair persisted
backwards, and at which log indices), so a failed audit names the
offending stores rather than just counting them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.consistency.events import Trace
from repro.core.recovery import crash_points
from repro.core.simulator import SimulationResult
from repro.memory.nvm import NVMController
from repro.persistency import mechanism_by_name
from repro.persistency.checker import RPChecker, Violation


@dataclasses.dataclass
class AuditReport:
    """Verdict of auditing one run against the RP model."""

    workload: str
    mechanism: str
    #: Whether the mechanism *claims* Release Persistency.
    enforces_rp: bool
    #: hb-ordered write pairs the order check covered.
    pairs_checked: int
    order_violations: List[Violation]
    #: ``(prefix length, violations)`` per sampled crash cut.
    cut_results: List[Tuple[int, List[Violation]]]
    persist_count: int
    makespan: int

    @property
    def cut_violations(self) -> int:
        return sum(len(v) for _, v in self.cut_results)

    @property
    def total_violations(self) -> int:
        return len(self.order_violations) + self.cut_violations

    @property
    def clean(self) -> bool:
        return self.total_violations == 0

    @property
    def failed(self) -> bool:
        """A mechanism that promises RP but does not deliver it."""
        return self.enforces_rp and not self.clean

    def summary(self) -> str:
        if self.clean:
            verdict = "OK"
        elif self.enforces_rp:
            verdict = "FAILED"
        else:
            verdict = "violations (expected: no RP guarantee)"
        return (f"{self.workload:<10} {self.mechanism:<4} "
                f"pairs={self.pairs_checked:<6} "
                f"order_violations={len(self.order_violations):<3} "
                f"cuts={len(self.cut_results)} "
                f"cut_violations={self.cut_violations:<3} {verdict}")

    def detail_lines(self, limit: int = 5) -> List[str]:
        """hb-pair provenance for the first ``limit`` violations."""
        lines = []
        for violation in self.order_violations[:limit]:
            lines.append(f"  order: {violation}")
        remaining = limit - len(lines)
        for prefix, violations in self.cut_results:
            for violation in violations:
                if remaining <= 0:
                    break
                lines.append(f"  cut@{prefix}: {violation}")
                remaining -= 1
        shown = len(lines)
        if self.total_violations > shown:
            lines.append(f"  ... {self.total_violations - shown} more")
        return lines


def audit_execution(trace: Trace, nvm: NVMController, *,
                    workload: str = "?", mechanism: str = "?",
                    enforces_rp: bool = True,
                    cut_samples: int = 8, cut_seed: int = 0,
                    makespan: int = 0) -> AuditReport:
    """Audit a recorded execution (trace + persist log) against RP.

    The testable core: callers may hand-craft traces and persist logs
    (e.g. an intentionally inverted log) to prove the audit detects
    what it claims to detect.
    """
    checker = RPChecker(trace, nvm)
    order = checker.check_order()
    pairs = sum(1 for _pair in checker.happens_before.write_pairs())
    log_length = len(nvm.persist_log())
    cut_results = [
        (prefix, checker.check_cut(prefix))
        for prefix in crash_points(log_length, cut_samples, seed=cut_seed)
    ]
    return AuditReport(workload=workload, mechanism=mechanism,
                       enforces_rp=enforces_rp, pairs_checked=pairs,
                       order_violations=order, cut_results=cut_results,
                       persist_count=nvm.persist_count,
                       makespan=makespan)


def audit_simulation(result: SimulationResult, *,
                     cut_samples: int = 8,
                     cut_seed: int = 0) -> AuditReport:
    """Audit a finished :func:`~repro.core.simulator.simulate` run."""
    mechanism_cls = mechanism_by_name(result.mechanism)
    return audit_execution(
        result.trace, result.nvm,
        workload=result.spec.structure,
        mechanism=result.mechanism,
        enforces_rp=mechanism_cls.enforces_rp,
        cut_samples=cut_samples, cut_seed=cut_seed,
        makespan=result.makespan)
