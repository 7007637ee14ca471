"""Crash simulation and null-recovery validation.

The NVM's persist log is the durability order of the run. Crashing
after any prefix of it reconstructs an NVM image; *null recovery*
(Izraelevitz & Scott, as used by the paper) demands that every such
image is a consistent cut — for an LFD that means the structure is
immediately usable, which the per-LFD structural validators check
(e.g. no reachable node with never-persisted fields).

RP-enforcing mechanisms (SB/BB/LRP) must pass at every crash point;
ARP and NOP are expected to fail — that is the paper's Figure 1
argument, reproduced as an experiment.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.common.rng import make_rng
from repro.core.simulator import SimulationResult
from repro.lfds.base import RecoveryReport


@dataclasses.dataclass
class CrashOutcome:
    """Result of one simulated crash."""

    prefix_len: int
    report: RecoveryReport

    @property
    def recovered(self) -> bool:
        return self.report.ok


@dataclasses.dataclass
class CrashCampaign:
    """Aggregate over many crash points of one run."""

    mechanism: str
    workload: str
    outcomes: List[CrashOutcome]

    @property
    def attempts(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[CrashOutcome]:
        return [o for o in self.outcomes if not o.recovered]

    @property
    def all_recovered(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "all recovered" if self.all_recovered else (
            f"{len(self.failures)}/{self.attempts} crash points "
            "UNRECOVERABLE")
        return (f"{self.workload:<10} {self.mechanism:<4} "
                f"{self.attempts} crash points: {status}")


def crash_points(log_length: int, num_points: int,
                 seed: int = 0) -> List[int]:
    """Choose crash prefixes: always 0 and the full log, plus a
    deterministic random sample in between.

    Contract: ``num_points`` must be at least 2 (the endpoint prefixes
    0 and ``log_length`` are always part of the sample — asking for
    fewer points than the mandatory endpoints is a caller bug and
    raises ``ValueError``). The result is sorted, each prefix appears
    exactly once, and its length is exactly
    ``min(num_points, log_length + 1)``: a short log degrades to
    testing every prefix exactly once instead of re-rolling — and
    re-testing — already-sampled ones.
    """
    if num_points < 2:
        raise ValueError(
            f"num_points must be >= 2 (prefixes 0 and log_length are "
            f"always sampled), got {num_points}")
    if num_points >= log_length + 1:
        return list(range(log_length + 1))
    points = {0, log_length}
    rng = make_rng(seed, "crash")
    while len(points) < num_points:
        points.add(rng.randint(0, log_length))
    return sorted(points)


def crash_test(result: SimulationResult, num_points: int = 24,
               seed: int = 0) -> CrashCampaign:
    """Crash a finished run at many persist-log prefixes and validate
    null recovery of the structure at each."""
    log = result.nvm.persist_log()
    outcomes = []
    for prefix in crash_points(len(log), num_points, seed):
        image = result.nvm.image_after_prefix(prefix)
        report = result.structure.validate_image(image)
        # Drop the image before the next one is built, so only one
        # whole-NVM dict is alive at a time.
        del image
        outcomes.append(CrashOutcome(prefix_len=prefix, report=report))
    return CrashCampaign(mechanism=result.mechanism,
                         workload=result.spec.structure,
                         outcomes=outcomes)


def exhaustive_crash_test(result: SimulationResult) -> CrashCampaign:
    """Validate every single crash prefix (small runs only)."""
    log = result.nvm.persist_log()
    outcomes = [
        CrashOutcome(prefix_len=k,
                     report=result.structure.validate_image(
                         result.nvm.image_after_prefix(k)))
        for k in range(len(log) + 1)
    ]
    return CrashCampaign(mechanism=result.mechanism,
                         workload=result.spec.structure,
                         outcomes=outcomes)
