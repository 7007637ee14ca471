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

A campaign walks its prefixes in ascending order through one crash
image, which ``NVMController.image_after_prefix(k, since=image)``
advances by the persists in between. The hashmap, skip list and NM
tree leave a walk memo on that image at its first validation and later
re-walk only what the written words can reach. Fallback rule: wherever
such a delta walk might find a problem or hit a bound, or has no memo,
the structure's unchanged full walker runs instead, so the full walker
writes every failing report and stays the reference the delta walks
are tested against.

Every campaign starts at prefix 0, the pre-populated baseline, and
``simulate`` installs one shared baseline for all runs of a setup
prototype. Its passing memo walk is kept in a walk store beside the
prototype, keyed by the structure's class and layout, and the first
validation of a later campaign over the same baseline starts from it
instead of walking again. The store lives as long as the prototype
(until the setup cache evicts it or ``clear_setup_cache`` runs); an
unshared install has none, and a change to an image that the
controller did not make drops it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List

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
    return _campaign(result, crash_points(len(log), num_points, seed))


def exhaustive_crash_test(result: SimulationResult) -> CrashCampaign:
    """Validate every single crash prefix (small runs only)."""
    return _campaign(result, range(len(result.nvm.persist_log()) + 1))


def _campaign(result: SimulationResult,
              prefixes: Iterable[int]) -> CrashCampaign:
    """Validate the ascending ``prefixes`` through one crash image,
    advanced from each prefix to the next."""
    outcomes = []
    image = None
    for prefix in prefixes:
        image = result.nvm.image_after_prefix(prefix, since=image)
        outcomes.append(CrashOutcome(
            prefix_len=prefix,
            report=result.structure.validate_image(image)))
    return CrashCampaign(mechanism=result.mechanism,
                         workload=result.spec.structure,
                         outcomes=outcomes)
