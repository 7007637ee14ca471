"""Counterexample shrinking: minimize (schedule mutation, crash prefix).

A raw finding from a campaign is a mutated schedule plus one sampled
crash prefix whose NVM image fails null recovery. Most of that is
noise: typically only a few (often zero) of the nudges matter, and the
*first* failing prefix is far earlier than the sampled one. The
shrinker reduces the pair until it is **locally minimal**:

* dropping any single remaining nudge makes every crash prefix of the
  re-run recover (greedy delta-debugging over the nudge set, restarted
  after every successful removal);
* the reported prefix is the smallest failing prefix of the final
  mutation's run — by construction no shorter prefix fails.

Each probe re-simulates the workload (deterministic, so probes are
pure), making shrinking O(nudges^2 + 1) simulations — small, because
mutations are capped at 8 nudges.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from repro.core.simulator import SimulationResult
from repro.fuzz.mutation import ScheduleMutation

#: Runs the workload under a mutation (the engine binds spec/config).
RunFn = Callable[[ScheduleMutation], SimulationResult]


@dataclasses.dataclass
class ShrunkCounterexample:
    """A locally minimal failing (mutation, prefix) pair."""

    mutation: ScheduleMutation
    prefix: int
    problems: List[str]
    #: Sizes of the raw finding this was shrunk from.
    original_nudges: int = 0
    original_prefix: int = 0
    probes: int = 0

    @property
    def strictly_smaller(self) -> bool:
        """Strictly smaller than the raw finding in both dimensions
        that had slack (fewer nudges if there were any, shorter prefix
        if the first failure precedes the sampled one)."""
        no_worse = (len(self.mutation) <= self.original_nudges
                    and self.prefix <= self.original_prefix)
        return no_worse and (len(self.mutation) < self.original_nudges
                             or self.prefix < self.original_prefix)


def first_failing_prefix(result: SimulationResult
                         ) -> Optional[Tuple[int, List[str]]]:
    """Smallest crash prefix whose image fails structural validation."""
    log_len = len(result.nvm.persist_log())
    image = None
    for prefix in range(log_len + 1):
        image = result.nvm.image_after_prefix(prefix, since=image)
        report = result.structure.validate_image(image)
        if not report.ok:
            return prefix, [str(p) for p in report.problems[:3]]
    return None


def shrink_counterexample(mutation: ScheduleMutation,
                          sampled_prefix: int,
                          run: RunFn) -> Optional[ShrunkCounterexample]:
    """Shrink a raw finding to a locally minimal counterexample.

    Returns None if the finding does not reproduce (the re-run of the
    unmodified mutation has no failing prefix) — a non-deterministic
    oracle would be a bug, and the engine treats it loudly as one.
    """
    probes = 1
    failure = first_failing_prefix(run(mutation))
    if failure is None:
        return None
    current = mutation
    prefix, problems = failure
    changed = True
    while changed and len(current):
        changed = False
        for drop in range(len(current.nudges)):
            trial = ScheduleMutation(current.nudges[:drop]
                                     + current.nudges[drop + 1:])
            probes += 1
            failure = first_failing_prefix(run(trial))
            if failure is not None:
                current = trial
                prefix, problems = failure
                changed = True
                break
    return ShrunkCounterexample(
        mutation=current, prefix=prefix, problems=problems,
        original_nudges=len(mutation), original_prefix=sampled_prefix,
        probes=probes)
