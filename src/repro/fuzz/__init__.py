"""``repro.fuzz`` — coverage-guided persistency fuzzing.

The paper's claim (Figure 1, Sections 3-4) is universally quantified:
RP-enforcing mechanisms (SB/BB/LRP) leave NVM in a consistent cut at
*every* crash point of *every* execution, while ARP and volatile
execution do not. The existing validation covers two corners — 24
uniformly sampled crash prefixes of the one smallest-clock-first
schedule per run, and exhaustive schedule enumeration for the tiny
Figure-1 litmus program. The bugs, as the model-checking literature on
persistency semantics keeps finding, live in rare interleaving x
crash-point combinations. This package explores that joint space
against the real LFD workloads:

* :mod:`repro.fuzz.mutation` — schedule perturbations: seeded priority
  nudges applied through the scheduler's fuzzing hook
  (:meth:`~repro.core.scheduler.Scheduler.set_nudges`), mutated
  add/drop/shift-style under a campaign RNG;
* :mod:`repro.obs.coverage` — the feedback signal: bucketed
  (coherence transition, persist trigger, site) features harvested
  from the provenance/metrics observer layers;
* :mod:`repro.fuzz.crashpoints` — coverage-weighted crash-prefix
  sampling, biased toward release/downgrade-adjacent persist-log
  indices (where the Figure-1 failure mode lives);
* :mod:`repro.fuzz.leg` — the per-execution verdict: per-LFD structural
  null-recovery validators, optional recover-and-continue replay, each
  execution a :mod:`repro.exp` job;
* :mod:`repro.fuzz.shrink` — counterexample minimization to a locally
  minimal (nudge set, crash prefix) pair, confirmed against the
  RP consistent-cut checker;
* :mod:`repro.fuzz.corpus` / :mod:`repro.fuzz.engine` — the on-disk
  corpus and the campaign driver behind ``python -m repro.fuzz``.

Everything is deterministic: a campaign is a pure function of
``(workload, mechanism, seed, budget)`` — corpus, coverage map and
counterexamples are bit-identical across runs.
"""

from __future__ import annotations

from repro.fuzz.engine import CampaignConfig, CampaignResult, run_campaign
from repro.fuzz.leg import FuzzLegSpec
from repro.fuzz.mutation import ScheduleMutation, mutate
from repro.fuzz.reprofile import ReproFile, replay_repro

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "FuzzLegSpec",
    "ReproFile",
    "ScheduleMutation",
    "mutate",
    "replay_repro",
    "run_campaign",
]
