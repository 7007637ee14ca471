"""The per-execution fuzzing leg: coverage harvest + crash-point verdicts.

``repro.exp.runner.execute_job`` calls :func:`run_fuzz_leg` for any
job carrying a :class:`FuzzLegSpec`; everything here runs next to the
freshly simulated run and returns a small plain-dict payload
(``RunSummary.fuzz``).

Verdict oracles, in escalating strength:

1. the per-LFD **structural null-recovery validator**
   (``structure.validate_image``) over every sampled crash image —
   cheap, runs at every sampled prefix;
2. optionally, **recover-and-continue replay**
   (:func:`repro.core.replay.recover_and_continue`) on a budgeted
   number of structurally-valid images: the recovered structure must
   actually operate linearizably, catching anything the structural
   checks are too weak to see;
3. the run's **final-state oracle** (``verify_final_state``) — a
   linearizability check of the *perturbed schedule itself*,
   independent of crashes.

The engine later confirms shrunk counterexamples against the RP
consistent-cut checker (:mod:`repro.persistency.checker`), which needs
the retained event trace and therefore stays out of this leg.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.common.rng import make_rng
from repro.core.simulator import SimulationResult
from repro.fuzz.crashpoints import prefix_weights, sample_prefixes, \
    trigger_map
from repro.obs.coverage import coverage_from_obs


@dataclasses.dataclass(frozen=True)
class FuzzLegSpec:
    """Per-execution fuzzing parameters (picklable, cache-keyable)."""

    #: Crash prefixes sampled per execution (coverage-weighted).
    crash_samples: int = 16
    #: Campaign seed; combined with ``exec_index`` for the sample RNG.
    crash_seed: int = 0
    #: Position of this execution in the campaign (decorrelates RNGs).
    exec_index: int = 0
    #: Recover-and-continue replays on structurally-valid images
    #: (0 = off; each one re-runs a small workload, so budget it).
    continuation_checks: int = 0


def run_fuzz_leg(result: SimulationResult,
                 obs_export: Optional[Dict[str, object]],
                 spec: FuzzLegSpec) -> Dict[str, object]:
    """Harvest coverage and crash-test one finished (perturbed) run."""
    export = obs_export or {}
    coverage = coverage_from_obs(export, result.stats)
    provenance = export.get("provenance")
    triggers = trigger_map(provenance) if isinstance(provenance, dict) \
        else {}

    log = result.nvm.persist_log()
    rng = make_rng(spec.crash_seed, "crashfuzz", spec.exec_index)
    weights = prefix_weights(log, triggers)
    sampled = sample_prefixes(weights, spec.crash_samples, rng)

    failures: List[Dict[str, object]] = []
    valid_prefixes: List[int] = []
    image = None
    for prefix in sampled:   # ascending: one image advances through them
        image = result.nvm.image_after_prefix(prefix, since=image)
        report = result.structure.validate_image(image)
        if report.ok:
            valid_prefixes.append(prefix)
        else:
            failures.append({
                "kind": "structural",
                "prefix": prefix,
                "problems": [str(p) for p in report.problems[:3]],
            })

    # Linearizability of the perturbed schedule itself (crash-free).
    try:
        result.verify_final_state()
    except AssertionError as exc:
        failures.append({
            "kind": "linearizability",
            "prefix": len(log),
            "problems": [str(exc)],
        })

    continuations = 0
    if spec.continuation_checks:
        from repro.core.replay import RecoveryReplayError, \
            recover_and_continue

        # Deepest-first: later cuts exercise more recovered state.
        for prefix in reversed(valid_prefixes):
            if continuations >= spec.continuation_checks:
                break
            continuations += 1
            params = {
                "num_threads": 2,
                "ops_per_thread": 8,
                "mechanism": result.mechanism,
                "seed": spec.crash_seed * 1_000_003 + spec.exec_index,
            }
            try:
                recover_and_continue(result, prefix, **params)
            except RecoveryReplayError as exc:
                failures.append({
                    "kind": "continuation",
                    "prefix": prefix,
                    "problems": [str(exc)],
                    "continuation": params,
                })

    return {
        "coverage": coverage.to_list(),
        "executed_ops": result.executed_ops,
        "log_length": len(log),
        "sampled_prefixes": sampled,
        "failures": failures,
        "continuations": continuations,
    }
