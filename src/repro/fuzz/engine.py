"""The fuzzing campaign driver.

One campaign is a pure function of ``(workload, mechanism, seed,
budget)``:

1. execution 0 runs the unperturbed schedule, seeding the corpus and
   measuring the decision-index space the nudges range over;
2. the remaining budget runs in fixed-size batches fanned out through
   the :mod:`repro.exp` process-pool runner — mutations are generated
   *before* each batch from per-execution RNG streams, and summaries
   are processed in submission order, so ``--jobs`` changes wall time
   but never a single result;
3. every execution's coverage is merged into the campaign map; runs
   that earned new features enter the corpus as future mutation
   parents;
4. raw findings (failing crash prefixes) are shrunk to locally minimal
   counterexamples, confirmed against the RP consistent-cut checker,
   and serialized as replayable repro files.

The exit contract mirrors the paper's Figure 1: campaigns against
RP-enforcing mechanisms (``enforces_rp``) must find nothing — any
counterexample is a genuine mechanism bug and fails loudly; campaigns
against ARP/NOP must find (and shrink) at least one, or the fuzzer
itself has lost its teeth.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.common.params import MachineConfig
from repro.common.rng import make_rng
from repro.core.simulator import SimulationResult, simulate
from repro.exp.progress import NullProgress, ProgressReporter
from repro.exp.runner import ExperimentRunner, Job, RunSummary
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.leg import FuzzLegSpec
from repro.fuzz.mutation import ScheduleMutation, mutate
from repro.fuzz.reprofile import ReproFile, config_to_dict
from repro.fuzz.shrink import ShrunkCounterexample, shrink_counterexample
from repro.lfds import structure_by_name
from repro.obs.coverage import CoverageMap
from repro.persistency import mechanism_by_name
from repro.workloads.harness import WorkloadSpec

#: Executions per runner batch. Fixed (never derived from ``jobs``):
#: corpus evolution happens at batch boundaries, so the batch size is
#: part of the campaign's deterministic definition.
BATCH_SIZE = 8


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines one fuzzing campaign."""

    workload: str = "hashmap"
    mechanism: str = "arp"
    seed: int = 1
    budget: int = 48
    jobs: int = 1
    num_threads: int = 4
    initial_size: int = 64
    ops_per_thread: int = 8
    crash_samples: int = 16
    continuation_checks: int = 0
    max_counterexamples: int = 2
    corpus_dir: Optional[str] = None
    out_dir: Optional[str] = None
    verbose: bool = False

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(structure=self.workload,
                            num_threads=self.num_threads,
                            initial_size=self.initial_size,
                            ops_per_thread=self.ops_per_thread,
                            seed=self.seed)

    def machine_config(self) -> MachineConfig:
        # Small L1 keeps evictions/downgrades frequent (the triggers
        # the coverage map is keyed on); the retained trace lets the
        # shrinker confirm counterexamples against the cut checker.
        return MachineConfig(num_cores=max(8, self.num_threads),
                             l1_size_bytes=4 * 1024,
                             record_trace=True)


@dataclasses.dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    config: CampaignConfig
    executions: int
    coverage: CoverageMap
    corpus: Corpus
    #: Raw findings: one dict per failing (execution, prefix) pair.
    candidates: List[Dict[str, object]]
    #: Minimized, checker-confirmed counterexamples (with repro paths).
    counterexamples: List[Dict[str, object]]
    seconds: float
    written: List[str] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.candidates

    @property
    def enforces_rp(self) -> bool:
        return mechanism_by_name(self.config.mechanism).enforces_rp

    @property
    def contract_ok(self) -> bool:
        """The Figure-1 expectation: enforcing mechanisms find
        nothing; weak mechanisms yield >= 1 minimized counterexample."""
        if self.enforces_rp:
            return self.clean
        return bool(self.counterexamples)

    def report(self) -> Dict[str, object]:
        return {
            "workload": self.config.workload,
            "mechanism": self.config.mechanism,
            "enforces_rp": self.enforces_rp,
            "seed": self.config.seed,
            "budget": self.config.budget,
            "executions": self.executions,
            "coverage_features": len(self.coverage),
            "corpus_size": len(self.corpus),
            "candidates": len(self.candidates),
            "counterexamples": [
                {key: value for key, value in ce.items()
                 if key != "mutation"}
                for ce in self.counterexamples
            ],
            "clean": self.clean,
            "contract_ok": self.contract_ok,
            "seconds": round(self.seconds, 3),
            "execs_per_sec": round(self.executions / self.seconds, 2)
            if self.seconds else None,
        }


def _job(config: CampaignConfig, mutation: ScheduleMutation,
         exec_index: int) -> Job:
    return Job(
        spec=config.spec(),
        mechanism=config.mechanism,
        config=config.machine_config(),
        schedule_nudges=mutation.nudges if len(mutation) else None,
        fuzz=FuzzLegSpec(crash_samples=config.crash_samples,
                         crash_seed=config.seed,
                         exec_index=exec_index,
                         continuation_checks=config.continuation_checks),
    )


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run one coverage-guided campaign to completion."""
    if config.budget < 1:
        raise ValueError("budget must be >= 1")
    # An unknown name raises here, before any progress meter starts.
    mechanism_by_name(config.mechanism)
    structure_by_name(config.workload)
    start = time.perf_counter()
    progress = ProgressReporter() if config.verbose else NullProgress()
    runner = ExperimentRunner(jobs=config.jobs, progress=progress)

    coverage = CoverageMap()
    corpus = Corpus()
    candidates: List[Dict[str, object]] = []
    mutations: Dict[int, ScheduleMutation] = {}

    # Execution 0: the unperturbed baseline seeds corpus + coverage
    # and measures the decision space.
    baseline = ScheduleMutation()
    mutations[0] = baseline
    [summary] = runner.run([_job(config, baseline, 0)], label="fuzz:0")
    decision_space = max(1, int(summary.fuzz["executed_ops"]))
    _ingest(summary, baseline, 0, None, coverage, corpus, candidates)

    exec_index = 1
    while exec_index < config.budget:
        batch_indices = list(range(
            exec_index, min(exec_index + BATCH_SIZE, config.budget)))
        jobs: List[Job] = []
        parents: Dict[int, str] = {}
        for index in batch_indices:
            rng = make_rng(config.seed, "mutate", index)
            parent = corpus.select(rng)
            child = mutate(parent.mutation, rng, decision_space)
            mutations[index] = child
            parents[index] = parent.mutation.digest()
            jobs.append(_job(config, child, index))
        summaries = runner.run(jobs, label=f"fuzz:{batch_indices[0]}")
        for index, summary in zip(batch_indices, summaries):
            _ingest(summary, mutations[index], index, parents[index],
                    coverage, corpus, candidates)
        exec_index = batch_indices[-1] + 1

    counterexamples = _shrink_candidates(config, candidates)
    written: List[str] = []
    if config.out_dir:
        for ce in counterexamples:
            path = _write_repro(config, ce)
            ce["repro_path"] = path
            written.append(path)
    if config.corpus_dir:
        written.extend(corpus.save(config.corpus_dir, coverage))

    return CampaignResult(
        config=config, executions=config.budget, coverage=coverage,
        corpus=corpus, candidates=candidates,
        counterexamples=counterexamples,
        seconds=time.perf_counter() - start, written=written)


def _ingest(summary: RunSummary, mutation: ScheduleMutation,
            exec_index: int, parent_digest: Optional[str],
            coverage: CoverageMap, corpus: Corpus,
            candidates: List[Dict[str, object]]) -> None:
    """Fold one execution's summary into the campaign state."""
    leg = summary.fuzz or {}
    run_cov = CoverageMap.from_list(leg.get("coverage", []))
    new = coverage.merge(run_cov)
    if new > 0 or exec_index == 0:
        corpus.add(CorpusEntry(mutation=mutation, exec_index=exec_index,
                               parent_digest=parent_digest,
                               new_features=new))
    for failure in leg.get("failures", []):
        candidates.append({
            "exec_index": exec_index,
            "mutation": mutation,
            "kind": failure["kind"],
            "prefix": int(failure["prefix"]),
            "problems": list(failure.get("problems", [])),
            "continuation": failure.get("continuation"),
        })


def _shrink_candidates(config: CampaignConfig,
                       candidates: List[Dict[str, object]]
                       ) -> List[Dict[str, object]]:
    """Shrink + confirm up to ``max_counterexamples`` raw findings.

    Structural findings shrink (the common case); linearizability and
    continuation findings are passed through unshrunk — they implicate
    the schedule itself or the post-crash replay, where dropping
    nudges has no defined oracle short of a full re-exploration.
    """
    spec = config.spec()
    machine_cfg = config.machine_config()

    def run(mutation: ScheduleMutation) -> SimulationResult:
        return simulate(spec, config.mechanism, machine_cfg,
                        schedule_nudges=(mutation.as_dict()
                                         if len(mutation) else None))

    out: List[Dict[str, object]] = []
    seen_digests = set()
    emitted = set()
    for candidate in candidates:
        if len(out) >= config.max_counterexamples:
            break
        mutation: ScheduleMutation = candidate["mutation"]
        if candidate["kind"] != "structural":
            verdict = {"kind": candidate["kind"],
                       "problems": candidate["problems"]}
            if candidate.get("continuation"):
                verdict["continuation"] = candidate["continuation"]
            out.append({**candidate, "shrunk": False,
                        "nudges": len(mutation), "verdict": verdict})
            continue
        digest = mutation.digest()
        if digest in seen_digests:
            continue
        seen_digests.add(digest)
        shrunk = shrink_counterexample(mutation, candidate["prefix"], run)
        if shrunk is None:
            raise AssertionError(
                f"non-reproducible finding at exec "
                f"{candidate['exec_index']}: the oracle is "
                "non-deterministic — this is a fuzzer bug")
        confirmed = _confirm(config, run, shrunk, candidate)
        # Distinct raw findings often shrink to the same minimum
        # (typically the empty mutation + first failing prefix);
        # report each minimal counterexample once.
        key = (confirmed["mutation"].digest(), confirmed["prefix"],
               tuple(confirmed["problems"][:1]))
        if key in emitted:
            continue
        emitted.add(key)
        out.append(confirmed)
    return out


def _confirm(config: CampaignConfig, run, shrunk: ShrunkCounterexample,
             candidate: Dict[str, object]) -> Dict[str, object]:
    """Re-run the shrunk pair and attach the checker's verdict."""
    result = run(shrunk.mutation)
    report = result.structure.validate_image(
        result.nvm.image_after_prefix(shrunk.prefix))
    if report.ok:
        raise AssertionError(
            "shrunk counterexample stopped failing on re-run — "
            "the shrinker is unsound")
    verdict: Dict[str, object] = {
        "kind": "structural",
        "problems": [str(p) for p in report.problems[:3]],
    }
    if result.config.record_trace:
        from repro.persistency.checker import RPChecker

        checker = RPChecker(result.trace, result.nvm,
                            boundary_event=result.machine.boundary_event)
        verdict["cut_violations"] = len(checker.check_cut(shrunk.prefix))
    return {
        "exec_index": candidate["exec_index"],
        "kind": "structural",
        "mutation": shrunk.mutation,
        "nudges": len(shrunk.mutation),
        "prefix": shrunk.prefix,
        "original_nudges": shrunk.original_nudges,
        "original_prefix": shrunk.original_prefix,
        "probes": shrunk.probes,
        "strictly_smaller": shrunk.strictly_smaller,
        "shrunk": True,
        "verdict": verdict,
        "problems": verdict["problems"],
    }


def _write_repro(config: CampaignConfig,
                 ce: Dict[str, object]) -> str:
    import os

    mutation: ScheduleMutation = ce["mutation"]
    repro = ReproFile(
        workload=dataclasses.asdict(config.spec()),
        mechanism=config.mechanism,
        config=config_to_dict(config.machine_config()),
        mutation=[list(nudge) for nudge in mutation.nudges],
        prefix=int(ce["prefix"]),
        verdict=dict(ce["verdict"]),
        campaign={"seed": config.seed, "budget": config.budget,
                  "exec_index": ce["exec_index"],
                  "workload": config.workload},
    )
    name = f"ce-{config.mechanism}-{mutation.digest()}-p{ce['prefix']}.json"
    path = os.path.join(config.out_dir, name)
    repro.save(path)
    return path
