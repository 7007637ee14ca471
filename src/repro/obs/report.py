"""Critical-path attribution: where did the makespan go?

The paper's argument (Sections 2 and 4) is about *which* writebacks sit
on the execution critical path. This report makes the claim inspectable
for a concrete run: every core's final clock decomposes exactly into

* **compute** — WORK-op cycles plus the fixed per-op compute charge
  (collected by the scheduler under ``sched.compute_cycles.c<i>``);
* **persist stall** — cycles the thread blocked on persist acks
  (``CoreStats.persist_stall_cycles``, with the per-reason split from
  ``stall_reasons``);
* **coherence** — everything else: L1/LLC/NoC latency including waits
  on directory-blocked lines (the remainder, by construction).

The *run's* critical path is the slowest core's decomposition — that
core's clock **is** the makespan. Machine-wide totals are reported too;
their persist-stall component reconciles exactly with
``RunStats.persist_stall_cycles`` (pinned by ``tests/test_obs.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

from repro.common.stats import RunStats


@dataclasses.dataclass(frozen=True)
class CoreAttribution:
    """One core's clock split into the three segment classes."""

    core: int
    total: int
    compute: int
    persist_stall: int

    @property
    def coherence(self) -> int:
        return self.total - self.compute - self.persist_stall


@dataclasses.dataclass
class RunAttribution:
    """Per-mechanism critical-path decomposition of one run."""

    mechanism: str
    workload: str
    makespan: int
    cores: List[CoreAttribution]
    stall_reasons: Dict[str, int]

    @property
    def persist_stall_total(self) -> int:
        """Machine-wide persist-stall cycles (== the RunStats total)."""
        return sum(core.persist_stall for core in self.cores)

    @property
    def critical_core(self) -> CoreAttribution:
        """The slowest core — its clock is the run's makespan."""
        return max(self.cores, key=lambda c: (c.total, -c.core))

    def top_stall_reasons(self, limit: int = 3) -> List[str]:
        items = sorted(self.stall_reasons.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:limit]
        return [f"{reason}:{cycles}" for reason, cycles in items]


def attribute_run(stats: RunStats,
                  counters: Mapping[str, int]) -> RunAttribution:
    """Build the attribution from run stats plus the obs counters."""
    cores = []
    for core in stats.per_core:
        compute = int(counters.get(
            f"sched.compute_cycles.c{core.core_id}", 0))
        cores.append(CoreAttribution(
            core=core.core_id, total=core.cycles, compute=compute,
            persist_stall=core.persist_stall_cycles))
    return RunAttribution(
        mechanism=stats.mechanism, workload=stats.workload,
        makespan=stats.execution_cycles, cores=cores,
        stall_reasons=stats.stall_breakdown())


def attribute_summary(summary) -> RunAttribution:
    """Attribution for a :class:`~repro.exp.runner.RunSummary`.

    The summary must have been produced with obs collection enabled
    (``Job.collect_obs`` / ``--obs``) so it carries the counters.
    """
    obs = getattr(summary, "obs", None)
    if not obs:
        raise ValueError(
            f"run {summary.spec.structure}/{summary.mechanism} carries no "
            "obs data — re-run with obs collection enabled (--obs)")
    counters = obs["metrics"].get("counters", {})
    return attribute_run(summary.stats, counters)


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "  n/a "


def render_attribution(attributions: Sequence[RunAttribution],
                       title: Optional[str] = None) -> str:
    """Fixed-width report over a set of runs (one row per run).

    Segment percentages are of the *critical core's* clock — the actual
    makespan decomposition; the trailing columns give the machine-wide
    persist-stall total and the dominant stall reasons.
    """
    title = title or "Critical-path attribution (makespan split)"
    headers = ["workload", "mech", "makespan", "compute", "coherence",
               "persist-stall", "stall cycles (all cores)", "top reasons"]
    rows: List[List[str]] = []
    for attribution in attributions:
        critical = attribution.critical_core
        rows.append([
            attribution.workload,
            attribution.mechanism,
            str(attribution.makespan),
            _pct(critical.compute, critical.total),
            _pct(critical.coherence, critical.total),
            _pct(critical.persist_stall, critical.total),
            str(attribution.persist_stall_total),
            " ".join(attribution.top_stall_reasons()) or "-",
        ])
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    lines = [title, "-" * len(title),
             "  ".join(headers[i].ljust(widths[i])
                       for i in range(len(headers)))]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(row))))
    return "\n".join(lines)


def render_summaries(summaries: Sequence, title: Optional[str] = None,
                     ) -> str:
    """Attribution report straight from obs-carrying run summaries."""
    return render_attribution(
        [attribute_summary(s) for s in summaries], title)
