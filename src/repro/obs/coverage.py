"""Behavioural coverage map for the persistency fuzzer.

Uniform crash sampling misses rare interleaving x crash-point bugs
because it has no notion of whether a mutated run *did anything new*.
This module gives the fuzzer that signal: a :class:`CoverageMap` is a
set of **features** harvested from a run's ``RunStats`` and the
(opt-in, bit-identical) :class:`~repro.obs.Observer` export —

* ``persist`` features — one per observed ``(trigger, site)`` pair of
  the provenance capture (which coherence/persistency event persisted
  which workload step's line; a ``downgrade`` or ``eviction`` trigger
  marks a dirty line leaving by that transition);
* ``stall`` features — one per ``(reason, site)`` stall charge pair;
* ``coh`` features — the run's coherence transition totals from
  ``RunStats`` (downgrades, evictions, invalidations);
* ``edge`` features — release->acquire happens-before edges enforced
  by coherence-triggered persists, by (owner, requester) core pair;
* ``order`` features — adjacent ``site -> site`` pairs in the global
  persist order (provenance entries by seq). Persist *order* is the
  consistent-cut structure itself, so a schedule perturbation that
  reorders persists — exactly the kind of run crash-point fuzzing
  wants to crash inside — earns new coverage even when every
  per-site count stays in the same bucket.

Each feature carries an AFL-style bucketed count (1, 2, 3, 4-7, 8-15,
... power-of-two buckets): revisiting a behaviour *much more often*
still counts as new coverage once per bucket, while jitter inside a
bucket does not. Maps merge; ``merge`` returns how many features were
new, which is the fuzzer's "keep this input" decision.

Serialization is a sorted list of feature strings — deterministic, so
campaign corpora are bit-identical for a given seed, and small enough
to ride in ``RunSummary.obs["coverage"]`` through worker processes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.stats import RunStats

#: Coherence-transition features: feature name -> the ``CoreStats``
#: field summed over the run's cores.
_COH_TOTALS = (
    ("coh.downgrades", "downgrades_received"),
    ("coh.evictions", "evictions"),
    ("coh.invalidations", "invalidations_received"),
)


def bucket(count: int) -> int:
    """AFL-style count bucket: 0, 1, 2, 3, then powers of two."""
    if count <= 3:
        return max(count, 0)
    return 1 << (count.bit_length() - 1)


class CoverageMap:
    """A mergeable set of bucketed behaviour features."""

    __slots__ = ("_features",)

    def __init__(self, features: Optional[Iterable[str]] = None) -> None:
        self._features = set(features or ())

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, feature: str) -> bool:
        return feature in self._features

    def add_count(self, kind: str, *parts: object, count: int = 1) -> None:
        """Record one feature with its bucketed count."""
        if count <= 0:
            return
        key = "|".join(str(part) for part in parts)
        self._features.add(f"{kind}|{key}|b{bucket(count)}")

    def merge(self, other: "CoverageMap") -> int:
        """Union ``other`` in; returns the number of new features."""
        new = other._features - self._features
        self._features |= new
        return len(new)

    def new_features(self, other: "CoverageMap") -> int:
        """How many of ``other``'s features this map lacks (read-only)."""
        return len(other._features - self._features)

    # -- (de)serialization --------------------------------------------

    def to_list(self) -> List[str]:
        """Deterministic serialized form (sorted feature strings)."""
        return sorted(self._features)

    @classmethod
    def from_list(cls, features: Iterable[str]) -> "CoverageMap":
        return cls(features)


def coverage_from_obs(export: Dict[str, object],
                      stats: RunStats) -> CoverageMap:
    """Build a run's coverage map from its ``RunStats`` and its
    ``Observer.export()`` dump.

    The coherence totals come from ``stats``; the persist, stall, edge
    and order features from the export's provenance, when the run
    collected it (the fuzzer always does).
    """
    cov = CoverageMap()
    for name, field in _COH_TOTALS:
        cov.add_count("coh", name, count=sum(
            getattr(core, field) for core in stats.per_core))

    provenance = export.get("provenance")
    if isinstance(provenance, dict):
        persist_counts: Dict[Tuple[str, str], int] = {}
        edge_counts: Dict[Tuple[str, int, int], int] = {}
        order_counts: Dict[Tuple[str, str], int] = {}
        previous_site: Optional[str] = None
        for entry in sorted(provenance.get("persists", ()),
                            key=lambda e: int(e["seq"])):
            key = (str(entry["trigger"]), str(entry["site"]))
            persist_counts[key] = persist_counts.get(key, 0) + 1
            edge = entry.get("edge")
            if edge is not None:
                ekey = (str(entry["trigger"]), int(edge[0]), int(edge[1]))
                edge_counts[ekey] = edge_counts.get(ekey, 0) + 1
            site = str(entry["site"])
            if previous_site is not None and previous_site != site:
                okey = (previous_site, site)
                order_counts[okey] = order_counts.get(okey, 0) + 1
            previous_site = site
        for (trigger, site), count in persist_counts.items():
            cov.add_count("persist", trigger, site, count=count)
        for (before, after), count in order_counts.items():
            cov.add_count("order", before, after, count=count)
        for (trigger, owner, requester), count in edge_counts.items():
            cov.add_count("edge", trigger, owner, requester, count=count)
        for site, reason, _cycles, count in provenance.get("stalls", ()):
            cov.add_count("stall", reason, site, count=int(count))
    return cov
