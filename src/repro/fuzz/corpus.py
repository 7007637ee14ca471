"""The fuzzing corpus: coverage-earning schedule mutations.

An entry is a mutation that produced at least one new coverage feature
when it ran. Entries live in memory during a campaign and optionally
persist to an on-disk directory — one JSON file per entry, named by
``<exec_index>-<digest>`` so a directory listing reads as campaign
history, plus a ``coverage.json`` with the final global map. All file
contents are deterministic functions of (seed, budget): bit-identical
corpora across re-runs (pinned by tests).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from typing import Dict, List, Optional

from repro.fuzz.mutation import ScheduleMutation
from repro.obs.coverage import CoverageMap


@dataclasses.dataclass
class CorpusEntry:
    """One coverage-earning mutation."""

    mutation: ScheduleMutation
    exec_index: int
    parent_digest: Optional[str]
    new_features: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "mutation": [list(nudge) for nudge in self.mutation.nudges],
            "digest": self.mutation.digest(),
            "exec_index": self.exec_index,
            "parent": self.parent_digest,
            "new_features": self.new_features,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CorpusEntry":
        mutation = ScheduleMutation.make(
            (int(d), int(r)) for d, r in data.get("mutation", []))
        return cls(mutation=mutation,
                   exec_index=int(data.get("exec_index", 0)),
                   parent_digest=data.get("parent"),
                   new_features=int(data.get("new_features", 0)))


class Corpus:
    """Ordered collection of coverage-earning mutations."""

    def __init__(self) -> None:
        self.entries: List[CorpusEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: CorpusEntry) -> None:
        self.entries.append(entry)

    def select(self, rng: random.Random) -> CorpusEntry:
        """Pick a parent for the next mutation (uniform; the coverage
        gate already biases the corpus toward interesting schedules)."""
        if not self.entries:
            raise ValueError("corpus is empty")
        return self.entries[rng.randrange(len(self.entries))]

    def digests(self) -> List[str]:
        return [entry.mutation.digest() for entry in self.entries]

    # -- persistence ---------------------------------------------------

    def save(self, directory: str, coverage: CoverageMap) -> List[str]:
        """Write every entry plus the global coverage map; returns the
        written paths (relative file names, sorted write order)."""
        os.makedirs(directory, exist_ok=True)
        written = []
        for entry in self.entries:
            name = (f"{entry.exec_index:06d}-"
                    f"{entry.mutation.digest()}.json")
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry.to_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            written.append(name)
        cov_path = os.path.join(directory, "coverage.json")
        with open(cov_path, "w", encoding="utf-8") as handle:
            json.dump({"features": coverage.to_list()}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        written.append("coverage.json")
        return written

    @classmethod
    def load(cls, directory: str) -> "Corpus":
        corpus = cls()
        if not os.path.isdir(directory):
            return corpus
        for name in sorted(os.listdir(directory)):
            if name == "coverage.json" or not name.endswith(".json"):
                continue
            with open(os.path.join(directory, name), "r",
                      encoding="utf-8") as handle:
                corpus.add(CorpusEntry.from_dict(json.load(handle)))
        corpus.entries.sort(key=lambda e: e.exec_index)
        return corpus


def load_coverage(directory: str) -> CoverageMap:
    """The saved global coverage map of a corpus directory."""
    path = os.path.join(directory, "coverage.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError:
        return CoverageMap()
    return CoverageMap.from_list(data.get("features", []))
