"""Persist provenance: *why* did each line persist, and *who paid*?

The metrics/timeline layers (PR 2/3) say how much time went to persist
stalls and when; this layer records the **causal chain** behind each
persist and each stall, which is the paper's actual argument: LRP wins
because persists are triggered lazily by specific coherence events
(eviction / downgrade of a released line) instead of eagerly at a
barrier, so fewer writebacks land on somebody's critical path.

Two record streams, both opt-in via ``Observer(provenance=True)`` and
bit-identical when enabled (the tracker only reads simulator state):

* **persist entries** — one per issued line (or word) persist:
  the *site* that dirtied the line (stable
  ``<structure>.<operation>.<step>`` ids threaded through the workload
  harness), the *trigger* from the mechanism's taxonomy (``barrier``,
  ``eviction``, ``downgrade``, ``epoch-drain``, ...), the
  release/acquire happens-before edge it enforces (owner -> requester
  cores, for coherence-triggered persists), issue/ack times, and
  whether the persist was later promoted to the critical path;
* **stall entries** — aggregated ``(site, reason) -> cycles`` charges,
  attributed to the site of the op the waiting thread was executing.
  Their sum reconciles **exactly** with
  ``RunStats.persist_stall_cycles`` (every charge goes through
  ``PersistencyMechanism._charge_stall``) — pinned by
  ``tests/test_provenance.py``.

The collapsed-stack flamegraph (:mod:`repro.obs.flame`) and the
differential run comparison (:mod:`repro.obs.diff`) are both built
from the serialized form, which travels inside
``RunSummary.obs["provenance"]`` like every other obs payload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Site used when provenance is on but the op carries no site id
#: (e.g. a hand-built workload outside the harness).
UNTAGGED_SITE = "(untagged)"

#: Site attributed to end-of-run / checkpoint drains: those persists
#: and stalls happen after the last workload op completes.
DRAIN_SITE = "(drain)"

#: The canonical trigger taxonomy. Mechanisms may only use these
#: values (pinned by tests); the first four are the ones the paper's
#: argument revolves around.
TRIGGERS = (
    "barrier",        # SB's blocking full barrier flushes the epoch
    "eviction",       # a dirty line displaced from the private L1
    "downgrade",      # a remote request demotes a dirty line (hb edge)
    "epoch-drain",    # BB epoch flush / LRP RET-watermark engine run
    "release",        # a release displaces older dirty state (LRP)
    "rmw-acquire",    # LRP invariant I3: acquire-RMW persists its write
    "epoch-wrap",     # LRP epoch-id overflow drains the core
    "store-buffer",   # ARP/DPO/HOPS word persists enqueue on the store
    "drain",          # end-of-run / checkpoint drain
)


class PersistEntry:
    """One issued persist and its causal chain."""

    __slots__ = ("seq", "line", "core", "trigger", "site", "stores",
                 "foreign_stores", "issue_time", "complete_time",
                 "edge", "critical")

    def __init__(self, seq: int, line: int, core: int, trigger: str,
                 site: str, stores: int, foreign_stores: int,
                 issue_time: int, complete_time: int,
                 edge: Optional[Tuple[int, int]] = None) -> None:
        self.seq = seq
        self.line = line
        self.core = core
        self.trigger = trigger
        self.site = site
        self.stores = stores
        self.foreign_stores = foreign_stores
        self.issue_time = issue_time
        self.complete_time = complete_time
        self.edge = edge
        self.critical = False

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "seq": self.seq,
            "line": self.line,
            "core": self.core,
            "trigger": self.trigger,
            "site": self.site,
            "stores": self.stores,
            "issue": self.issue_time,
            "ack": self.complete_time,
            "critical": self.critical,
        }
        if self.foreign_stores:
            data["foreign_stores"] = self.foreign_stores
        if self.edge is not None:
            data["edge"] = list(self.edge)
        return data


class ProvenanceTracker:
    """Per-run provenance collector (created by ``Observer``).

    The machine narrates the current *site* (the op being executed —
    the simulator performs one memory op at a time, so a single slot
    suffices); the persistency mechanisms narrate stores, persists,
    stalls and critical-path promotions. Everything is read-only with
    respect to the simulation, so enabling provenance is bit-identical.
    """

    __slots__ = ("mechanism", "current_site", "persists", "stalls",
                 "stall_counts", "_dirty", "_by_seq")

    def __init__(self) -> None:
        self.mechanism = "?"
        self.current_site = UNTAGGED_SITE
        self.persists: List[PersistEntry] = []
        #: (site, reason) -> stall cycles; reconciles with
        #: ``RunStats.persist_stall_cycles`` exactly.
        self.stalls: Dict[Tuple[str, str], int] = {}
        self.stall_counts: Dict[Tuple[str, str], int] = {}
        # (core, line addr) -> [first dirtier site, stores, foreign]
        self._dirty: Dict[Tuple[int, int], List] = {}
        self._by_seq: Dict[int, PersistEntry] = {}

    # -- narration hooks ----------------------------------------------

    def begin_op(self, site: Optional[str]) -> None:
        """The machine starts executing an op tagged with ``site``."""
        self.current_site = site if site is not None else UNTAGGED_SITE

    def note_store(self, core: int, line_addr: int) -> None:
        """A store merged into a (now dirty) line's pending words."""
        key = (core, line_addr)
        entry = self._dirty.get(key)
        if entry is None:
            self._dirty[key] = [self.current_site, 1, 0]
        else:
            entry[1] += 1
            if entry[0] != self.current_site:
                entry[2] += 1

    def note_persist(self, core: int, record, trigger: str,
                     edge: Optional[Tuple[int, int]] = None) -> None:
        """A line persist was issued (mechanism ``_issue_line`` path)."""
        dirty = self._dirty.pop((core, record.line_addr), None)
        if dirty is None:
            site, stores, foreign = UNTAGGED_SITE, 0, 0
        else:
            site, stores, foreign = dirty
        entry = PersistEntry(
            seq=record.issue_seq, line=record.line_addr, core=core,
            trigger=trigger, site=site, stores=stores,
            foreign_stores=foreign, issue_time=record.issue_time,
            complete_time=record.complete_time, edge=edge)
        self.persists.append(entry)
        self._by_seq[record.issue_seq] = entry

    def note_word_persist(self, core: int, record, trigger: str) -> None:
        """A word-granular persist enqueued on the store itself
        (ARP / DPO / HOPS persist-buffer designs)."""
        entry = PersistEntry(
            seq=record.issue_seq, line=record.line_addr, core=core,
            trigger=trigger, site=self.current_site, stores=1,
            foreign_stores=0, issue_time=record.issue_time,
            complete_time=record.complete_time)
        self.persists.append(entry)
        self._by_seq[record.issue_seq] = entry

    def note_stall(self, reason: str, cycles: int) -> None:
        """Stall cycles charged to a thread (site = its current op)."""
        key = (self.current_site, reason)
        self.stalls[key] = self.stalls.get(key, 0) + cycles
        self.stall_counts[key] = self.stall_counts.get(key, 0) + 1

    def note_critical(self, seq: int) -> None:
        """The persist ``seq`` was promoted to the critical path."""
        entry = self._by_seq.get(seq)
        if entry is not None:
            entry.critical = True

    # -- aggregation ---------------------------------------------------

    def stall_total(self) -> int:
        return sum(self.stalls.values())

    def persist_counts_by_site(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.persists:
            counts[entry.site] = counts.get(entry.site, 0) + 1
        return counts

    def persist_counts_by_trigger(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.persists:
            counts[entry.trigger] = counts.get(entry.trigger, 0) + 1
        return counts

    def stall_cycles_by_site(self) -> Dict[str, int]:
        cycles: Dict[str, int] = {}
        for (site, _reason), value in self.stalls.items():
            cycles[site] = cycles.get(site, 0) + value
        return cycles

    # -- (de)serialization --------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict dump (picklable / JSON-able; travels in
        ``RunSummary.obs["provenance"]``)."""
        return {
            "mechanism": self.mechanism,
            "persists": [entry.to_dict() for entry in self.persists],
            "stalls": [
                [site, reason, cycles, self.stall_counts[(site, reason)]]
                for (site, reason), cycles in sorted(self.stalls.items())
            ],
        }


def stall_folds(data: Dict[str, object]) -> Dict[Tuple[str, str], int]:
    """``(site, reason) -> cycles`` from a serialized tracker dump."""
    return {
        (site, reason): cycles
        for site, reason, cycles, _count in data.get("stalls", [])
    }


def persist_entries(data: Dict[str, object]) -> List[Dict[str, object]]:
    """The persist entries of a serialized dump, in issue order."""
    entries = list(data.get("persists", []))
    entries.sort(key=lambda e: e["seq"])
    return entries


def site_persist_counts(data: Dict[str, object]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for entry in persist_entries(data):
        site = entry["site"]
        counts[site] = counts.get(site, 0) + 1
    return counts


def site_stall_cycles(data: Dict[str, object]) -> Dict[str, int]:
    cycles: Dict[str, int] = {}
    for site, _reason, value, _count in data.get("stalls", []):
        cycles[site] = cycles.get(site, 0) + value
    return cycles
