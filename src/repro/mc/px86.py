"""Px86-derived persist-order axioms (independent cross-check).

*Taming x86-TSO Persistency* (Khyzha & Lahav; see PAPERS.md) gives
x86 persistency as a handful of declarative axioms over store order
and explicit persist instructions. Specialized to this repo's event
vocabulary — word-granular locations, a release store standing for the
``flushopt*; sfence; store`` publication idiom, an acquire load for
the synchronizing read — the obligations become:

* **WCO** (per-location write-coherence order): two stores by one
  thread to the same word persist in program order (a persist buffer
  never reorders same-word persists of its own stream).
* **REL** (release flushes): a release store persists after *every*
  program-order-earlier store of its thread (the flush-set of the
  ``flushopt*; sfence`` prefix).
* **SW** (synchronized transfer): if an acquire reads a release of
  another thread, every write-effect of the acquirer at or after the
  acquire persists after that release. (An acquire-RMW is itself such
  a write-effect.)
* **TRANS**: persist-order obligations compose transitively.

This is deliberately a *different formulation* from
``HappensBefore(mode="rp")`` — axioms grown to a fixpoint over
explicit pairs, not a barrier/edge construction — yet Release
Persistency's obligations must coincide with it on every explored
trace. ``tests/test_mc.py`` pins that agreement trace by trace.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.consistency.events import Trace
from repro.persistency.rp_model import _pair_respected, _positions


def px86_write_pairs(trace: Trace) -> Set[Tuple[int, int]]:
    """All (earlier, later) write-event pairs the axioms order."""
    events = trace.events
    writes = [e for e in events if e.is_write_effect]
    pairs: Set[Tuple[int, int]] = set()

    # WCO: same-thread same-word program order.
    last_store: Dict[Tuple[int, int], int] = {}
    for event in writes:
        key = (event.thread_id, event.addr)
        if key in last_store:
            pairs.add((last_store[key], event.event_id))
        last_store[key] = event.event_id

    # REL: release persists after all its thread's earlier stores.
    for release in writes:
        if not release.is_release:
            continue
        for store in writes:
            if store.event_id >= release.event_id:
                break
            if store.thread_id == release.thread_id:
                pairs.add((store.event_id, release.event_id))

    # SW: release -> (acquirer's write-effects at or after the acquire).
    for acquire in events:
        if not acquire.is_acquire or acquire.reads_from is None:
            continue
        release = events[acquire.reads_from]
        if not release.is_release \
                or release.thread_id == acquire.thread_id:
            continue
        for store in writes:
            if store.thread_id == acquire.thread_id \
                    and store.event_id >= acquire.event_id:
                pairs.add((release.event_id, store.event_id))

    # TRANS: grow to the transitive fixpoint.
    changed = True
    while changed:
        changed = False
        by_earlier: Dict[int, List[int]] = {}
        for earlier, later in pairs:
            by_earlier.setdefault(earlier, []).append(later)
        for earlier, later in list(pairs):
            for beyond in by_earlier.get(later, ()):
                candidate = (earlier, beyond)
                if candidate not in pairs:
                    pairs.add(candidate)
                    changed = True
    return pairs


def px86_allows(trace: Trace, persist_sequence: Sequence[int]) -> bool:
    """Does the Px86-derived order allow this persist sequence?"""
    positions = _positions(persist_sequence)
    return all(_pair_respected(positions, earlier, later)
               for earlier, later in px86_write_pairs(trace))
