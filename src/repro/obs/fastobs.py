"""Batched telemetry accumulator for the scheduler loop.

Narrating every memory operation straight into the
:class:`~repro.obs.Observer` costs two dict upserts per op for the
``sched.*`` counters, and a handful more per coherence miss — exactly
the per-op dispatch the batch engine (:mod:`repro.core.fastsim`)
exists to avoid. :class:`FastObs` is the flat-table accumulator it
writes instead, with plain list index arithmetic — no per-op name
hashing, no dict churn, no method dispatch (plain lists beat
``array('q')`` here: small-int list stores skip the box/unbox
round-trip a typed array pays on every ``+= 1``).
The engine uses it for every observed run, a trace or provenance
collector included: the machine's miss/upgrade closures
(:meth:`Machine.make_fast_path`) are bound to the run's FastObs, so
:meth:`Machine.execute` feeds it through the same code as the engine's
inline paths. It holds:

* per-core op/cycle tallies for the scheduler's ``sched.*`` counters
  (the engine tallies WORK ops only and derives the rest from each
  thread's clock and stats deltas at run end);
* one flat list of slots for the coherence/fabric counters of each
  miss/upgrade (``dir.*``, ``noc.*``, ``l1.fills``, ``coh.*``).

:meth:`FastObs.flush` adds everything into the attached Observer's
counters, so emissions other components made directly — the
mechanisms, the directory's ``dir.lines_blocked`` count — are
preserved, and the final ``Observer.export()`` is counter-for-counter
identical to per-op narration. tests/test_fastobs.py pins that against
the golden exports of :mod:`tests.engine_digests`, across the full
mechanism matrix.

Every other counter an Observer sees (persist lines, stall reasons,
critical writebacks, the per-mechanism ``arp.*``/``bb.*``/``lrp.*``/
``nop.*``/``sb.*`` counts) is emitted by the mechanisms themselves,
which stay attached to the Observer — those streams need no batching
here because they fire per *persist event*, not per op.
"""

from __future__ import annotations

# Slot indices into FastObs.coh — one per counter the fused
# miss/upgrade closures bump. Order is mirrored by SLOT_NAMES.
SLOT_DIR_MISSES = 0
SLOT_DIR_UPGRADES = 1
SLOT_DIR_BLOCK_WAIT_CYCLES = 2
SLOT_NOC_MSGS = 3
SLOT_NOC_HOPS = 4
SLOT_L1_FILLS = 5
SLOT_COH_DOWNGRADES = 6
SLOT_COH_DOWNGRADES_DIRTY = 7
SLOT_COH_EVICTIONS = 8
SLOT_COH_EVICTIONS_DIRTY = 9
SLOT_COH_INVALIDATIONS = 10
#: Auxiliary tally (no counter of its own): upgrades that invalidated
#: at least one sharer, needed to derive their extra inv/ack message.
SLOT_AUX_UPGRADE_INV = 11
NUM_SLOTS = 12

#: Counter names for the first len(SLOT_NAMES) slots; slots past the
#: end are auxiliary tallies folded into derived counters at flush.
SLOT_NAMES = (
    "dir.misses",
    "dir.upgrades",
    "dir.block_wait_cycles",
    "noc.msgs",
    "noc.hops",
    "l1.fills",
    "coh.downgrades",
    "coh.downgrades_dirty",
    "coh.evictions",
    "coh.evictions_dirty",
    "coh.invalidations",
)


class FastObs:
    """Flat-array telemetry tables for one batch-engine run."""

    __slots__ = (
        "observer", "num_cores",
        "ops", "mem_ops", "compute_cycles", "mem_cycles",
        "work_ops", "work_latency",
        "coh", "flushed",
    )

    def __init__(self, observer, num_cores: int) -> None:
        self.observer = observer
        self.num_cores = num_cores
        # Scheduler accounting: cycle totals plus op counts. The op
        # counts decide counter *existence* — per-op narration
        # creates sched.compute_cycles.c<i> on the first op even when
        # the compute charge is 0, and sched.mem_cycles.c<i> on the
        # first memory op, so a zero-valued counter must still appear.
        self.ops = [0] * num_cores
        self.mem_ops = [0] * num_cores
        self.compute_cycles = [0] * num_cores
        self.mem_cycles = [0] * num_cores
        # WORK-op tallies (count and summed latency) — WORK is the
        # only op kind with a non-uniform compute charge, so these two
        # plus the total op count fully determine a thread's cycle
        # split: cc = work_latency + ops * compute_cycles_per_op and
        # mc = clock_delta - cc. The engine fills compute_cycles /
        # mem_cycles from exactly that identity at run end.
        self.work_ops = [0] * num_cores
        self.work_latency = [0] * num_cores
        # Coherence-path counter slots (see SLOT_* above).
        self.coh = [0] * NUM_SLOTS
        self.flushed = False

    # ------------------------------------------------------------------
    # Flush: add the tables into the Observer's counters
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Merge all accumulated telemetry into the Observer.

        Idempotence guard included so a defensive second call cannot
        double-count; every merge is ``+=`` so emissions other
        components wrote directly to the Observer are preserved.
        """
        if self.flushed:
            return
        self.flushed = True
        counters = self.observer.counters
        for core in range(self.num_cores):
            if self.ops[core]:
                name = f"sched.compute_cycles.c{core}"
                counters[name] = (counters.get(name, 0)
                                  + self.compute_cycles[core])
            if self.mem_ops[core]:
                name = f"sched.mem_cycles.c{core}"
                counters[name] = (counters.get(name, 0)
                                  + self.mem_cycles[core])
        coh = self.coh
        # Fixed-ratio derivations (see Machine.make_fast_path): a miss
        # sends 2 messages for its doubled requester->home leg plus the
        # forwarding legs (2) or the home->requester response (1), an
        # upgrade 2 plus 1 for its inv/ack when sharers were
        # invalidated — and a miss fills exactly one line.
        misses = coh[SLOT_DIR_MISSES]
        coh[SLOT_L1_FILLS] += misses
        coh[SLOT_NOC_MSGS] += (3 * misses + coh[SLOT_COH_DOWNGRADES]
                               + 2 * coh[SLOT_DIR_UPGRADES]
                               + coh[SLOT_AUX_UPGRADE_INV])
        for slot, name in enumerate(SLOT_NAMES):
            # Every coherence event contributes >= 1, so a zero slot
            # means "never happened" — per-op narration would not
            # have created the counter either.
            value = coh[slot]
            if value:
                counters[name] = counters.get(name, 0) + value
