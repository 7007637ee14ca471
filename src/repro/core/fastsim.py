"""Batched quantum execution engine — the scheduler's fast path.

The reference loop in :meth:`repro.core.scheduler.Scheduler.run` pays
a heap pop/push and a full :meth:`Machine.execute` dispatch per memory
operation. This engine produces the *same execution bit for bit* while
doing neither, by exploiting two structural facts:

* **Quantum batching.** The scheduler always runs the thread with the
  smallest ``(clock, thread_id)`` key, and executing an op only ever
  *grows* that thread's clock. So after an op, if the thread's new key
  is still below the smallest key of every other thread (the top of
  the heap, unchanged while we stay inline), the reference loop would
  provably pick the same thread again — we keep feeding its generator
  without touching the heap until its clock crosses that bound.

* **Inline hot ops.** An L1 hit resolves entirely from the flat tables
  (`state_codes`/`lru` + the per-set slot dict); a plain read with
  trace recording off only needs ``stats.reads``, the event-id counter
  and the architectural value — the MemoryEvent it would have built is
  written nowhere and read by nobody, so it is not built. Acquire
  reads take the inline path only when the active mechanism's
  ``on_acquire`` hook is structurally a no-op (detected by method
  identity, so mechanism classes need no cooperation); everything else
  — writes, RMWs, misses, upgrades — funnels into the same
  ``Machine`` methods the reference path uses.

The engine accepts exactly one observation channel: an Observer
carrying metrics (and optionally a timeline and/or request spans) —
metric aggregates are accumulated in the flat tables of
:class:`repro.obs.fastobs.FastObs` and flushed at run end, reconciling
counter-for-counter with the reference loop, while request-boundary
clocks append straight into the :class:`repro.obs.spans.SpanTracker`
lanes. Everything else still forces the reference path:
schedule nudges, op tracing, provenance, and the tests' ``max_ops``
valve. :func:`check` names the refusal (a :class:`Refusal` enum,
surfaced as the ``fastsim_fallback`` diagnostic on results and
printable with ``REPRO_FASTSIM_DEBUG=1``); fuzz replays therefore
always take the reference min-scan loop, and the fast-vs-reference
equivalence matrix (tests/test_fastsim.py, tests/test_fastobs.py)
pins that both paths agree on stats, persist streams, coverage maps
and the full obs export. Set ``REPRO_FASTSIM=0`` to force the
reference loop everywhere.
"""

from __future__ import annotations

import enum
import gc
import heapq
import os
import sys
from typing import Optional

from repro.coherence.l1cache import (
    EXCLUSIVE_CODE,
    MODIFIED_CODE,
    SHARED_CODE,
)
from repro.consistency.events import MemOrder
from repro.core.thread import OpKind
from repro.obs.fastobs import FastObs
from repro.obs.spans import REQUEST_BOUNDARY as _SPAN_BOUNDARY
from repro.persistency.base import PersistencyMechanism
from repro.persistency.lrp import LRPMechanism

_WORK = OpKind.WORK
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_ACQUIRE = MemOrder.ACQUIRE
_ACQ_REL = MemOrder.ACQ_REL
_NEVER = float("inf")

_MISSING = object()


class Refusal(enum.Enum):
    """Machine-readable reasons the batch engine declines a run.

    ``value`` is the stable string recorded as the
    ``fastsim_fallback`` diagnostic on
    :class:`~repro.core.simulator.SimulationResult` and
    :class:`~repro.exp.runner.RunSummary`.
    """

    ENV_DISABLED = "env-disabled"
    SCHEDULE_NUDGES = "schedule-nudges"
    MAX_OPS = "max-ops"
    OBSERVER_TRACE = "observer-trace"
    OBSERVER_PROVENANCE = "observer-provenance"
    OBSERVER_UNKNOWN = "observer-unknown"


def check(scheduler) -> Optional[Refusal]:
    """Why the batch engine must refuse this run — None when eligible.

    Metrics/timeline/spans observers are accepted (FastObs batches
    the aggregates, span lanes are plain appends); trace or provenance
    collection — and observer objects
    that don't expose the Observer surface at all — still force the
    reference loop, as do schedule nudges and the ``max_ops`` valve.
    With ``REPRO_FASTSIM_DEBUG=1`` the refusal is printed to stderr.
    """
    refusal = _check(scheduler)
    if (refusal is not None
            and os.environ.get("REPRO_FASTSIM_DEBUG") == "1"):
        print(f"[fastsim] taking the reference loop: {refusal.value}",
              file=sys.stderr)
    return refusal


def _check(scheduler) -> Optional[Refusal]:
    if os.environ.get("REPRO_FASTSIM", "1") == "0":
        return Refusal.ENV_DISABLED
    if scheduler._nudges is not None:
        return Refusal.SCHEDULE_NUDGES
    if scheduler.max_ops is not None:
        return Refusal.MAX_OPS
    obs = scheduler.machine.obs
    if obs is None:
        return None
    trace = getattr(obs, "trace", _MISSING)
    provenance = getattr(obs, "provenance", _MISSING)
    if (trace is _MISSING or provenance is _MISSING
            or getattr(obs, "metrics", None) is None
            or not hasattr(obs, "timeline")):
        return Refusal.OBSERVER_UNKNOWN
    if provenance is not None:
        return Refusal.OBSERVER_PROVENANCE
    if trace is not None:
        return Refusal.OBSERVER_TRACE
    return None


def eligible(scheduler) -> bool:
    """Whether the batch engine may run this scheduler's workload."""
    return check(scheduler) is None


def acquire_hook_is_noop(mechanism) -> bool:
    """True when ``on_acquire`` provably does nothing but return 0.

    Checked by method identity: the base-class hook and LRP's override
    (Section 5.2.2: acquires need no local action) are the only no-op
    implementations. Any mechanism that overrides the hook with real
    work — BB's barrier-on-acquire, ARP/DPO/HOPS's sync-source
    handling — fails the identity test and gets the full event-built
    path for every acquire.
    """
    hook = type(mechanism).on_acquire
    return (hook is PersistencyMechanism.on_acquire
            or hook is LRPMechanism.on_acquire)


def run(scheduler) -> int:
    """Execute the scheduler's threads to completion; the makespan.

    Caller guarantees :func:`eligible` returned True.
    """
    # The loop allocates heavily (ops, events, records) but the only
    # reference cycles it creates are line<->cache attachments, which
    # refcounting alone reclaims once detached; pausing the cyclic
    # collector avoids full-generation scans triggered by allocation
    # volume.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _run(scheduler)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(scheduler) -> int:
    machine = scheduler.machine
    config = machine.config
    compute = config.compute_cycles_per_op
    l1_hit_cycles = config.l1_hit_cycles
    line_mask = ~(config.line_bytes - 1)
    threads = scheduler.threads
    stats_list = machine.stats
    trace = machine.trace
    memory = trace._memory
    memory_get = memory.get
    # With recording off the per-read MemoryEvent is pure overhead
    # (nothing retains it); with recording on every event must exist.
    fast_reads = not trace.record
    mechanism = machine.mechanism
    acquire_noop = acquire_hook_is_noop(mechanism)
    # Every in-tree on_acquire honours acquire_ignores_event, so the
    # event can be skipped for acquire loads too: sync_source is
    # derived from the writer-meta map exactly as _sync_source would.
    acquire_inline = acquire_noop or mechanism.acquire_ignores_event
    # With recording off and an event-free acquire hook, *every* read
    # resolves inline — the per-op branch collapses to one local test.
    inline_reads = fast_reads and acquire_inline
    on_acquire = mechanism.on_acquire
    writer_meta = trace._writer_meta
    # The event-id counter is kept in a local and written back to the
    # trace only around calls that read or bump it themselves (the
    # do_* slow paths) and at exit: inline reads then pay a local
    # increment instead of an attribute read-modify-write.
    ev_count = trace._count
    do_read = machine._do_read
    do_write = machine._do_write
    do_rmw = machine._do_rmw
    coherence_access = machine.coherence_access
    l1s = machine.fabric.l1s
    heappop, heapreplace = heapq.heappop, heapq.heapreplace

    # Telemetry: aggregates accumulate in FastObs's flat tables (the
    # scheduler streams here, the fused closures write the coherence
    # slots) and flush into the Observer once at run end. Mechanisms
    # and the NVM controller keep their direct Observer attachment.
    obs = machine.obs
    if obs is not None:
        # Request spans (repro.obs.spans): raw per-thread boundary and
        # event-mark lists written directly — one identity compare and
        # two appends per boundary op, nothing else on the hot path.
        spans = getattr(obs, "spans", None)
        if spans is not None:
            sp_lanes, sp_events = spans.lanes(len(threads))
        else:
            sp_lanes = sp_events = None
        fobs = FastObs(obs, config.num_cores, l1s[0]._assoc)
        fo_interval = fobs.interval
        fo_ops = fobs.ops
        fo_mem_ops = fobs.mem_ops
        fo_cc = fobs.compute_cycles
        fo_mc = fobs.mem_cycles
        fo_nw = fobs.work_ops
        fo_wl = fobs.work_latency
        sg_o0 = fobs.seg_ops0
        sg_n0 = fobs.seg_work0
        sg_w0 = fobs.seg_latency0
        sg_c0 = fobs.seg_clock0
        tl_cw = fobs.tl_compute_window
        tl_ca = fobs.tl_compute_acc
        tl_nbc = fobs.tl_compute_nb
        tl_mw = fobs.tl_mem_window
        tl_ma = fobs.tl_mem_acc
        tl_co = fobs.tl_compute_out
        tl_mo = fobs.tl_mem_out
    else:
        fobs = None
        sp_lanes = sp_events = None
    # True only inside a boundary-straddling quantum with a timeline
    # attached; every quantum's telemetry setup re-derives it.
    fo_heavy = False
    fast_miss, fast_upgrade = machine.make_fast_path(fastobs=fobs)

    # L1 geometry is config-wide (identical across cores); the
    # per-thread containers are bundled into one tuple so a quantum
    # switch costs a single index + unpack.
    geom = l1s[0]
    shift = geom._line_shift
    set_mask = geom._set_mask
    num_sets = geom._num_sets
    tstate = []
    for t in threads:
        l1 = l1s[t.thread_id]
        tstate.append((t, t.gen, stats_list[t.thread_id], l1, l1._sets,
                       l1.state_codes, l1.lru, l1.lines))
    # Thread clocks at entry: the per-thread clock *delta* over the
    # run, together with the op/WORK tallies, yields the cycle split
    # for the metrics-only telemetry mode (see the run-end derivation).
    start_clocks = [t.clock for t in threads]
    # Memory-op counts are never tallied in the loop: CoreStats already
    # bumps exactly one of reads/writes/rmws once per READ/WRITE/CAS/
    # XCHG (inline paths above, _do_* entries otherwise), so a thread's
    # memory-op total over the run is its stats delta against this
    # snapshot; WORK — the only other kind — tallies its own fo_nw.
    if fobs is not None:
        start_mem = [0] * len(threads)
        for t in threads:
            s = stats_list[t.thread_id]
            start_mem[t.thread_id] = s.reads + s.writes + s.rmws
    # Timeline attached: the only mode with any per-quantum accounting.
    fo_tl = fobs is not None and fo_interval != 0

    # Heap keys are single ints, ``(clock << tshift) | tid``: the
    # packed comparison is exactly the (clock, tid) lexicographic
    # order (tid < 2**tshift), every sift compares machine ints
    # instead of tuples, and a yield allocates no tuple.
    tshift = max(1, (len(threads) - 1).bit_length())
    tmask = (1 << tshift) - 1
    heap = [(t.clock << tshift) | t.thread_id for t in threads]
    heapq.heapify(heap)
    nheap = len(heap)
    executed = scheduler._executed_ops
    # The running thread's (stale) entry stays at heap[0] for the whole
    # quantum: a yield is then one heapreplace (single sift) instead of
    # a heappush + heappop pair, and the scheduling bound — the
    # smallest key among the *other* threads — is the smaller of the
    # root's children.
    while nheap:
        tid = heap[0] & tmask
        thread, gen, stats, l1, sets, codes, lru, lines = tstate[tid]
        clock = thread.clock
        if nheap > 2:
            bound = heap[1]
            b = heap[2]
            if b < bound:
                bound = b
        elif nheap == 2:
            bound = heap[1]
        else:
            # Last thread standing: an unreachable bound erases the
            # yield check from its remaining ops.
            bound = _NEVER
        if fo_tl:
            # Quantum accounting is *derived*, not accumulated: op and
            # memory-op counts come from the CoreStats deltas, WORK
            # counts/latencies from the WORK branch's own tallies (the
            # only per-op telemetry cost; a memory op pays nothing).
            # Every op's pre-advance clock lies in
            # [clock, bound >> tshift]; when both sit below the compute
            # register's next boundary tl_nbc[tid] the whole quantum
            # stays inside the register's window ("light" — the common
            # case, quanta being much shorter than a window) and merely
            # extends the thread's open *segment*, at zero cost; its
            # charges are attributed when the segment closes. Only a
            # boundary-straddling quantum (fo_heavy) pays segment-close
            # arithmetic and per-op window tracking. Without a
            # timeline there is no per-quantum accounting at all:
            # counts and cycle splits come from the stats/clock deltas
            # at run end.
            nb_c = tl_nbc[tid]
            # _NEVER (last thread, float sentinel) has no shiftable
            # clock and its quantum is unbounded anyway: heavy path.
            fo_heavy = (clock >= nb_c or bound is _NEVER
                        or (bound >> tshift) >= nb_c)
            if fo_heavy:
                # Close the open segment: all its ops executed in
                # the compute register's window, so the whole
                # cycle split lands there in one step (cc from the
                # WORK tallies + uniform per-op compute, mc as the
                # thread's clock advance minus cc).
                cur_ops = (stats.reads + stats.writes + stats.rmws
                           - start_mem[tid] + fo_nw[tid])
                seg_ops = cur_ops - sg_o0[tid]
                if seg_ops:
                    cc = fo_wl[tid] - sg_w0[tid] + seg_ops * compute
                    tl_ca[tid] += cc
                    seg_mem = seg_ops - (fo_nw[tid] - sg_n0[tid])
                    if seg_mem:
                        mc = clock - sg_c0[tid] - cc
                        w = tl_mw[tid]
                        if w == tl_cw[tid]:
                            tl_ma[tid] += mc
                        else:
                            # The mem register trails (its window
                            # is that of the thread's last memory
                            # op); spill it forward.
                            if w >= 0:
                                tl_mo[tid].append((w, tl_ma[tid]))
                            tl_mw[tid] = tl_cw[tid]
                            tl_ma[tid] = mc
                    # Mark the segment closed *now*: the quantum
                    # may abort before its writeback (StopIteration
                    # at the top), and a closed segment must not
                    # close again at run end.
                    sg_o0[tid] = cur_ops
                    sg_n0[tid] = fo_nw[tid]
                    sg_w0[tid] = fo_wl[tid]
                    sg_c0[tid] = clock
                cw_c = tl_cw[tid]
                acc_c = tl_ca[tid]
                cw_m = tl_mw[tid]
                acc_m = tl_ma[tid]
                out_c = tl_co[tid]
                out_m = tl_mo[tid]
                # Mem next-boundary local for the per-op window
                # test (one compare; the division runs only on a
                # window crossing). -1 (no window yet) maps to
                # boundary 0 so the first op crosses.
                nb_m = (cw_m + 1) * fo_interval if cw_m >= 0 else 0

        # Resume the coroutine exactly as SimThread.next_op would.
        try:
            if thread._started:
                op = gen.send(thread._pending_result)
            else:
                thread._started = True
                op = next(gen)
        except StopIteration:
            stats.cycles = clock
            thread.clock = clock
            thread.done = True
            heappop(heap)
            nheap -= 1
            continue

        while True:
            kind = op.kind
            if kind is _READ:
                addr = op.addr
                line_addr = addr & line_mask
                if set_mask is not None:
                    set_index = (line_addr >> shift) & set_mask
                else:
                    set_index = (line_addr >> shift) % num_sets
                slot = sets[set_index].get(line_addr)
                if slot is not None:
                    # Hit: a set never maps an INVALID slot (every
                    # detach also deletes the set entry), so residency
                    # alone serves a read.
                    tick = l1._tick + 1
                    l1._tick = tick
                    lru[slot] = tick
                    stats.l1_hits += 1
                    latency = l1_hit_cycles
                else:
                    _line, latency = fast_miss(
                        tid, line_addr, clock, False, set_index)
                if inline_reads:
                    stats.reads += 1
                    ev_count += 1
                    try:
                        result = memory[addr]
                    except KeyError:
                        result = None  # uninitialized word reads as None
                    order = op.order
                    if order is _ACQUIRE or order is _ACQ_REL:
                        stats.acquires += 1
                        if not acquire_noop:
                            src = writer_meta.get(addr)
                            latency += on_acquire(
                                tid, None, clock + latency,
                                sync_source=src[0]
                                if (src is not None and src[1]
                                    and src[0] != tid) else None)
                else:
                    order = op.order
                    if fast_reads and not (order is _ACQUIRE
                                           or order is _ACQ_REL):
                        stats.reads += 1
                        ev_count += 1
                        result = memory_get(addr)
                    else:
                        trace._count = ev_count
                        result, latency = do_read(tid, op, clock, latency)
                        ev_count = trace._count
            elif kind is _WORK:
                result = None
                latency = op.cycles
                if fobs is not None:
                    # WORK is the one op kind whose compute charge is
                    # not uniform, so it is the only one tallied per
                    # op; memory-op counts and charges are derived at
                    # segment close / run end.
                    fo_nw[tid] += 1
                    fo_wl[tid] += latency
                    if sp_lanes is not None and op.site is _SPAN_BOUNDARY:
                        # ev_count here equals the reference loop's
                        # trace._count at the same decision: the batch
                        # engine executes ops in the identical global
                        # order, so event ids are assigned identically.
                        sp_lanes[tid].append(clock)
                        sp_events[tid].append(ev_count)
            else:
                addr = op.addr
                line_addr = addr & line_mask
                if set_mask is not None:
                    set_index = (line_addr >> shift) & set_mask
                else:
                    set_index = (line_addr >> shift) % num_sets
                slot = sets[set_index].get(line_addr)
                if kind is _WRITE:
                    code = codes[slot] if slot is not None else 0
                    if code == MODIFIED_CODE or code == EXCLUSIVE_CODE:
                        tick = l1._tick + 1
                        l1._tick = tick
                        lru[slot] = tick
                        stats.l1_hits += 1
                        if code == EXCLUSIVE_CODE:
                            codes[slot] = MODIFIED_CODE  # silent E->M
                        trace._count = ev_count
                        result, latency = do_write(
                            tid, op, lines[slot], clock, l1_hit_cycles)
                        ev_count = trace._count
                    elif code == SHARED_CODE:
                        # The reference path's lookup touches the LRU
                        # before the S->M upgrade.
                        tick = l1._tick + 1
                        l1._tick = tick
                        lru[slot] = tick
                        line = lines[slot]
                        latency = fast_upgrade(tid, line, clock)
                        trace._count = ev_count
                        result, latency = do_write(
                            tid, op, line, clock, latency)
                        ev_count = trace._count
                    elif slot is None:
                        line, latency = fast_miss(
                            tid, line_addr, clock, True, set_index)
                        trace._count = ev_count
                        result, latency = do_write(
                            tid, op, line, clock, latency)
                        ev_count = trace._count
                    else:
                        line, latency = coherence_access(
                            tid, line_addr, clock, True)
                        trace._count = ev_count
                        result, latency = do_write(
                            tid, op, line, clock, latency)
                        ev_count = trace._count
                else:  # CAS / XCHG
                    code = codes[slot] if slot is not None else 0
                    if code == MODIFIED_CODE or code == EXCLUSIVE_CODE:
                        tick = l1._tick + 1
                        l1._tick = tick
                        lru[slot] = tick
                        stats.l1_hits += 1
                        if code == EXCLUSIVE_CODE:
                            codes[slot] = MODIFIED_CODE
                        trace._count = ev_count
                        result, latency = do_rmw(
                            tid, op, lines[slot], clock, l1_hit_cycles)
                        ev_count = trace._count
                    elif code == SHARED_CODE:
                        tick = l1._tick + 1
                        l1._tick = tick
                        lru[slot] = tick
                        line = lines[slot]
                        latency = fast_upgrade(tid, line, clock)
                        trace._count = ev_count
                        result, latency = do_rmw(
                            tid, op, line, clock, latency)
                        ev_count = trace._count
                    elif slot is None:
                        line, latency = fast_miss(
                            tid, line_addr, clock, True, set_index)
                        trace._count = ev_count
                        result, latency = do_rmw(
                            tid, op, line, clock, latency)
                        ev_count = trace._count
                    else:
                        line, latency = coherence_access(
                            tid, line_addr, clock, True)
                        trace._count = ev_count
                        result, latency = do_rmw(
                            tid, op, line, clock, latency)
                        ev_count = trace._count

            if fo_heavy:
                # Mirror the reference loop's per-op narration against
                # the *pre-advance* clock: WORK charges latency+compute
                # to the compute stream; a memory op charges compute to
                # compute and the full latency (all mechanism stalls
                # included) to mem. Zero-valued window touches still
                # create window entries, exactly like Observer.tick.
                if kind is _WORK:
                    value = latency + compute
                else:
                    if clock < nb_m:
                        acc_m += latency
                    else:
                        if cw_m >= 0:
                            out_m.append((cw_m, acc_m))
                        cw_m = clock // fo_interval
                        nb_m = (cw_m + 1) * fo_interval
                        acc_m = latency
                    value = compute
                if clock < nb_c:
                    acc_c += value
                else:
                    if cw_c >= 0:
                        out_c.append((cw_c, acc_c))
                    cw_c = clock // fo_interval
                    nb_c = (cw_c + 1) * fo_interval
                    acc_c = value

            clock += latency + compute
            executed += 1
            key = (clock << tshift) | tid
            if key > bound:
                # Another thread's key is now smaller: yield the core.
                thread.clock = clock
                thread._pending_result = result
                heapreplace(heap, key)
                break
            try:
                op = gen.send(result)
            except StopIteration:
                stats.cycles = clock
                thread.clock = clock
                thread.done = True
                heappop(heap)
                nheap -= 1
                break

        if fo_heavy:
            # Persist the window registers and start a fresh segment
            # at this quantum's end state. (Light quanta have no
            # writeback at all — nor does a StopIteration at the
            # quantum top, which `continue`s past this block leaving
            # fo_heavy for the next setup to re-derive.) Cycle counter
            # totals are recovered from the window sums at flush.
            tl_cw[tid] = cw_c
            tl_ca[tid] = acc_c
            tl_nbc[tid] = (cw_c + 1) * fo_interval \
                if cw_c >= 0 else 0
            tl_mw[tid] = cw_m
            tl_ma[tid] = acc_m
            sg_o0[tid] = (stats.reads + stats.writes + stats.rmws
                          - start_mem[tid] + fo_nw[tid])
            sg_n0[tid] = fo_nw[tid]
            sg_w0[tid] = fo_wl[tid]
            sg_c0[tid] = clock
            fo_heavy = False

    trace._count = ev_count
    scheduler._executed_ops = executed
    if fobs is not None:
        if fo_interval:
            # Materialize the op counts from the stats deltas and
            # close every thread's still-open segment (same
            # attribution as the heavy-quantum close, with the
            # thread's final clock as the segment end).
            for t in threads:
                k = t.thread_id
                s = stats_list[k]
                mem = s.reads + s.writes + s.rmws - start_mem[k]
                n = mem + fo_nw[k]
                fo_ops[k] = n
                fo_mem_ops[k] = mem
                seg_ops = n - sg_o0[k]
                if seg_ops:
                    cc = fo_wl[k] - sg_w0[k] + seg_ops * compute
                    tl_ca[k] += cc
                    seg_mem = seg_ops - (fo_nw[k] - sg_n0[k])
                    if seg_mem:
                        mc = t.clock - sg_c0[k] - cc
                        w = tl_mw[k]
                        if w == tl_cw[k]:
                            tl_ma[k] += mc
                        else:
                            if w >= 0:
                                tl_mo[k].append((w, tl_ma[k]))
                            tl_mw[k] = tl_cw[k]
                            tl_ma[k] = mc
        else:
            # Metrics-only cycle split, recovered per thread from the
            # clock delta: every op advanced the clock by
            # latency + compute, WORK latencies are compute charges
            # (tallied in fo_wl), everything else is memory latency —
            # so cc = fo_wl + ops * compute and mc is the rest. This
            # is exactly the reference loop's per-op narration summed,
            # at zero per-op cost.
            for t in threads:
                k = t.thread_id
                s = stats_list[k]
                mem = s.reads + s.writes + s.rmws - start_mem[k]
                n = mem + fo_nw[k]
                fo_ops[k] = n
                fo_mem_ops[k] = mem
                if n:
                    cc = fo_wl[k] + n * compute
                    fo_cc[k] += cc
                    fo_mc[k] += t.clock - start_clocks[k] - cc
        fobs.flush()
    return scheduler.makespan()
