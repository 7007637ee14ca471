"""The scheduler loop: batched quanta of smallest-clock-first execution.

The scheduler always runs the runnable thread with the smallest
``(clock, thread_id)`` key; memory operations perform atomically in
that (simulated) timestamp order, which yields a sequentially
consistent execution whose timing reflects contention, persist stalls
and cache behaviour. This module is the only loop that computes that
interleaving; :meth:`repro.core.scheduler.Scheduler.run` calls it for
every run. It avoids a heap pop/push and a full :meth:`Machine.execute`
dispatch per memory operation by exploiting two structural facts:

* **Quantum batching.** Executing an op only ever *grows* the running
  thread's clock. So after an op, if the thread's new key is still
  below the smallest key of every other thread (the top of the heap,
  unchanged while we stay inline), the scheduler would pick the same
  thread again — we keep feeding its generator without touching the
  heap until its clock crosses that bound.

* **Inline hot ops.** An L1 hit resolves entirely from the flat tables
  (`state_codes`/`lru` + the per-set slot dict); a plain read with
  trace recording off only needs ``stats.reads``, the event-id counter
  and the architectural value — the MemoryEvent it would have built is
  written nowhere and read by nobody, so it is not built. Acquire
  reads take the inline path only when the active mechanism's
  ``on_acquire`` hook is structurally a no-op (detected by method
  identity, so mechanism classes need no cooperation); everything else
  — writes, RMWs, misses, upgrades — funnels into the same
  ``Machine`` methods and miss/upgrade closures
  (:meth:`Machine.make_fast_path`) that :meth:`Machine.execute` uses.

Two extensions ride on the quantum boundary and the per-op dispatch:

* **Schedule nudges** (:meth:`Scheduler.set_nudges`, the fuzzer's
  hook). A quantum also ends when the executed-op count reaches the
  next nudged decision index; that decision runs the thread with the
  rank-th smallest key, modulo the runnable count, for one op. A pick
  whose generator has finished executes no op, so the same decision
  index is taken again among the remaining threads.

* **Observers.** Every run metric is in ``RunStats``; the one
  counter an Observer gets is each core's ``sched.compute_cycles``,
  written at run end from the loop's WORK tallies (the only op kind
  whose compute charge is not uniform). Request-boundary clocks
  append straight into the :class:`repro.obs.spans.SpanTracker`
  lanes. A trace or provenance collector adds one per-op branch: the
  memory op runs through :meth:`Machine.execute`, which names the
  op's provenance site and reaches the same closures (which emit the
  coherence instants to a trace collector), and the loop emits the
  op's ``core<tid>`` span.

``tests/engine_digests.py`` pins stats, persist streams, memory
images, recorded events, observer exports, nudged schedules and span
lanes against digests recorded with the per-op loops this engine
replaced.
"""

from __future__ import annotations

import gc
import heapq

from repro.coherence.l1cache import (
    EXCLUSIVE_CODE,
    MODIFIED_CODE,
    SHARED_CODE,
)
from repro.consistency.events import MemOrder
from repro.core.thread import OpKind
from repro.obs.spans import REQUEST_BOUNDARY as _SPAN_BOUNDARY
from repro.persistency.base import PersistencyMechanism
from repro.persistency.lrp import LRPMechanism

_WORK = OpKind.WORK
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_ACQUIRE = MemOrder.ACQUIRE
_ACQ_REL = MemOrder.ACQ_REL
_NEVER = float("inf")
#: Subtracted from a nudged pick's thread id to float its heap entry to
#: the root: the result is negative, below every real key, and since
#: this is a multiple of every ``2**tshift``, ``entry & tmask`` still
#: yields the thread id.
_FRONT = 1 << 62


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
    """Execute the scheduler's threads to completion; the makespan."""
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
    execute = machine.execute
    l1s = machine.fabric.l1s
    heappop, heapreplace = heapq.heappop, heapq.heapreplace

    # Telemetry: the loop tallies WORK ops and their cycles per thread,
    # and the compute counters are written once at run end.
    obs = machine.obs
    if obs is not None:
        # Request spans (repro.obs.spans): raw per-thread boundary and
        # event-mark lists written directly — one identity compare and
        # two appends per boundary op, nothing else on the hot path.
        if obs.spans is not None:
            sp_lanes, sp_events = obs.spans.lanes(len(threads))
        else:
            sp_lanes = sp_events = None
        work_ops = [0] * len(threads)
        work_cycles = [0] * len(threads)
        # Trace and provenance collectors see every op: its memory
        # access runs through Machine.execute and the op gets a span.
        narrate = obs.trace is not None or obs.provenance is not None
        obs_span = obs.span
    else:
        sp_lanes = sp_events = None
        narrate = False
    # The kind the first dispatch test inlines: under narration no read
    # is inlined, so reads fall through to the Machine.execute branch.
    inline_read = None if narrate else _READ
    # The pair is built again here, not read off the machine: perfbench's
    # layer tracer wraps make_fast_path and times the coherence path
    # through the pair it returns.
    fast_miss, fast_upgrade = machine.make_fast_path()

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
    # Entry snapshot for the telemetry. Memory-op counts are never
    # tallied in the loop: CoreStats already bumps exactly one of
    # reads/writes/rmws once per READ/WRITE/CAS/XCHG (inline paths
    # below, _do_* entries otherwise), so a thread's memory-op total
    # over the run is its stats delta against this snapshot; WORK —
    # the only other kind — tallies its own work_ops.
    if obs is not None:
        start_mem = [0] * len(threads)
        for t in threads:
            s = stats_list[t.thread_id]
            start_mem[t.thread_id] = s.reads + s.writes + s.rmws

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
    # Schedule nudges: ``stop`` is the next nudged decision index (-1
    # once none is left), ``after`` chains each to its successor, and
    # ``taken`` is the index of the last nudge applied.
    nudges = scheduler._nudges or {}
    stops = sorted(index for index in nudges if index >= executed)
    after = dict(zip(stops, stops[1:] + [-1]))
    stop = stops[0] if stops else -1
    taken = -1
    # The running thread's (stale) entry stays at heap[0] for the whole
    # quantum: a yield is then one heapreplace (single sift) instead of
    # a heappush + heappop pair, and the scheduling bound — the
    # smallest key among the *other* threads — is the smaller of the
    # root's children.
    while nheap:
        if executed == stop:
            rank = nudges[stop] % nheap
            if rank:
                # Float the rank-th smallest key to the root. Its key
                # already exceeds the bound (the smallest key), so the
                # quantum below runs exactly one op of that thread.
                key = sorted(heap)[rank]
                heap[heap.index(key)] = (key & tmask) - _FRONT
                heapq.heapify(heap)
            taken = stop
            stop = after[stop]
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

        # Resume the coroutine with the result of its last op (None
        # starts a fresh one, as next() would).
        try:
            op = gen.send(thread._pending_result)
        except StopIteration:
            stats.cycles = clock
            thread.clock = clock
            thread.done = True
            heappop(heap)
            nheap -= 1
            if executed == taken:
                # A pick at a nudged decision executed no op: that
                # decision is taken again among the remaining threads.
                stop = taken
            continue

        while True:
            kind = op.kind
            if kind is inline_read:
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
                if obs is not None:
                    # WORK is the one op kind whose compute charge is
                    # not uniform, so it is the only one tallied per
                    # op; memory-op counts are derived at run end.
                    work_ops[tid] += 1
                    work_cycles[tid] += latency
                    if sp_lanes is not None and op.site is _SPAN_BOUNDARY:
                        # The request's completion cycle (the op's
                        # pre-advance clock) and its event frontier.
                        sp_lanes[tid].append(clock)
                        sp_events[tid].append(ev_count)
                    if narrate:
                        obs_span(f"core{tid}", "WORK", clock,
                                 latency + compute, cat="op")
            elif narrate:
                trace._count = ev_count
                result, latency = execute(tid, op, clock)
                ev_count = trace._count
                obs_span(f"core{tid}", kind.name, clock, latency + compute,
                         cat="op")
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
                        # The probe touches the LRU before the S->M
                        # upgrade, as Machine.coherence_access does.
                        tick = l1._tick + 1
                        l1._tick = tick
                        lru[slot] = tick
                        line = lines[slot]
                        latency = fast_upgrade(tid, line, clock)
                        trace._count = ev_count
                        result, latency = do_write(
                            tid, op, line, clock, latency)
                        ev_count = trace._count
                    else:
                        line, latency = fast_miss(
                            tid, line_addr, clock, True, set_index)
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
                    else:
                        line, latency = fast_miss(
                            tid, line_addr, clock, True, set_index)
                        trace._count = ev_count
                        result, latency = do_rmw(
                            tid, op, line, clock, latency)
                        ev_count = trace._count

            clock += latency + compute
            executed += 1
            key = (clock << tshift) | tid
            if key > bound or executed == stop:
                # Another thread's key is now smaller, or the next
                # decision is nudged: yield the core.
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

    trace._count = ev_count
    scheduler._executed_ops = executed
    if obs is not None:
        # Compute cycles per thread: every op pays the fixed compute
        # charge, and a WORK op's latency is compute too. A thread that
        # ran no op gets no counter.
        counters = obs.counters
        for t in threads:
            k = t.thread_id
            s = stats_list[k]
            ops = s.reads + s.writes + s.rmws - start_mem[k] + work_ops[k]
            if ops:
                name = f"sched.compute_cycles.c{k}"
                counters[name] = (counters.get(name, 0) + work_cycles[k]
                                  + ops * compute)
    return scheduler.makespan()
