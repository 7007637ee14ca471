"""Memory events and execution traces.

Every memory operation executed on the simulated machine is recorded as
a :class:`MemoryEvent`. The trace is a *total* order (the scheduler
interleaves threads atomically per memory operation, which yields a
sequentially consistent — hence RC-legal — execution, mirroring the
paper's use of a TSO host simulator, Section 6.3).

Events carry C++11-style ordering annotations (:class:`MemOrder`); the
happens-before construction of :mod:`repro.consistency.happens_before`
and the persistency mechanisms both key off these annotations.

Keeping the full event list is optional (``Trace(record=False)``,
driven by ``MachineConfig.record_trace``): figure runs only need the
aggregate statistics and the NVM persist log, so they skip the
per-event storage. Event ids, architectural memory, reads-from edges
and synchronizes-with metadata are maintained identically either way —
only the retained ``events`` list differs.

The architectural memory is two dicts: the initial image, which the
trace never writes (a memoized setup image is shared by every run of
its prototype), and the words the run has written, which it reads
first.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

Word = Optional[int]


class MemOrder(enum.Enum):
    """Ordering annotation of a memory operation."""

    PLAIN = "plain"
    ACQUIRE = "acquire"
    RELEASE = "release"
    ACQ_REL = "acq_rel"

    @property
    def has_acquire(self) -> bool:
        return self in (MemOrder.ACQUIRE, MemOrder.ACQ_REL)

    @property
    def has_release(self) -> bool:
        return self in (MemOrder.RELEASE, MemOrder.ACQ_REL)


class EventKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    RMW = "rmw"  # compare-and-swap / fetch-op (read + conditional write)


# Hot-path aliases (enum member access goes through the metaclass).
_READ_EVENT = EventKind.READ
_WRITE_EVENT = EventKind.WRITE
_RMW_EVENT = EventKind.RMW
_RELEASE = MemOrder.RELEASE
_ACQ_REL = MemOrder.ACQ_REL


class MemoryEvent:
    """One executed memory operation.

    ``event_id`` is the position in the global execution order.
    For an RMW, ``success`` records whether the write part performed
    (a failed CAS degenerates to an acquire/plain read).

    ``source_thread``/``source_release`` describe the write this event
    reads from (thread that performed it, and whether it was a
    release), captured at record time so synchronizes-with edges can be
    resolved without the retained event list.

    A plain __slots__ class (one event per memory operation at bench
    scale — dataclass construction overhead is measurable here).
    """

    __slots__ = ("event_id", "thread_id", "kind", "order", "addr",
                 "value", "read_value", "reads_from", "success",
                 "source_thread", "source_release")

    def __init__(self, event_id: int, thread_id: int, kind: EventKind,
                 order: MemOrder, addr: int,
                 value: Word = None,          # written (WRITE / good RMW)
                 read_value: Word = None,     # observed (READ / RMW)
                 reads_from: Optional[int] = None,  # write's event_id
                 success: bool = True,        # False only for failed RMW
                 source_thread: Optional[int] = None,  # observed writer
                 source_release: bool = False  # that write was a release
                 ) -> None:
        self.event_id = event_id
        self.thread_id = thread_id
        self.kind = kind
        self.order = order
        self.addr = addr
        self.value = value
        self.read_value = read_value
        self.reads_from = reads_from
        self.success = success
        self.source_thread = source_thread
        self.source_release = source_release

    def _key(self):
        return (self.event_id, self.thread_id, self.kind, self.order,
                self.addr, self.value, self.read_value, self.reads_from,
                self.success, self.source_thread, self.source_release)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MemoryEvent:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"MemoryEvent(event_id={self.event_id}, "
                f"thread_id={self.thread_id}, kind={self.kind!r}, "
                f"order={self.order!r}, addr={self.addr:#x}, "
                f"value={self.value!r}, read_value={self.read_value!r}, "
                f"success={self.success})")

    @property
    def is_write_effect(self) -> bool:
        """True if this event wrote a value to memory."""
        if self.kind is EventKind.WRITE:
            return True
        return self.kind is EventKind.RMW and self.success

    @property
    def is_read_effect(self) -> bool:
        """True if this event observed a value from memory."""
        return self.kind in (EventKind.READ, EventKind.RMW)

    @property
    def is_release(self) -> bool:
        """A release write or successful release-RMW (paper notation Rel)."""
        return self.is_write_effect and self.order.has_release

    @property
    def is_acquire(self) -> bool:
        """An acquire read or acquire-RMW (paper notation Acq)."""
        return self.is_read_effect and self.order.has_acquire


class Trace:
    """Recorder for the global execution order of memory events.

    Maintains the architectural memory (word -> value) and the
    last-writer map used to derive reads-from edges. With
    ``record=False`` the per-event list is not retained (event ids and
    architectural state still advance identically).
    """

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self._events: List[MemoryEvent] = []
        self._count = 0
        # The words the run wrote; every other word reads _initial.
        self._memory: Dict[int, Word] = {}
        self._last_writer: Dict[int, int] = {}
        # word addr -> (writer thread, writer was a release); mirrors
        # _last_writer so sync sources resolve without the event list.
        self._writer_meta: Dict[int, Tuple[int, bool]] = {}
        self._initial: Dict[int, Word] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def events(self) -> List[MemoryEvent]:
        """The retained event list (requires ``record=True``)."""
        if not self.record and self._count:
            raise RuntimeError(
                "trace recording is disabled (MachineConfig.record_trace"
                "=False): the event list was not retained")
        return self._events

    def initialize(self, values: Dict[int, Word], *,
                   share: bool = False) -> Dict[int, Word]:
        """Install initial memory values (no events are recorded);
        returns the initial image the trace now reads.

        The trace never writes its initial image. With ``share`` the
        caller promises never to mutate ``values`` again, and the first
        install adopts the dict itself, so a memoized setup image serves
        every run. Any other install takes a merged copy, and an
        adopted dict stays as it was.
        """
        if self._count:
            raise ValueError("initialize before recording events")
        if share and not self._initial:
            self._initial = values
        else:
            merged = dict(self._initial)
            merged.update(values)
            self._initial = merged
        return self._initial

    def initial_value(self, addr: int) -> Word:
        return self._initial.get(addr)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_read(self, thread_id: int, addr: int,
                    order: MemOrder = MemOrder.PLAIN) -> MemoryEvent:
        """Record a load; returns the event (with the observed value)."""
        memory = self._memory
        observed = (memory[addr] if addr in memory
                    else self._initial.get(addr))
        source = self._writer_meta.get(addr)
        event = MemoryEvent(
            self._count, thread_id, _READ_EVENT, order, addr,
            None, observed, self._last_writer.get(addr),
            True,
            source[0] if source else None,
            source[1] if source else False,
        )
        self._count += 1
        if self.record:
            self._events.append(event)
        return event

    def record_write(self, thread_id: int, addr: int, value: Word,
                     order: MemOrder = MemOrder.PLAIN) -> MemoryEvent:
        """Record a store of ``value``."""
        count = self._count
        event = MemoryEvent(count, thread_id, _WRITE_EVENT, order, addr,
                            value)
        self._count = count + 1
        if self.record:
            self._events.append(event)
        self._memory[addr] = value
        self._last_writer[addr] = count
        self._writer_meta[addr] = (
            thread_id, order is _RELEASE or order is _ACQ_REL)
        return event

    def record_rmw(self, thread_id: int, addr: int, expected: Word,
                   new_value: Word,
                   order: MemOrder = MemOrder.ACQ_REL) -> MemoryEvent:
        """Record a compare-and-swap; the write performs iff it matches."""
        memory = self._memory
        observed = (memory[addr] if addr in memory
                    else self._initial.get(addr))
        success = observed == expected
        source = self._writer_meta.get(addr)
        count = self._count
        event = MemoryEvent(
            count, thread_id, _RMW_EVENT, order, addr,
            new_value if success else None, observed,
            self._last_writer.get(addr), success,
            source[0] if source else None,
            source[1] if source else False,
        )
        self._count = count + 1
        if self.record:
            self._events.append(event)
        if success:
            memory[addr] = new_value
            self._last_writer[addr] = count
            self._writer_meta[addr] = (
                thread_id, order is _RELEASE or order is _ACQ_REL)
        return event

    def record_unconditional_rmw(self, thread_id: int, addr: int,
                                 new_value: Word,
                                 order: MemOrder = MemOrder.ACQ_REL
                                 ) -> MemoryEvent:
        """Record an atomic exchange (always-successful RMW)."""
        memory = self._memory
        observed = (memory[addr] if addr in memory
                    else self._initial.get(addr))
        source = self._writer_meta.get(addr)
        count = self._count
        event = MemoryEvent(
            count, thread_id, _RMW_EVENT, order, addr,
            new_value, observed, self._last_writer.get(addr), True,
            source[0] if source else None,
            source[1] if source else False,
        )
        self._count = count + 1
        if self.record:
            self._events.append(event)
        memory[addr] = new_value
        self._last_writer[addr] = count
        self._writer_meta[addr] = (
            thread_id, order is _RELEASE or order is _ACQ_REL)
        return event

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def load(self, addr: int) -> Word:
        """Current architectural value of ``addr``."""
        memory = self._memory
        if addr in memory:
            return memory[addr]
        return self._initial.get(addr)

    def written(self) -> Dict[int, Word]:
        """Copy of the words the run has written, with their values."""
        return dict(self._memory)

    def memory_snapshot(self) -> Dict[int, Word]:
        """Copy of the full architectural memory."""
        snapshot = dict(self._initial)
        snapshot.update(self._memory)
        return snapshot

    def writes(self) -> List[MemoryEvent]:
        """All events with a write effect, in execution order."""
        return [e for e in self.events if e.is_write_effect]
