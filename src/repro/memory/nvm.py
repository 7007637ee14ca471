"""The NVM subsystem: persist timing, bandwidth, and the durable log.

The model follows Section 6.3 of the paper:

* **cached mode** — a line persist is acknowledged once it reaches the
  battery-backed NVM-side DRAM cache (120 cycles);
* **uncached mode** — the ack waits for the actual NVM write
  (350 cycles).

Multiple memory controllers serve persists; a line's home controller is
selected by address interleaving. Each controller has finite bandwidth:
back-to-back persists to one controller serialize on its occupancy.

Every acknowledged persist is appended to a **persist log** — the
ground truth for crash experiments: crashing after log prefix *k*
reconstructs the NVM image from exactly the first *k* acknowledged line
persists (persists are line-atomic at ack time; Section 5 of
DESIGN.md).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.params import MachineConfig

Word = Optional[int]


@dataclasses.dataclass(frozen=True)
class PersistRecord:
    """One acknowledged line persist.

    ``words`` maps word address to ``(value, event_id)``, where
    ``event_id`` identifies the *youngest* store event whose value the
    persisted word carries (older stores to the word were coalesced).
    """

    issue_seq: int
    line_addr: int
    words: Tuple[Tuple[int, Tuple[Word, int]], ...]
    issue_time: int
    complete_time: int

    def word_values(self) -> Dict[int, Word]:
        """Word address -> persisted value for this record."""
        return {addr: value for addr, (value, _event) in self.words}

    def word_events(self) -> Dict[int, int]:
        """Word address -> id of the store whose value persisted."""
        return {addr: event for addr, (_value, event) in self.words}


class NVMController:
    """All NVM channels plus the durable persist log."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        self._busy_until = [0] * config.num_memory_controllers
        self._records: List[PersistRecord] = []
        self._issue_seq = 0
        # Words considered durable before the measured phase started
        # (the pre-populated data structure).
        self._baseline_image: Dict[int, Word] = {}
        self._baseline_events: Dict[int, int] = {}

    @property
    def config(self) -> MachineConfig:
        return self._config

    @property
    def persist_count(self) -> int:
        """Number of line persists issued so far."""
        return self._issue_seq

    def channel_for(self, line_addr: int) -> int:
        """Home memory controller of a line (address-interleaved)."""
        return (line_addr // self._config.line_bytes) % len(self._busy_until)

    def issue_persist(self, line_addr: int,
                      words: Dict[int, Tuple[Word, int]],
                      now: int, *, after: int = 0,
                      ordered_after: Optional["PersistRecord"] = None
                      ) -> PersistRecord:
        """Issue a line persist at time ``now``; return its record.

        ``words`` carries the current (coalesced) dirty word values of
        the line together with the id of the youngest store per word.

        Two ways to order this persist behind a predecessor:

        * ``after`` — a hard gate: do not even *issue* before this
          time (a controller that waits for the predecessor's ack).
        * ``ordered_after`` — pipelined ordering: issue immediately,
          but the ack is constrained to land after the predecessor's
          ack (plus one occupancy slot). This models an ordering-aware
          memory system (e.g. the battery-backed NVM-side DRAM cache)
          that sustains ordered streams at throughput rather than
          round-trip latency, while the persist *log* still reflects
          the required durability order by construction.
        """
        issue_time = max(now, after)
        channel = self.channel_for(line_addr)
        start = max(issue_time, self._busy_until[channel])
        self._busy_until[channel] = start + self._config.nvm_occupancy_cycles
        complete = start + self._config.nvm_persist_cycles
        if ordered_after is not None:
            complete = max(
                complete,
                ordered_after.complete_time
                + self._config.nvm_occupancy_cycles)
        record = PersistRecord(
            issue_seq=self._issue_seq,
            line_addr=line_addr,
            words=tuple(sorted(words.items())),
            issue_time=issue_time,
            complete_time=complete,
        )
        self._issue_seq += 1
        self._records.append(record)
        return record

    def issue_persist_batch(
            self, items: Iterable[Tuple[int, Dict[int, Tuple[Word, int]]]],
            now: int, *, after: int = 0,
            ordered_after: Optional["PersistRecord"] = None
            ) -> List[PersistRecord]:
        """Issue a batch of line persists sharing one set of constraints.

        Bit-identical, by construction, to calling :meth:`issue_persist`
        once per ``(line_addr, words)`` item in order with the same
        ``now``/``after``/``ordered_after``; the batch form only hoists
        the shared constraints and config lookups out of the loop.
        Callers whose ordering constraint *changes per record* (e.g.
        LRP's release chains) cannot batch and keep the per-record path.
        """
        issue_time = max(now, after)
        busy = self._busy_until
        num_channels = len(busy)
        line_bytes = self._config.line_bytes
        occupancy = self._config.nvm_occupancy_cycles
        persist_cycles = self._config.nvm_persist_cycles
        floor = (ordered_after.complete_time + occupancy
                 if ordered_after is not None else None)

        records = []
        seq = self._issue_seq
        for line_addr, words in items:
            channel = (line_addr // line_bytes) % num_channels
            start = busy[channel]
            if issue_time > start:
                start = issue_time
            busy[channel] = start + occupancy
            complete = start + persist_cycles
            if floor is not None and complete < floor:
                complete = floor
            records.append(PersistRecord(
                issue_seq=seq,
                line_addr=line_addr,
                words=tuple(sorted(words.items())),
                issue_time=issue_time,
                complete_time=complete,
            ))
            seq += 1
        self._issue_seq = seq
        self._records.extend(records)
        return records

    # ------------------------------------------------------------------
    # Durable state reconstruction (crash experiments)
    # ------------------------------------------------------------------

    def persist_log(self) -> List[PersistRecord]:
        """Acknowledged persists in completion (i.e. durability) order."""
        return sorted(self._records,
                      key=lambda r: (r.complete_time, r.issue_seq))

    def reset_log(self) -> None:
        """Forget recorded persists (measured phase starts fresh)."""
        self._records.clear()

    def set_baseline_image(self, words: Dict[int, Word],
                           events: Optional[Dict[int, int]] = None, *,
                           share: bool = False) -> None:
        """Install pre-populated durable state (setup-phase checkpoint).

        With ``share`` the dicts are adopted without copying; the
        caller must never mutate them afterwards (the controller itself
        only ever reads the baseline).
        """
        if share:
            self._baseline_image = words
            self._baseline_events = events or {}
        else:
            self._baseline_image = dict(words)
            self._baseline_events = dict(events or {})

    def baseline_image(self) -> Dict[int, Word]:
        return dict(self._baseline_image)

    def _log_prefix(self, prefix_len: int) -> List[PersistRecord]:
        """The first ``prefix_len`` acknowledged persists (in durability
        order); ``ValueError`` unless ``0 <= prefix_len <= len(log)``."""
        log = self.persist_log()
        if not 0 <= prefix_len <= len(log):
            raise ValueError(
                f"prefix_len must be in [0, {len(log)}], got {prefix_len}")
        return log[:prefix_len]

    def image_after_prefix(self, prefix_len: int) -> Dict[int, Word]:
        """NVM contents if the machine crashed after ``prefix_len``
        acknowledged persists (in durability order)."""
        image = dict(self._baseline_image)
        for record in self._log_prefix(prefix_len):
            image.update(record.word_values())
        return image

    def durable_events_after_prefix(self, prefix_len: int) -> Dict[int, int]:
        """Word -> youngest persisted store event id, for a crash prefix
        (same range as :meth:`image_after_prefix`)."""
        events = dict(self._baseline_events)
        for record in self._log_prefix(prefix_len):
            events.update(record.word_events())
        return events

    def image_at_time(self, time: int) -> Dict[int, Word]:
        """NVM contents if power failed at cycle ``time``."""
        image = dict(self._baseline_image)
        for record in self.persist_log():
            if record.complete_time <= time:
                image.update(record.word_values())
        return image

    def final_image(self) -> Dict[int, Word]:
        """NVM contents once every issued persist has completed."""
        return self.image_after_prefix(len(self._records))
