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
from collections.abc import MutableMapping
from itertools import chain, filterfalse
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

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

    def word_events(self) -> Dict[int, int]:
        """Word address -> id of the store whose value persisted."""
        return {addr: event for addr, (_value, event) in self.words}


class _OverlayGet:
    """``CrashImage.get``: the baseline's own ``dict.get`` while the
    image overlays nothing, so a walk of a prefix-0 image reads at C
    speed, and the two-level lookup otherwise."""

    def __get__(self, image, owner=None):
        if image is None:
            return self
        return image._get if image.overlay else image.baseline.get


class CrashImage(MutableMapping):
    """The NVM contents after a persist-log prefix: word address -> value.

    The image holds in ``overlay`` the words its prefix's persists
    carry, and reads every other word from ``baseline``, the
    controller's pre-populated image, which it never writes (a shared
    baseline serves every run of a setup prototype). ``get``, ``in``,
    ``len`` and iteration act on the full image, and copies and pickles
    are plain dicts of it.

    :meth:`NVMController.image_after_prefix` makes one and can advance
    it in place to a later prefix of the same log. Validators may leave
    one walk memo per structure in ``walk_memos``, keyed by the
    structure, as ``(prefix, memo)``; :meth:`written_since` names the
    words that changed since.

    ``baseline_walks`` is the walk store of a shared baseline, or None:
    a dict that outlives the image, in which validators keep the
    passing walks of the baseline itself (prefix 0), so the campaigns
    over every run installed from one setup prototype walk that
    baseline once per structure layout. The store lives as long as
    the prototype (``repro.core.simulator``). A change not made by
    the controller drops every memo and the store.
    """

    __slots__ = ("baseline", "overlay", "nvm", "log", "prefix",
                 "walk_memos", "baseline_walks")

    def __init__(self, nvm: "NVMController", baseline: Dict[int, Word],
                 log: List[PersistRecord],
                 walks: Optional[Dict[tuple, tuple]]) -> None:
        self.baseline = baseline
        self.overlay: Dict[int, Word] = {}
        self.nvm, self.log, self.prefix = nvm, log, 0
        self.walk_memos: Dict[object, tuple] = {}
        self.baseline_walks = walks

    def _get(self, addr: int, default: Word = None) -> Word:
        overlay = self.overlay
        if addr in overlay:
            return overlay[addr]
        return self.baseline.get(addr, default)

    get = _OverlayGet()

    def __getitem__(self, addr: int) -> Word:
        overlay = self.overlay
        if addr in overlay:
            return overlay[addr]
        return self.baseline[addr]

    def __contains__(self, addr: object) -> bool:
        return addr in self.overlay or addr in self.baseline

    def __iter__(self) -> Iterator[int]:
        # Baseline order, then the words only persists wrote: the
        # order a copy of the baseline updated by them would have.
        baseline = self.baseline
        return chain(baseline, filterfalse(baseline.__contains__,
                                           self.overlay))

    def __len__(self) -> int:
        return len(self.baseline) + len(
            set(self.overlay).difference(self.baseline))

    def copy(self) -> Dict[int, Word]:
        """The full image as a plain dict."""
        image = dict(self.baseline)
        image.update(self.overlay)
        return image

    def __reduce__(self):
        # Copies and pickles are plain dicts: the memos stay here.
        return dict, (self.copy(),)

    def written_since(self, prefix: int) -> Set[int]:
        """Addresses written by the persists from ``prefix`` up to this
        image's own prefix."""
        return {addr for record in self.log[prefix:self.prefix]
                for addr, _ in record.words}

    # A change not made by the controller: a memo can only account for
    # the words that persists wrote, and the store only for the
    # baseline.

    def _forget(self) -> None:
        self.walk_memos.clear()
        self.baseline_walks = None

    def __setitem__(self, addr: int, value: Word) -> None:
        self._forget()
        self.overlay[addr] = value

    def __delitem__(self, addr: int) -> None:
        self._forget()
        if addr in self.baseline:
            # The baseline is never written: the image takes a copy
            # of its own and stops reading it.
            self.overlay = self.copy()
            self.baseline = {}
        del self.overlay[addr]


class NVMController:
    """All NVM channels plus the durable persist log."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        self._busy_until = [0] * config.num_memory_controllers
        self._records: List[PersistRecord] = []
        # persist_log() order, kept until the log or baseline changes.
        self._sorted: Optional[List[PersistRecord]] = None
        self._issue_seq = 0
        # Words considered durable before the measured phase started
        # (the pre-populated data structure).
        self._baseline_image: Dict[int, Word] = {}
        # The shared baseline's walk store (see CrashImage), if any.
        self._baseline_walks: Optional[Dict[tuple, tuple]] = None

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
        return list(self._durability_order())

    def _durability_order(self) -> List[PersistRecord]:
        """The persist log, sorted once per state of the log and the
        baseline. Persists are only ever appended, so a length change
        means new ones; a new baseline drops the order."""
        order = self._sorted
        if order is None or len(order) != len(self._records):
            order = self._sorted = sorted(
                self._records, key=lambda r: (r.complete_time, r.issue_seq))
        return order

    def set_baseline_image(self, words: Dict[int, Word], *,
                           share: bool = False,
                           walks: Optional[Dict[tuple, tuple]] = None
                           ) -> None:
        """Install pre-populated durable state (the setup phase's result).

        With ``share`` the dict is adopted without copying; the
        caller must never mutate it afterwards (the controller itself
        only ever reads the baseline). ``walks`` is the walk store kept
        beside a shared baseline, handed to every fresh image (see
        :class:`CrashImage`); a copied baseline is a new one, and
        starts without a store.
        """
        if share:
            self._baseline_image = words
        else:
            self._baseline_image = dict(words)
            walks = None
        self._baseline_walks = walks
        self._sorted = None   # images of the old baseline cannot advance

    def baseline_image(self) -> Dict[int, Word]:
        return dict(self._baseline_image)

    def _checked_log(self, prefix_len: int) -> List[PersistRecord]:
        """The persist log in durability order; ``ValueError`` unless
        ``0 <= prefix_len <= len(log)``."""
        log = self._durability_order()
        if not 0 <= prefix_len <= len(log):
            raise ValueError(
                f"prefix_len must be in [0, {len(log)}], got {prefix_len}")
        return log

    def image_after_prefix(self, prefix_len: int,
                           since: Optional[CrashImage] = None
                           ) -> CrashImage:
        """NVM contents if the machine crashed after ``prefix_len``
        acknowledged persists (in durability order).

        With ``since``, an image this controller made from its current
        log at a prefix no larger than ``prefix_len``, that image is
        advanced in place by the persists in between and returned;
        anything else raises ``ValueError``. Without it, the image is a
        new overlay over the baseline that carries the baseline's walk
        store.
        """
        log = self._checked_log(prefix_len)
        if since is None:
            image = CrashImage(self, self._baseline_image, log,
                               self._baseline_walks)
        elif (not isinstance(since, CrashImage) or since.nvm is not self
              or since.log is not log or since.prefix > prefix_len):
            raise ValueError(
                f"since must be an image of this controller's current "
                f"log at a prefix <= {prefix_len}")
        else:
            image = since
        overlay = image.overlay
        for record in log[image.prefix:prefix_len]:
            for addr, (value, _event) in record.words:
                overlay[addr] = value
        image.prefix = prefix_len
        return image

    def durable_events_after_prefix(self, prefix_len: int) -> Dict[int, int]:
        """Word -> youngest persisted store event id, for a crash prefix
        (same range as :meth:`image_after_prefix`). Baseline words
        carry no store event."""
        events: Dict[int, int] = {}
        for record in self._checked_log(prefix_len)[:prefix_len]:
            events.update(record.word_events())
        return events

    def final_image(self) -> CrashImage:
        """NVM contents once every issued persist has completed."""
        return self.image_after_prefix(len(self._records))
