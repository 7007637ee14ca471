"""Progress reporting for experiment sweeps.

The runner drives one :class:`ProgressReporter` per ``run()`` call.
Reporting goes to stderr so figure output on stdout stays clean; the
silent :class:`NullProgress` is the default for library/pytest use.
"""

from __future__ import annotations

import os
import sys
import time
from typing import IO, Optional


class NullProgress:
    """No-op reporter (keeps the runner free of None checks)."""

    def start(self, total: int, label: str = "") -> None:
        pass

    def job_done(self, label: str, *, cached: bool) -> None:
        pass

    def finish(self) -> None:
        pass


class ProgressReporter(NullProgress):
    """Single-line progress counter: ``[exp] 12/45 (7 cached) label``."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0
        self.cached = 0
        self.label = ""
        self._started_at = 0.0

    def start(self, total: int, label: str = "") -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.label = label
        self._started_at = time.monotonic()
        self._emit("")

    def job_done(self, label: str, *, cached: bool) -> None:
        self.done += 1
        if cached:
            self.cached += 1
        self._emit(label)

    def finish(self) -> None:
        elapsed = time.monotonic() - self._started_at
        self._emit(f"done in {elapsed:.1f}s")
        self.stream.write("\n")
        self.stream.flush()

    def _width(self) -> int:
        """Columns of the attached terminal, or 80 when undetectable."""
        try:
            return os.get_terminal_size(self.stream.fileno()).columns
        except (AttributeError, ValueError, OSError):
            return 80

    def _emit(self, detail: str) -> None:
        head = f"[exp{': ' + self.label if self.label else ''}]"
        line = f"{head} {self.done}/{self.total}"
        if self.cached:
            line += f" ({self.cached} cached)"
        if detail:
            line += f" {detail}"
        # Clip to the terminal so a long job label cannot wrap (which
        # would break the \r rewrite), and pad to clear leftovers of a
        # longer previous line. The last column stays free: writing it
        # makes some terminals wrap anyway.
        width = max(1, self._width() - 1)
        self.stream.write(f"\r{line[:width]:<{width}}")
        self.stream.flush()
