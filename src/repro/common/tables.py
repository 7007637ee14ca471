"""Dense line-id interning for the coherence hot-path tables.

The simulation hot path indexes L1 line state and directory
owner/sharer state millions of times per run. Dict-of-dataclass
storage pays an attribute lookup plus hashing per access; the
directory instead keeps that state in flat stdlib tables indexed by a
dense line id, so the batch engine (:mod:`repro.core.fastsim`) reads
plain list and ``array`` slots. This module hands out those ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class LineIdMap:
    """Dense interning of line addresses -> small integer line ids.

    The directory's flat tables are indexed by these ids; the map is
    append-only (lines are never forgotten), so an id stays valid for
    the lifetime of the fabric.
    """

    __slots__ = ("index", "addrs")

    def __init__(self) -> None:
        self.index: Dict[int, int] = {}
        self.addrs: List[int] = []

    def __len__(self) -> int:
        return len(self.addrs)

    def get(self, line_addr: int) -> Optional[int]:
        """The line's id, or None if it was never seen."""
        return self.index.get(line_addr)

    def intern(self, line_addr: int) -> int:
        """The line's id, allocating one on first sight."""
        lid = self.index.get(line_addr)
        if lid is None:
            lid = len(self.addrs)
            self.index[line_addr] = lid
            self.addrs.append(line_addr)
        return lid
