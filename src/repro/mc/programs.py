"""Canned litmus programs for the model checker.

Each program is small enough for exhaustive exploration but chosen to
exercise a distinct synchronization shape: the paper's Figure 1
release-CAS insert, message passing through one and two relay hops,
a one-to-many release broadcast, and a three-hop chain at the size
where brute-force enumeration (277 200 interleavings) stops being
practical and DPOR is the only way to cover every trace.

Design constraint: no two threads issue *plain* writes to the same
word. Cross-thread same-word traffic goes through CAS (at most one of
the competing writes performs), so every program is data-race-free at
word granularity in the way the RP crash-state semantics expects —
exactly the discipline the paper's log-free data structures follow.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.consistency.events import MemOrder
from repro.consistency.litmus import LitmusOp, Program, \
    count_interleavings, figure1_initial_memory, figure1_insert, read, write

Word = Optional[int]


@dataclasses.dataclass(frozen=True)
class LitmusProgram:
    """A named litmus program plus its initial memory.

    ``brute_force_ok`` marks programs small enough that enumerating
    every interleaving (for the DPOR equivalence pins) stays cheap;
    larger programs are explored by DPOR only.
    """

    name: str
    description: str
    threads: Tuple[Tuple[LitmusOp, ...], ...]
    init: Tuple[Tuple[int, Word], ...] = ()
    brute_force_ok: bool = True

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def num_ops(self) -> int:
        return sum(len(ops) for ops in self.threads)

    @property
    def interleavings(self) -> int:
        return count_interleavings(self.threads)

    def program(self) -> Program:
        """The thread lists in the shape ``run_interleaving`` expects."""
        return [list(ops) for ops in self.threads]

    def initial_memory(self) -> Dict[int, Word]:
        return dict(self.init)


def _freeze(threads: List[List[LitmusOp]]) -> Tuple[Tuple[LitmusOp, ...], ...]:
    return tuple(tuple(ops) for ops in threads)


def _figure1() -> LitmusProgram:
    return LitmusProgram(
        name="figure1_insert",
        description="Paper Figure 1: release-CAS list insert, "
                    "T1 inserts after T0's published node",
        threads=_freeze(figure1_insert()),
        init=tuple(sorted(figure1_initial_memory().items())),
    )


def _mp3_chain() -> LitmusProgram:
    data0, flag0, data1, flag1 = 0x10, 0x20, 0x30, 0x40
    threads = [
        [write(data0, 1), write(flag0, 1, MemOrder.RELEASE)],
        [read(flag0, MemOrder.ACQUIRE), write(data1, 2),
         write(flag1, 1, MemOrder.RELEASE)],
        [read(flag1, MemOrder.ACQUIRE), read(data1), read(data0)],
    ]
    return LitmusProgram(
        name="mp3_chain",
        description="Message passing relayed through a middle thread "
                    "(3 threads, 8 ops)",
        threads=_freeze(threads),
    )


def _wrc3_cas() -> LitmusProgram:
    x, lock_a, y, lock_b, z = 0x10, 0x20, 0x30, 0x40, 0x50
    threads = [
        [write(x, 1), LitmusOp("cas", lock_a, value=1, expected=0,
                               order=MemOrder.RELEASE)],
        [read(lock_a, MemOrder.ACQUIRE), write(y, 1),
         LitmusOp("cas", lock_b, value=1, expected=0,
                  order=MemOrder.RELEASE)],
        [read(lock_b, MemOrder.ACQUIRE), write(z, 1)],
    ]
    return LitmusProgram(
        name="wrc3_cas",
        description="Write-to-read causality through two release-CAS "
                    "hops (3 threads, 7 ops)",
        threads=_freeze(threads),
        init=((lock_a, 0), (lock_b, 0)),
    )


def _bcast4() -> LitmusProgram:
    payload, flag = 0x10, 0x20
    sinks = (0x30, 0x40, 0x50)
    threads = [[write(payload, 1), write(flag, 1, MemOrder.RELEASE)]]
    for i, sink in enumerate(sinks):
        threads.append([read(flag, MemOrder.ACQUIRE), write(sink, i + 1)])
    return LitmusProgram(
        name="bcast4",
        description="One release broadcast observed by three readers "
                    "(4 threads, 8 ops, 2520 interleavings, 8 traces)",
        threads=_freeze(threads),
    )


def _chain4() -> LitmusProgram:
    d0, f0, d1, f1, d2, f2 = 0x10, 0x20, 0x30, 0x40, 0x50, 0x60
    threads = [
        [write(d0, 1), write(f0, 1, MemOrder.RELEASE)],
        [read(f0, MemOrder.ACQUIRE), write(d1, 2),
         write(f1, 1, MemOrder.RELEASE)],
        [read(f1, MemOrder.ACQUIRE), write(d2, 3),
         write(f2, 1, MemOrder.RELEASE)],
        [read(f2, MemOrder.ACQUIRE), read(d2), read(d1), read(d0)],
    ]
    return LitmusProgram(
        name="chain4",
        description="Three-hop release chain (4 threads, 12 ops, "
                    "277200 interleavings — DPOR-only scope)",
        threads=_freeze(threads),
        brute_force_ok=False,
    )


#: All canned programs, by name.
PROGRAMS: Dict[str, LitmusProgram] = {
    prog.name: prog
    for prog in (_figure1(), _mp3_chain(), _wrc3_cas(), _bcast4(),
                 _chain4())
}

#: The brute-forceable suite: every equivalence pin of
#: ``tests/test_mc.py`` (DPOR classes == enumerated classes, verdicts
#: bit-identical) runs over exactly these.
SUITE: Tuple[str, ...] = tuple(
    name for name, prog in PROGRAMS.items() if prog.brute_force_ok)


def get_program(name: str) -> LitmusProgram:
    """Look up a canned program by name."""
    try:
        return PROGRAMS[name]
    except KeyError:
        raise ValueError(
            f"unknown litmus program {name!r}; choose from "
            f"{sorted(PROGRAMS)}") from None
