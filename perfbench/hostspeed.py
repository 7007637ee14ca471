"""Host-speed calibration for the benchmark's time metrics.

On a shared host, such as a small cloud VM whose cores other tenants
also use, the same pure-Python work can take 1.6 times longer from one
second to the next, and whole minutes can run 20-40% slow. Raw host
seconds of a 7-second pass then spread by 20-36% (quartile distance
over the median, ten fresh runs on a 2-vCPU VM).
Fixed reference loops that use none of the simulator's code, timed
right before and after each measured unit, tell how fast the host ran
during that unit. Scaling the unit's host seconds by
``REFERENCE_S / reference time`` gives seconds at one reference host
speed, which spread by about 4% over the same ten runs. A change to the
simulator moves the unit and not the loops, so it still shows in full.

The reference is the geometric mean of three loops with different
sensitivities to a contended core: a tight loop on a small dict, a
round of generator coroutines walking an object graph through a large
dict, and a JSON round trip with a keyed sort. A single tight loop
slows more under contention than the simulator does; the mix tracks it
better.
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import Dict, List, Optional

#: Reference time that defines the reference speed: about what
#: :func:`sample` takes on an uncontended 2-vCPU x86 host under
#: CPython 3.11.
REFERENCE_S = 0.008


class _Node:
    __slots__ = ("key", "next", "hits")

    def __init__(self, key: int, next_node: Optional["_Node"]) -> None:
        self.key = key
        self.next = next_node
        self.hits = 0


_GRAPH: Dict[int, _Node] = {}
_WALKS: List[List[int]] = []
_RECORDS: List[dict] = []


def _build() -> None:
    node = None
    for key in range(16384):
        node = _Node(key, node)
        _GRAPH[(key * 40503) & 0xFFFFF] = node
    keys = list(_GRAPH)
    random.Random(1).shuffle(keys)
    _WALKS.extend(keys[i::8][:2000] for i in range(8))
    _RECORDS.extend({"id": i, "name": f"n{i}", "tags": [i % 7, i % 11],
                     "weight": i * 0.5} for i in range(1600))


def _dict_loop() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(60000):
        table[i & 1023] = i
        total += table.get(i & 511, 0)
    return total


def _walker(keys: List[int]):
    total = 0
    for key in keys:
        node = _GRAPH[key]
        node.hits += 1
        total += yield node.key
    return total


def _coroutines() -> None:
    walkers = [_walker(keys) for keys in _WALKS]
    for walker in walkers:
        next(walker)
    while walkers:
        for walker in list(walkers):
            try:
                walker.send(1)
            except StopIteration:
                walkers.remove(walker)


def _json_sort() -> int:
    records = json.loads(json.dumps(_RECORDS))
    records.sort(key=lambda r: (r["tags"][1], -r["id"]))
    return sum(len(r["name"]) for r in records)


def sample() -> float:
    """Reference seconds right now: the geometric mean of the loops."""
    if not _GRAPH:
        _build()
    log_sum = 0.0
    loops = (_dict_loop, _coroutines, _json_sort)
    for loop in loops:
        start = time.perf_counter()
        loop()
        log_sum += math.log(time.perf_counter() - start)
    return math.exp(log_sum / len(loops))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two samples, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
