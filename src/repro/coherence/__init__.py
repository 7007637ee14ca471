"""Cache hierarchy: private L1s, MESI directory, 2D-mesh NoC."""

from repro.coherence.l1cache import CacheLine, L1Cache, MESIState
from repro.coherence.directory import CoherenceFabric
from repro.coherence.noc import MeshNoC

__all__ = [
    "CacheLine",
    "L1Cache",
    "MESIState",
    "CoherenceFabric",
    "MeshNoC",
]
