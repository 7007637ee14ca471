"""2D-mesh on-chip network latency model.

Tiles are laid out on a square mesh (Table 1). Each core sits on its
own tile together with one LLC bank; a line's *home tile* is selected
by address interleaving. A message's latency is the Manhattan hop
distance times the per-hop cost, plus one cycle of router/serialization
overhead — a deliberately simple deterministic model (contention inside
the mesh is second-order for the persist-stall effects under study).
"""

from __future__ import annotations

from repro.common.params import MachineConfig


class MeshNoC:
    """Deterministic hop-latency model of the 2D mesh."""

    def __init__(self, config: MachineConfig) -> None:
        self._dim = config.mesh_dim
        self._line_shift = config.line_offset_bits
        self._num_cores = config.num_cores
        # Hop counts and latencies are pure functions of (tile, tile);
        # the miss path asks for them several times per miss, so
        # flatten both matrices once (num_cores^2 entries, tiny) and
        # index them.
        dim = self._dim
        hop = config.noc_hop_cycles
        self._hop_table = [
            abs(a % dim - b % dim) + abs(a // dim - b // dim)
            for a in range(self._num_cores) for b in range(self._num_cores)
        ]
        self._latency_table = [hops * hop + 1 for hops in self._hop_table]

    @property
    def dim(self) -> int:
        return self._dim

    def home_tile(self, line_addr: int) -> int:
        """The tile whose LLC bank/directory owns this line."""
        return (line_addr >> self._line_shift) % self._num_cores

    def hop_distance(self, tile_a: int, tile_b: int) -> int:
        """Manhattan distance between two tiles on the mesh."""
        return self._hop_table[tile_a * self._num_cores + tile_b]

    def latency(self, tile_a: int, tile_b: int) -> int:
        """One-way message latency between two tiles."""
        return self._latency_table[tile_a * self._num_cores + tile_b]
