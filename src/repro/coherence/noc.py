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
        # Latency is a pure function of (tile, tile) and the miss path
        # asks for it several times per miss, so flatten the matrix
        # once (num_cores^2 entries, tiny) and index it. A tile sits at
        # (tile % dim, tile // dim); the hop count is the Manhattan
        # distance.
        dim = self._dim
        hop = config.noc_hop_cycles
        self._latency_table = [
            (abs(a % dim - b % dim) + abs(a // dim - b // dim)) * hop + 1
            for a in range(self._num_cores) for b in range(self._num_cores)
        ]

    @property
    def dim(self) -> int:
        return self._dim

    def home_tile(self, line_addr: int) -> int:
        """The tile whose LLC bank/directory owns this line."""
        return (line_addr >> self._line_shift) % self._num_cores

    def latency(self, tile_a: int, tile_b: int) -> int:
        """One-way message latency between two tiles."""
        return self._latency_table[tile_a * self._num_cores + tile_b]
