"""Unit tests for the 2D-mesh NoC model."""

from hypothesis import given, strategies as st

from repro.coherence.noc import MeshNoC
from repro.common.params import MachineConfig


def _noc(cores=64):
    return MeshNoC(MachineConfig(num_cores=cores))


def _hops(noc, a, b):
    """The hop count a latency carries: one router cycle plus
    ``noc_hop_cycles`` per hop."""
    return (noc.latency(a, b) - 1) // MachineConfig().noc_hop_cycles


class TestHomeTile:
    def test_interleaved_by_line(self):
        noc = _noc()
        assert noc.home_tile(0x0) == 0
        assert noc.home_tile(0x40) == 1
        assert noc.home_tile(0x40 * 64) == 0

    def test_home_in_range(self):
        noc = _noc(16)
        for line in range(100):
            assert 0 <= noc.home_tile(line * 64) < 16


class TestDistance:
    def test_self_distance_zero(self):
        assert _hops(_noc(), 5, 5) == 0

    def test_neighbors(self):
        noc = _noc()  # 8x8 mesh
        assert _hops(noc, 0, 1) == 1
        assert _hops(noc, 0, 8) == 1
        assert _hops(noc, 0, 9) == 2

    def test_corner_to_corner(self):
        noc = _noc()
        assert _hops(noc, 0, 63) == 14  # (7,7) manhattan

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_symmetric(self, a, b):
        noc = _noc()
        assert _hops(noc, a, b) == _hops(noc, b, a)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_triangle_inequality(self, a, b, c):
        noc = _noc()
        assert (_hops(noc, a, c)
                <= _hops(noc, a, b) + _hops(noc, b, c))


class TestLatency:
    def test_local_is_one_cycle(self):
        assert _noc().latency(3, 3) == 1

    def test_latency_scales_with_hops(self):
        noc = _noc()
        config = MachineConfig()
        assert noc.latency(0, 1) == config.noc_hop_cycles + 1
        assert noc.latency(0, 9) == 2 * config.noc_hop_cycles + 1

    def test_latency_positive(self):
        noc = _noc()
        for a in range(0, 64, 7):
            for b in range(0, 64, 5):
                assert noc.latency(a, b) >= 1
