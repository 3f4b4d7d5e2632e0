"""Tests for routing topologies — Section III-B and Figure 4."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.comm.routing import (
    DirectTopology,
    Grid2DTopology,
    Grid3DTopology,
    Topology,
    make_topology,
    max_channels,
    mean_hops,
)
from repro.errors import RoutingError


class TestPaperFigure4Example:
    """'As an example, when Rank 11 sends to Rank 5, the message is first
    aggregated and routed through Rank 9.'  (16 ranks, 4x4 grid)"""

    def test_route_11_to_5_via_9(self):
        topo = Grid2DTopology(16, shape=(4, 4))
        assert topo.route(11, 5) == [9, 5]

    def test_first_hop(self):
        topo = Grid2DTopology(16, shape=(4, 4))
        assert topo.next_hop(11, 5) == 9
        assert topo.next_hop(9, 5) == 5


class TestDirect:
    def test_single_hop(self):
        topo = DirectTopology(8)
        for s in range(8):
            for d in range(8):
                if s != d:
                    assert topo.route(s, d) == [d]

    def test_channels_all_to_all(self):
        topo = DirectTopology(8)
        assert len(topo.channels(3)) == 7

    def test_rank_bounds(self):
        topo = DirectTopology(4)
        with pytest.raises(RoutingError):
            topo.next_hop(0, 4)
        with pytest.raises(RoutingError):
            topo.next_hop(-1, 0)


class TestGrid2D:
    def test_channel_count_is_sqrt_p(self):
        """'reduces the number of communicating channels a process requires
        to O(sqrt(p))'"""
        topo = Grid2DTopology(64)  # 8x8
        for r in range(64):
            assert len(topo.channels(r)) == 7 + 7

    def test_at_most_two_hops(self):
        topo = Grid2DTopology(16)
        for s in range(16):
            for d in range(16):
                if s != d:
                    assert topo.num_hops(s, d) <= 2

    def test_same_row_is_one_hop(self):
        topo = Grid2DTopology(16, shape=(4, 4))
        assert topo.route(4, 7) == [7]

    def test_same_col_is_one_hop(self):
        topo = Grid2DTopology(16, shape=(4, 4))
        assert topo.route(1, 13) == [13]

    def test_bad_shape(self):
        with pytest.raises(RoutingError):
            Grid2DTopology(16, shape=(3, 4))

    def test_non_square_p(self):
        topo = Grid2DTopology(12)  # 3x4
        assert topo.rows * topo.cols == 12
        for s in range(12):
            for d in range(12):
                if s != d:
                    assert topo.route(s, d)[-1] == d


class TestGrid3D:
    def test_at_most_three_hops(self):
        topo = Grid3DTopology(64)  # 4x4x4
        for s in range(0, 64, 5):
            for d in range(0, 64, 7):
                if s != d:
                    assert topo.num_hops(s, d) <= 3

    def test_channel_count_is_cbrt_p(self):
        topo = Grid3DTopology(64)
        for r in range(64):
            assert len(topo.channels(r)) == 3 + 3 + 3

    def test_fewer_channels_than_2d_at_scale(self):
        """The reason BG/P experiments use 3D routing: further channel
        reduction at large p."""
        p = 4096
        topo2 = Grid2DTopology(p)
        topo3 = Grid3DTopology(p)
        assert max_channels(topo3) < max_channels(topo2) < p - 1

    def test_coords_roundtrip(self):
        topo = Grid3DTopology(24)
        seen = set()
        for r in range(24):
            seen.add(topo.coords(r))
        assert len(seen) == 24


class TestFactory:
    def test_names(self):
        assert make_topology("direct", 4).name == "direct"
        assert make_topology("2d", 4).name == "2d"
        assert make_topology("3d", 8).name == "3d"

    def test_hypercube(self):
        assert make_topology("hypercube", 4).name == "hypercube"

    def test_unknown(self):
        with pytest.raises(RoutingError):
            make_topology("butterfly", 4)


class TestMeanHops:
    def test_direct_is_one(self):
        assert mean_hops(DirectTopology(6)) == 1.0

    def test_2d_between_one_and_two(self):
        h = mean_hops(Grid2DTopology(16))
        assert 1.0 < h < 2.0

    def test_single_rank(self):
        assert mean_hops(DirectTopology(1)) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([4, 8, 12, 16, 27, 36, 64]),
    name=st.sampled_from(["direct", "2d", "3d"]),
)
def test_all_routes_terminate_property(p, name):
    """Every route reaches its destination within the topology's hop bound."""
    topo = make_topology(name, p)
    bound = {"direct": 1, "2d": 2, "3d": 3}[name]
    for s in range(p):
        for d in range(p):
            if s != d:
                route = topo.route(s, d)
                assert route[-1] == d
                assert len(route) <= bound


class TestNextHopRows:
    """``next_hops(rank)`` is row ``rank`` of the scalar ``next_hop`` table
    (the closed forms and the base-class fallback alike)."""

    class _Fallback(Grid2DTopology):
        """Grid2D routing through the base-class ``next_hops`` loop."""

        next_hops = Topology.next_hops

    @staticmethod
    def _topologies(p):
        names = ["direct", "2d", "3d"] + (["hypercube"] if p & (p - 1) == 0 else [])
        return [make_topology(name, p) for name in names] + [
            TestNextHopRows._Fallback(p)
        ]

    @staticmethod
    def _scalar_row(topo, rank):
        return [topo.next_hop(rank, d) if d != rank else rank
                for d in range(topo.num_ranks)]

    @pytest.mark.parametrize("p", [1, 2, 16, 60, 64])
    def test_every_pair(self, p):
        for topo in self._topologies(p):
            for rank in range(p):
                row = topo.next_hops(rank)
                assert row.dtype.kind == "i"
                assert row.tolist() == self._scalar_row(topo, rank), (topo.name, rank)

    def test_sampled_ranks_at_p1024(self):
        for topo in self._topologies(1024):
            for rank in (0, 1, 31, 32, 511, 777, 1023):
                assert topo.next_hops(rank).tolist() == self._scalar_row(topo, rank)

    def test_rank_out_of_range(self):
        for topo in self._topologies(16):
            with pytest.raises(RoutingError):
                topo.next_hops(16)
