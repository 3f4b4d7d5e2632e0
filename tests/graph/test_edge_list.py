"""Tests for the EdgeList container."""

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.edge_list import EdgeList


def edges_strategy(max_n=32, max_m=128):
    """Random edge lists for property tests."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=max_m,
        ).map(lambda pairs: EdgeList.from_pairs(pairs, num_vertices=n))
    )


class TestConstruction:
    def test_from_pairs(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2)], num_vertices=3)
        assert el.num_edges == 2
        assert el.num_vertices == 3

    def test_from_arrays_infers_n(self):
        el = EdgeList.from_arrays(np.array([0, 5]), np.array([3, 1]))
        assert el.num_vertices == 6

    def test_empty(self):
        el = EdgeList.from_pairs([], num_vertices=0)
        assert el.num_edges == 0

    def test_mismatched_lengths(self):
        with pytest.raises(GraphConstructionError):
            EdgeList(src=np.array([0]), dst=np.array([0, 1]), num_vertices=2)

    def test_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            EdgeList.from_pairs([(0, 9)], num_vertices=3)

    def test_negative_vertex(self):
        with pytest.raises(GraphConstructionError):
            EdgeList.from_pairs([(-1, 0)], num_vertices=3)

    def test_negative_num_vertices(self):
        with pytest.raises(GraphConstructionError):
            EdgeList.from_pairs([], num_vertices=-1)


class TestDegrees:
    def test_out_in_degrees(self):
        el = EdgeList.from_pairs([(0, 1), (0, 2), (1, 2)], num_vertices=3)
        assert list(el.out_degrees()) == [2, 1, 0]
        assert list(el.in_degrees()) == [0, 1, 2]
        assert list(el.degrees()) == [2, 2, 2]

    def test_symmetrized_degree_equals_out_degree(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2)], num_vertices=3).simple_undirected()
        assert np.array_equal(el.out_degrees(), el.in_degrees())


class TestSort:
    def test_sorted_flag(self):
        el = EdgeList.from_pairs([(2, 0), (0, 1)], num_vertices=3)
        assert not el.sorted_by_src
        s = el.sorted_by_source()
        assert s.sorted_by_src
        assert np.all(np.diff(s.src) >= 0)

    def test_sort_is_stable(self):
        el = EdgeList.from_pairs([(1, 9), (0, 5), (1, 3)], num_vertices=10)
        s = el.sorted_by_source()
        # edges of source 1 keep original relative order (9 before 3)
        assert list(s.dst) == [5, 9, 3]

    def test_sort_idempotent(self):
        el = EdgeList.from_pairs([(1, 0), (0, 1)], num_vertices=2).sorted_by_source()
        assert el.sorted_by_source() is el


class TestSymmetrize:
    def test_reverse_edges_added(self):
        el = EdgeList.from_pairs([(0, 1)], num_vertices=2).symmetrized()
        pairs = set(zip(el.src.tolist(), el.dst.tolist(), strict=False))
        assert pairs == {(0, 1), (1, 0)}

    def test_self_loop_not_duplicated(self):
        el = EdgeList.from_pairs([(0, 0), (0, 1)], num_vertices=2).symmetrized()
        assert el.num_edges == 3  # (0,0), (0,1), (1,0)


class TestDedup:
    def test_removes_duplicates(self):
        el = EdgeList.from_pairs([(0, 1), (0, 1), (1, 0)], num_vertices=2).deduplicated()
        assert el.num_edges == 2

    def test_result_sorted(self):
        el = EdgeList.from_pairs([(1, 0), (0, 1), (1, 0)], num_vertices=2).deduplicated()
        assert el.sorted_by_src

    def test_empty(self):
        el = EdgeList.from_pairs([], num_vertices=3).deduplicated()
        assert el.num_edges == 0

    @staticmethod
    def _matches_pair_set(pairs, n):
        el = EdgeList.from_pairs(pairs, num_vertices=n).deduplicated()
        got = list(zip(el.src.tolist(), el.dst.tolist(), strict=True))
        assert got == sorted(set(pairs))
        assert el.sorted_by_src

    @pytest.mark.parametrize("pairs", [[], [(2, 1)], [(1, 3)] * 5])
    def test_matches_pair_set_edge_cases(self, pairs):
        self._matches_pair_set(pairs, 4)

    @given(edges_strategy())
    def test_matches_pair_set(self, el):
        pairs = list(zip(el.src.tolist(), el.dst.tolist(), strict=True))
        self._matches_pair_set(pairs, el.num_vertices)


class TestSelfLoops:
    def test_removed(self):
        el = EdgeList.from_pairs([(0, 0), (0, 1)], num_vertices=2).without_self_loops()
        assert el.num_edges == 1
        assert (int(el.src[0]), int(el.dst[0])) == (0, 1)


class TestPermuted:
    def test_preserves_structure(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)], num_vertices=3)
        p = el.permuted(seed=3)
        assert p.num_edges == el.num_edges
        assert np.array_equal(
            np.sort(p.degrees()), np.sort(el.degrees())
        )


class TestSimpleUndirected:
    @given(edges_strategy())
    def test_properties(self, el):
        simple = el.simple_undirected()
        # no self loops
        assert not np.any(simple.src == simple.dst)
        # symmetric: every edge's reverse present
        pairs = set(zip(simple.src.tolist(), simple.dst.tolist(), strict=False))
        assert all((b, a) in pairs for a, b in pairs)
        # no duplicates
        assert len(pairs) == simple.num_edges
        # sorted by source
        assert np.all(np.diff(simple.src) >= 0)

    @given(edges_strategy())
    def test_idempotent(self, el):
        once = el.simple_undirected()
        twice = once.simple_undirected()
        assert np.array_equal(once.src, twice.src)
        assert np.array_equal(once.dst, twice.dst)
