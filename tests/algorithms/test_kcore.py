"""Tests for asynchronous K-Core decomposition (Algorithms 4 and 5)."""

import multiprocessing
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st
import networkx as nx
import numpy as np
import pytest

from repro.algorithms.kcore import KCoreAlgorithm, KCoreState, KCoreVisitor, kcore
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.reference.kcore import kcore_members


class TestSmallGraphs:
    def test_path_has_no_2core(self, path_graph):
        g = DistributedGraph.build(path_graph, 2)
        r = kcore(g, 2)
        assert r.data.core_size == 0

    def test_triangle_is_2core(self, triangle_graph):
        g = DistributedGraph.build(triangle_graph, 2)
        r = kcore(g, 2)
        assert r.data.core_size == 5  # both triangles survive

    def test_clique_survives_its_degree(self):
        n = 6
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        el = EdgeList.from_pairs(pairs, n).simple_undirected()
        g = DistributedGraph.build(el, 3)
        assert kcore(g, n - 1).data.core_size == n
        assert kcore(g, n).data.core_size == 0

    def test_clique_with_pendant(self):
        """A pendant vertex peels off without destroying the clique — the
        cascade must stop at the clique boundary."""
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)]
        el = EdgeList.from_pairs(pairs, 5).simple_undirected()
        g = DistributedGraph.build(el, 2)
        r = kcore(g, 3)
        assert list(r.data.members()) == [0, 1, 2, 3]

    def test_cascade(self):
        """Removing one low-degree vertex triggers recursive removals."""
        # chain of diamonds that unravels entirely for k=2 once the tail goes
        pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
        el = EdgeList.from_pairs(pairs, 5).simple_undirected()
        g = DistributedGraph.build(el, 2)
        r = kcore(g, 2)
        assert set(r.data.members()) == {0, 1, 2}

    def test_star_k2_empty(self, star_graph):
        g = DistributedGraph.build(star_graph, 4)
        assert kcore(g, 2).data.core_size == 0


class TestSplitHubs:
    def test_hub_split_across_partitions(self):
        """The hair-trigger replica mechanism: a split hub must still peel
        correctly and notify every neighbour exactly once."""
        # hub 0 connected to 16 leaves; leaves pairwise chained so k=2
        pairs = [(0, i) for i in range(1, 17)]
        pairs += [(i, i + 1) for i in range(1, 16)]
        el = EdgeList.from_pairs(pairs, 17).simple_undirected()
        split_seen = False
        for p in (2, 4, 8):
            g = DistributedGraph.build(el, p)
            split_seen = split_seen or g.is_split(0)
            got = kcore(g, 3).data.alive
            ref = kcore_members(el, 3)
            assert np.array_equal(got, ref), f"p={p}"
        # at the finer partitionings the hub's adjacency really was split
        assert split_seen


class TestAgainstReference:
    @pytest.mark.parametrize("p", [1, 3, 8, 16])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rmat(self, rmat_small, p, k):
        g = DistributedGraph.build(rmat_small, p)
        got = kcore(g, k).data.alive
        assert np.array_equal(got, kcore_members(rmat_small, k))

    def test_against_networkx(self, rmat_small):
        g = DistributedGraph.build(rmat_small, 8)
        nxg = nx.Graph(list(zip(rmat_small.src.tolist(), rmat_small.dst.tolist(), strict=False)))
        nxg.add_nodes_from(range(rmat_small.num_vertices))
        core = nx.core_number(nxg)
        for k in (2, 4):
            got = kcore(g, k).data.alive
            expected = np.array(
                [core.get(v, 0) >= k for v in range(rmat_small.num_vertices)]
            )
            assert np.array_equal(got, expected)


class _Context:
    """The two :class:`~repro.core.visitor.VisitContext` calls a k-core
    visitor makes: its vertex's out-edges and a push."""

    def __init__(self, edges):
        self.edges = edges
        self.pushed = []

    def out_edges(self, v):
        return self.edges[v]

    def push(self, visitor):
        self.pushed.append(visitor)


class TestKCoreVisitor:
    """One module-level visitor class carries ``k`` in a slot (Alg. 5's
    class-static ``kcore_visitor::k``)."""

    def test_one_class_for_every_k(self, triangle_graph):
        g = DistributedGraph.build(triangle_graph, 2)
        seeds = {
            k: list(KCoreAlgorithm(k).initial_visitors(g, 0)) for k in (2, 5)
        }
        for k, visitors in seeds.items():
            assert visitors
            assert all(type(v) is KCoreVisitor and v.k == k for v in visitors)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_pickles_by_name(self, k):
        blob = pickle.dumps(KCoreVisitor(11, k))
        assert b"KCoreVisitor" in blob
        back = pickle.loads(blob)
        assert type(back) is KCoreVisitor
        assert (back.vertex, back.k) == (11, k)

    def test_pre_visit_peels_below_k(self):
        state = KCoreState(4)
        visitor = KCoreVisitor(0, 3)
        assert visitor.pre_visit(state) is False  # 4 -> 3, still >= k
        assert (state.alive, state.kcore) == (True, 3)
        assert visitor.pre_visit(state) is True  # 3 -> 2 < k: peeled
        assert (state.alive, state.kcore) == (False, 2)
        assert visitor.pre_visit(state) is False  # dead: ignored
        assert state.kcore == 2

    def test_visit_notifies_neighbours_with_its_k(self):
        ctx = _Context({5: [1, 2, 9]})
        KCoreVisitor(5, 4).visit(ctx)
        assert [(type(v), v.vertex, v.k) for v in ctx.pushed] == [
            (KCoreVisitor, 1, 4), (KCoreVisitor, 2, 4), (KCoreVisitor, 9, 4)
        ]

    def test_object_path_alternating_k_in_one_process(self, rmat_small):
        """No per-k state leaks between runs sharing the one class."""
        g = DistributedGraph.build(rmat_small, 4)
        for k in (2, 4, 2, 3):
            got = kcore(g, k, batch=False).data.alive
            assert np.array_equal(got, kcore_members(rmat_small, k)), f"k={k}"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="parallel executor requires the fork start method",
    )
    @pytest.mark.parametrize("k", [2, 4])
    def test_object_visitors_cross_worker_pipes(self, rmat_small, k):
        g = DistributedGraph.build(rmat_small, 4)
        seq = kcore(g, k, batch=False)
        par = kcore(g, k, batch=False, workers=2)
        assert np.array_equal(seq.data.alive, par.data.alive)
        assert np.array_equal(par.data.alive, kcore_members(rmat_small, k))
        assert seq.stats.total_visits == par.stats.total_visits


class TestValidation:
    def test_k_zero(self):
        with pytest.raises(ValueError):
            KCoreAlgorithm(0)


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)), min_size=2, max_size=70
    ),
    p=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=5),
)
def test_kcore_matches_reference_property(pairs, p, k):
    """Property: arbitrary undirected graphs, any partitioning, any k."""
    edges = EdgeList.from_pairs(pairs, num_vertices=14).simple_undirected()
    if edges.num_edges < p:
        return
    g = DistributedGraph.build(edges, p)
    got = kcore(g, k).data.alive
    assert np.array_equal(got, kcore_members(edges, k))
