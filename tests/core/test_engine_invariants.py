"""Engine-level invariants, property-tested over random graphs.

These check conservation laws of the distributed execution itself — the
kind of invariants that hold regardless of which algorithm runs:

* message conservation: at quiescence, every visitor sent was received;
* ghost filtering only ever removes messages, never results;
* replica copies of monotonic-state algorithms converge to the master;
* the simulated clock is invariant to the termination mechanism.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.algorithms.kcore import kcore
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.runtime.costmodel import EngineConfig
from repro.runtime.costmodel import laptop
from repro.runtime.engine import SimulationEngine


def graphs(max_n=14, min_edges=1, max_m=60):
    return st.lists(
        st.tuples(st.integers(0, max_n - 1), st.integers(0, max_n - 1)),
        min_size=min_edges,
        max_size=max_m,
    ).map(lambda pairs: EdgeList.from_pairs(pairs, num_vertices=max_n).simple_undirected())


@settings(max_examples=25, deadline=None)
@given(edges=graphs(), p=st.integers(1, 4), source=st.integers(0, 13))
def test_message_conservation(edges, p, source):
    """At quiescence, global visitors_sent == visitors_received."""
    if edges.num_edges < p:
        return
    graph = DistributedGraph.build(edges, p, num_ghosts=2)
    result = bfs(graph, source)
    sent = sum(r.visitors_sent for r in result.stats.ranks)
    received = sum(r.visitors_received for r in result.stats.ranks)
    assert sent == received


@settings(max_examples=20, deadline=None)
@given(edges=graphs(), p=st.integers(1, 4), source=st.integers(0, 13))
def test_ghosts_only_remove_messages(edges, p, source):
    """Ghost filtering reduces (never increases) network traffic and never
    changes the answer."""
    if edges.num_edges < p:
        return
    bare = DistributedGraph.build(edges, p, num_ghosts=0)
    ghosted = DistributedGraph.build(edges, p, num_ghosts=4)
    r_bare = bfs(bare, source)
    r_ghost = bfs(ghosted, source)
    assert np.array_equal(r_bare.data.levels, r_ghost.data.levels)
    assert (
        r_ghost.stats.total_visitors_sent <= r_bare.stats.total_visitors_sent
    )


@settings(max_examples=20, deadline=None)
@given(edges=graphs(), p=st.integers(2, 4), source=st.integers(0, 13))
def test_replica_convergence(edges, p, source):
    """After a BFS completes, every replica copy of a split vertex holds
    the same level as the master copy ("the replicas are kept loosely
    consistent") — at quiescence, exactly consistent."""
    if edges.num_edges < p:
        return
    graph = DistributedGraph.build(edges, p)
    for batch, length in ((True, lambda block, i: block.values[i]),
                          (False, lambda block, i: block.states[i].length)):
        engine = SimulationEngine(graph, BFSAlgorithm(source), laptop(),
                                  config=EngineConfig(batch=batch))
        states_per_rank, _ = engine.run()
        for v in map(int, np.flatnonzero(graph.min_owners < graph.max_owners)):
            chain = list(graph.replica_ranks(v))
            lo = graph.partitions[chain[0]].state_lo
            master = length(states_per_rank[chain[0]], v - lo)
            for rank in chain[1:]:
                lo = graph.partitions[rank].state_lo
                assert length(states_per_rank[rank], v - lo) == master


@settings(max_examples=15, deadline=None)
@given(edges=graphs(), p=st.integers(1, 4), source=st.integers(0, 13))
def test_termination_mechanism_does_not_change_result(edges, p, source):
    if edges.num_edges < p:
        return
    graph = DistributedGraph.build(edges, p)
    with_detector = bfs(graph, source, config=EngineConfig(use_termination_detector=True))
    oracle = bfs(graph, source, config=EngineConfig(use_termination_detector=False))
    assert np.array_equal(with_detector.data.levels, oracle.data.levels)
    # identical algorithmic work, only control traffic differs
    assert with_detector.stats.total_visits == oracle.stats.total_visits


@settings(max_examples=15, deadline=None)
@given(
    edges=graphs(), p=st.integers(1, 4),
    budget=st.sampled_from([1, 3, 64]),
    agg=st.sampled_from([1, 4, 32]),
    k=st.integers(1, 4),
)
def test_schedule_independence_kcore(edges, p, budget, agg, k):
    """K-core's fixed point is schedule-independent: any visitor budget and
    aggregation size yields the same membership."""
    if edges.num_edges < p:
        return
    graph = DistributedGraph.build(edges, p)
    base = kcore(graph, k).data.alive
    varied = kcore(
        graph, k, config=EngineConfig(visitor_budget=budget, aggregation_size=agg)
    ).data.alive
    assert np.array_equal(base, varied)


@settings(max_examples=10, deadline=None)
@given(edges=graphs(min_edges=4), source=st.integers(0, 13))
def test_topology_independence(edges, source):
    """The routing topology changes timing, never results."""
    if edges.num_edges < 4:  # self loops may have been dropped
        return
    graph = DistributedGraph.build(edges, 4, num_ghosts=2)
    results = [
        bfs(graph, source, topology=name).data.levels
        for name in ("direct", "2d", "hypercube")
    ]
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])
