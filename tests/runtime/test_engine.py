"""Tests for the simulation engine: clock, termination, determinism."""

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.algorithms.kcore import KCoreAlgorithm
from repro.core.traversal import run_traversal
from repro.errors import ConfigurationError, TraversalError
from repro.generators.rmat import rmat_edges
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.runtime.costmodel import EngineConfig, MachineModel, hyperion_dit, laptop
from repro.runtime.engine import SimulationEngine


@pytest.fixture(scope="module")
def graph_and_edges():
    src, dst = rmat_edges(8, 16 << 8, seed=21)
    edges = EdgeList.from_arrays(src, dst, 1 << 8).permuted(seed=22).simple_undirected()
    return DistributedGraph.build(edges, 8, num_ghosts=8), edges


class TestConstructionRefusals:
    def test_ghosts_on_a_counting_algorithm_refused(self, graph_and_edges):
        """Native counting state blocks have no pre-visit filter for the
        ghost table to call."""
        g, _ = graph_and_edges

        class GhostKCore(KCoreAlgorithm):
            uses_ghosts = True

        with pytest.raises(ConfigurationError, match="previsit"):
            run_traversal(g, GhostKCore(3))

    @pytest.mark.parametrize("hook", ["initial_visitors", "make_state", "finalize"])
    def test_object_hook_override_without_batch_twin_refused(
        self, graph_and_edges, hook
    ):
        """Overriding an object hook of a built-in without its batch twin
        would run the parent's native hooks and ignore the override."""
        g, edges = graph_and_edges
        s = int(edges.src[0])
        parent = getattr(BFSAlgorithm, hook)
        NoSeeds = type("NoSeeds", (BFSAlgorithm,), {
            hook: lambda self, *a, **kw: parent(self, *a, **kw)
        })
        with pytest.raises(ConfigurationError, match="supports_batch = False"):
            run_traversal(g, NoSeeds(s))
        # The object path honours the override.
        assert run_traversal(g, NoSeeds(s), batch=False).stats.total_visits > 0

    def test_object_hook_override_with_supports_batch_false_runs(
        self, graph_and_edges
    ):
        g, edges = graph_and_edges

        class NoSeeds(BFSAlgorithm):
            supports_batch = False

            def initial_visitors(self, graph, rank):
                return []

        result = run_traversal(g, NoSeeds(int(edges.src[0])))
        assert result.stats.total_visits == 0


class TestDeterminism:
    def test_identical_runs(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        r1 = bfs(g, s)
        r2 = bfs(g, s)
        assert r1.stats.time_us == r2.stats.time_us
        assert r1.stats.ticks == r2.stats.ticks
        assert np.array_equal(r1.data.levels, r2.data.levels)
        assert r1.stats.total_packets == r2.stats.total_packets


class TestTermination:
    def test_detector_and_oracle_agree_on_result(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        with_det = bfs(g, s, config=EngineConfig(use_termination_detector=True))
        oracle = bfs(g, s, config=EngineConfig(use_termination_detector=False))
        assert np.array_equal(with_det.data.levels, oracle.data.levels)

    def test_detector_costs_extra_ticks(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        with_det = bfs(g, s, config=EngineConfig(use_termination_detector=True))
        oracle = bfs(g, s, config=EngineConfig(use_termination_detector=False))
        assert with_det.stats.ticks >= oracle.stats.ticks
        assert with_det.stats.termination_waves >= 2

    def test_max_ticks_guard(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        with pytest.raises(TraversalError):
            bfs(g, s, config=EngineConfig(max_ticks=2))

    def test_max_ticks_error_carries_partial_stats(self, graph_and_edges):
        """A run killed by the tick guard still hands back its trace so the
        caller can see how far it got (essential for chaos debugging)."""
        g, edges = graph_and_edges
        s = int(edges.src[0])
        with pytest.raises(TraversalError) as excinfo:
            bfs(g, s, config=EngineConfig(max_ticks=3, trace_timeline=True))
        stats = excinfo.value.stats
        assert stats is not None
        assert stats.ticks == 3
        assert stats.total_visits > 0
        assert stats.time_us > 0.0
        assert len(stats.ranks) == g.num_partitions
        # a full run's prefix matches the truncated trace
        full = bfs(g, s, config=EngineConfig(trace_timeline=True))
        assert full.stats.ticks > 3
        assert len(stats.timeline) == 3
        assert [
            (t.tick, t.visits_this_tick) for t in stats.timeline
        ] == [(t.tick, t.visits_this_tick) for t in full.stats.timeline[:3]]


class TestClock:
    def test_time_positive_and_bounded_below_by_ticks(self, graph_and_edges):
        g, edges = graph_and_edges
        m = laptop()
        r = bfs(g, int(edges.src[0]), machine=m)
        assert r.stats.time_us >= r.stats.ticks * m.min_tick_us

    def test_slower_machine_slower_clock(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        fast = bfs(g, s, machine=laptop())
        slow_model = MachineModel(
            name="slow", visit_us=50.0, previsit_us=10.0, edge_scan_us=5.0,
            packet_overhead_us=20.0, byte_us=0.1, hop_latency_us=10.0,
            min_tick_us=5.0,
        )
        slow = bfs(g, s, machine=slow_model)
        assert slow.stats.time_us > fast.stats.time_us
        # identical work, different clock
        assert slow.stats.total_visits == fast.stats.total_visits

    def test_critical_path_dominates(self):
        """A hub whose whole adjacency sits on one rank (1D layout) makes
        that rank scan every edge; edge-list layout splits the scan."""
        el = EdgeList.from_pairs(
            [(0, i) for i in range(1, 33)], 33
        ).simple_undirected()
        g_1d = DistributedGraph.build(el, 4, strategy="1d")
        g_el = DistributedGraph.build(el, 4)
        r_1d = run_traversal(g_1d, BFSAlgorithm(0))
        r_el = run_traversal(g_el, BFSAlgorithm(0))
        max_scan_1d = max(r.edges_scanned for r in r_1d.stats.ranks)
        max_scan_el = max(r.edges_scanned for r in r_el.stats.ranks)
        assert max_scan_1d > max_scan_el


class TestVisitorBudget:
    def test_small_budget_more_ticks(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        small = bfs(g, s, config=EngineConfig(visitor_budget=4))
        large = bfs(g, s, config=EngineConfig(visitor_budget=1024))
        assert small.stats.ticks > large.stats.ticks
        assert np.array_equal(small.data.levels, large.data.levels)


class TestNVRAMIntegration:
    def test_cache_stats_populated(self, graph_and_edges):
        g, edges = graph_and_edges
        m = hyperion_dit("nvram", cache_bytes_per_rank=8192)
        r = bfs(g, int(edges.src[0]), machine=m)
        assert r.stats.total_cache_misses > 0
        assert 0.0 <= r.stats.cache_hit_rate() <= 1.0

    def test_nvram_slower_than_dram(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        dram = bfs(g, s, machine=hyperion_dit("dram"))
        nvram = bfs(g, s, machine=hyperion_dit("nvram", cache_bytes_per_rank=4096))
        assert nvram.stats.time_us > dram.stats.time_us

    def test_bigger_cache_not_slower(self, graph_and_edges):
        g, edges = graph_and_edges
        s = int(edges.src[0])
        small = bfs(g, s, machine=hyperion_dit("nvram", cache_bytes_per_rank=4096))
        big = bfs(g, s, machine=hyperion_dit("nvram", cache_bytes_per_rank=1 << 20))
        assert big.stats.time_us <= small.stats.time_us
        assert big.stats.cache_hit_rate() >= small.stats.cache_hit_rate()


class TestTopologyMismatch:
    def test_rank_count_checked(self, graph_and_edges):
        from repro.comm.routing import DirectTopology

        g, _ = graph_and_edges
        with pytest.raises(TraversalError):
            SimulationEngine(g, BFSAlgorithm(0), laptop(), topology=DirectTopology(3))
