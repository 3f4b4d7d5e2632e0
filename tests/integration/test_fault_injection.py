"""Fault injection: prove the guard rails actually guard.

Each test plants a specific defect — a buggy algorithm, an illegal ghost
declaration, a tampered partitioning — and asserts the corresponding
checker catches it (or demonstrates the failure mode the design rule
exists to prevent)."""

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, BFSState, BFSVisitor
from repro.algorithms.kcore import KCoreAlgorithm, kcore
from repro.analysis.validate import validate_bfs
from repro.core.traversal import run_traversal
from repro.errors import PartitioningError
from repro.graph.distributed import DistributedGraph
from repro.graph.partition_edge_list import EdgeListPartitioning
from repro.reference.kcore import kcore_members


class BuggyBFSVisitor(BFSVisitor):
    """A BFS whose expansion 'forgets' every other edge — it produces a
    plausible-looking but incomplete tree."""

    __slots__ = ()

    def visit(self, ctx) -> None:
        if self.length == ctx.state_of(self.vertex).length:
            nxt = self.length + 1
            for i, w in enumerate(ctx.out_edges(self.vertex)):
                if i % 2 == 0:  # the bug: skips odd-indexed edges
                    ctx.push(BuggyBFSVisitor(int(w), nxt, self.vertex))


class BuggyBFS(BFSAlgorithm):
    name = "buggy-bfs"
    supports_batch = False  # the bug lives in the object visitor

    def initial_visitors(self, graph, rank):
        if rank == graph.min_owner(self.source):
            yield BuggyBFSVisitor(self.source, 0, self.source)


class WrongLevelVisitor(BFSVisitor):
    """A BFS that records off-by-one levels (classic fencepost bug)."""

    __slots__ = ()

    def pre_visit(self, vertex_data: BFSState) -> bool:
        if self.length < vertex_data.length:
            vertex_data.length = self.length + 1  # the bug
            vertex_data.parent = self.parent
            return True
        return False


class TestValidatorCatchesBuggyAlgorithms:
    def test_incomplete_expansion_detected(self, rmat_small):
        graph = DistributedGraph.build(rmat_small, 8)
        source = int(rmat_small.src[0])
        result = run_traversal(graph, BuggyBFS(source))
        report = validate_bfs(
            rmat_small, source, result.data.levels, result.data.parents
        )
        assert not report.valid  # skipped edges leave reached->unreached edges

    def test_off_by_one_levels_detected(self, rmat_small):
        class OffByOneBFS(BFSAlgorithm):
            name = "off-by-one-bfs"
            supports_batch = False  # the bug lives in the object visitor

            def initial_visitors(self, graph, rank):
                if rank == graph.min_owner(self.source):
                    yield WrongLevelVisitor(self.source, 0, self.source)

        graph = DistributedGraph.build(rmat_small, 8)
        source = int(rmat_small.src[0])
        result = run_traversal(graph, OffByOneBFS(source))
        report = validate_bfs(
            rmat_small, source, result.data.levels, result.data.parents
        )
        assert not report.valid


class TestWhyCountingAlgorithmsCannotUseGhosts:
    """Section IV-B: "Algorithms that require precise counts of events,
    such as k-core, cannot use ghosts."  Force the illegal configuration
    and show it corrupts the result — the rule is load-bearing."""

    def test_kcore_with_ghosts_is_wrong(self):
        from repro.graph.edge_list import EdgeList

        class IllegalGhostKCore(KCoreAlgorithm):
            uses_ghosts = True  # the violation
            supports_batch = False  # ghost state objects for the counting pre_visit

        # Star: hub 0 with 32 degree-1 leaves.  Every leaf dies instantly
        # and must deliver its removal notification to the hub; the correct
        # 3-core is empty.  A ghost of the hub filters all but the first
        # notification per partition, so the hub wrongly survives.
        edges = EdgeList.from_pairs(
            [(0, i) for i in range(1, 33)], 33
        ).simple_undirected()
        k = 3
        graph = DistributedGraph.build(edges, 4, num_ghosts=4)
        correct = kcore_members(edges, k)
        assert correct.sum() == 0

        sane = kcore(graph, k).data.alive
        assert np.array_equal(sane, correct)  # legal config is right

        result = run_traversal(graph, IllegalGhostKCore(k))
        # ghosts swallowed decisive decrement events: the hub survives
        assert result.stats.total_ghost_filtered > 0
        assert result.data.alive.sum() > 0
        assert not np.array_equal(result.data.alive, correct)


class TestTamperedPartitioningDetected:
    def _tamper(self, elp: EdgeListPartitioning, **overrides) -> EdgeListPartitioning:
        fields = dict(
            num_vertices=elp.num_vertices,
            num_partitions=elp.num_partitions,
            edge_bounds=elp.edge_bounds.copy(),
            cut_sources=elp.cut_sources.copy(),
            min_owners=elp.min_owners.copy(),
            max_owners=elp.max_owners.copy(),
            state_lo=elp.state_lo.copy(),
            state_hi=elp.state_hi.copy(),
        )
        fields.update(overrides)
        return EdgeListPartitioning(**fields)

    def test_non_tiling_bounds(self, figure3_edges):
        elp = EdgeListPartitioning.build(figure3_edges, 4)
        bounds = elp.edge_bounds.copy()
        bounds[-1] -= 1
        bad = self._tamper(elp, edge_bounds=bounds)
        with pytest.raises(PartitioningError):
            bad.validate(figure3_edges)

    def test_inverted_owners(self, figure3_edges):
        elp = EdgeListPartitioning.build(figure3_edges, 4)
        mins = elp.min_owners.copy()
        mins[2] = 3  # min above max for split vertex 2
        bad = self._tamper(elp, min_owners=mins)
        with pytest.raises(PartitioningError):
            bad.validate(figure3_edges)

    def test_shrunk_state_range(self, figure3_edges):
        elp = EdgeListPartitioning.build(figure3_edges, 4)
        hi = elp.state_hi.copy()
        hi[1] = elp.state_lo[1] - 0  # make partition 1's range exclude its edges
        lo = elp.state_lo.copy()
        lo[1] = lo[1] + 1
        bad = self._tamper(elp, state_lo=lo)
        with pytest.raises(PartitioningError):
            bad.validate(figure3_edges)
        del hi
