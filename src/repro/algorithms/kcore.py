"""Asynchronous K-Core decomposition — Algorithms 4 and 5 of the paper.

"To compute the k-core decomposition of an undirected graph, we
asynchronously remove vertices from the core whose degree is less than k.
As vertices are removed, they may create a dynamic cascade of recursive
removals."

Every vertex initialises ``kcore = degree(v) + 1`` and ``alive = True``,
and one visitor is seeded per vertex.  Each arriving visitor decrements the
counter; when it drops below ``k`` the vertex dies and notifies all its
neighbours.  The seed visitor's decrement cancels the ``+ 1``, so a vertex
dies exactly when ``degree - removed_neighbors < k`` — the standard peeling
condition.

**Replicas of split vertices.**  The paper's forwarding rule (Alg. 1) only
forwards a visitor past a state copy whose ``pre_visit`` returned true, so
a counting replica would never see the non-fatal decrements and diverge.
Masters therefore hold the real counter, while replicas initialise in a
*hair-trigger* state (``kcore = k``): the single visitor the master
forwards on its own death fires the replica immediately, making each
partition of the split adjacency list emit its removal notifications
exactly once.  K-core "cannot use ghosts" because precise counts are
required (Section IV-B); the algorithm accordingly declares
``uses_ghosts = False``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import VisitorBatch, arrival_groups
from repro.core.traversal import TraversalResult, run_traversal
from repro.core.visitor import ROLE_MASTER, AsyncAlgorithm, Visitor
from repro.graph.distributed import DistributedGraph
from repro.types import LEVEL_DTYPE, VID_DTYPE


class KCoreState:
    """Per-vertex k-core state (Alg. 5 lines 6-7)."""

    __slots__ = ("alive", "kcore")

    def __init__(self, kcore: int) -> None:
        self.alive = True
        self.kcore = kcore


class KCoreVisitor(Visitor):
    """Alg. 5's removal notification.  The paper's class-static
    ``kcore_visitor::k`` rides in a slot, so one module-level class serves
    every ``k`` and its instances pickle by name across worker pipes."""

    __slots__ = ("k",)

    def __init__(self, vertex: int, k: int) -> None:
        super().__init__(vertex)
        self.k = k

    def pre_visit(self, vertex_data: KCoreState) -> bool:
        if vertex_data.alive:
            vertex_data.kcore -= 1
            if vertex_data.kcore < self.k:
                vertex_data.alive = False
                return True
        return False

    def visit(self, ctx) -> None:
        push = ctx.push
        k = self.k
        for w in ctx.out_edges(self.vertex):
            push(KCoreVisitor(int(w), k))


class KCoreStateArrays:
    """Array-backed k-core state for one rank (batch path).

    Implements the state-array protocol of
    :class:`~repro.core.batch.BatchStateArrays` with the *counting*
    pre-visit of Alg. 5: each arrival decrements the live counter; the
    single arrival that drops it below ``k`` kills the vertex and passes.
    """

    __slots__ = ("alive", "kcore", "k")

    def __init__(self, k: int, kcore: np.ndarray) -> None:
        self.alive = np.ones(kcore.size, dtype=bool)
        self.kcore = kcore
        self.k = k

    def __len__(self) -> int:
        return int(self.kcore.size)

    def previsit_batch(self, idx: np.ndarray, batch: VisitorBatch) -> np.ndarray:
        """Exact sequential equivalent of N counting ``pre_visit`` calls.

        A live vertex with counter ``c`` dies on its ``(c - k + 1)``-th
        arrival (the live invariant ``c >= k`` makes that index >= 1), so
        with per-vertex arrival indices in hand the whole batch resolves
        in closed form: decrements stop at the kill, the kill arrival
        alone passes, later arrivals see a dead vertex and drop.
        """
        n = idx.size
        alive = self.alive
        kcore = self.kcore
        if n == 0:
            return np.zeros(0, dtype=bool)
        if n == 1:
            i = idx[0]
            if not alive[i]:
                return np.array([False])
            kcore[i] -= 1
            if kcore[i] < self.k:
                alive[i] = False
                return np.array([True])
            return np.array([False])
        # One stable sort groups the arrivals per vertex in arrival order.
        order, starts, group = arrival_groups(idx)
        fidx = idx[order[starts]]  # each target vertex once
        cnt = np.bincount(group)  # its arrivals in this batch
        live = alive[fidx]
        # Arrivals needed to kill each target, measured from its pre-batch
        # counter (meaningful only where the vertex is live).
        kill_at = np.maximum(1, kcore[fidx] - self.k + 1)
        # The kill arrival alone passes: its index within the vertex's run
        # is kill_at - 1.
        mask = np.empty(n, dtype=bool)
        occ = np.arange(n) - starts[group]
        mask[order] = live[group] & (occ + 1 == kill_at[group])
        # The vertex absorbs min(count, kill_at) decrements and dies iff
        # the batch reached its kill index.
        kcore[fidx] -= np.where(live, np.minimum(cnt, kill_at), 0)
        alive[fidx[live & (cnt >= kill_at)]] = False
        return mask

    def snapshot(self) -> dict:
        """Checkpointable copy of the mutable state arrays."""
        return {"alive": self.alive.copy(), "kcore": self.kcore.copy()}

    def restore(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot` checkpoint in place."""
        self.alive[:] = snap["alive"]
        self.kcore[:] = snap["kcore"]


@dataclass(frozen=True)
class KCoreResult:
    """Gathered k-core output."""

    k: int
    #: Membership mask: ``alive[v]`` is True when v survives in the k-core.
    alive: np.ndarray

    @property
    def core_size(self) -> int:
        return int(np.count_nonzero(self.alive))

    def members(self) -> np.ndarray:
        """Vertex ids in the k-core."""
        return np.flatnonzero(self.alive).astype(LEVEL_DTYPE)


class KCoreAlgorithm(AsyncAlgorithm):
    """K-core membership for one requested ``k``.

    Input must be a simple undirected graph (symmetrized, deduplicated) so
    the out-degree equals the undirected degree.
    """

    name = "kcore"
    uses_ghosts = False  # precise counts required
    visitor_bytes = 8  # just the vertex id
    supports_batch = True
    payload_dtype = np.int64  # no payload; an all-zeros column rides along

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def make_state(self, vertex: int, degree: int, role: str) -> KCoreState:
        if role == ROLE_MASTER:
            return KCoreState(degree + 1)
        # Replica hair trigger: dies on the first forwarded (fatal) visitor.
        return KCoreState(self.k)

    def initial_visitors(self, graph: DistributedGraph, rank: int):
        for v in graph.masters_on(rank):
            yield KCoreVisitor(int(v), self.k)

    def finalize(self, graph: DistributedGraph, states_per_rank: list[list]) -> KCoreResult:
        alive = np.zeros(graph.num_vertices, dtype=bool)
        for v, state in self.master_states(graph, states_per_rank):
            alive[v] = state.alive
        return KCoreResult(k=self.k, alive=alive)

    # -------------------------- batch path --------------------------- #
    def make_state_arrays(self, vertices, degrees, role, *, masters=None) -> KCoreStateArrays:
        # Masters start at degree + 1 (the seed visitor cancels the +1);
        # replicas are hair-triggered at k, dying on the first forwarded
        # visitor.  Ghosts are forbidden, so ``masters`` is always given.
        kcore = np.where(masters, degrees.astype(np.int64) + 1, self.k)
        return KCoreStateArrays(self.k, kcore)

    def initial_batch(self, graph: DistributedGraph, rank: int) -> VisitorBatch | None:
        masters = np.asarray(graph.masters_on(rank), dtype=VID_DTYPE)
        if masters.size == 0:
            return None
        return VisitorBatch(masters, np.zeros(masters.size, dtype=self.payload_dtype))

    def execute_batch(self, ctx, batch: VisitorBatch) -> VisitorBatch | None:
        # Every queued k-core visitor is a death notification: the visit
        # expands the vertex's whole local row unconditionally and never
        # reads vertex state (no state pages, even fully-external).
        vertices = batch.vertices
        ctx.meter_row_pages(vertices)
        lens, targets = ctx.adjacency_batch(vertices)
        ctx.counters.edges_scanned += int(lens.sum())
        if targets.size == 0:
            return None
        return VisitorBatch(targets, np.zeros(targets.size, dtype=self.payload_dtype))

    def finalize_batch(self, graph: DistributedGraph, arrays_per_rank: list) -> KCoreResult:
        alive = np.zeros(graph.num_vertices, dtype=bool)
        for rank, arrays in enumerate(arrays_per_rank):
            lo = graph.partitions[rank].state_lo
            masters = np.asarray(graph.masters_on(rank))
            alive[masters] = arrays.alive[masters - lo]
        return KCoreResult(k=self.k, alive=alive)


def kcore(graph: DistributedGraph, k: int, **kwargs) -> TraversalResult:
    """Run asynchronous k-core; ``kwargs`` forward to :func:`run_traversal`."""
    return run_traversal(graph, KCoreAlgorithm(k), **kwargs)
