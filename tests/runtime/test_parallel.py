"""Unit tests for the process-parallel executor's building blocks:
shared-memory arenas, worker pool lifecycle (no child-process leaks),
worker-failure surfacing, configuration guards, and the race detector
running under a parallel schedule."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.bench.harness import build_rmat_graph
from repro.core.batch import SharedArrayBlock, share_state_arrays
from repro.core.visitor import AsyncAlgorithm, Visitor
from repro.errors import ConfigurationError, TraversalError
from repro.memory.page_cache import PageCache
from repro.runtime.costmodel import EngineConfig, trestles
from repro.runtime.race import detect_races

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel executor requires the fork start method",
)


@pytest.fixture(scope="module")
def graph():
    _, g = build_rmat_graph(7, num_partitions=4, num_ghosts=32,
                            strategy="edge_list", seed=2024)
    return g


# ---------------------------------------------------------------------- #
# SharedArrayBlock
# ---------------------------------------------------------------------- #
class TestSharedArrayBlock:
    def test_round_trip_preserves_values_dtypes_shapes(self):
        arrays = [
            ("a", np.arange(7, dtype=np.int64)),
            ("b", np.linspace(0.0, 1.0, 5)),
            ("c", np.array([True, False, True])),
        ]
        block = SharedArrayBlock(arrays)
        for name, arr in arrays:
            view = block.view(name)
            assert view.dtype == arr.dtype
            assert view.shape == arr.shape
            assert np.array_equal(view, arr)

    def test_views_are_aligned_and_disjoint(self):
        block = SharedArrayBlock([
            ("a", np.ones(3, dtype=np.int8)),
            ("b", np.full(4, 9, dtype=np.int64)),
        ])
        off_a, _, _ = block.layout["a"]
        off_b, _, _ = block.layout["b"]
        assert off_a % SharedArrayBlock.ALIGN == 0
        assert off_b % SharedArrayBlock.ALIGN == 0
        assert off_b >= 3  # b starts past a's bytes
        block.view("a")[:] = 0
        assert np.array_equal(block.view("b"), np.full(4, 9, dtype=np.int64))

    def test_mutations_cross_fork(self):
        """A child forked after construction writes into the very pages the
        parent reads — the property the batch-mode state handoff rests on."""
        block = SharedArrayBlock([("x", np.zeros(4, dtype=np.int64))])
        pid = os.fork()
        if pid == 0:  # child
            try:
                block.view("x")[:] = [5, 6, 7, 8]
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        assert np.array_equal(block.view("x"), [5, 6, 7, 8])

    def test_share_state_arrays_rebinds_in_place(self):
        class Block:
            __slots__ = ("values", "parents", "k")

            def __init__(self):
                self.values = np.arange(6, dtype=np.float64)
                self.parents = np.full(6, -1, dtype=np.int64)
                self.k = 3  # non-array slot: left alone

        state = Block()
        before = state.values.copy()
        arena = share_state_arrays(state)
        assert arena is not None
        assert np.array_equal(state.values, before)
        assert state.k == 3
        # the rebinding points at the arena, not the original heap arrays
        state.values[0] = 99.0
        assert arena.view("values")[0] == 99.0

    def test_share_state_arrays_none_without_arrays(self):
        class Empty:
            __slots__ = ("n",)

            def __init__(self):
                self.n = 4

        assert share_state_arrays(Empty()) is None


# ---------------------------------------------------------------------- #
# Pool lifecycle
# ---------------------------------------------------------------------- #
def test_pool_reaped_between_runs(graph):
    """Each run() forks its own pool and reaps it: back-to-back parallel
    traversals leave the child-process count at baseline."""
    baseline = len(multiprocessing.active_children())
    first = bfs(graph, 0, batch=True, workers=2)
    assert len(multiprocessing.active_children()) == baseline
    second = bfs(graph, 0, batch=True, workers=2)
    assert len(multiprocessing.active_children()) == baseline
    assert np.array_equal(first.data.levels, second.data.levels)


# ---------------------------------------------------------------------- #
# Worker failure surfacing
# ---------------------------------------------------------------------- #
class _DelayedBombVisitor(Visitor):
    """Floods like BFS but detonates when it lands on the bomb vertex."""

    __slots__ = ("bomb",)

    def __init__(self, vertex: int, bomb: int) -> None:
        super().__init__(vertex)
        self.bomb = bomb

    def pre_visit(self, vertex_data) -> bool:
        if self.vertex == self.bomb:
            raise RuntimeError("bomb vertex reached")
        if vertex_data.get("seen"):
            return False
        vertex_data["seen"] = True
        return True

    def visit(self, ctx) -> None:
        for w in ctx.out_edges(self.vertex):
            ctx.push(_DelayedBombVisitor(int(w), self.bomb))


class _BombAlgorithm(AsyncAlgorithm):
    name = "bomb"
    uses_ghosts = False
    visitor_bytes = 16

    def __init__(self, source: int, bomb: int) -> None:
        self.source = source
        self.bomb = bomb

    def make_state(self, vertex: int, degree: int, role: str) -> dict:
        return {}

    def initial_visitors(self, graph, rank):
        if rank == graph.min_owner(self.source):
            yield _DelayedBombVisitor(self.source, self.bomb)

    def finalize(self, graph, states_per_rank):
        return None


def test_worker_error_surfaces_as_traversal_error(graph):
    """A worker-side exception becomes a TraversalError carrying partial
    stats (like the max_ticks post-mortem), never a hang or a raw
    multiprocessing traceback."""
    from repro.core.traversal import run_traversal

    # A vertex some BFS hops from the source, so the bomb goes off after
    # at least one full barrier and partial counters exist.
    seq_levels = bfs(graph, 0).data.levels
    bomb = int(np.flatnonzero(seq_levels == 2)[0])

    baseline = len(multiprocessing.active_children())
    with pytest.raises(TraversalError) as excinfo:
        run_traversal(graph, _BombAlgorithm(0, bomb), workers=2)
    err = excinfo.value
    assert "parallel worker failed" in str(err)
    assert "bomb vertex reached" in str(err)
    assert err.stats is not None
    assert err.stats.ticks >= 1
    assert sum(c.visits for c in err.stats.ranks) > 0
    # the failed run's pool is still reaped
    assert len(multiprocessing.active_children()) == baseline


# ---------------------------------------------------------------------- #
# Configuration guards
# ---------------------------------------------------------------------- #
def test_workers_must_be_positive():
    with pytest.raises(ConfigurationError):
        EngineConfig(workers=0)


def test_warm_caches_rejected_with_workers(graph):
    """Caller-provided page caches live in the parent; workers cannot keep
    them warm, so the combination is refused up front."""
    machine = trestles()
    caches = [
        PageCache(capacity_pages=4, page_size=machine.page_size,
                  device=machine.device)
        for _ in range(graph.num_partitions)
    ]
    with pytest.raises(ConfigurationError, match="workers=1"):
        bfs(graph, 0, machine=machine, page_caches=caches, workers=2)


# ---------------------------------------------------------------------- #
# Race detector under a parallel schedule
# ---------------------------------------------------------------------- #
def test_race_detector_clean_under_parallel_schedule(graph):
    """detect_races composes with workers=2: both the baseline and the
    perturbed-rank-order runs execute on the parallel path and still
    produce bit-identical per-tick digests."""
    report = detect_races(graph, lambda: BFSAlgorithm(0), workers=2)
    assert report.clean, report.summary()


# ---------------------------------------------------------------------- #
# Supervision: crash surfacing, pool lifecycle, fault-plan parsing
# ---------------------------------------------------------------------- #
def test_worker_traceback_surfaced_parent_side(graph):
    """A worker-side exception crosses the pipe as a structured
    WorkerCrash: the parent's TraversalError chains from it and carries
    the child's full traceback, so the failing frame is debuggable
    without attaching to a dead process."""
    from repro.core.traversal import run_traversal
    from repro.runtime.parallel import WorkerCrash

    seq_levels = bfs(graph, 0).data.levels
    bomb = int(np.flatnonzero(seq_levels == 2)[0])
    with pytest.raises(TraversalError) as excinfo:
        run_traversal(graph, _BombAlgorithm(0, bomb), workers=2)
    crash = excinfo.value.__cause__
    assert isinstance(crash, WorkerCrash)
    assert crash.kind == "error"
    assert crash.worker is not None
    assert crash.worker_traceback is not None
    assert "bomb vertex reached" in crash.worker_traceback
    assert "_rank_tick" in crash.worker_traceback  # a child-side frame
    assert "--- worker traceback ---" in str(excinfo.value)


def test_pool_context_manager_reaps_on_parent_failure(graph, monkeypatch):
    """Regression: the pool is a context manager, so a *parent*-side
    exception between barriers (here: the simulated network blowing up)
    still tears every worker down instead of orphaning them."""
    from repro.runtime.costmodel import laptop
    from repro.runtime.engine import SimulationEngine

    baseline = len(multiprocessing.active_children())
    eng = SimulationEngine(graph, BFSAlgorithm(0), laptop(),
                           config=EngineConfig(batch=True, workers=2))
    calls = {"n": 0}
    orig = eng.network.advance

    def exploding_advance():
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("parent-side failure between barriers")
        return orig()

    monkeypatch.setattr(eng.network, "advance", exploding_advance)
    with pytest.raises(RuntimeError, match="between barriers"):
        eng.run()
    assert len(multiprocessing.active_children()) == baseline


def test_worker_fault_plan_from_spec():
    from repro.comm.faults import WorkerFaultPlan

    plan = WorkerFaultPlan.from_spec(
        "seed=7,kill=4:1+9:3,hang=6:0,exita=3:2,forkfail=2")
    assert plan.seed == 7
    assert plan.fork_failures == 2
    assert sorted((e.tick, e.rank, e.kind) for e in plan.events) == [
        (3, 2, "exita"), (4, 1, "kill"), (6, 0, "hang"), (9, 3, "kill"),
    ]
    assert [e.kind for e in plan.events_at(4)] == ["kill"]
    assert plan.any_faults


@pytest.mark.parametrize("spec", [
    "kill=4",            # missing rank
    "kill=4:1:2",        # too many fields
    "explode=4:1",       # unknown fault kind
    "kill=-1:0",         # negative tick
    "forkfail=x",        # non-integer
])
def test_worker_fault_plan_rejects_malformed_specs(spec):
    from repro.comm.faults import WorkerFaultPlan

    with pytest.raises(ConfigurationError):
        WorkerFaultPlan.from_spec(spec)


def test_worker_fault_config_guards():
    from repro.comm.faults import WorkerFaultPlan

    plan = WorkerFaultPlan.from_spec("kill=4:1")
    with pytest.raises(ConfigurationError, match="workers"):
        EngineConfig(worker_faults=plan)  # workers=1
    with pytest.raises(ConfigurationError):
        EngineConfig(workers=2, worker_restarts=-1)
    with pytest.raises(ConfigurationError):
        EngineConfig(workers=2, worker_barrier_timeout=0.0)


def test_fault_plan_rank_out_of_range_rejected(graph):
    """A plan naming a rank the partition count doesn't have is refused at
    supervisor construction, not silently ignored."""
    from repro.comm.faults import WorkerFaultPlan

    with pytest.raises(ConfigurationError, match="rank"):
        bfs(graph, 0, batch=True, workers=2, worker_restarts=1,
            worker_faults=WorkerFaultPlan.from_spec("kill=4:9"))
