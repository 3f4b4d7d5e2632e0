"""Parallel-executor equivalence matrix: ``workers=4`` vs sequential.

The process-parallel tick loop's defining contract is *bit-identity*: for
any worker count, every traversal stat — wire-level transport counters and
the float simulated clock included — every result array, and every
per-tick order digest must equal the sequential run's.  This matrix
checks that contract over all six algorithms x {direct, 2d} x {object,
batch}, plus the hostile cells: seeded faults on the reliable transport
under a bounded mailbox, rank crashes with checkpoint/replay recovery,
and memory pressure (mailbox cap + queue spill), where the equality must
hold even for fault, retransmission and backpressure counters — the
barrier merge replays worker packets in exactly the sequential global
send order, so the fault injector's single decision stream perturbs both
runs identically.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.algorithms.connected_components import connected_components
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.algorithms.triangles import triangle_count
from repro.bench.harness import build_rmat_graph
from repro.comm.faults import CrashEvent, FaultPlan
from repro.errors import TraversalError
from repro.runtime.costmodel import STORAGE_NVRAM, EngineConfig, hyperion_dit, laptop
from repro.runtime.engine import SimulationEngine

WORKERS = 4

CHAOS_PLAN = FaultPlan(
    seed=7, drop_rate=0.03, duplicate_rate=0.02, delay_rate=0.05, max_delay=3
)
CRASH_PLAN = FaultPlan(
    seed=11, drop_rate=0.01,
    crashes=(CrashEvent(tick=4, rank=1), CrashEvent(tick=9, rank=3)),
)

RUNNERS = {
    "bfs": lambda g, **kw: bfs(g, 0, **kw),
    "sssp": lambda g, **kw: sssp(g, 0, **kw),
    "cc": lambda g, **kw: connected_components(g, **kw),
    "triangles": lambda g, **kw: triangle_count(g, **kw),
    "kcore": lambda g, **kw: kcore(g, 3, **kw),
    "pagerank": lambda g, **kw: pagerank(g, **kw),
}

DATA = {
    "bfs": lambda r: (r.data.levels, r.data.parents),
    "sssp": lambda r: (r.data.distances,),
    "cc": lambda r: (r.data.labels,),
    "triangles": lambda r: (r.data.per_vertex,),
    "kcore": lambda r: (r.data.alive,),
    "pagerank": lambda r: (r.data.scores,),
}


def _full_stats_key(stats):
    """Every counter the engine reports, wire-level ones included, plus
    the per-tick timeline when traced."""
    ranks = tuple(
        tuple(sorted(dataclasses.asdict(r).items())) for r in stats.ranks
    )
    top = tuple(sorted(
        (k, v) for k, v in dataclasses.asdict(stats).items()
        if k not in ("ranks", "timeline")
    ))
    timeline = tuple(
        tuple(sorted(dataclasses.asdict(s).items())) for s in stats.timeline
    )
    return top, ranks, timeline


def assert_bit_identical(algorithm, seq, par):
    for a, b in zip(DATA[algorithm](seq), DATA[algorithm](par), strict=False):
        assert np.array_equal(a, b), (
            f"{algorithm}: result arrays diverged at workers={WORKERS}"
        )
    assert _full_stats_key(seq.stats) == _full_stats_key(par.stats)


@pytest.fixture(scope="module")
def graph():
    _, g = build_rmat_graph(7, num_partitions=4, num_ghosts=32,
                            strategy="edge_list", seed=2024)
    return g


@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
@pytest.mark.parametrize("topology", ["direct", "2d"])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_matrix_cell(algorithm, topology, batch, graph):
    run = RUNNERS[algorithm]
    seq = run(graph, topology=topology, batch=batch)
    par = run(graph, topology=topology, batch=batch, workers=WORKERS)
    assert_bit_identical(algorithm, seq, par)


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_chaos_cell(algorithm, graph):
    """Faults + reliable transport + bounded mailbox: the barrier merge
    preserves the global send order the fault injector draws against."""
    run = RUNNERS[algorithm]
    kw = dict(batch=True, faults=CHAOS_PLAN, mailbox_cap=64,
              config=EngineConfig(visitor_budget=8))
    seq = run(graph, **kw)
    par = run(graph, workers=WORKERS, **kw)
    assert seq.stats.packets_dropped > 0  # the plan actually engaged
    assert seq.stats.total_bp_stalls > 0  # the cap actually engaged
    assert_bit_identical(algorithm, seq, par)


@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
@pytest.mark.parametrize("algorithm", ["bfs", "kcore"])
def test_crash_recovery_cell(algorithm, batch, graph):
    """Rank crashes: worker-side checkpoint/replay reproduces the
    sequential recovery manager's transport operation sequence."""
    run = RUNNERS[algorithm]
    kw = dict(batch=batch, faults=CRASH_PLAN, checkpoint_interval=4,
              config=EngineConfig(visitor_budget=8))
    seq = run(graph, **kw)
    par = run(graph, workers=WORKERS, **kw)
    assert seq.stats.recoveries == 2  # both planned crashes engaged
    assert_bit_identical(algorithm, seq, par)


@pytest.mark.parametrize("algorithm", ["bfs", "pagerank"])
def test_pressure_cell(algorithm, graph):
    """Mailbox cap + queue spill: the spill pager and backpressure ledger
    run worker-side, their charges merge parent-side in rank order."""
    run = RUNNERS[algorithm]
    kw = dict(batch=True, mailbox_cap=64, queue_spill=16,
              config=EngineConfig(visitor_budget=8))
    seq = run(graph, **kw)
    par = run(graph, workers=WORKERS, **kw)
    assert seq.stats.total_queue_spilled > 0  # the spill limit actually engaged
    assert_bit_identical(algorithm, seq, par)


@pytest.mark.parametrize("algorithm", ["bfs", "cc"])
def test_timeline_cell(algorithm, graph):
    """Traced timelines: object and batch at workers 1 and 2 agree on
    every ``TickSample``.  The batch path ships packet trains on the plain
    fabric (aggregation 4 makes them common here), and
    ``packets_in_flight`` counts logical packets however they travel."""
    run = RUNNERS[algorithm]
    cfg = EngineConfig(trace_timeline=True, aggregation_size=4)
    runs = [run(graph, batch=batch, workers=workers, config=cfg)
            for workers in (1, 2) for batch in (False, True)]
    assert any(s.packets_in_flight for s in runs[0].stats.timeline)
    for other in runs[1:]:
        for a, b in zip(DATA[algorithm](runs[0]), DATA[algorithm](other), strict=True):
            assert np.array_equal(a, b)
        assert _full_stats_key(runs[0].stats) == _full_stats_key(other.stats)


def test_order_digests_identical(graph):
    """The per-tick order digests — the race detector's observable — are
    bit-identical between schedules, not just the final stats."""
    def digests(workers: int) -> tuple[list, list]:
        engine = SimulationEngine(
            graph, BFSAlgorithm(0), laptop(),
            config=EngineConfig(record_order_digests=True, workers=workers),
        )
        engine.run()
        return engine.tick_digests, engine.tick_rank_digests

    seq_tick, seq_rank = digests(1)
    par_tick, par_rank = digests(WORKERS)
    assert len(seq_tick) > 0
    assert seq_tick == par_tick
    assert seq_rank == par_rank


@pytest.mark.parametrize("machine", ["laptop", "nvram"])
@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
def test_max_ticks_post_mortem_identical(batch, machine, graph):
    """The ``max_ticks`` post-mortem is executor-blind: the partial stats
    and the traced timeline a stalled run carries are the same whether
    the ranks ran in-process or in the worker pool."""
    m = laptop() if machine == "laptop" else hyperion_dit(STORAGE_NVRAM)
    config = EngineConfig(max_ticks=4, trace_timeline=True)

    def post_mortem(workers: int):
        with pytest.raises(TraversalError, match="max_ticks=4") as err:
            bfs(graph, 0, batch=batch, machine=m, config=config, workers=workers)
        return err.value.stats

    seq = post_mortem(1)
    par = post_mortem(2)
    assert seq.ticks == 4
    assert len(seq.timeline) == 4
    assert _full_stats_key(seq) == _full_stats_key(par)
    assert seq.timeline == par.timeline


def test_workers_clamped_to_partitions(graph):
    """workers > p degrades gracefully to one worker per rank."""
    seq = bfs(graph, 0, batch=True)
    par = bfs(graph, 0, batch=True, workers=64)
    assert_bit_identical("bfs", seq, par)


# --------------------------------------------------------------------- #
# IPC cells: barrier frames on the worker pipe (INTERNALS §14)
# --------------------------------------------------------------------- #

def test_batch_ticks_pickle_nothing(graph):
    """The zero-pickle contract: a clean batch run moves every per-tick
    byte through frames — ``tick_bytes_pickled`` is exactly 0."""
    r = bfs(graph, 0, batch=True, workers=WORKERS)
    assert r.ipc["frames"] > 0
    assert r.ipc["frame_bytes"] > 0
    assert r.ipc["tick_bytes_pickled"] == 0
    # Control-plane traffic (start/checkpoint/finalize) still pickles.
    assert r.ipc["bytes_pickled"] > 0


def test_object_visitors_cross_as_frames(graph):
    """Object visitors' payload columns take the codec's pickled-payload
    kind inside the frames: no tick is pickled as a command, and the run
    is bit-identical to the sequential one."""
    r = bfs(graph, 0, batch=False, workers=2)
    assert r.ipc["frames"] > 0
    assert r.ipc["tick_bytes_pickled"] == 0
    assert_bit_identical("bfs", bfs(graph, 0, batch=False), r)


def test_respawned_worker_keeps_serving_frames(graph):
    """A SIGKILLed worker's replacement gets the failed tick resent as
    frames and serves the rest of the run over them, bit-identically
    (modulo the supervisor's own activity counters)."""
    from repro.comm.faults import WorkerFaultPlan
    from repro.runtime.trace import SUPERVISION_STATS_FIELDS

    kw = dict(batch=True, checkpoint_interval=4, reliable=True,
              config=EngineConfig(visitor_budget=8))
    seq = bfs(graph, 0, **kw)
    par = bfs(graph, 0, workers=WORKERS, worker_restarts=2,
              worker_faults=WorkerFaultPlan.from_spec("seed=3,kill=5:1"),
              **kw)
    assert par.stats.worker_respawns >= 1  # the kill actually engaged
    assert par.stats.degraded_ranks == 0
    assert par.ipc["frames"] > 0
    assert par.ipc["tick_bytes_pickled"] == 0
    for a, b in zip(DATA["bfs"](seq), DATA["bfs"](par), strict=False):
        assert np.array_equal(a, b)

    def key(stats):
        top, ranks, timeline = _full_stats_key(stats)
        return tuple(
            (k, v) for k, v in top if k not in SUPERVISION_STATS_FIELDS
        ), ranks, timeline

    assert key(seq.stats) == key(par.stats)
