"""Worker-chaos matrix: the supervised pool vs the unfailed sequential run.

The supervision layer's contract is the parallel executor's bit-identity
contract, kept *through host-process failures*: for every injected worker
fault (SIGKILL on command receipt, hang past the barrier deadline,
hard-exit mid-phase-A, restart-budget exhaustion, fork failure), the run
rolls back to its last epoch, completes, and produces results, every
``TraversalStats`` counter (wire-level transport stats and the float
simulated clock included) and per-tick order digests bit-identical to an
unfailed ``workers=1`` run — the only fields allowed to differ are the
supervisor's own (:data:`~repro.runtime.trace.SUPERVISION_STATS_FIELDS`).

The composition cells layer worker kills over *simulated* rank-crash
recovery (the epoch carries the recovery manager's state, so a
re-executed simulated crash replays and leaves the same counter residue),
over memory pressure (backpressure + queue spill), and under the race
detector.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.bench.harness import build_rmat_graph
from repro.comm.faults import CrashEvent, FaultPlan, WorkerFaultPlan
from repro.memory.faults import StorageFaultPlan
from repro.runtime.costmodel import EngineConfig, hyperion_dit, laptop
from repro.runtime.engine import SimulationEngine
from repro.runtime.trace import SUPERVISION_STATS_FIELDS

try:
    import multiprocessing

    _HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
except ImportError:  # pragma: no cover
    _HAS_FORK = False

pytestmark = pytest.mark.skipif(
    not _HAS_FORK, reason="parallel executor requires the fork start method"
)

WORKERS = 4

RUNNERS = {
    "bfs": lambda g, **kw: bfs(g, 0, **kw),
    "kcore": lambda g, **kw: kcore(g, 3, **kw),
    "pagerank": lambda g, **kw: pagerank(g, **kw),
}

DATA = {
    "bfs": lambda r: (r.data.levels, r.data.parents),
    "kcore": lambda r: (r.data.alive,),
    "pagerank": lambda r: (r.data.scores,),
}

#: One fault scenario per acceptance row: (worker_faults spec, extra kwargs).
#: Fault ticks sit early (3-5) so every algorithm's run is still live.
SCENARIOS = {
    "kill": ("seed=7,kill=4:1", dict(worker_restarts=2)),
    "hang": ("seed=7,hang=4:2", dict(worker_restarts=2, worker_barrier_timeout=1.0)),
    "exita": ("seed=7,exita=3:0", dict(worker_restarts=2)),
    "degrade": ("seed=7,kill=4:1", dict(worker_restarts=0)),
    "forkfail": ("seed=7,kill=4:1,forkfail=2", dict(worker_restarts=2)),
}


def _stats_key(stats):
    """Every engine counter except the supervisor's own activity."""
    ranks = tuple(
        tuple(sorted(dataclasses.asdict(r).items())) for r in stats.ranks
    )
    top = tuple(sorted(
        (k, v) for k, v in dataclasses.asdict(stats).items()
        if k not in ("ranks", "timeline") and k not in SUPERVISION_STATS_FIELDS
    ))
    return top, ranks


def assert_healed_identical(algorithm, seq, par):
    for a, b in zip(DATA[algorithm](seq), DATA[algorithm](par), strict=False):
        assert np.array_equal(a, b), (
            f"{algorithm}: results diverged through a worker failure"
        )
    assert _stats_key(seq.stats) == _stats_key(par.stats), (
        f"{algorithm}: stats diverged through a worker failure"
    )


@pytest.fixture(scope="module")
def graph():
    _, g = build_rmat_graph(7, num_partitions=4, num_ghosts=32,
                            strategy="edge_list", seed=2024)
    return g


@pytest.fixture(scope="module")
def sequential(graph):
    return {name: run(graph, batch=True) for name, run in RUNNERS.items()}


# --------------------------------------------------------------------- #
# The chaos matrix: 3 algorithms x 5 failure scenarios
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_chaos_cell(algorithm, scenario, graph, sequential):
    spec, kw = SCENARIOS[scenario]
    par = RUNNERS[algorithm](
        graph, batch=True, workers=WORKERS,
        worker_faults=WorkerFaultPlan.from_spec(spec), **kw,
    )
    s = par.stats
    assert s.worker_crashes >= 1, "the injected fault never fired"
    if scenario == "hang":
        assert s.worker_hangs >= 1, "hang was not classified as a hang"
    if scenario in ("degrade", "forkfail"):
        assert s.worker_respawns == 0
        assert s.degraded_ranks >= 1, "degradation path never engaged"
    else:
        assert s.worker_respawns >= 1, "respawn path never engaged"
        assert s.degraded_ranks == 0
    assert s.worker_replayed_ticks >= 1
    assert s.supervision_us > 0.0
    assert_healed_identical(algorithm, sequential[algorithm], par)


def test_object_path_heals(graph):
    """Object visitors' state blocks are pickled back at finalize; the
    re-forked pool must ship the rolled-back and re-executed copies."""
    seq = bfs(graph, 0, batch=False)
    par = bfs(graph, 0, batch=False, workers=WORKERS,
              worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=4:2"),
              worker_restarts=2)
    assert par.stats.worker_respawns >= 1
    assert_healed_identical("bfs", seq, par)


def test_degraded_rank0_owner_keeps_wave(graph, sequential):
    """Degrading on rank 0's owner moves termination-wave duty to the
    parent; wave counts and detector behaviour must not change."""
    par = bfs(graph, 0, batch=True, workers=WORKERS,
              worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=3:0"),
              worker_restarts=0)
    assert par.stats.degraded_ranks >= 1
    seq = sequential["bfs"]
    assert par.stats.termination_waves == seq.stats.termination_waves
    assert_healed_identical("bfs", seq, par)


def test_multiple_failures_one_run(graph, sequential):
    """Three injected failures across distinct workers, all healed."""
    par = bfs(graph, 0, batch=True, workers=WORKERS,
              worker_faults=WorkerFaultPlan.from_spec(
                  "seed=7,kill=3:1+8:3,exita=6:0"),
              worker_restarts=4)
    assert par.stats.worker_crashes == 3
    assert par.stats.worker_respawns == 3
    assert_healed_identical("bfs", sequential["bfs"], par)


# --------------------------------------------------------------------- #
# Composition cells
# --------------------------------------------------------------------- #
def test_worker_kill_composes_with_simulated_crash_recovery(graph):
    """A worker dies *between* a simulated rank-crash recovery and the
    next checkpoint epoch: the rollback re-executes the simulated crash
    and its replay, so the recovery's counter residue lands again and the
    parent's per-tick deltas stay exact."""
    crash = FaultPlan(seed=11, drop_rate=0.01,
                      crashes=(CrashEvent(tick=4, rank=1),))
    kw = dict(batch=True, faults=crash, checkpoint_interval=8)
    seq = bfs(graph, 0, **kw)
    assert seq.stats.recoveries == 1 and seq.stats.replayed_ticks >= 1
    par = bfs(graph, 0, workers=WORKERS, worker_restarts=2,
              worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=6:1"), **kw)
    assert par.stats.recoveries == 1
    assert par.stats.worker_respawns == 1
    assert_healed_identical("bfs", seq, par)


def test_worker_kill_on_simulated_crash_tick(graph):
    """The worker kill lands on the same tick as a simulated rank crash
    (the transport recovers the rank, then the tick command kills the
    worker that just replayed it)."""
    crash = FaultPlan(seed=11, drop_rate=0.01,
                      crashes=(CrashEvent(tick=4, rank=1),
                               CrashEvent(tick=9, rank=3)))
    kw = dict(batch=True, faults=crash, checkpoint_interval=4)
    seq = bfs(graph, 0, **kw)
    par = bfs(graph, 0, workers=WORKERS, worker_restarts=2,
              worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=9:3"), **kw)
    assert par.stats.recoveries == seq.stats.recoveries == 2
    assert par.stats.worker_respawns >= 1
    assert_healed_identical("bfs", seq, par)


def test_worker_kill_composes_with_degraded_crash_recovery(graph):
    """Same composition, degradation flavour: the run continues
    in-process from the epoch, where a plain recovery manager re-executes
    the simulated crash and its replay."""
    crash = FaultPlan(seed=11, drop_rate=0.01,
                      crashes=(CrashEvent(tick=4, rank=1),))
    kw = dict(batch=True, faults=crash, checkpoint_interval=8)
    seq = bfs(graph, 0, **kw)
    par = bfs(graph, 0, workers=WORKERS, worker_restarts=0,
              worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=6:1"), **kw)
    assert par.stats.degraded_ranks >= 1
    assert_healed_identical("bfs", seq, par)


def test_worker_kill_composes_with_memory_pressure(graph):
    """Backpressure + external queue spill: the respawned worker restores
    the spill pager, its read-back cache and the spill ledger, so pressure
    charges evolve bit-identically."""
    cfg = EngineConfig(batch=True, mailbox_cap_bytes=64, queue_spill=16)
    seq = bfs(graph, 0, config=cfg)
    assert seq.stats.total_bp_stalls > 0, "pressure cell is not pressured"
    par = bfs(graph, 0, config=dataclasses.replace(cfg, workers=WORKERS),
              worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=5:2"),
              worker_restarts=2)
    assert par.stats.worker_respawns >= 1
    assert_healed_identical("bfs", seq, par)


@pytest.mark.parametrize("restarts", [2, 0], ids=["respawn", "degrade"])
@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
def test_worker_kill_composes_with_storage_faults(graph, batch, restarts):
    """Storage faults on NVRAM page caches: full-scope rank images carry
    the fault injector's RNG stream, whose position depends only on the
    miss count, so the rolled-back run (re-forked or in-process) draws
    the same retries, spikes and torn pages.  This graph's page misses all
    land in ticks 1-4, so the kill re-executes them from the start epoch,
    where a stale stream would draw different faults."""
    kw = dict(
        batch=batch,
        machine=hyperion_dit("nvram", cache_bytes_per_rank=1024, page_size=256),
        storage_faults=StorageFaultPlan(seed=5, read_error_rate=0.2,
                                        spike_rate=0.05, torn_rate=0.05),
        reliable=True, checkpoint_interval=2,
    )
    seq = bfs(graph, 0, **kw)
    assert seq.stats.storage_retries > 0, "storage cell draws no retries"
    par = bfs(graph, 0, workers=WORKERS, worker_restarts=restarts,
              worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=4:2"), **kw)
    assert par.stats.worker_crashes == 1
    assert par.stats.worker_replayed_ticks >= 1
    if restarts:
        assert par.stats.worker_respawns == 1
    else:
        assert par.stats.degraded_ranks >= 1
    assert_healed_identical("bfs", seq, par)


def test_order_digests_identical_under_chaos(graph):
    """Per-tick order digests — the race detector's observable — survive
    a kill and a hang bit-identically."""
    def run(workers, **kw):
        cfg = EngineConfig(record_order_digests=True, batch=True,
                           workers=workers, **kw)
        eng = SimulationEngine(graph, BFSAlgorithm(0), laptop(), config=cfg)
        eng.run()
        return eng.tick_digests, eng.tick_rank_digests

    seq_digests, seq_rank_digests = run(1)
    par_digests, par_rank_digests = run(
        WORKERS,
        worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=4:1,hang=7:2"),
        worker_restarts=2, worker_barrier_timeout=1.0,
    )
    assert seq_digests == par_digests
    assert seq_rank_digests == par_rank_digests


def test_race_detector_composes_with_worker_faults(graph):
    """--detect-races over a supervised pool: correct algorithms stay
    clean while workers are being killed and healed underneath."""
    from repro.runtime.race import detect_races

    report = detect_races(
        graph, BFSAlgorithm(0), workers=2,
        worker_faults=WorkerFaultPlan.from_spec("seed=7,kill=3:1"),
        worker_restarts=2,
    )
    assert report.clean, report.summary()
