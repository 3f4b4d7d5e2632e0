"""Idle-rank corner cells: p=64 on a scale-8 graph, most ranks quiet.

A tick runs only the ranks with arrivals, queued visitors or unflushed
envelopes, plus rank 0 (INTERNALS §2).  These cells cover the
configurations that rewrite rank state outside a tick (crash replay, a
durable resume, a supervision rollback) or read per-rank I/O on idle
ranks (page caches under storage faults, mailbox caps with queue spill,
stragglers), plus a permuted ``rank_order`` and a seed that stays in a
hop buffer.  Each compares ``workers=1`` with ``workers=2`` — every stats
field, the per-tick timeline and the order digests — and the result with
``repro.reference``; the cells and the seed also compare with a run that
ticks every rank, which the skip must not be able to tell apart.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.algorithms.kcore import kcore
from repro.bench.harness import build_rmat_graph
from repro.comm.faults import CrashEvent, FaultPlan, WorkerFaultPlan
from repro.core.batch import VisitorBatch
from repro.core.traversal import run_traversal
from repro.memory.faults import StorageFaultPlan
from repro.reference.bfs import bfs_levels
from repro.reference.kcore import kcore_members
from repro.runtime.costmodel import STORAGE_NVRAM, EngineConfig, hyperion_dit
from repro.runtime.engine import SimulationEngine
from repro.runtime.pressure import StragglerPlan
from repro.runtime.trace import DURABILITY_STATS_FIELDS, SUPERVISION_STATS_FIELDS
from repro.types import VID_DTYPE

RANKS = 64
#: a rank quiet on ticks 2, 3, 10 and 20 of both fault-free runs (owned
#: by worker 1 under workers=2)
IDLE_RANK = 61


@pytest.fixture(scope="module")
def rmat():
    return build_rmat_graph(8, num_partitions=RANKS, num_ghosts=8, seed=3)


def _hub(edges) -> int:
    return int(np.argmax(edges.out_degrees()))


def _run(algo, edges, graph, **kw):
    if algo == "bfs":
        return bfs(graph, _hub(edges), topology="2d", record_digests=True, **kw)
    return kcore(graph, 3, topology="2d", record_digests=True, **kw)


def _check_reference(algo, edges, result) -> None:
    if algo == "bfs":
        assert np.array_equal(result.data.levels, bfs_levels(edges, _hub(edges)))
    else:
        assert np.array_equal(result.data.alive, kcore_members(edges, 3))


def _every_rank(self, order, arrivals):
    return list(order)


def _run_every_rank(monkeypatch, run):
    """``run()`` with every rank ticking on every tick: the schedule that
    skipping quiet ranks must be indistinguishable from."""
    with monkeypatch.context() as patch:
        patch.setattr(SimulationEngine, "_active_ranks", _every_rank)
        return run()


def _stats(result, drop=()) -> dict:
    out = dataclasses.asdict(result.stats)
    for name in drop:
        out.pop(name)
    return out


CRASHES = FaultPlan(
    seed=11, drop_rate=0.02,
    crashes=(CrashEvent(tick=3, rank=IDLE_RANK), CrashEvent(tick=10, rank=0)),
)

TIMELINE = EngineConfig(trace_timeline=True)

CELLS = {
    "crash-replay": dict(config=TIMELINE, faults=CRASHES, checkpoint_interval=3),
    "rank-order": dict(
        config=EngineConfig(trace_timeline=True, reliable=True,
                            rank_order=tuple(reversed(range(RANKS)))),
    ),
    "nvram-storage-faults": dict(
        config=TIMELINE,
        machine=hyperion_dit(STORAGE_NVRAM, cache_bytes_per_rank=8 * 1024),
        storage_faults=StorageFaultPlan(
            seed=5, read_error_rate=0.1, spike_rate=0.05, torn_rate=0.02,
            max_retries=8,
        ),
    ),
    "mailbox-cap-queue-spill": dict(
        config=EngineConfig(trace_timeline=True, visitor_budget=4),
        mailbox_cap=40, queue_spill=1,
    ),
    "stragglers": dict(
        config=TIMELINE,
        stragglers=StragglerPlan(seed=3, factor=4.0, fraction=0.25, rebalance=0.5),
    ),
}


@pytest.mark.parametrize("algo", ["bfs", "kcore"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_matches_across_executors_and_reference(rmat, cell, algo, monkeypatch):
    edges, graph = rmat
    seq = _run(algo, edges, graph, workers=1, **CELLS[cell])
    par = _run(algo, edges, graph, workers=2, **CELLS[cell])
    every = _run_every_rank(
        monkeypatch, lambda: _run(algo, edges, graph, workers=1, **CELLS[cell]))
    assert _stats(seq) == _stats(par) == _stats(every)
    _check_reference(algo, edges, seq)
    if cell == "crash-replay":
        assert seq.stats.recoveries == 2
    elif cell == "nvram-storage-faults":
        assert seq.stats.storage_retries > 0
    elif cell == "mailbox-cap-queue-spill":
        assert seq.stats.total_bp_stalls > 0 or seq.stats.total_queue_spilled > 0
    elif cell == "stragglers":
        assert seq.stats.straggler_stall_us > 0


@pytest.mark.parametrize("algo", ["bfs", "kcore"])
def test_durable_resume_mid_run(rmat, algo, tmp_path):
    """A run resumed from a durable epoch halfway through ends
    bit-identical to the uninterrupted one, at either worker count."""
    edges, graph = rmat
    drop = (*DURABILITY_STATS_FIELDS, "timeline")
    runs = []
    for workers in (1, 2):
        epochs = tmp_path / f"w{workers}"
        kw = dict(durable_dir=str(epochs), durable_interval=3, durable_keep=100,
                  workers=workers)
        full = _run(algo, edges, graph, **kw)
        # Forget the second half's epochs, as if the host died halfway.
        for path in epochs.glob("epoch_*"):
            if int(path.stem.split("_")[1]) > full.stats.ticks // 2:
                path.unlink()
        resumed = _run(algo, edges, graph, durable_resume=True, **kw)
        assert 0 < resumed.stats.durable_resume_tick <= full.stats.ticks // 2
        assert _stats(full, drop) == _stats(resumed, drop)
        runs.append(resumed)
    assert _stats(runs[0], drop) == _stats(runs[1], drop)
    _check_reference(algo, edges, runs[0])


@pytest.mark.parametrize("algo", ["bfs", "kcore"])
def test_supervision_rollback(rmat, algo):
    """A worker killed on the tick after the start epoch rolls back and
    re-executes on a fresh pool, bit-identical to the unfailed run."""
    edges, graph = rmat
    seq = _run(algo, edges, graph, workers=1)
    par = _run(algo, edges, graph, workers=2, worker_restarts=1,
               worker_faults=WorkerFaultPlan.from_spec(f"seed=7,kill=2:{IDLE_RANK}"))
    assert par.stats.worker_crashes == par.stats.worker_respawns == 1
    drop = SUPERVISION_STATS_FIELDS
    assert _stats(seq, drop) == _stats(par, drop)
    _check_reference(algo, edges, par)


class _SeedFromLastRank(BFSAlgorithm):
    """BFS whose source visitor is pushed by the last rank, not by the
    source's owner: seeding leaves it in a hop buffer of a rank with no
    arrivals, no queue and no loopback envelopes."""

    def initial_batch(self, graph, rank):
        if rank != graph.num_partitions - 1:
            return None
        return VisitorBatch(
            np.array([self.source], dtype=VID_DTYPE),
            np.array([0], dtype=self.payload_dtype),
            np.array([self.source], dtype=np.int64),
        )


def test_seed_left_in_a_hop_buffer_is_flushed(rmat, monkeypatch):
    edges, graph = rmat
    source = _hub(edges)
    assert graph.min_owner(source) != RANKS - 1

    def run(workers=1):
        return run_traversal(graph, _SeedFromLastRank(source), topology="2d",
                             record_digests=True, workers=workers)

    seq, par, every = run(), run(2), _run_every_rank(monkeypatch, run)
    assert _stats(seq) == _stats(par) == _stats(every)
    assert np.array_equal(seq.data.levels, bfs_levels(edges, source))
