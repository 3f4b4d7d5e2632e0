"""Rollback-to-epoch heal points (INTERNALS §12).

A supervised worker failure rolls the whole run back to the supervisor's
newest in-memory epoch, whatever pool command it hit.  Each cell fails one
command once — the tick (an injected kill directive), the crash-recovery
checkpoint, a simulated rank-crash replay, a durable epoch capture and
the finalize barrier — and the healed run must match the unfailed
``workers=1`` run bit-for-bit outside
:data:`~repro.runtime.trace.SUPERVISION_STATS_FIELDS` (results, every
other counter, the durable family included, and the order digest).  The
one exception there is ``durable_disk_bytes``, the host pickle size of the
written epochs: after a rollback a rank's section pickles larger with the
same content, because the recovery image restored from the epoch no
longer shares objects with the live rank, so the pickle memo cannot
reuse them.  Unfailed, the run writes byte-identical epochs at either
worker count.  The durable-damage cell compares against the unfailed run at
the same worker count instead, including ``durable_disk_bytes``, and pins
what a rollback must rewind besides the engine: a re-executed durable
tick writes, damages and verifies its epoch exactly as it did the first
time, so the durable directory ends byte-identical.

The same heal points with the restart budget spent continue in-process
from the epoch (the graceful degradation), and without supervision they
end in the post-mortem :class:`~repro.errors.TraversalError`.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.bench.harness import build_rmat_graph
from repro.comm.faults import CrashEvent, FaultPlan, WorkerFaultPlan
from repro.errors import TraversalError, WorkerCrash
from repro.runtime.durability import DurableFaultPlan
from repro.runtime.parallel import SUPERVISION_EPOCH_TICKS, WorkerPool, WorkerSupervisor
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
#: The worker the injected failures hit.
TARGET = 1


@pytest.fixture(scope="module")
def graph():
    _, g = build_rmat_graph(7, num_partitions=4, num_ghosts=32,
                            strategy="edge_list", seed=2024)
    return g


def _stats_key(stats, *, disk_bytes: bool):
    """Every stats field except the supervisor's own activity (and, unless
    ``disk_bytes``, the epochs' host pickle size)."""
    out = dataclasses.asdict(stats)
    for name in SUPERVISION_STATS_FIELDS:
        out.pop(name)
    if not disk_bytes:
        out.pop("durable_disk_bytes")
    return out


def _assert_healed(seq, par, *, disk_bytes: bool):
    assert np.array_equal(seq.data.levels, par.data.levels)
    assert np.array_equal(seq.data.parents, par.data.parents)
    assert (_stats_key(seq.stats, disk_bytes=disk_bytes)
            == _stats_key(par.stats, disk_bytes=disk_bytes))


def _fail_once(monkeypatch, command: str, occurrence: int) -> dict:
    """Make worker ``TARGET``'s reply to the ``occurrence``-th ``command``
    raise a :class:`WorkerCrash` (once per test)."""
    state = {"seen": 0, "pending": False, "fired": False}
    send, recv = WorkerPool.send, WorkerPool.recv

    def failing_send(self, i, message):
        if i == TARGET and message[0] == command and not state["fired"]:
            state["seen"] += 1
            state["pending"] = state["seen"] == occurrence
        send(self, i, message)

    def failing_recv(self, i, deadline_s=None):
        out = recv(self, i, deadline_s)
        if i == TARGET and state["pending"]:
            state["pending"] = False
            state["fired"] = True
            raise WorkerCrash(f"injected {command} failure", worker=i,
                              ranks=self.owned[i], kind="crash")
        return out

    monkeypatch.setattr(WorkerPool, "send", failing_send)
    monkeypatch.setattr(WorkerPool, "recv", failing_recv)
    return state


#: Heal point -> (pool command, its failing occurrence).  The first
#: checkpoint is the initial one and the first durable capture the start
#: epoch's, both taken before an epoch exists, so those cells fail the
#: second.
HEAL_POINTS = {
    "checkpoint": ("checkpoint", 2),
    "replay": ("replay", 1),
    "durable": ("durable", 2),
    "finalize": ("finalize", 1),
}


def _heal_point_kwargs() -> dict:
    """A run that reaches every heal point: a simulated rank crash (so
    checkpoints and a replay), durable epochs and digests."""
    crash = FaultPlan(seed=11, drop_rate=0.01,
                      crashes=(CrashEvent(tick=6, rank=TARGET),))
    return dict(batch=True, faults=crash, checkpoint_interval=4,
                durable_interval=2, record_digests=True)


@pytest.mark.parametrize("point", ["tick", *HEAL_POINTS])
def test_failure_at_each_heal_point_rolls_back(point, graph, tmp_path, monkeypatch):
    kw = _heal_point_kwargs()
    seq = bfs(graph, 0, durable_dir=str(tmp_path / "seq"), **kw)
    assert seq.stats.recoveries == 1 and seq.stats.durable_checkpoints >= 2
    if point == "tick":
        injected = None
        worker_faults = WorkerFaultPlan.from_spec(f"seed=7,kill=5:{TARGET}")
    else:
        injected = _fail_once(monkeypatch, *HEAL_POINTS[point])
        worker_faults = None
    par = bfs(graph, 0, durable_dir=str(tmp_path / "par"), workers=WORKERS,
              worker_restarts=2, worker_faults=worker_faults, **kw)
    if injected is not None:
        assert injected["fired"], f"no {point} reply was failed"
    s = par.stats
    assert s.worker_crashes == 1
    assert s.worker_respawns == 1
    assert s.degraded_ranks == 0
    assert s.worker_replayed_ticks >= 1
    _assert_healed(seq, par, disk_bytes=False)


@pytest.mark.parametrize("point", ["tick", *HEAL_POINTS])
def test_spent_budget_continues_in_process(point, graph, tmp_path, monkeypatch):
    """``worker_restarts=0`` with a fault plan: the first failure installs
    the epoch and finishes on the in-process executor, no re-fork."""
    kw = _heal_point_kwargs()
    seq = bfs(graph, 0, durable_dir=str(tmp_path / "seq"), **kw)
    if point == "tick":
        injected = None
        worker_faults = WorkerFaultPlan.from_spec(f"seed=7,kill=5:{TARGET}")
    else:
        injected = _fail_once(monkeypatch, *HEAL_POINTS[point])
        worker_faults = WorkerFaultPlan(seed=7)
    par = bfs(graph, 0, durable_dir=str(tmp_path / "par"), workers=WORKERS,
              worker_restarts=0, worker_faults=worker_faults, **kw)
    if injected is not None:
        assert injected["fired"], f"no {point} reply was failed"
    s = par.stats
    assert s.worker_crashes == 1
    assert s.worker_respawns == 0
    assert s.degraded_ranks == graph.num_partitions
    assert s.worker_replayed_ticks >= 1
    _assert_healed(seq, par, disk_bytes=False)


@pytest.mark.parametrize("point", sorted(HEAL_POINTS))
def test_unsupervised_failure_is_a_post_mortem(point, graph, tmp_path, monkeypatch):
    """No restart budget and no fault plan: a failure at any heal point
    fails the run with the partial stats attached."""
    injected = _fail_once(monkeypatch, *HEAL_POINTS[point])
    with pytest.raises(TraversalError, match="parallel worker failed") as info:
        bfs(graph, 0, durable_dir=str(tmp_path / "par"), workers=WORKERS,
            **_heal_point_kwargs())
    assert injected["fired"], f"no {point} reply was failed"
    assert isinstance(info.value.__cause__, WorkerCrash)
    assert info.value.stats is not None
    assert info.value.stats.ticks >= 1


def _kept_epoch_ticks(monkeypatch) -> list[int]:
    """Record the tick of every epoch the supervisor keeps."""
    ticks: list[int] = []
    keep = WorkerSupervisor.keep_epoch

    def recording_keep(self, tick, blobs, stats):
        ticks.append(tick)
        keep(self, tick, blobs, stats)

    monkeypatch.setattr(WorkerSupervisor, "keep_epoch", recording_keep)
    return ticks


def test_armed_supervisor_keeps_epochs_on_its_cadence(graph, monkeypatch):
    kept = _kept_epoch_ticks(monkeypatch)
    res = pagerank(graph, batch=True, workers=WORKERS, worker_restarts=1)
    assert res.stats.ticks > 2 * SUPERVISION_EPOCH_TICKS
    assert kept == list(range(0, res.stats.ticks + 1, SUPERVISION_EPOCH_TICKS))
    assert res.stats.worker_crashes == 0 and res.stats.worker_replayed_ticks == 0


def test_unarmed_supervisor_keeps_no_epoch(graph, monkeypatch):
    kept = _kept_epoch_ticks(monkeypatch)
    res = pagerank(graph, batch=True, workers=WORKERS)
    assert res.stats.ticks > 2 * SUPERVISION_EPOCH_TICKS
    assert kept == []


def _dir_bytes(path) -> dict[str, bytes]:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_kill_rolls_back_over_damaged_durable_epochs(graph, tmp_path):
    """The kill lands after two durable epochs were written and damaged
    (torn, bit-flipped); the rollback to the start epoch re-executes both.
    Full stats, the durable family included, and every file in the durable
    directory must match the unfailed run with the same configuration."""
    kw = dict(batch=True, workers=WORKERS, worker_restarts=2,
              durable_interval=2, durable_keep=64,
              durable_faults=DurableFaultPlan(seed=3, torn=(2,), bitflip=(4,)))
    clean = bfs(graph, 0, durable_dir=str(tmp_path / "clean"), **kw)
    assert clean.stats.durable_corrupt_epochs == 2
    healed = bfs(graph, 0, durable_dir=str(tmp_path / "healed"),
                 worker_faults=WorkerFaultPlan.from_spec(f"seed=7,kill=5:{TARGET}"),
                 **kw)
    assert healed.stats.worker_respawns == 1
    assert healed.stats.worker_replayed_ticks == 5
    _assert_healed(clean, healed, disk_bytes=True)
    assert _dir_bytes(tmp_path / "clean") == _dir_bytes(tmp_path / "healed")


def test_rollback_to_a_kept_durable_capture(graph, tmp_path):
    """Tick 16 is both a supervision and a (damaged) durable epoch, so the
    supervisor keeps the durable capture; its stats section was pickled
    before the write folded that epoch's disk bytes and corrupt verdict,
    which the rollback must restore."""
    kw = dict(batch=True, workers=WORKERS, worker_restarts=2,
              durable_interval=8, durable_keep=64,
              durable_faults=DurableFaultPlan(seed=3, torn=(8,), bitflip=(16,)))
    clean = pagerank(graph, durable_dir=str(tmp_path / "clean"), **kw)
    assert clean.stats.ticks > 24
    healed = pagerank(graph, durable_dir=str(tmp_path / "healed"),
                      worker_faults=WorkerFaultPlan.from_spec(f"seed=7,kill=19:{TARGET}"),
                      **kw)
    assert healed.stats.worker_respawns == 1
    assert healed.stats.worker_replayed_ticks == 3
    assert np.array_equal(clean.data.scores, healed.data.scores)
    assert (_stats_key(clean.stats, disk_bytes=True)
            == _stats_key(healed.stats, disk_bytes=True))
    assert _dir_bytes(tmp_path / "clean") == _dir_bytes(tmp_path / "healed")


def test_durable_epochs_do_not_depend_on_the_executor(graph, tmp_path):
    """The unfailed heal-point run writes the same epochs at ``workers=1``
    and ``workers=4``, byte for byte: a packet pickles with its wire-size
    memo filled, whether it was sent in-process or decoded from a barrier
    frame."""
    kw = _heal_point_kwargs()
    seq = bfs(graph, 0, durable_dir=str(tmp_path / "seq"), **kw)
    par = bfs(graph, 0, durable_dir=str(tmp_path / "par"), workers=WORKERS, **kw)
    assert seq.stats.durable_disk_bytes == par.stats.durable_disk_bytes
    _assert_healed(seq, par, disk_bytes=True)
    assert _dir_bytes(tmp_path / "seq") == _dir_bytes(tmp_path / "par")
