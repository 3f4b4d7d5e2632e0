"""Durable resume equivalence matrix + host-crash restart (INTERNALS §13).

The durability layer's defining contract: a run killed by the host and
restarted with ``durable_resume=True`` finishes with results, every stats
field outside the ``durable_*`` family (the simulated clock included),
and the order digests bit-identical to the same run left uninterrupted.
The matrix covers three algorithms x object/batch x ``workers`` in
{1, 4}, the hostile compositions (transport chaos with simulated rank
crashes, memory pressure with stragglers), cross-worker-count resume,
and — in one subprocess cell — a real SIGKILL mid-run through the CLI.

Also pins the partial-stats contract: a ``TraversalError`` raised on
``max_ticks`` or an unhealed worker failure carries the durability and
supervision counters accumulated so far.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.bench.harness import build_rmat_graph, pick_bfs_source
from repro.comm.faults import CrashEvent, FaultPlan
from repro.core.traversal import run_traversal
from repro.core.visitor import AsyncAlgorithm, Visitor
from repro.errors import TraversalError
from repro.runtime.costmodel import EngineConfig
from repro.runtime.pressure import StragglerPlan
from repro.runtime.trace import DURABILITY_STATS_FIELDS

INTERVAL = 4

RUNNERS = {
    "bfs": lambda g, s, **kw: bfs(g, s, **kw),
    "kcore": lambda g, s, **kw: kcore(g, 3, **kw),
    "pagerank": lambda g, s, **kw: pagerank(g, **kw),
}

DATA = {
    "bfs": lambda r: (r.data.levels, r.data.parents),
    "kcore": lambda r: (r.data.alive,),
    "pagerank": lambda r: (r.data.scores,),
}


def _graph():
    return build_rmat_graph(8, num_partitions=4, num_ghosts=64, seed=1)


@pytest.fixture(scope="module")
def source():
    edges, _ = _graph()
    return pick_bfs_source(edges, seed=1)


def _stats_dict(stats, *, include_durable: bool = False) -> dict:
    out = dataclasses.asdict(stats)
    out.pop("timeline", None)
    if not include_durable:
        for field in DURABILITY_STATS_FIELDS:
            out.pop(field, None)
    return out


def _assert_resume_identical(algo, source, tmp_path, **kw):
    """Run durably to completion, then resume from the last epoch in a
    fresh process-equivalent (rebuilt graph) and diff everything."""
    run = RUNNERS[algo]
    d = str(tmp_path / "dur")
    full = run(_graph()[1], source, durable_dir=d, durable_interval=INTERVAL,
               record_digests=True, **kw)
    resumed = run(_graph()[1], source, durable_dir=d, durable_interval=INTERVAL,
                  record_digests=True, durable_resume=True, **kw)
    assert resumed.stats.durable_resumes == 1
    assert resumed.stats.durable_resume_tick > 0
    assert _stats_dict(full.stats) == _stats_dict(resumed.stats)
    assert full.stats.order_digest == resumed.stats.order_digest
    for a, b in zip(DATA[algo](full), DATA[algo](resumed), strict=False):
        assert np.array_equal(a, b)
    return full, resumed


# --------------------------------------------------------------------- #
# The resume equivalence matrix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algo", sorted(RUNNERS))
@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
def test_resume_bit_identical_sequential(algo, batch, source, tmp_path):
    _assert_resume_identical(algo, source, tmp_path, batch=batch)


@pytest.mark.parametrize("algo", sorted(RUNNERS))
def test_resume_bit_identical_workers(algo, source, tmp_path):
    _assert_resume_identical(algo, source, tmp_path, batch=True, workers=4)


@pytest.mark.parametrize("written, resumed_at", [(4, 1), (1, 4)],
                         ids=["4to1", "1to4"])
def test_resume_at_another_worker_count_replays_a_crash(written, resumed_at, tmp_path):
    """The epoch format is worker-count-independent (cold caches), and so
    is the crash-recovery image inside it: the simulated crash at tick 17
    replays, after the resume at tick 16, from the recovery epoch of tick
    12 that the other executor took and packed."""
    def graph():
        return build_rmat_graph(9, num_partitions=8, num_ghosts=64, seed=1)

    src = pick_bfs_source(graph()[0], seed=1)
    plan = FaultPlan(seed=7, drop_rate=0.02, crashes=(CrashEvent(tick=17, rank=1),))
    kw = dict(durable_dir=str(tmp_path / "dur"), durable_interval=8,
              checkpoint_interval=6, faults=plan, record_digests=True, batch=True)
    full = bfs(graph()[1], src, workers=written, **kw)
    resumed = bfs(graph()[1], src, workers=resumed_at, durable_resume=True, **kw)
    assert resumed.stats.durable_resume_tick == 16
    assert full.stats.recoveries == resumed.stats.recoveries == 1
    assert full.stats.replayed_ticks == 4  # ticks 13..16, from epoch 12
    assert _stats_dict(full.stats) == _stats_dict(resumed.stats)
    assert full.stats.order_digest == resumed.stats.order_digest
    assert np.array_equal(full.data.levels, resumed.data.levels)
    assert np.array_equal(full.data.parents, resumed.data.parents)


# --------------------------------------------------------------------- #
# Hostile compositions
# --------------------------------------------------------------------- #
def test_resume_under_chaos_with_simulated_crash(source, tmp_path):
    """A simulated rank crash scheduled *after* the resume point replays
    from the recovery image restored with the epoch, landing on the same
    recovery_us and counters as the uninterrupted run."""
    plan = FaultPlan(seed=7, drop_rate=0.02,
                     crashes=(CrashEvent(tick=14, rank=1),))
    full, resumed = _assert_resume_identical(
        "bfs", source, tmp_path, faults=plan)
    assert full.stats.recoveries == 1
    assert resumed.stats.recoveries == 1


def test_resume_under_chaos_with_workers(source, tmp_path):
    plan = FaultPlan(seed=7, drop_rate=0.02,
                     crashes=(CrashEvent(tick=14, rank=1),))
    _assert_resume_identical("bfs", source, tmp_path, faults=plan, workers=4)


def test_resume_under_pressure(source, tmp_path):
    full, _ = _assert_resume_identical(
        "bfs", source, tmp_path,
        mailbox_cap=64, queue_spill=16,
        stragglers=StragglerPlan(seed=3, factor=4.0, fraction=0.25),
    )
    assert full.stats.total_bp_stalls > 0 or full.stats.total_queue_spilled > 0


# --------------------------------------------------------------------- #
# A real SIGKILL through the CLI (one subprocess cell)
# --------------------------------------------------------------------- #
def test_sigkill_and_cli_resume(tmp_path):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )

    def cli(*cmd):
        return subprocess.run(
            [sys.executable, "-m", "repro", *cmd],
            env=env, capture_output=True, text=True, timeout=300,
        )

    g = str(tmp_path / "g.npz")
    out = cli("generate", "rmat", "--scale", "8", "--seed", "1", "--simple",
              "-o", g)
    assert out.returncode == 0, out.stderr
    common = ("--graph", g, "-p", "4", "--ghosts", "64", "--seed", "1",
              "--record-digests", "--durable-interval", str(INTERVAL))

    base = cli("bfs", *common, "--durable", str(tmp_path / "base"),
               "--stats-json", str(tmp_path / "base.json"))
    assert base.returncode == 0, base.stderr

    killed = cli("bfs", *common, "--durable", str(tmp_path / "kill"),
                 "--kill-at-tick", "8")
    assert killed.returncode == -signal.SIGKILL

    resumed = cli("bfs", *common, "--durable", str(tmp_path / "kill"),
                  "--resume", "--stats-json", str(tmp_path / "resumed.json"))
    assert resumed.returncode == 0, resumed.stderr

    with open(tmp_path / "base.json", encoding="utf-8") as fh:
        base_payload = json.load(fh)
    with open(tmp_path / "resumed.json", encoding="utf-8") as fh:
        res_payload = json.load(fh)
    strip = lambda s: {k: v for k, v in s.items()  # noqa: E731
                       if not k.startswith("durable_")}
    assert strip(base_payload["stats"]) == strip(res_payload["stats"])
    assert base_payload["arrays"] == res_payload["arrays"]
    assert res_payload["stats"]["durable_resume_tick"] == 8


# --------------------------------------------------------------------- #
# Partial-stats contract on the error paths
# --------------------------------------------------------------------- #
def test_max_ticks_partial_stats_carry_durability_counters(source, tmp_path):
    with pytest.raises(TraversalError) as excinfo:
        bfs(_graph()[1], source, durable_dir=str(tmp_path / "dur"),
            durable_interval=2,
            config=EngineConfig(max_ticks=6,
                                durable_dir=str(tmp_path / "dur"),
                                durable_interval=2))
    stats = excinfo.value.stats
    assert stats is not None
    assert stats.durable_checkpoints >= 2
    assert stats.durable_bytes > 0
    assert stats.ticks == 6


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


def test_worker_failure_partial_stats_carry_counters(source, tmp_path):
    """Fail-fast worker death (no restart budget, no injection plan): the
    TraversalError's partial stats keep the durability counters
    accumulated before the failure alongside the usual per-rank ones."""
    graph = _graph()[1]
    seq_levels = bfs(graph, source).data.levels
    # Detonate deep enough that epochs (interval 2) land first.
    bomb = int(np.flatnonzero(seq_levels == 4)[0])
    with pytest.raises(TraversalError) as excinfo:
        run_traversal(graph, _BombAlgorithm(source, bomb), workers=4,
                      durable_dir=str(tmp_path / "dur"), durable_interval=2)
    err = excinfo.value
    assert "parallel worker failed" in str(err)
    stats = err.stats
    assert stats is not None
    assert stats.ticks >= 4
    assert stats.durable_checkpoints >= 2
    assert stats.durable_bytes > 0
    assert sum(c.visits for c in stats.ranks) > 0
