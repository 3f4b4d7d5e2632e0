"""Tests for epoch checkpointing and crash recovery."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.comm.faults import CrashEvent, FaultPlan
from repro.comm.mailbox import Mailbox
from repro.comm.message import KIND_VISITOR
from repro.comm.network import Network
from repro.comm.routing import DirectTopology
from repro.comm.termination import LocalSnapshot, QuiescenceDetector
from repro.errors import ConfigurationError
from repro.generators.rmat import rmat_edges
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.runtime.costmodel import EngineConfig, MachineModel, laptop
from repro.runtime.engine import SimulationEngine


@pytest.fixture(scope="module")
def graph_and_source():
    src, dst = rmat_edges(7, 16 << 7, seed=42)
    edges = EdgeList.from_arrays(src, dst, 1 << 7).permuted(seed=43).simple_undirected()
    g = DistributedGraph.build(edges, 8, num_ghosts=8)
    return g, int(edges.src[0])


class TestComponentSnapshots:
    def test_mailbox_roundtrip(self):
        net = Network(4)
        topo = DirectTopology(4)
        box = Mailbox(0, topo, net, aggregation_size=64)
        box.send(2, KIND_VISITOR, "a", 16)
        box.send(3, KIND_VISITOR, "b", 16)
        box.send(0, KIND_VISITOR, "loop", 16)
        snap = box.snapshot_state()
        # diverge: flush everything and send more
        box.flush()
        box.receive([])
        box.send(1, KIND_VISITOR, "c", 16)
        assert box.visitors_sent == 4
        box.restore_state(snap)
        assert box.visitors_sent == 3
        assert box.visitors_received == 0
        assert box.has_buffered()
        assert box.buffered_visitor_count() == 3
        # the snapshot survives a restore + further divergence (re-restorable)
        box.flush()
        box.restore_state(snap)
        assert box.buffered_visitor_count() == 3

    def test_detector_roundtrip(self):
        net = Network(2)
        topo = DirectTopology(2)
        boxes = [Mailbox(r, topo, net) for r in range(2)]
        det = QuiescenceDetector(
            0, 2, boxes[0], lambda: LocalSnapshot(sent=0, received=0, quiet=True)
        )
        snap = det.snapshot_state()
        det.maybe_start_wave()
        changed = det.snapshot_state()
        assert changed != snap
        det.restore_state(snap)
        assert det.snapshot_state() == snap
        assert not det.terminated


class TestCheckpointAccounting:
    def test_checkpoints_counted_and_charged(self, graph_and_source):
        g, s = graph_and_source
        base = bfs(g, s, reliable=True)
        ck = bfs(g, s, reliable=True, checkpoint_interval=4)
        assert base.stats.checkpoints_taken == 0
        assert ck.stats.checkpoints_taken >= base.stats.ticks // 4
        assert ck.stats.checkpoint_bytes > 0
        # checkpointing costs simulated time but changes nothing logical
        assert ck.stats.time_us > base.stats.time_us
        assert np.array_equal(ck.data.levels, base.data.levels)
        assert ck.stats.total_visits == base.stats.total_visits

    def test_checkpoint_cost_scales_with_byte_rate(self, graph_and_source):
        g, s = graph_and_source
        cheap = laptop()
        dear_kwargs = {
            f.name: getattr(cheap, f.name)
            for f in type(cheap).__dataclass_fields__.values()
        }
        dear_kwargs["checkpoint_byte_us"] = cheap.checkpoint_byte_us * 100 + 1.0
        dear = MachineModel(**dear_kwargs)
        r_cheap = bfs(g, s, machine=cheap, reliable=True, checkpoint_interval=4)
        r_dear = bfs(g, s, machine=dear, reliable=True, checkpoint_interval=4)
        assert r_dear.stats.time_us > r_cheap.stats.time_us
        assert np.array_equal(r_dear.data.levels, r_cheap.data.levels)

    def test_checkpointing_requires_reliable_transport(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(checkpoint_interval=4)

    def test_crash_plan_implies_checkpointing(self):
        plan = FaultPlan(crashes=(CrashEvent(tick=5, rank=1),))
        cfg = EngineConfig(faults=plan)
        assert cfg.reliable_active
        assert cfg.checkpoint_every > 0


class TestCrashRecovery:
    def test_single_crash_recovers_bit_identical(self, graph_and_source):
        g, s = graph_and_source
        base = bfs(g, s, reliable=True)
        plan = FaultPlan(seed=7, crashes=(CrashEvent(tick=6, rank=2),))
        r = bfs(g, s, faults=plan, checkpoint_interval=4)
        assert r.stats.crashes == 1
        assert r.stats.recoveries == 1
        assert r.stats.replayed_ticks > 0
        assert r.stats.recovery_us > 0.0
        assert r.stats.time_us > base.stats.time_us
        assert np.array_equal(r.data.levels, base.data.levels)
        assert r.stats.total_visits == base.stats.total_visits
        assert [rk.visits for rk in r.stats.ranks] == [
            rk.visits for rk in base.stats.ranks
        ]

    def test_repeated_crashes_same_rank(self, graph_and_source):
        g, s = graph_and_source
        base = bfs(g, s, reliable=True)
        plan = FaultPlan(
            seed=7,
            crashes=(CrashEvent(tick=5, rank=2), CrashEvent(tick=9, rank=2)),
        )
        r = bfs(g, s, faults=plan, checkpoint_interval=3)
        assert r.stats.crashes == 2
        assert r.stats.recoveries == 2
        assert np.array_equal(r.data.levels, base.data.levels)
        assert r.stats.total_visits == base.stats.total_visits

    def test_crash_of_different_ranks(self, graph_and_source):
        g, s = graph_and_source
        base = bfs(g, s, reliable=True)
        plan = FaultPlan(
            seed=3,
            crashes=(CrashEvent(tick=4, rank=0), CrashEvent(tick=8, rank=5)),
        )
        r = bfs(g, s, faults=plan, checkpoint_interval=3)
        assert r.stats.recoveries == 2
        assert np.array_equal(r.data.levels, base.data.levels)

    def test_recovery_time_charged_to_clock(self, graph_and_source):
        g, s = graph_and_source
        plan = FaultPlan(seed=7, crashes=(CrashEvent(tick=6, rank=2),))
        r = bfs(g, s, faults=plan, checkpoint_interval=4)
        # the crashed rank's restart cost is visible in simulated time
        assert r.stats.recovery_us >= laptop().restart_us


class TestOneManager:
    """One :class:`RecoveryManager` drives every rank executor; the rank
    images live where the ranks run."""

    @pytest.mark.parametrize("crashes", [
        (CrashEvent(tick=4, rank=0), CrashEvent(tick=8, rank=5)),
        (CrashEvent(tick=5, rank=2), CrashEvent(tick=9, rank=2)),
    ], ids=["rank0-wave", "same-rank-twice"])
    def test_workers_replay_like_in_process(self, graph_and_source, crashes):
        """A replay in the owning worker (rank 0's re-runs the detector
        wave) hands the manager the packets an in-process replay sends."""
        g, s = graph_and_source
        plan = FaultPlan(seed=3, drop_rate=0.01, crashes=crashes)
        seq, par = (
            bfs(g, s, faults=plan, checkpoint_interval=3, batch=True, workers=w)
            for w in (1, 4)
        )
        assert seq.stats.recoveries == 2 and seq.stats.replayed_ticks > 0
        assert dataclasses.asdict(seq.stats) == dataclasses.asdict(par.stats)
        assert np.array_equal(seq.data.levels, par.data.levels)
        assert np.array_equal(seq.data.parents, par.data.parents)

    def test_in_process_replay_hands_the_mailbox_back(self, graph_and_source):
        g, s = graph_and_source
        plan = FaultPlan(seed=7, crashes=(CrashEvent(tick=6, rank=2),))
        eng = SimulationEngine(g, BFSAlgorithm(s), laptop(),
                               config=EngineConfig(faults=plan, checkpoint_interval=4))
        _, stats = eng.run()
        assert stats.recoveries == 1
        assert all(mb.network is eng.network for mb in eng.mailboxes)
        assert all(image is not None for image in eng.recovery_images)
