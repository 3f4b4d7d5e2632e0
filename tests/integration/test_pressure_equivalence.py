"""The resource-pressure equivalence invariant (this PR's acceptance bar).

Bounded mailboxes with backpressure, storage faults with bounded retries,
and 4x straggler skew are all *cost-only* mechanisms: for every algorithm
x topology x batch-mode combination they must leave vertex states and
every logical counter (visits, pre-visits, edge scans, packets, bytes,
cache hits/misses, ticks, termination waves) bit-identical to the
unconstrained run.  Only simulated time and the pressure/fault/IO overhead
counters may differ.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.connected_components import connected_components
from repro.algorithms.kcore import kcore
from repro.algorithms.sssp import sssp
from repro.comm.faults import CrashEvent, FaultPlan
from repro.errors import ConfigurationError, MemorySystemError
from repro.generators.rmat import rmat_edges
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.memory.faults import StorageFaultPlan
from repro.runtime.costmodel import STORAGE_NVRAM, EngineConfig, hyperion_dit
from repro.runtime.pressure import StragglerPlan

# Tight budget keeps queues deep enough that both the mailbox cap and the
# visitor-queue resident limit actually engage on a scale-7 graph.
CONFIG = EngineConfig(visitor_budget=8)
MAILBOX_CAP = 40  # tight enough that even k-core's small visitors overflow
QUEUE_SPILL = 2
STORAGE_PLAN = StorageFaultPlan(
    seed=5, read_error_rate=0.1, spike_rate=0.05, torn_rate=0.02,
    bandwidth_degradation=2.0, max_retries=8,
)
STRAGGLER_PLAN = StragglerPlan(seed=3, factor=4.0, fraction=0.25, rebalance=0.5)
NVRAM = hyperion_dit(STORAGE_NVRAM, cache_bytes_per_rank=32 * 1024)


@pytest.fixture(scope="module")
def graph_and_source():
    src, dst = rmat_edges(7, 16 << 7, seed=42)
    edges = EdgeList.from_arrays(src, dst, 1 << 7).permuted(seed=43).simple_undirected()
    g = DistributedGraph.build(edges, 8, num_ghosts=8)
    return g, int(edges.src[0])


def _run(algorithm, g, s, **kwargs):
    kwargs.setdefault("config", CONFIG)
    if algorithm == "bfs":
        return bfs(g, s, **kwargs)
    if algorithm == "sssp":
        return sssp(g, s, **kwargs)
    if algorithm == "cc":
        return connected_components(g, **kwargs)
    return kcore(g, 3, **kwargs)


def _result_arrays(algorithm, result):
    data = result.data
    if algorithm == "bfs":
        return {"levels": data.levels, "parents": data.parents}
    if algorithm == "sssp":
        return {"distances": data.distances, "parents": data.parents}
    if algorithm == "cc":
        return {"labels": data.labels}
    return {"alive": data.alive}


def assert_equivalent(algorithm, pressured, baseline):
    for name, arr in _result_arrays(algorithm, pressured).items():
        expected = _result_arrays(algorithm, baseline)[name]
        assert np.array_equal(arr, expected), f"{name} diverged under pressure"
    ps, bs = pressured.stats, baseline.stats
    assert ps.ticks == bs.ticks
    assert ps.total_visits == bs.total_visits
    assert ps.total_previsits == bs.total_previsits
    assert ps.total_packets == bs.total_packets
    assert ps.total_bytes == bs.total_bytes
    assert [r.visits for r in ps.ranks] == [r.visits for r in bs.ranks]
    assert [r.edges_scanned for r in ps.ranks] == [
        r.edges_scanned for r in bs.ranks
    ]
    assert [r.cache_misses for r in ps.ranks] == [
        r.cache_misses for r in bs.ranks
    ]
    assert ps.termination_waves == bs.termination_waves


MATRIX = [
    (alg, topology, batch)
    for alg in ("bfs", "sssp", "cc", "kcore")
    for topology in ("direct", "2d")
    for batch in (False, True)
]


def _ids(case):
    alg, topology, batch = case
    return f"{alg}-{topology}-{'batch' if batch else 'object'}"


@pytest.mark.parametrize("case", MATRIX, ids=_ids)
class TestPressureEquivalence:
    def test_bounded_mailbox_and_queue_spill(self, case, graph_and_source):
        alg, topology, batch = case
        g, s = graph_and_source
        baseline = _run(alg, g, s, topology=topology, batch=batch)
        pressured = _run(alg, g, s, topology=topology, batch=batch,
                         mailbox_cap=MAILBOX_CAP, queue_spill=QUEUE_SPILL)
        assert_equivalent(alg, pressured, baseline)
        # the caps must actually have engaged, and cost time
        assert pressured.stats.total_bp_stalls > 0
        assert pressured.stats.total_bp_spilled_bytes > 0
        assert pressured.stats.backpressure_stall_us > 0
        assert pressured.stats.spill_io_us > 0
        assert pressured.stats.time_us > baseline.stats.time_us

    def test_storage_faults_with_retries(self, case, graph_and_source):
        alg, topology, batch = case
        g, s = graph_and_source
        baseline = _run(alg, g, s, topology=topology, batch=batch,
                        machine=NVRAM)
        faulty = _run(alg, g, s, topology=topology, batch=batch,
                      machine=NVRAM, storage_faults=STORAGE_PLAN)
        assert_equivalent(alg, faulty, baseline)
        fs = faulty.stats
        assert fs.storage_fault_seed == STORAGE_PLAN.seed
        assert fs.storage_retries + fs.storage_spikes + fs.torn_pages > 0
        assert fs.storage_fault_us > 0
        assert fs.storage_errors == 0  # retries bounded well below exhaustion
        assert fs.time_us > baseline.stats.time_us

    def test_straggler_skew(self, case, graph_and_source):
        alg, topology, batch = case
        g, s = graph_and_source
        baseline = _run(alg, g, s, topology=topology, batch=batch)
        skewed = _run(alg, g, s, topology=topology, batch=batch,
                      stragglers=STRAGGLER_PLAN)
        assert_equivalent(alg, skewed, baseline)
        assert skewed.stats.max_slowdown == 4.0
        assert skewed.stats.straggler_stall_us > 0
        assert skewed.stats.rebalanced_us > 0  # rebalance=0.5 stole work
        assert skewed.stats.time_us > baseline.stats.time_us


class TestAdversarialCombination:
    """Caps + storage faults + stragglers + a crashing, lossy fabric, all
    at once, on the 2D topology — no deadlock, bit-identical results."""

    def test_everything_at_once(self, graph_and_source):
        g, s = graph_and_source
        crash = FaultPlan(seed=7, drop_rate=0.03, duplicate_rate=0.02,
                          crashes=(CrashEvent(tick=6, rank=2),))
        baseline = _run("bfs", g, s, machine=NVRAM, topology="2d",
                        reliable=True)
        hostile = _run("bfs", g, s, machine=NVRAM, topology="2d",
                       faults=crash, mailbox_cap=MAILBOX_CAP,
                       queue_spill=QUEUE_SPILL, storage_faults=STORAGE_PLAN,
                       stragglers=STRAGGLER_PLAN)
        assert_equivalent("bfs", hostile, baseline)
        hs = hostile.stats
        assert hs.crashes == 1 and hs.recoveries == 1
        assert hs.replayed_ticks > 0
        assert hs.total_bp_stalls > 0
        assert hs.storage_retries + hs.storage_spikes + hs.torn_pages > 0
        assert hs.straggler_stall_us > 0

    def test_combined_pressure_is_deterministic(self, graph_and_source):
        g, s = graph_and_source
        kw = dict(machine=NVRAM, mailbox_cap=MAILBOX_CAP,
                  queue_spill=QUEUE_SPILL, storage_faults=STORAGE_PLAN,
                  stragglers=STRAGGLER_PLAN)
        a = _run("bfs", g, s, **kw)
        b = _run("bfs", g, s, **kw)
        assert a.stats.time_us == b.stats.time_us
        assert a.stats.total_bp_stalls == b.stats.total_bp_stalls
        assert a.stats.storage_fault_us == b.stats.storage_fault_us

    def test_crash_with_in_flight_routed_envelopes_and_caps(
        self, graph_and_source
    ):
        """Regression: crash a rank while capped, multi-hop-routed traffic
        is in flight; replay must reconstruct the flow-control ledger and
        keep backpressure charging non-negative and bit-identical."""
        g, s = graph_and_source
        baseline = _run("bfs", g, s, topology="2d", reliable=True,
                        mailbox_cap=MAILBOX_CAP)
        crash = FaultPlan(seed=11, crashes=(CrashEvent(tick=5, rank=3),))
        crashed = _run("bfs", g, s, topology="2d", faults=crash,
                       mailbox_cap=MAILBOX_CAP)
        assert_equivalent("bfs", crashed, baseline)
        assert crashed.stats.recoveries == 1
        # replay re-drove the mailboxes: bp totals must match the
        # uncrashed bounded run exactly (flow-control state is replayed,
        # not double-counted)
        assert crashed.stats.total_bp_stalls == baseline.stats.total_bp_stalls
        assert (crashed.stats.total_bp_spilled_bytes
                == baseline.stats.total_bp_spilled_bytes)


class TestQueueSpillLedger:
    def test_every_spilled_visitor_is_paged_back_in(self, graph_and_source):
        g, s = graph_and_source
        res = _run("bfs", g, s, queue_spill=QUEUE_SPILL)
        spilled = sum(r.queue_spilled for r in res.stats.ranks)
        unspilled = sum(r.queue_unspilled for r in res.stats.ranks)
        assert spilled > 0
        assert spilled == unspilled  # queues drain at termination

    def test_fully_external_queue(self, graph_and_source):
        g, s = graph_and_source
        baseline = _run("bfs", g, s)
        res = _run("bfs", g, s, queue_spill=0)
        assert np.array_equal(baseline.data.levels, res.data.levels)
        assert res.stats.ticks == baseline.stats.ticks
        assert sum(r.queue_spilled for r in res.stats.ranks) > 0


class TestTransportWindow:
    def test_window_stalls_are_cost_only(self, graph_and_source):
        g, s = graph_and_source
        baseline = _run("bfs", g, s, reliable=True)
        windowed = _run(
            "bfs", g, s, reliable=True,
            config=EngineConfig(visitor_budget=8, reliable=True,
                                transport_window=1),
        )
        assert np.array_equal(baseline.data.levels, windowed.data.levels)
        assert windowed.stats.ticks == baseline.stats.ticks
        assert windowed.stats.transport_window_stalls > 0


class TestEscalation:
    def test_permanent_failure_without_recovery_raises(self, graph_and_source):
        g, s = graph_and_source
        with pytest.raises(MemorySystemError):
            _run("bfs", g, s, machine=NVRAM,
                 storage_faults=StorageFaultPlan(seed=1, read_error_rate=0.9,
                                                 max_retries=1))

    def test_permanent_failure_with_recovery_refetches(self, graph_and_source):
        g, s = graph_and_source
        baseline = _run("bfs", g, s, machine=NVRAM, reliable=True,
                        checkpoint_interval=8)
        recovered = _run("bfs", g, s, machine=NVRAM, reliable=True,
                         checkpoint_interval=8,
                         storage_faults=StorageFaultPlan(
                             seed=1, read_error_rate=0.9, max_retries=1))
        assert_equivalent("bfs", recovered, baseline)
        assert recovered.stats.storage_errors > 0
        assert recovered.stats.storage_recoveries == recovered.stats.storage_errors
        assert recovered.stats.time_us > baseline.stats.time_us

    def test_storage_faults_need_an_io_target(self, graph_and_source):
        g, s = graph_and_source
        with pytest.raises(ConfigurationError):
            _run("bfs", g, s,
                 storage_faults=StorageFaultPlan(seed=1, read_error_rate=0.1))
        # an active spill pager is a valid target on a DRAM machine
        res = _run("bfs", g, s, mailbox_cap=MAILBOX_CAP,
                   storage_faults=StorageFaultPlan(seed=1, read_error_rate=0.2,
                                                   max_retries=8))
        assert res.stats.storage_fault_seed == 1
