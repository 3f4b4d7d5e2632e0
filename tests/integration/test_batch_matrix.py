"""Batch-path equivalence matrix for the counter-mutating algorithms.

{triangles, kcore, pagerank} x {direct, 2d} x {object, batch} must agree
bit-for-bit on final per-vertex data and on every traversal stat —
including the float simulated clock — plus a chaos cell (seeded faults on
the reliable transport under a bounded mailbox) where the same equality
must hold even for the wire-level fault counters: the batch path emits
packets in exactly the object path's order, so the fault injector's single
decision stream perturbs both runs identically.  The bounded-mailbox cells
run the same comparison on the plain fabric, where the batch path ships
packet trains and the spill read-backs must still split per packet.

BFS/SSSP/CC cover the overwrite-style ``pre_visit`` in
tests/core/test_batch_equivalence.py; the three algorithms here all mutate
counters (k-core decrements, triangle counters, PageRank residual
accumulation), which is the ordering-sensitive case INTERNALS §7 argues.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.connected_components import connected_components
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangles import triangle_count
from repro.bench.harness import build_rmat_graph
from repro.comm.faults import FaultPlan
from repro.comm.network import Network
from repro.runtime.costmodel import EngineConfig

CHAOS_PLAN = FaultPlan(
    seed=7, drop_rate=0.03, duplicate_rate=0.02, delay_rate=0.05, max_delay=3
)

RUNNERS = {
    "triangles": lambda g, **kw: triangle_count(g, **kw),
    "kcore": lambda g, **kw: kcore(g, 3, **kw),
    "pagerank": lambda g, **kw: pagerank(g, **kw),
}

DATA = {
    "triangles": lambda r: {"per_vertex": r.data.per_vertex},
    "kcore": lambda r: {"alive": r.data.alive},
    "pagerank": lambda r: {"scores": r.data.scores},
}


def _full_stats_key(stats):
    """Every counter the engine reports, wire-level ones included."""
    ranks = tuple(
        tuple(sorted(dataclasses.asdict(r).items())) for r in stats.ranks
    )
    top = tuple(sorted(
        (k, v) for k, v in dataclasses.asdict(stats).items() if k != "ranks"
    ))
    return top, ranks


@pytest.fixture(scope="module")
def graph():
    _, g = build_rmat_graph(7, num_partitions=4, num_ghosts=32,
                            strategy="edge_list", seed=2024)
    return g


def assert_bit_identical(algorithm, obj, bat):
    for name, arr in DATA[algorithm](obj).items():
        assert np.array_equal(arr, DATA[algorithm](bat)[name]), (
            f"{algorithm}: {name} diverged between object and batch paths"
        )
    assert _full_stats_key(obj.stats) == _full_stats_key(bat.stats)


@pytest.mark.parametrize("topology", ["direct", "2d"])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_matrix_cell(algorithm, topology, graph):
    run = RUNNERS[algorithm]
    obj = run(graph, topology=topology, batch=False)
    bat = run(graph, topology=topology, batch=True)
    assert_bit_identical(algorithm, obj, bat)


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_chaos_cell(algorithm, graph):
    """Faults + bounded mailbox: the full stats key still matches, so the
    batch path's packet emission order is exactly the object path's (the
    fault injector draws from one global stream in transmission order)."""
    run = RUNNERS[algorithm]
    kw = dict(faults=CHAOS_PLAN, mailbox_cap=40,
              config=EngineConfig(visitor_budget=8))
    obj = run(graph, batch=False, **kw)
    bat = run(graph, batch=True, **kw)
    assert obj.stats.packets_dropped > 0  # the plan actually engaged
    assert obj.stats.total_bp_stalls > 0  # the cap actually engaged
    assert_bit_identical(algorithm, obj, bat)


BOUNDED = {
    "bfs": (lambda g, **kw: bfs(g, 0, **kw),
            lambda r: {"levels": r.data.levels, "parents": r.data.parents}),
    "cc": (lambda g, **kw: connected_components(g, **kw),
           lambda r: {"labels": r.data.labels}),
}


@pytest.fixture(scope="module")
def bounded_graph():
    _, g = build_rmat_graph(10, num_partitions=8, num_ghosts=32,
                            strategy="edge_list", seed=2024)
    return g


@pytest.mark.parametrize("cap", [64, 200])
@pytest.mark.parametrize("topology", ["direct", "2d"])
@pytest.mark.parametrize("algorithm", sorted(BOUNDED))
def test_bounded_mailbox_cell(algorithm, topology, cap, bounded_graph, monkeypatch):
    """Mailbox cap on the plain fabric: the batch path ships each hop's
    full packets as one train, yet every stat — ``spill_io_us`` and
    ``time_us`` included — matches per-packet sends.  The reference arm
    runs the object twin on the same fabric with trains turned off, so
    each packet leaves alone at its filling message, as per-message
    sends would.  The spill pager's page hits depend on where
    read-backs split, so a train must read back once per packet, in the
    packets' stream order."""
    counts = []
    send = Network.send_packet

    def recording(self, pkt):
        counts.append(pkt.count)
        send(self, pkt)

    monkeypatch.setattr(Network, "send_packet", recording)
    run, data = BOUNDED[algorithm]
    with monkeypatch.context() as m:
        m.setattr(Network, "packet_trains", False)
        obj = run(bounded_graph, topology=topology, batch=False, mailbox_cap=cap)
    assert max(counts) == 1  # every packet sent alone
    counts.clear()
    bat = run(bounded_graph, topology=topology, batch=True, mailbox_cap=cap)
    assert max(counts) > 1  # trains actually engaged
    assert obj.stats.spill_io_us > 0  # the cap actually engaged
    for name, arr in data(obj).items():
        assert np.array_equal(arr, data(bat)[name]), f"{algorithm}: {name} diverged"
    assert _full_stats_key(obj.stats) == _full_stats_key(bat.stats)
