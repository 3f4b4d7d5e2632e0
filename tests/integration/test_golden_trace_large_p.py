"""Golden-trace pin at large p, where most ranks sit idle.

``test_golden_trace.py`` pins p=8, where nearly every rank has work on
nearly every tick, so it cannot see a rank wrongly left out of a tick.
Here a scale-9 RMAT graph (512 vertices) is spread over p=256 ranks on
2D routing: after the first few ticks only a handful of ranks hold
arrivals, queued visitors or loopback envelopes.  The pinned aggregates,
order digests and result hashes were recorded before the engine learned
to skip quiet ranks, so they prove the skip unobservable; the pinned
``_rank_tick`` call counts prove the skip happens: every rank on every
tick would be 56 x 256 = 14 336 calls for k-core and 78 x 256 = 19 968
for BFS.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm
from repro.algorithms.kcore import KCoreAlgorithm
from repro.bench.harness import build_rmat_graph
from repro.core.traversal import run_traversal
from repro.runtime.engine import SimulationEngine

_SCALE = 9
_RANKS = 256
_GHOSTS = 16
_SEED = 7

GOLDEN = {
    "kcore3": {
        "ticks": 56,
        "packets": 2418,
        "bytes": 167420,
        "time_us": "124.76800000000013",
        "termination_waves": 2,
        "order_digest": "51531e694a87482dd0b8e4b53f499679",
        "result": "9a2fbc72ab3e3f01",
        "rank_ticks": 2045,
    },
    "bfs": {
        "ticks": 78,
        "packets": 18815,
        "bytes": 1668836,
        "time_us": "467.89399999999995",
        "termination_waves": 3,
        "order_digest": "48c3d121bcaff9ce600fec351ea792ef",
        "result": "ce7136f4edf99c82",
        "rank_ticks": 4353,
    },
}


@pytest.fixture(scope="module")
def rmat():
    return build_rmat_graph(_SCALE, num_partitions=_RANKS, num_ghosts=_GHOSTS, seed=_SEED)


def _result_hash(data, fields) -> str:
    raw = b"".join(np.ascontiguousarray(getattr(data, f)).tobytes() for f in fields)
    return hashlib.blake2b(raw, digest_size=8).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_large_p(rmat, name, monkeypatch):
    edges, graph = rmat
    if name == "kcore3":
        algorithm, fields = KCoreAlgorithm(3), ("alive",)
    else:
        hub = int(np.argmax(edges.out_degrees()))
        algorithm, fields = BFSAlgorithm(hub), ("levels", "parents")
    calls = []
    rank_tick = SimulationEngine._rank_tick

    def spy(self, r, packets):
        calls.append(r)
        return rank_tick(self, r, packets)

    monkeypatch.setattr(SimulationEngine, "_rank_tick", spy)
    result = run_traversal(graph, algorithm, topology="2d", record_digests=True)
    stats = result.stats
    got = {
        "ticks": stats.ticks,
        "packets": stats.total_packets,
        "bytes": stats.total_bytes,
        "time_us": repr(stats.time_us),
        "termination_waves": stats.termination_waves,
        "order_digest": stats.order_digest,
        "result": _result_hash(result.data, fields),
        "rank_ticks": len(calls),
    }
    assert got == GOLDEN[name]
