"""The native batch hooks' defining contract: bit-identical results and
traversal stats to the algorithms' object twins (run through the adapter
with ``batch=False``).

Every configuration axis the engine exposes is crossed here — routing
topology, DRAM vs NVRAM storage, cold vs warm page caches, multiple RMAT
seeds, fully-external state paging, oracle-mode termination — because the
equivalence argument (INTERNALS §7) has to hold along each of them:
identical per-tick counter deltas, identical packet streams, identical
page-cache hit/miss sequences, and therefore the identical simulated
clock, float for float.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.algorithms.connected_components import connected_components
from repro.algorithms.sssp import sssp
from repro.bench.harness import build_rmat_graph, make_page_caches, pick_bfs_source
from repro.core.traversal import run_traversal
from repro.runtime.costmodel import EngineConfig, hyperion_dit, laptop

SEEDS = [3, 11, 2024]


def _machine(storage: str):
    return laptop() if storage == "dram" else hyperion_dit("nvram")


def _stats_key(stats):
    """Everything the engine measures, including the exact float clock."""
    return (
        stats.ticks,
        stats.time_us,
        stats.termination_waves,
        tuple(
            (c.visits, c.previsits, c.pushes, c.ghost_filtered, c.edges_scanned,
             c.visitors_sent, c.visitors_received, c.packets_sent, c.bytes_sent,
             c.envelopes_forwarded, c.cache_hits, c.cache_misses)
            for c in stats.ranks
        ),
    )


def _graph(seed: int, partitions: int = 4):
    edges, graph = build_rmat_graph(
        8, num_partitions=partitions, num_ghosts=32,
        strategy="edge_list", seed=seed,
    )
    return edges, graph


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("storage", ["dram", "nvram"])
@pytest.mark.parametrize("topology,partitions", [("direct", 4), ("2d", 4), ("3d", 8)])
def test_bfs_equivalence(topology, partitions, storage, seed):
    edges, graph = _graph(seed, partitions)
    source = pick_bfs_source(edges, seed=seed)
    kw = dict(machine=_machine(storage), topology=topology)
    obj = bfs(graph, source, batch=False, **kw)
    bat = bfs(graph, source, batch=True, **kw)
    assert np.array_equal(obj.data.levels, bat.data.levels)
    assert np.array_equal(obj.data.parents, bat.data.parents)
    assert _stats_key(obj.stats) == _stats_key(bat.stats)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("storage", ["dram", "nvram"])
def test_sssp_equivalence(storage, seed):
    edges, graph = _graph(seed)
    source = pick_bfs_source(edges, seed=seed)
    kw = dict(machine=_machine(storage), topology="2d")
    obj = sssp(graph, source, batch=False, **kw)
    bat = sssp(graph, source, batch=True, **kw)
    assert np.array_equal(obj.data.distances, bat.data.distances)
    assert np.array_equal(obj.data.parents, bat.data.parents)
    assert _stats_key(obj.stats) == _stats_key(bat.stats)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("storage", ["dram", "nvram"])
def test_cc_equivalence(storage, seed):
    _, graph = _graph(seed)
    kw = dict(machine=_machine(storage), topology="direct")
    obj = connected_components(graph, batch=False, **kw)
    bat = connected_components(graph, batch=True, **kw)
    assert np.array_equal(obj.data.labels, bat.data.labels)
    assert _stats_key(obj.stats) == _stats_key(bat.stats)


@pytest.mark.parametrize("seed", SEEDS)
def test_warm_cache_equivalence(seed):
    """Both paths must agree run after run over a shared (warming) cache —
    the Graph500 repeated-search pattern."""
    edges, graph = _graph(seed)
    source = pick_bfs_source(edges, seed=seed)
    machine = _machine("nvram")
    caches_obj = make_page_caches(machine, graph.num_partitions)
    caches_bat = make_page_caches(machine, graph.num_partitions)
    for _ in range(3):  # cold, then twice warm
        obj = bfs(graph, source, machine=machine, page_caches=caches_obj, batch=False)
        bat = bfs(graph, source, machine=machine, page_caches=caches_bat, batch=True)
        assert np.array_equal(obj.data.levels, bat.data.levels)
        assert _stats_key(obj.stats) == _stats_key(bat.stats)
    for co, cb in zip(caches_obj, caches_bat, strict=False):
        assert (co.hits, co.misses, co.evictions) == (cb.hits, cb.misses, cb.evictions)
        assert list(co._lru) == list(cb._lru)


def test_fully_external_equivalence():
    """page_vertex_state=True routes state reads through the cache; the
    batch path must meter the same state pages in the same order."""
    edges, graph = _graph(11)
    source = pick_bfs_source(edges, seed=11)
    machine = _machine("nvram")
    obj = bfs(graph, source, machine=machine,
              config=EngineConfig(page_vertex_state=True, batch=False))
    bat = bfs(graph, source, machine=machine,
              config=EngineConfig(page_vertex_state=True, batch=True))
    assert np.array_equal(obj.data.levels, bat.data.levels)
    assert _stats_key(obj.stats) == _stats_key(bat.stats)


def test_oracle_and_arrival_order_equivalence():
    """Detector off + arrival-order ties exercises the non-default
    scheduling paths."""
    edges, graph = _graph(3)
    source = pick_bfs_source(edges, seed=3)
    cfg = dict(use_termination_detector=False, locality_ordering=False)
    obj = bfs(graph, source, config=EngineConfig(batch=False, **cfg))
    bat = bfs(graph, source, config=EngineConfig(batch=True, **cfg))
    assert np.array_equal(obj.data.levels, bat.data.levels)
    assert np.array_equal(obj.data.parents, bat.data.parents)
    assert _stats_key(obj.stats) == _stats_key(bat.stats)


def test_object_only_algorithm_runs_under_the_default_config():
    """An algorithm without batch hooks runs under the default config
    (``batch=True``) through the adapter, with stats equal to
    ``batch=False`` and to the native hooks."""
    class ObjectOnly(BFSAlgorithm):
        supports_batch = False

    edges, graph = _graph(3)
    source = pick_bfs_source(edges, seed=3)
    default = run_traversal(graph, ObjectOnly(source))
    explicit = run_traversal(graph, ObjectOnly(source), batch=False)
    native = bfs(graph, source)
    assert _stats_key(default.stats) == _stats_key(explicit.stats)
    assert _stats_key(default.stats) == _stats_key(native.stats)
    assert np.array_equal(default.data.parents, native.data.parents)


def test_batch_kwarg_overrides_config():
    """run_traversal(batch=...) must win over the config's flag."""
    edges, graph = _graph(3)
    source = pick_bfs_source(edges, seed=3)
    res = run_traversal(graph, BFSAlgorithm(source),
                        config=EngineConfig(batch=False), batch=True)
    obj = bfs(graph, source)
    assert np.array_equal(res.data.levels, obj.data.levels)
