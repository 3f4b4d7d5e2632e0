"""Shared experiment plumbing: graph builders and single-trial runners.

All builders follow the paper's generation pipeline — generate, uniformly
permute labels, simplify to an undirected simple graph — and all runners
return flat ``dict`` rows so experiments compose into tables trivially.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import BFSAlgorithm
from repro.analysis.teps import bfs_traversed_edges, teps
from repro.analysis.validate import validate_bfs
from repro.comm.routing import Topology
from repro.core.traversal import run_traversal
from repro.errors import TraversalError
from repro.generators.preferential_attachment import preferential_attachment_edges
from repro.generators.rmat import rmat_edges
from repro.generators.small_world import small_world_edges
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.runtime.costmodel import EngineConfig, MachineModel, laptop
from repro.utils.rng import resolve_rng


# ---------------------------------------------------------------------- #
# Graph builders
# ---------------------------------------------------------------------- #
def build_rmat_graph(
    scale: int,
    *,
    edgefactor: int = 16,
    num_partitions: int,
    num_ghosts: int = 0,
    strategy: str = "edge_list",
    seed: int = 0,
) -> tuple[EdgeList, DistributedGraph]:
    """Graph500-style RMAT graph: generate, permute, simplify, partition."""
    n = 1 << scale
    src, dst = rmat_edges(scale, edgefactor << scale, seed=seed)
    edges = (
        EdgeList.from_arrays(src, dst, n)
        .permuted(seed=seed + 1)
        .simple_undirected()
    )
    graph = DistributedGraph.build(
        edges, num_partitions, strategy=strategy, num_ghosts=num_ghosts
    )
    return edges, graph


def build_pa_graph(
    num_vertices: int,
    edges_per_vertex: int,
    *,
    rewire: float = 0.0,
    num_partitions: int,
    num_ghosts: int = 0,
    strategy: str = "edge_list",
    seed: int = 0,
) -> tuple[EdgeList, DistributedGraph]:
    """Preferential-attachment graph with optional rewire (Figure 11)."""
    src, dst = preferential_attachment_edges(
        num_vertices, edges_per_vertex, rewire_probability=rewire, seed=seed
    )
    edges = (
        EdgeList.from_arrays(src, dst, num_vertices)
        .permuted(seed=seed + 1)
        .simple_undirected()
    )
    graph = DistributedGraph.build(
        edges, num_partitions, strategy=strategy, num_ghosts=num_ghosts
    )
    return edges, graph


def build_sw_graph(
    num_vertices: int,
    degree: int,
    *,
    rewire: float = 0.0,
    num_partitions: int,
    num_ghosts: int = 0,
    seed: int = 0,
) -> tuple[EdgeList, DistributedGraph]:
    """Small-world graph with controllable diameter (Figures 7 and 10)."""
    src, dst = small_world_edges(
        num_vertices, degree, rewire_probability=rewire, seed=seed
    )
    edges = (
        EdgeList.from_arrays(src, dst, num_vertices)
        .permuted(seed=seed + 1)
        .simple_undirected()
    )
    graph = DistributedGraph.build(edges, num_partitions, num_ghosts=num_ghosts)
    return edges, graph


# ---------------------------------------------------------------------- #
# Trial runners
# ---------------------------------------------------------------------- #
def pick_bfs_source(edges: EdgeList, *, seed: int = 0, min_degree: int = 1) -> int:
    """Pick a random traversal source with degree >= min_degree, Graph500
    style (sources with zero degree would make degenerate trials)."""
    degrees = edges.out_degrees()
    eligible = np.flatnonzero(degrees >= min_degree)
    if eligible.size == 0:
        raise ValueError("no vertex satisfies the source degree requirement")
    rng = resolve_rng(seed)
    return int(eligible[rng.integers(0, eligible.size)])


def make_page_caches(machine: MachineModel, num_ranks: int):
    """Fresh per-rank page caches for ``machine`` (NVRAM storage only);
    reuse them across trials to model a warm Graph500 run sequence."""
    from repro.memory.page_cache import PageCache
    from repro.runtime.costmodel import STORAGE_NVRAM

    if machine.storage != STORAGE_NVRAM:
        return None
    return [
        PageCache(
            capacity_pages=machine.cache_pages_per_rank,
            page_size=machine.page_size,
            device=machine.device,
        )
        for _ in range(num_ranks)
    ]


def run_bfs_trial(
    edges: EdgeList,
    graph: DistributedGraph,
    *,
    source: int | None = None,
    machine: MachineModel | None = None,
    topology: Topology | str = "direct",
    config: EngineConfig | None = None,
    seed: int = 0,
    page_caches: list | None = None,
) -> dict:
    """One BFS run -> a flat result row (TEPS, counts, cache behaviour).

    Without a ``config`` the run takes the batch fast path: its stats and
    levels are bit-identical to the object path's, and it runs several
    times faster at the scales the paper figures use.
    """
    machine = machine or laptop()
    if config is None:
        config = EngineConfig(batch=True)
    if source is None:
        source = pick_bfs_source(edges, seed=seed)
    result = run_traversal(
        graph, BFSAlgorithm(source), machine=machine, topology=topology,
        config=config, page_caches=page_caches,
    )
    stats = result.stats
    traversed = bfs_traversed_edges(edges, result.data.levels)
    # Graph500-style validation: a TEPS number only counts if the BFS tree
    # checks out against the input edge list.
    report = validate_bfs(edges, source, result.data.levels, result.data.parents)
    if not report.valid:
        raise TraversalError(
            f"BFS output failed validation: {report.errors[:3]}"
        )
    row = {
        "algorithm": "bfs",
        "machine": machine.name,
        "topology": stats.topology,
        "p": graph.num_partitions,
        "strategy": graph.strategy,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "source": source,
        "reached": result.data.num_reached,
        "max_level": result.data.max_level,
        "traversed_edges": traversed,
        "time_us": stats.time_us,
        "teps": teps(traversed, stats.time_us) if traversed else 0.0,
        "ticks": stats.ticks,
        "visits": stats.total_visits,
        "visitors_sent": stats.total_visitors_sent,
        "ghost_filtered": stats.total_ghost_filtered,
        "packets": stats.total_packets,
        "bytes": stats.total_bytes,
        "cache_hit_rate": stats.cache_hit_rate(),
        "visit_imbalance": stats.visit_imbalance(),
        "validated": True,
    }
    return row


def mean_over_sources(
    edges: EdgeList,
    graph: DistributedGraph,
    *,
    num_sources: int = 3,
    seed: int = 0,
    warm_cache: bool = False,
    **trial_kwargs,
) -> dict:
    """Average a BFS row over several random sources (Graph500 runs 64;
    the harness default keeps reproduction runs quick).

    With ``warm_cache`` (NVRAM machines), one shared set of page caches
    serves every run, preceded by an unmeasured warm-up traversal — the
    Graph500 pattern of 64 back-to-back BFS runs on one resident dataset.
    """
    caches = None
    if warm_cache:
        machine = trial_kwargs.get("machine") or laptop()
        caches = make_page_caches(machine, graph.num_partitions)
        if caches is not None:
            run_bfs_trial(
                edges, graph, seed=seed + num_sources, page_caches=caches, **trial_kwargs
            )  # warm-up, discarded
    rows = [
        run_bfs_trial(edges, graph, seed=seed + i, page_caches=caches, **trial_kwargs)
        for i in range(num_sources)
    ]
    out = dict(rows[0])
    for key in ("reached", "max_level", "traversed_edges", "time_us", "teps",
                "ticks", "visits", "visitors_sent", "ghost_filtered", "packets",
                "bytes", "cache_hit_rate", "visit_imbalance"):
        out[key] = float(np.mean([r[key] for r in rows]))
    out["num_sources"] = num_sources
    return out
