"""Inputs, traversals and the correctness oracle of each workload.

Each call the traced run wraps goes through a module or class attribute
looked up at call time (``rmat.rmat_edges``, ``EdgeList.permuted``, ...),
so :mod:`perfbench.tracing` can replace that attribute for a while.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from perfbench.catalog import EDGEFACTOR, SCALE, WorkloadSpec
from repro.algorithms.bfs import BFSAlgorithm
from repro.algorithms.kcore import KCoreAlgorithm
from repro.analysis.teps import bfs_traversed_edges
from repro.analysis.validate import validate_bfs
from repro.core.traversal import run_traversal
from repro.generators import rmat
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.reference.bfs import bfs_levels
from repro.reference.kcore import core_numbers
from repro.runtime import costmodel
from repro.types import UNREACHED

#: k values of the k-core workload.  The set is fixed and every k-core
#: batch runs whole rounds of it, so two seeds time the same work mix; the
#: seed shuffles the order within each round.  Runs at k <= 4 take about
#: the same host time (k >= 6 takes ~1.5x), which keeps the median steady.
KCORE_KS = (2, 3, 4)


@dataclass
class Setup:
    """The generate -> permute -> simplify -> partition pipeline's output."""

    edges: EdgeList
    graph: DistributedGraph
    generated_edges: int


def build_graph(spec: WorkloadSpec, seed: int) -> Setup:
    """The paper's pipeline (the set-up that ``setup_s`` times)."""
    n = 1 << SCALE
    src, dst = rmat.rmat_edges(SCALE, EDGEFACTOR << SCALE, seed=seed)
    edges = (
        EdgeList.from_arrays(src, dst, n)
        .permuted(seed=seed + 1)
        .simple_undirected()
    )
    graph = DistributedGraph.build(
        edges, spec.partitions, strategy="edge_list", num_ghosts=spec.ghosts
    )
    return Setup(edges, graph, int(src.size))


def machine_for(spec: WorkloadSpec):
    if spec.machine == "hyperion_dit_nvram":
        return costmodel.hyperion_dit(costmodel.STORAGE_NVRAM)
    if spec.machine == "laptop":
        return costmodel.laptop()
    raise ValueError(f"unknown machine {spec.machine!r}")


@dataclass
class Plan:
    """Seeded traversal arguments: BFS sources or k values, in run order."""

    args: list[int]
    #: k-core reference core numbers (computed once per graph, untimed).
    core: np.ndarray | None = None


def make_plan(spec: WorkloadSpec, setup: Setup, seed: int, count: int) -> Plan:
    """``count`` traversal arguments drawn from ``seed``.

    BFS sources are Graph500-style random non-isolated vertices, restricted
    to the giant component so that every search does comparable work (an
    RMAT graph also has small components; a search there would be a
    near-empty sample).  k-core arguments are whole seeded rounds of
    :data:`KCORE_KS`.
    """
    rng = np.random.default_rng([seed, 0xB5])
    if spec.algorithm == "bfs":
        degrees = setup.edges.out_degrees()
        hub = int(np.argmax(degrees))
        giant = np.flatnonzero(bfs_levels(setup.edges, hub) != UNREACHED)
        picks = rng.choice(giant, size=min(count, giant.size), replace=False)
        return Plan([int(v) for v in picks])
    rounds = -(-count // len(KCORE_KS))
    ks = [int(k) for _ in range(rounds) for k in rng.permutation(KCORE_KS)]
    return Plan(ks, core=core_numbers(setup.edges))


class Traversal:
    """Runs one configured traversal per call; durable runs each write
    their epochs to a fresh directory under ``durable_root``."""

    def __init__(self, spec: WorkloadSpec, setup: Setup, durable_root: str) -> None:
        self.spec = spec
        self.setup = setup
        self.machine = machine_for(spec)
        self._durable_root = durable_root

    def run(self, arg: int):
        spec = self.spec
        if spec.algorithm == "bfs":
            algorithm = BFSAlgorithm(arg)
        else:
            algorithm = KCoreAlgorithm(arg)
        kwargs = dict(
            machine=self.machine, topology=spec.topology, batch=True,
            workers=spec.workers,
        )
        if not spec.durable:
            return run_traversal(self.setup.graph, algorithm, **kwargs)
        # A fresh epoch directory per run: epochs from an earlier run are
        # never resumed (durable_resume is off) and would only be pruned.
        durable_dir = tempfile.mkdtemp(prefix="epochs-", dir=self._durable_root)
        try:
            return run_traversal(
                self.setup.graph, algorithm, durable_dir=durable_dir, **kwargs
            )
        finally:
            shutil.rmtree(durable_dir, ignore_errors=True)


def check(spec: WorkloadSpec, setup: Setup, plan: Plan, arg: int, data) -> list[str]:
    """Oracle: every problem with one traversal's output (empty = correct).

    BFS output must pass Graph500 validation and match the reference
    levels exactly; a k-core alive mask must equal the reference members.
    """
    if spec.algorithm == "bfs":
        report = validate_bfs(setup.edges, arg, data.levels, data.parents)
        errors = list(report.errors)
        ref = bfs_levels(setup.edges, arg)
        if not np.array_equal(data.levels, ref):
            bad = int(np.count_nonzero(data.levels != ref))
            errors.append(f"levels differ from the reference on {bad} vertices")
        return errors
    expected = plan.core >= arg
    if not np.array_equal(data.alive, expected):
        bad = int(np.count_nonzero(data.alive != expected))
        return [f"{arg}-core alive mask differs from the reference on {bad} vertices"]
    return []


def work_edges(spec: WorkloadSpec, setup: Setup, result) -> int:
    """Edges a traversal is credited with: Graph500 traversed edges for
    BFS, engine edge scans for k-core."""
    if spec.algorithm == "bfs":
        return bfs_traversed_edges(setup.edges, result.data.levels)
    return result.stats.total_edges_scanned
