"""Self-tests of the benchmark: the oracle catches corrupted results, a
failure is counted and named, the tracer's self times are exact, and
BENCHMARK.json is the one the metric table generates.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalog
from perfbench.measure import Run
from perfbench.tracing import Tracer
from perfbench.workloads import Setup, Traversal, check, make_plan
from repro.generators.rmat import rmat_edges
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.types import UNREACHED

ROOT = Path(__file__).resolve().parent.parent
SPECS = {w.name: w for w in catalog.WORKLOADS}


def small(name: str, partitions: int = 4) -> tuple:
    """A scale-8 stand-in for workload ``name`` (same algorithm, routing,
    machine and durability; fewer ranks)."""
    spec = dataclasses.replace(SPECS[name], partitions=partitions,
                               ghosts=min(SPECS[name].ghosts, 4))
    src, dst = rmat_edges(8, 16 << 8, seed=3)
    edges = EdgeList.from_arrays(src, dst, 256).permuted(seed=4).simple_undirected()
    graph = DistributedGraph.build(edges, partitions, num_ghosts=spec.ghosts)
    return spec, Setup(edges, graph, int(src.size))


def test_oracle_catches_corrupted_bfs_levels(tmp_path):
    spec, setup = small("g500-nvram-w1")
    plan = make_plan(spec, setup, seed=1, count=1)
    source = plan.args[0]
    data = Traversal(spec, setup, str(tmp_path)).run(source).data
    assert check(spec, setup, plan, source, data) == []

    levels = data.levels.copy()
    victim = int(np.flatnonzero((levels != UNREACHED) & (levels > 0))[0])
    levels[victim] += 1
    bad = dataclasses.replace(data, levels=levels)
    errors = check(spec, setup, plan, source, bad)
    assert any("reference" in e for e in errors)


def test_oracle_catches_corrupted_kcore_mask(tmp_path):
    spec, setup = small("kcore-p1024-durable")
    plan = make_plan(spec, setup, seed=1, count=3)
    k = plan.args[0]
    data = Traversal(spec, setup, str(tmp_path)).run(k).data
    assert check(spec, setup, plan, k, data) == []

    alive = data.alive.copy()
    alive[0] = not alive[0]
    errors = check(spec, setup, plan, k, dataclasses.replace(data, alive=alive))
    assert errors and "alive mask" in errors[0]


def test_run_counts_and_names_a_failed_traversal(tmp_path, monkeypatch):
    spec, setup = small("g500-nvram-w1")
    run = Run(spec)
    run.setup = setup
    run.plan = make_plan(spec, setup, seed=1, count=2)
    run.traversal = Traversal(spec, setup, str(tmp_path))
    good = run.traverse(run.plan.args[0], "0")
    assert good is not None and run.failures == []

    real_run = Traversal.run

    def corrupted(self, arg):
        result = real_run(self, arg)
        levels = result.data.levels.copy()
        levels[levels > 0] += 1
        return dataclasses.replace(
            result, data=dataclasses.replace(result.data, levels=levels))

    monkeypatch.setattr(Traversal, "run", corrupted)
    assert run.traverse(run.plan.args[1], "1") is None
    assert run.attempted == 2
    assert len(run.failures) == 1
    assert "g500-nvram-w1 traversal 1" in run.failures[0]


def test_tracer_self_time_subtracts_children_and_unpatches():
    tracer = Tracer()

    def leaf():
        sum(range(20000))

    leaf_t = tracer.wrap("leaf", leaf)

    def outer_body():
        leaf_t()
        leaf_t()

    outer_t = tracer.wrap("outer", outer_body)
    tracer.current_traversal = 7
    outer_t()
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0, 0]
    assert list(a["traversal"]) == [7, 7, 7]
    own = tracer.self_seconds()
    total = a["end"][0] - a["start"][0]
    assert own[("outer", 7)] + own[("leaf", 7)] == pytest.approx(total)

    from repro.comm.mailbox import Mailbox

    original = Mailbox.__dict__["send_stream"]
    with tracer:
        assert Mailbox.__dict__["send_stream"] is not original
    assert Mailbox.__dict__["send_stream"] is original


def test_benchmark_json_is_generated_from_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()
    names = [m.name for m in catalog.METRICS]
    assert len(names) == len(set(names))
    assert {m.name for m in catalog.END_TO_END} >= {"setup_s", "traversal_s"}
