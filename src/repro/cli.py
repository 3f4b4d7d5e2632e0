"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``generate``     Generate a graph (rmat / pa / sw) and save it to disk.
``bfs``          Run asynchronous BFS on a generated or loaded graph.
``kcore``        Run k-core decomposition.
``triangles``    Run exact (or wedge-sampled) triangle counting.
``pagerank``     Run asynchronous residual-push PageRank.
``graph500``     Run a Graph500-style submission (N validated searches).
``experiment``   Regenerate one paper figure/table by name.
``profile``      cProfile a traversal and print the host-time hotspots.
``lint``         AST determinism & invariant analysis (rules RPR001-RPR009).

Every command prints the simulated performance trace; sizes default to
laptop scale.  Examples::

    python -m repro generate rmat --scale 12 -o graph.npz
    python -m repro bfs --graph graph.npz -p 16 --ghosts 256 --topology 2d
    python -m repro bfs --scale 10 -p 8 --machine bgp
    python -m repro bfs --scale 10 -p 8 --faults seed=7,drop=0.02,crash=12:3
    python -m repro triangles --scale 9 -p 8 --approximate --samples 20000
    python -m repro experiment fig13
    python -m repro profile bfs --scale 12 -p 16 --batch
"""

from __future__ import annotations

import argparse
import sys

from repro.algorithms.bfs import bfs
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangles import triangle_count
from repro.algorithms.wedge_sampling import sample_triangle_estimate
from repro.analysis.teps import bfs_traversed_edges, mteps
from repro.bench.harness import pick_bfs_source
from repro.comm.faults import FaultPlan, WorkerFaultPlan
from repro.generators.preferential_attachment import preferential_attachment_edges
from repro.generators.rmat import rmat_edges
from repro.generators.small_world import small_world_edges
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.graph.io import load_binary_edges, save_binary_edges
from repro.memory.faults import StorageFaultPlan
from repro.runtime.costmodel import bgp_intrepid, hyperion_dit, laptop
from repro.runtime.durability import DurableFaultPlan
from repro.runtime.pressure import StragglerPlan

_MACHINES = {
    "laptop": laptop,
    "bgp": bgp_intrepid,
    "hyperion-dram": lambda: hyperion_dit("dram"),
    "hyperion-nvram": lambda: hyperion_dit("nvram"),
}


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="load a .npz edge list instead of generating")
    parser.add_argument("--scale", type=int, default=10,
                        help="RMAT scale when generating (default 10)")
    parser.add_argument("--edgefactor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-p", "--partitions", type=int, default=8)
    parser.add_argument("--ghosts", type=int, default=64)
    parser.add_argument("--strategy", choices=["edge_list", "1d"], default="edge_list")
    parser.add_argument("--topology", choices=["direct", "2d", "3d", "hypercube"],
                        default="direct")
    parser.add_argument("--machine", choices=sorted(_MACHINES), default="laptop")
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject seeded faults, e.g. "
             "'seed=7,drop=0.02,dup=0.01,delay=0.05,maxdelay=3,crash=40:2:6' "
             "(implies reliable delivery; results stay bit-identical)")
    parser.add_argument(
        "--reliable", action="store_true",
        help="run the reliable transport without faults (measures the "
             "protocol's no-fault overhead)")
    parser.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="TICKS",
        help="ticks between crash-recovery checkpoints (default: 16 "
             "whenever the fault plan crashes ranks)")
    parser.add_argument(
        "--mailbox-cap", type=int, default=None, metavar="BYTES",
        help="per-destination cap on mailbox aggregation buffers; overflow "
             "backpressures the sender and spills to external memory "
             "(results stay bit-identical)")
    parser.add_argument(
        "--queue-spill", type=int, default=None, metavar="N",
        help="resident pending-visitor limit per rank; overflow pages "
             "through the external-memory spill log")
    parser.add_argument(
        "--storage-faults", metavar="SPEC", default=None,
        help="inject seeded storage faults, e.g. "
             "'seed=7,readerr=0.05,spike=0.02,torn=0.01,slow=4,retries=3' "
             "(needs an NVRAM machine or an active spill)")
    parser.add_argument(
        "--stragglers", metavar="SPEC", default=None,
        help="slow some ranks down, e.g. "
             "'seed=3,factor=4,fraction=0.25,rebalance=0.5' or "
             "'ranks=1+5,factor=8' (simulated time only)")
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the tick loop (default 1 = sequential; "
             "requires fork). Wall-clock only: results, stats and order "
             "digests are bit-identical at any worker count")
    parser.add_argument(
        "--worker-faults", metavar="SPEC", default=None,
        help="inject worker-process failures for the supervision layer, "
             "e.g. 'seed=7,kill=4:1,hang=9:0,exita=6:3,forkfail=1' "
             "(kill/hang/exita take tick:rank, '+' joins events; requires "
             "--workers > 1; results stay bit-identical)")
    parser.add_argument(
        "--worker-restarts", type=int, default=None, metavar="N",
        help="per-worker respawn budget when a worker process fails "
             "(default 0 = fail fast; exhaustion degrades the orphaned "
             "ranks to in-process execution)")
    parser.add_argument(
        "--worker-barrier-timeout", type=float, default=None, metavar="SEC",
        help="wall-clock seconds a barrier waits before declaring a "
             "worker hung and force-killing it (default 30 when "
             "supervision is active)")
    parser.add_argument(
        "--durable", metavar="DIR", default=None,
        help="write durable on-disk epoch checkpoints to DIR; a killed run "
             "restarted with --resume continues bit-identically")
    parser.add_argument(
        "--durable-interval", type=int, default=None, metavar="TICKS",
        help="ticks between durable epochs (default 16)")
    parser.add_argument(
        "--durable-keep", type=int, default=None, metavar="N",
        help="retained durable epoch generations — the corruption-fallback "
             "ladder depth (default 2)")
    parser.add_argument(
        "--durable-faults", metavar="SPEC", default=None,
        help="inject durable-checkpoint corruption, e.g. "
             "'seed=7,torn=32,bitflip=16+48,manifest=64,missing=80' "
             "(values are epoch ticks, '+' joins; detection falls back to "
             "the previous valid epoch)")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the latest valid epoch in --durable DIR instead "
             "of starting fresh")
    parser.add_argument(
        "--kill-at-tick", type=int, default=None, metavar="T",
        help="SIGKILL this process right after the durable epoch at tick T "
             "commits (crash-restart harness hook; requires --durable)")
    parser.add_argument(
        "--record-digests", action="store_true",
        help="record per-tick visit-order digests plus the whole-run "
             "order digest (bit-identity checks)")
    parser.add_argument(
        "--stats-json", metavar="PATH", default=None,
        help="also dump the full stats and result-array digests as JSON "
             "(what the crash-restart harness compares)")
    parser.add_argument(
        "--detect-races", action="store_true",
        help="instead of one traversal, run baseline + perturbed-rank-order "
             "runs under the reliable transport and report the first tick "
             "where visitor application diverges (exit 1 on divergence); "
             "bfs/kcore/triangles/pagerank only")


def _traversal_kwargs(args) -> dict:
    """Machine/topology/fault kwargs shared by every traversal command."""
    kwargs = dict(machine=_MACHINES[args.machine](), topology=args.topology)
    if args.workers != 1:
        kwargs["workers"] = args.workers
    if args.faults:
        kwargs["faults"] = FaultPlan.from_spec(args.faults)
    if args.reliable:
        kwargs["reliable"] = True
    if args.checkpoint_interval is not None:
        kwargs["checkpoint_interval"] = args.checkpoint_interval
    if args.mailbox_cap is not None:
        kwargs["mailbox_cap"] = args.mailbox_cap
    if args.queue_spill is not None:
        kwargs["queue_spill"] = args.queue_spill
    if args.storage_faults:
        kwargs["storage_faults"] = StorageFaultPlan.from_spec(args.storage_faults)
    if args.stragglers:
        kwargs["stragglers"] = StragglerPlan.from_spec(args.stragglers)
    if args.worker_faults:
        kwargs["worker_faults"] = WorkerFaultPlan.from_spec(args.worker_faults)
    if args.worker_restarts is not None:
        kwargs["worker_restarts"] = args.worker_restarts
    if args.worker_barrier_timeout is not None:
        kwargs["worker_barrier_timeout"] = args.worker_barrier_timeout
    if args.durable:
        kwargs["durable_dir"] = args.durable
    if args.durable_interval is not None:
        kwargs["durable_interval"] = args.durable_interval
    if args.durable_keep is not None:
        kwargs["durable_keep"] = args.durable_keep
    if args.durable_faults:
        kwargs["durable_faults"] = DurableFaultPlan.from_spec(args.durable_faults)
    if args.resume:
        kwargs["durable_resume"] = True
    if args.kill_at_tick is not None:
        kwargs["kill_at_tick"] = args.kill_at_tick
    if args.record_digests:
        kwargs["record_digests"] = True
    return kwargs


def _write_stats_json(path: str, stats, arrays: dict) -> None:
    """Dump the full stats dataclass plus blake2b digests of the result
    arrays — the crash-restart harness compares two of these files
    (excluding ``durable_*`` keys) to prove a resumed run bit-identical."""
    import dataclasses
    import hashlib
    import json

    import numpy as np

    digests: dict[str, str] = {}
    for name in sorted(arrays):
        value = arrays[name]
        if isinstance(value, np.ndarray):
            digests[name] = hashlib.blake2b(
                np.ascontiguousarray(value).tobytes(), digest_size=16
            ).hexdigest()
        else:
            digests[name] = repr(value)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"stats": dataclasses.asdict(stats), "arrays": digests},
            fh, indent=2, sort_keys=True, default=repr,
        )
        fh.write("\n")


def _run_race_detection(args, graph, algorithm_factory, *, batch=False) -> int:
    """Shared ``--detect-races`` path: run the tick-order race check and
    print its verdict instead of a single traversal."""
    from repro.runtime.race import detect_races

    kwargs = _traversal_kwargs(args)
    machine = kwargs.pop("machine")
    topology = kwargs.pop("topology")
    if batch:
        kwargs["batch"] = True
    report = detect_races(
        graph, algorithm_factory, machine=machine, topology=topology, **kwargs
    )
    print(report.summary())
    return 0 if report.clean else 1


def _build_graph(args) -> tuple[EdgeList, DistributedGraph]:
    if args.graph:
        edges = load_binary_edges(args.graph)
        if not edges.sorted_by_src:
            edges = edges.sorted_by_source()
    else:
        src, dst = rmat_edges(args.scale, args.edgefactor << args.scale, seed=args.seed)
        edges = (
            EdgeList.from_arrays(src, dst, 1 << args.scale)
            .permuted(seed=args.seed + 1)
            .simple_undirected()
        )
    graph = DistributedGraph.build(
        edges, args.partitions, strategy=args.strategy, num_ghosts=args.ghosts
    )
    return edges, graph


def _cmd_generate(args) -> int:
    n = 1 << args.scale if args.model == "rmat" else args.vertices
    if args.model == "rmat":
        src, dst = rmat_edges(args.scale, args.edgefactor << args.scale, seed=args.seed)
    elif args.model == "pa":
        src, dst = preferential_attachment_edges(
            args.vertices, args.attach, rewire_probability=args.rewire, seed=args.seed
        )
    else:  # sw
        src, dst = small_world_edges(
            args.vertices, args.degree, rewire_probability=args.rewire, seed=args.seed
        )
    edges = EdgeList.from_arrays(src, dst, n).permuted(seed=args.seed + 1)
    if args.simple:
        edges = edges.simple_undirected()
    save_binary_edges(edges, args.output)
    print(f"wrote {edges.num_edges} edges over {edges.num_vertices} vertices "
          f"to {args.output}")
    return 0


def _cmd_bfs(args) -> int:
    edges, graph = _build_graph(args)
    source = args.source if args.source is not None else pick_bfs_source(edges, seed=args.seed)
    if args.detect_races:
        from repro.algorithms.bfs import BFSAlgorithm

        return _run_race_detection(
            args, graph, lambda: BFSAlgorithm(source), batch=args.batch
        )
    result = bfs(graph, source, batch=args.batch, **_traversal_kwargs(args))
    traversed = bfs_traversed_edges(edges, result.data.levels)
    if args.stats_json:
        _write_stats_json(args.stats_json, result.stats,
                          {"levels": result.data.levels,
                           "parents": result.data.parents})
    print(result.stats.summary())
    print(f"source {source}: reached {result.data.num_reached} vertices, "
          f"depth {result.data.max_level}, "
          f"{mteps(traversed, result.time_us):.3f} MTEPS (simulated)")
    return 0


def _cmd_kcore(args) -> int:
    _, graph = _build_graph(args)
    if args.detect_races:
        from repro.algorithms.kcore import KCoreAlgorithm

        return _run_race_detection(
            args, graph, lambda: KCoreAlgorithm(args.k), batch=args.batch
        )
    result = kcore(graph, args.k, batch=args.batch, **_traversal_kwargs(args))
    if args.stats_json:
        _write_stats_json(args.stats_json, result.stats,
                          {"alive": result.data.alive})
    print(result.stats.summary())
    print(f"{args.k}-core: {result.data.core_size} vertices")
    return 0


def _cmd_triangles(args) -> int:
    _, graph = _build_graph(args)
    if args.detect_races:
        if args.approximate:
            print("--detect-races needs the exact traversal (drop --approximate)",
                  file=sys.stderr)
            return 2
        from repro.algorithms.triangles import TriangleCountAlgorithm

        return _run_race_detection(
            args, graph, TriangleCountAlgorithm, batch=args.batch
        )
    if args.approximate:
        est = sample_triangle_estimate(graph, samples=args.samples, seed=args.seed)
        print(f"estimated triangles: {est.estimate:.0f} "
              f"(+/- {est.std_error:.0f}, {est.samples} wedge samples, "
              f"closure {est.closure_fraction:.4f})")
    else:
        result = triangle_count(graph, batch=args.batch, **_traversal_kwargs(args))
        if args.stats_json:
            _write_stats_json(args.stats_json, result.stats,
                              {"total": result.data.total,
                               "per_vertex": result.data.per_vertex})
        print(result.stats.summary())
        print(f"triangles: {result.data.total}")
    return 0


def _cmd_pagerank(args) -> int:
    _, graph = _build_graph(args)
    if args.detect_races:
        from repro.algorithms.pagerank import PageRankAlgorithm

        return _run_race_detection(
            args, graph,
            lambda: PageRankAlgorithm(damping=args.damping,
                                      threshold=args.threshold),
            batch=args.batch,
        )
    result = pagerank(graph, damping=args.damping, threshold=args.threshold,
                      batch=args.batch, **_traversal_kwargs(args))
    if args.stats_json:
        _write_stats_json(args.stats_json, result.stats,
                          {"scores": result.data.scores})
    print(result.stats.summary())
    print("top vertices:")
    for v, score in result.data.top(args.top):
        print(f"  {v:>10}  {score:.6f}")
    return 0


def _cmd_graph500(args) -> int:
    from repro.bench.graph500 import run_graph500
    from repro.core.traversal import resolve_config

    if args.detect_races:
        print("--detect-races applies to single traversals "
              "(bfs/kcore/triangles/pagerank)", file=sys.stderr)
        return 2
    edges, graph = _build_graph(args)
    kwargs = _traversal_kwargs(args)
    machine = kwargs.pop("machine")
    topology = kwargs.pop("topology")
    run = run_graph500(
        edges, graph, num_searches=args.searches, kernel=args.kernel,
        machine=machine, topology=topology,
        config=resolve_config(**kwargs) if kwargs else None,
        seed=args.seed,
    )
    print(run.summary())
    return 0


def _cmd_profile(args) -> int:
    import time

    from repro.algorithms.connected_components import connected_components
    from repro.algorithms.sssp import sssp
    from repro.bench.profiling import profile_call

    if args.detect_races:
        print("--detect-races applies to single traversals "
              "(bfs/kcore/triangles/pagerank)", file=sys.stderr)
        return 2
    edges, graph = _build_graph(args)
    kwargs = _traversal_kwargs(args)
    if args.algorithm in ("bfs", "sssp"):
        source = (
            args.source if args.source is not None else pick_bfs_source(edges, seed=args.seed)
        )
        runner = bfs if args.algorithm == "bfs" else sssp
        make = lambda batch: lambda: runner(graph, source, batch=batch, **kwargs)  # noqa: E731
    elif args.algorithm == "cc":
        make = lambda batch: lambda: connected_components(graph, batch=batch, **kwargs)  # noqa: E731
    elif args.algorithm == "kcore":
        make = lambda batch: lambda: kcore(graph, args.k, batch=batch, **kwargs)  # noqa: E731
    elif args.algorithm == "triangles":
        make = lambda batch: lambda: triangle_count(graph, batch=batch, **kwargs)  # noqa: E731
    else:
        make = lambda batch: lambda: pagerank(graph, batch=batch, **kwargs)  # noqa: E731
    report = profile_call(make(args.batch), top=args.top)
    print(report.result.stats.summary())
    print(report.summary(top=args.top))
    if args.compare:
        timings = {}
        for batch in (False, True):
            t0 = time.perf_counter()  # repro-lint: disable=RPR002 -- --compare reports real wall-clock, not simulated time
            make(batch)()
            timings[batch] = time.perf_counter() - t0  # repro-lint: disable=RPR002 -- --compare reports real wall-clock, not simulated time
        print(f"object path {timings[False]:.3f}s, batch path {timings[True]:.3f}s "
              f"({timings[False] / timings[True]:.2f}x)")
    return 0


def _cmd_experiment(args) -> int:
    from repro.bench import experiments as experiments_module

    known = sorted(
        name for name in dir(experiments_module)
        if name.startswith(("fig", "table", "ablation")) and not name.startswith("_")
    )
    matches = [name for name in known if name.startswith(args.name)]
    if len(matches) != 1:
        print(f"unknown or ambiguous experiment {args.name!r}; choose from:",
              file=sys.stderr)
        for name in known:
            print(f"  {name}", file=sys.stderr)
        return 2
    rows, report = getattr(experiments_module, matches[0])()
    print(report)
    if args.csv:
        from repro.bench.export import rows_to_csv

        rows_to_csv(rows, args.csv)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scale-free graph traversal in simulated distributed "
        "(external) memory — IPDPS 2013 reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a graph to a .npz file")
    g.add_argument("model", choices=["rmat", "pa", "sw"])
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--scale", type=int, default=10, help="rmat: log2 vertices")
    g.add_argument("--edgefactor", type=int, default=16)
    g.add_argument("--vertices", type=int, default=1024, help="pa/sw vertex count")
    g.add_argument("--attach", type=int, default=8, help="pa: edges per vertex")
    g.add_argument("--degree", type=int, default=16, help="sw: lattice degree")
    g.add_argument("--rewire", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--simple", action="store_true",
                   help="symmetrize + dedup before saving")
    g.set_defaults(func=_cmd_generate)

    b = sub.add_parser("bfs", help="asynchronous BFS")
    _add_graph_args(b)
    b.add_argument("--source", type=int, default=None)
    b.add_argument("--batch", action="store_true",
                   help="use the vectorized batch fast path")
    b.set_defaults(func=_cmd_bfs)

    k = sub.add_parser("kcore", help="k-core decomposition")
    _add_graph_args(k)
    k.add_argument("-k", type=int, default=4)
    k.add_argument("--batch", action="store_true",
                   help="use the vectorized batch fast path")
    k.set_defaults(func=_cmd_kcore)

    t = sub.add_parser("triangles", help="triangle counting")
    _add_graph_args(t)
    t.add_argument("--approximate", action="store_true",
                   help="wedge-sampling estimate instead of exact count")
    t.add_argument("--samples", type=int, default=10_000)
    t.add_argument("--batch", action="store_true",
                   help="use the vectorized batch fast path")
    t.set_defaults(func=_cmd_triangles)

    pr = sub.add_parser("pagerank", help="asynchronous PageRank")
    _add_graph_args(pr)
    pr.add_argument("--damping", type=float, default=0.85)
    pr.add_argument("--threshold", type=float, default=1e-4)
    pr.add_argument("--top", type=int, default=10)
    pr.add_argument("--batch", action="store_true",
                   help="use the vectorized batch fast path")
    pr.set_defaults(func=_cmd_pagerank)

    g5 = sub.add_parser("graph500", help="Graph500-style run: N validated "
                        "BFS searches, TEPS statistics")
    _add_graph_args(g5)
    g5.add_argument("--searches", type=int, default=16)
    g5.add_argument("--kernel", choices=["bfs", "sssp"], default="bfs")
    g5.set_defaults(func=_cmd_graph500)

    pf = sub.add_parser("profile", help="cProfile a traversal; print the "
                        "top cumulative host-time hotspots")
    pf.add_argument("algorithm",
                    choices=["bfs", "sssp", "cc", "triangles", "kcore", "pagerank"])
    _add_graph_args(pf)
    pf.add_argument("--source", type=int, default=None,
                    help="bfs/sssp source (default: harness pick)")
    pf.add_argument("-k", type=int, default=4, help="kcore k (default 4)")
    pf.add_argument("--top", type=int, default=20,
                    help="hotspot lines to print (default 20)")
    pf.add_argument("--batch", action="store_true",
                    help="profile the vectorized batch fast path")
    pf.add_argument("--compare", action="store_true",
                    help="also time both paths once and report the "
                         "object-vs-batch wall-clock ratio")
    pf.set_defaults(func=_cmd_profile)

    e = sub.add_parser("experiment", help="regenerate a paper figure/table")
    e.add_argument("name", help="e.g. fig13 or table2 (prefix match)")
    e.add_argument("--csv", help="also export the rows as CSV to this path")
    e.set_defaults(func=_cmd_experiment)

    from repro.devtools.cli import add_lint_args, run_lint

    lt = sub.add_parser(
        "lint",
        help="AST determinism & invariant analysis over the source tree "
             "(rules RPR001-RPR009; see docs/INTERNALS.md)",
    )
    add_lint_args(lt)
    lt.set_defaults(func=run_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
