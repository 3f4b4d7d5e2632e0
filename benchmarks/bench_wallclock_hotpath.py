"""Wall-clock benchmark of the vectorized batch fast path, per algorithm.

For every algorithm with a batch kernel (BFS, SSSP, CC, triangles, k-core,
PageRank) this runs the same traversal through the object path, the batch
path, and the batch path under the process-parallel executor
(``workers=N``), checks that all three produce identical results and
traversal stats (the batch path's and parallel executor's defining
contract), and reports the host wall-clock speedups.  The parallel leg
records its barrier-frame telemetry (``ipc_frames``,
``ipc_bytes_pickled``, ``barrier_seconds``); a run that pickles any
tick-barrier bytes (``zero_pickle`` false) fails the run like a
divergence, because ticks must cross the worker pipe as frames.  Also reports — never
gates — the reliable-delivery transport's no-fault overhead (host time,
simulated time and protocol bytes vs the plain fabric) and the
bounded-mailbox ledger's no-pressure overhead (a cap high enough that
backpressure never engages, measuring pure flow-control bookkeeping cost),
both measured on the BFS workload.  The parallel section also reports the
supervised mode's no-fault tax (``worker_restarts>0`` with no fault plan:
barrier deadlines + the rollback epochs captured every 16 ticks,
INTERNALS §12) as ``supervised_overhead`` vs the plain parallel run.

Usage::

    python benchmarks/bench_wallclock_hotpath.py             # full: all algorithms
    python benchmarks/bench_wallclock_hotpath.py --smoke     # CI: bfs + triangles
    python benchmarks/bench_wallclock_hotpath.py --smoke --check \
        --baseline BENCH_hotpath.json                        # regression gate

Every timing is the min over ``--repeats`` runs (one uniform knob for all
algorithms and all three paths; the repeat count used is recorded in each
entry).  The gated object and batch timings alternate run by run, so host
load drifting during a run skews both sides of their ratio alike.  The
JSON written next to the repo root (``BENCH_hotpath.json``) records one
record per algorithm; ``--check`` fails (exit 1) when any
algorithm's current object-vs-batch speedup falls more than 25% below its
baseline, a machine-independent regression gate (both paths run on the
same host, so their *ratio* transfers between machines in a way absolute
seconds do not).  The parallel columns (``parallel_seconds``,
``host_speedup`` vs the sequential batch path) are report-only — multi-core
scaling depends on the host's core count, recorded as ``host_cores`` — but
parallel *divergence* from the sequential stats or result arrays fails the
run in any mode: bit-identity is machine-independent.  Workload sizes
differ per algorithm because their visitor volumes differ by orders of
magnitude: triangle counting is O(sum of squared degrees) visitors, so it
runs scale 16 at edgefactor 1, and PageRank's residual push needs tens of
ticks per unit of threshold, so it runs a smaller graph.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import sys
import time

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.connected_components import connected_components
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.algorithms.triangles import triangle_count
from repro.bench.harness import build_rmat_graph, pick_bfs_source
from repro.runtime.costmodel import laptop

#: Tolerated relative drop in speedup before --check fails.
REGRESSION_TOLERANCE = 0.25

#: Per-algorithm workload definitions.  ``graph`` keys feed
#: :func:`build_rmat_graph`; ``run(graph, source, machine, batch, **kw)``
#: must be deterministic; ``arrays(result)`` yields the output arrays to
#: compare.
WORKLOADS = {
    "bfs": dict(
        graph=dict(scale=16, edgefactor=16, num_partitions=16, num_ghosts=256),
        run=lambda g, s, m, b, **kw: bfs(g, s, machine=m, batch=b, **kw),
        arrays=lambda r: (r.data.levels, r.data.parents),
    ),
    "sssp": dict(
        graph=dict(scale=16, edgefactor=16, num_partitions=16, num_ghosts=256),
        run=lambda g, s, m, b, **kw: sssp(g, s, machine=m, batch=b, **kw),
        arrays=lambda r: (r.data.distances, r.data.parents),
    ),
    "cc": dict(
        graph=dict(scale=16, edgefactor=16, num_partitions=16, num_ghosts=256),
        run=lambda g, s, m, b, **kw: connected_components(
            g, machine=m, batch=b, **kw),
        arrays=lambda r: (r.data.labels,),
    ),
    "triangles": dict(
        # O(sum d^2) visitors: edgefactor 1 keeps scale 16 tractable.
        graph=dict(scale=16, edgefactor=1, num_partitions=16, num_ghosts=256),
        run=lambda g, s, m, b, **kw: triangle_count(g, machine=m, batch=b, **kw),
        arrays=lambda r: (r.data.per_vertex,),
    ),
    "kcore": dict(
        graph=dict(scale=16, edgefactor=16, num_partitions=16, num_ghosts=256),
        run=lambda g, s, m, b, **kw: kcore(g, 4, machine=m, batch=b, **kw),
        arrays=lambda r: (r.data.alive,),
    ),
    "pagerank": dict(
        # Residual push emits millions of visitors; a smaller graph keeps
        # the object path's run in tens of seconds.
        graph=dict(scale=10, edgefactor=16, num_partitions=8, num_ghosts=64),
        run=lambda g, s, m, b, **kw: pagerank(
            g, threshold=1e-3, machine=m, batch=b, **kw),
        arrays=lambda r: (r.data.scores,),
    ),
}

SMOKE_WORKLOADS = {
    "bfs": dict(
        graph=dict(scale=12, edgefactor=16, num_partitions=8, num_ghosts=64),
        run=WORKLOADS["bfs"]["run"],
        arrays=WORKLOADS["bfs"]["arrays"],
    ),
    "triangles": dict(
        graph=dict(scale=12, edgefactor=1, num_partitions=8, num_ghosts=64),
        run=WORKLOADS["triangles"]["run"],
        arrays=WORKLOADS["triangles"]["arrays"],
    ),
}


def _stats_key(stats):
    return (
        stats.ticks,
        stats.time_us,
        stats.termination_waves,
        tuple(
            (c.visits, c.previsits, c.pushes, c.ghost_filtered, c.edges_scanned,
             c.visitors_sent, c.visitors_received, c.packets_sent, c.bytes_sent,
             c.envelopes_forwarded)
            for c in stats.ranks
        ),
    )


def _best_of(repeats: int, *thunks):
    """Min-of-N wall clock of each thunk, their repeats interleaved (one
    run of each per round), so a burst of host load lands on both sides
    of a ratio instead of on one.  Returns one ``(best_seconds,
    last_result)`` pair per thunk."""
    best = [float("inf")] * len(thunks)
    res = [None] * len(thunks)
    for _ in range(repeats):
        for i, thunk in enumerate(thunks):
            t0 = time.perf_counter()
            res[i] = thunk()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, res, strict=True))


def run_algorithm(name: str, spec: dict, *, repeats: int, workers: int,
                  seed: int = 2024) -> dict:
    """Time all paths on one workload; returns the result record."""
    edges, graph = build_rmat_graph(
        spec["graph"]["scale"], edgefactor=spec["graph"]["edgefactor"],
        num_partitions=spec["graph"]["num_partitions"],
        num_ghosts=spec["graph"]["num_ghosts"],
        strategy="edge_list", seed=seed,
    )
    source = pick_bfs_source(edges, seed=seed)
    machine = laptop()
    run = spec["run"]

    # The gated ratio: object and batch repeats alternate.
    (obj_s, obj), (bat_s, bat) = _best_of(
        repeats,
        lambda: run(graph, source, machine, False),
        lambda: run(graph, source, machine, True),
    )

    stats_equal = _stats_key(obj.stats) == _stats_key(bat.stats)
    data_equal = all(
        np.array_equal(a, b)
        for a, b in zip(spec["arrays"](obj), spec["arrays"](bat), strict=False)
    )
    entry = {
        "algorithm": name,
        **{k: spec["graph"][k] for k in
           ("scale", "edgefactor", "num_partitions", "num_ghosts")},
        "source": source,
        "repeats": repeats,
        "object_seconds": round(obj_s, 4),
        "batch_seconds": round(bat_s, 4),
        "speedup": round(obj_s / bat_s, 3),
        "stats_equal": stats_equal,
        "data_equal": data_equal,
        "visits": sum(c.visits for c in obj.stats.ranks),
        "ticks": obj.stats.ticks,
        "simulated_time_us": obj.stats.time_us,
    }
    if workers > 1:
        [(par_s, par)] = _best_of(
            repeats, lambda: run(graph, source, machine, True, workers=workers)
        )
        entry["workers"] = workers
        entry["parallel_seconds"] = round(par_s, 4)
        # Barrier-frame columns (INTERNALS §14).  The zero-pickle contract
        # gates below: tick barriers must move 0 pickled bytes.
        entry["ipc_frames"] = par.ipc["frames"]
        entry["ipc_frame_bytes"] = par.ipc["frame_bytes"]
        entry["ipc_bytes_pickled"] = par.ipc["bytes_pickled"]
        entry["ipc_tick_bytes_pickled"] = par.ipc["tick_bytes_pickled"]
        entry["barrier_seconds"] = par.ipc["barrier_seconds"]
        entry["zero_pickle"] = par.ipc["tick_bytes_pickled"] == 0
        # Host speedup of the parallel executor over the sequential batch
        # path (same kernel, fanned out).  Honest number for *this* host;
        # meaningless without host_cores alongside it — and meaningless
        # outright on a single-core host, where the fan-out cannot beat
        # the sequential path: record "n/a" there so neither --check nor a
        # reader ever compares it against a multi-core baseline.
        host_cores = os.cpu_count() or 1
        entry["host_speedup"] = (
            round(bat_s / par_s, 3) if host_cores >= 2 else "n/a"
        )
        entry["parallel_equal"] = (
            _stats_key(bat.stats) == _stats_key(par.stats)
            and all(
                np.array_equal(a, b)
                for a, b in zip(spec["arrays"](bat), spec["arrays"](par), strict=False)
            )
        )
        # Supervised mode with no faults injected: what the supervision
        # machinery (barrier deadlines, rollback epochs) costs when
        # nothing ever fails.  Report-only, like the other
        # parallel columns, but divergence still fails the run.
        [(sup_s, sup)] = _best_of(
            repeats, lambda: run(graph, source, machine, True,
                                 workers=workers, worker_restarts=1)
        )
        entry["supervised_seconds"] = round(sup_s, 4)
        entry["supervised_overhead"] = round(sup_s / par_s, 3)
        entry["supervised_equal"] = (
            _stats_key(par.stats) == _stats_key(sup.stats)
            and all(
                np.array_equal(a, b)
                for a, b in zip(spec["arrays"](par), spec["arrays"](sup), strict=False)
            )
        )
    return entry


def run_overheads(spec: dict, *, repeats: int, seed: int = 2024) -> dict:
    """Report-only taxes measured on the BFS workload: the reliable
    transport's no-fault overhead and the bounded mailbox's no-pressure
    overhead (cap generous enough the credit gate never fires)."""
    edges, graph = build_rmat_graph(
        spec["graph"]["scale"], edgefactor=spec["graph"]["edgefactor"],
        num_partitions=spec["graph"]["num_partitions"],
        num_ghosts=spec["graph"]["num_ghosts"],
        strategy="edge_list", seed=seed,
    )
    source = pick_bfs_source(edges, seed=seed)
    machine = laptop()

    timings = {}
    runs = {}
    for label, kwargs in (
        ("object", {}),
        ("reliable", {"reliable": True}),
        ("pressure", {"mailbox_cap": 1 << 30}),
    ):
        [(timings[label], runs[label])] = _best_of(
            repeats, lambda kwargs=kwargs: bfs(graph, source, machine=machine, **kwargs)
        )
    obj, rel, cap = runs["object"], runs["reliable"], runs["pressure"]
    return {
        "reliable_seconds": round(timings["reliable"], 4),
        "reliable_host_overhead": round(timings["reliable"] / timings["object"], 3),
        "reliable_sim_overhead": round(rel.stats.time_us / obj.stats.time_us, 4),
        "reliable_overhead_bytes": rel.stats.reliable_overhead_bytes,
        "reliable_ack_packets": rel.stats.ack_packets,
        "pressure_seconds": round(timings["pressure"], 4),
        "pressure_host_overhead": round(timings["pressure"] / timings["object"], 3),
        "pressure_sim_overhead": round(cap.stats.time_us / obj.stats.time_us, 4),
        "pressure_bp_stalls": cap.stats.total_bp_stalls,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small/fast configuration for CI (bfs + "
                        "triangles at scale 12, p=8)")
    parser.add_argument("--check", action="store_true",
                        help="fail when any algorithm's speedup regresses "
                        ">25%% vs --baseline")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON for --check (default: the "
                        "committed file matching this run's mode)")
    parser.add_argument("--algorithms", default=None,
                        help="comma-separated subset to run (default: all "
                        "in the mode's workload table)")
    parser.add_argument("--repeats", type=int, default=2, metavar="N",
                        help="timing repeats per path; every recorded "
                        "timing is the min over N runs (default 2)")
    parser.add_argument("--workers", type=int, default=8, metavar="N",
                        help="worker count for the parallel-executor "
                        "columns (default 8; 1 skips them)")
    parser.add_argument("-o", "--output", default=None,
                        help="where to write the result JSON (default: the "
                        "mode's baseline file at the repo root; suppressed "
                        "in --check runs)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    default_json = root / ("BENCH_hotpath_smoke.json" if args.smoke
                           else "BENCH_hotpath.json")

    workloads = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.algorithms:
        names = args.algorithms.split(",")
        unknown = sorted(set(names) - set(workloads))
        if unknown:
            print(f"unknown algorithms for this mode: {unknown}", file=sys.stderr)
            return 2
        workloads = {n: workloads[n] for n in names}

    record = {"mode": "smoke" if args.smoke else "full", "machine": "laptop",
              "host_cores": os.cpu_count(), "algorithms": {}}
    diverged = False
    for name, spec in workloads.items():
        entry = run_algorithm(name, spec, repeats=args.repeats,
                              workers=args.workers)
        record["algorithms"][name] = entry
        line = (f"{name:>10}: object {entry['object_seconds']:.3f}s   "
                f"batch {entry['batch_seconds']:.3f}s   "
                f"speedup {entry['speedup']:.2f}x")
        if "parallel_seconds" in entry:
            hs = entry["host_speedup"]
            hs_txt = (f"{hs:.2f}x batch" if isinstance(hs, float)
                      else "host_speedup n/a: host_cores < 2")
            line += (f"   parallel[{entry['workers']}w] "
                     f"{entry['parallel_seconds']:.3f}s "
                     f"({hs_txt})   "
                     f"({entry['ipc_frames']} frames, "
                     f"{entry['ipc_tick_bytes_pickled']} tick B pickled)   "
                     f"supervised {entry['supervised_seconds']:.3f}s "
                     f"({entry['supervised_overhead']:.2f}x parallel)")
        print(line)
        if not (entry["stats_equal"] and entry["data_equal"]):
            print(f"FAIL: {name} batch path diverged from the object path "
                  f"(stats_equal={entry['stats_equal']}, "
                  f"data_equal={entry['data_equal']})", file=sys.stderr)
            diverged = True
        if not entry.get("parallel_equal", True):
            print(f"FAIL: {name} parallel executor diverged from the "
                  f"sequential batch path at workers={args.workers}",
                  file=sys.stderr)
            diverged = True
        if not entry.get("supervised_equal", True):
            print(f"FAIL: {name} supervised mode (no faults) diverged from "
                  f"the plain parallel run at workers={args.workers}",
                  file=sys.stderr)
            diverged = True
        if not entry.get("zero_pickle", True):
            print(f"FAIL: {name} tick barriers pickled "
                  f"{entry['ipc_tick_bytes_pickled']} bytes — ticks must "
                  f"cross the worker pipe as frames",
                  file=sys.stderr)
            diverged = True
    if diverged:
        return 1

    overheads = run_overheads(workloads.get("bfs", WORKLOADS["bfs"]),
                              repeats=args.repeats)
    record.update(overheads)
    print(f"reliable delivery (no faults, report-only): "
          f"{overheads['reliable_seconds']:.3f}s host "
          f"({overheads['reliable_host_overhead']:.2f}x object), "
          f"{overheads['reliable_sim_overhead']:.4f}x simulated time, "
          f"{overheads['reliable_overhead_bytes']} protocol bytes, "
          f"{overheads['reliable_ack_packets']} ack packets")
    print(f"bounded mailbox (no pressure, report-only): "
          f"{overheads['pressure_seconds']:.3f}s host "
          f"({overheads['pressure_host_overhead']:.2f}x object), "
          f"{overheads['pressure_sim_overhead']:.4f}x simulated time, "
          f"{overheads['pressure_bp_stalls']} backpressure stalls")

    if args.check:
        baseline = json.loads(Path(args.baseline or default_json).read_text())
        failed = False
        # Only the object-vs-batch ratio gates: both legs run on this
        # host, so the ratio transfers between machines.  host_speedup
        # (parallel vs sequential) deliberately never gates — it depends
        # on the host's core count and is "n/a" on single-core runners.
        for name, base in baseline["algorithms"].items():
            entry = record["algorithms"].get(name)
            if entry is None:
                continue  # --algorithms subset
            floor = base["speedup"] * (1.0 - REGRESSION_TOLERANCE)
            print(f"{name}: baseline speedup {base['speedup']:.2f}x, "
                  f"regression floor {floor:.2f}x")
            if entry["speedup"] < floor:
                print(f"FAIL: {name} speedup {entry['speedup']:.2f}x "
                      f"regressed below {floor:.2f}x", file=sys.stderr)
                failed = True
        if failed:
            return 1
        print("OK: no wall-clock regression")
        return 0

    out = Path(args.output) if args.output else default_json
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
