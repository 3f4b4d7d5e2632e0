"""The benchmark's single table of workloads and metrics.

``BENCHMARK.json`` at the repo root, the ``--catalog`` quick reference and
the names the runner reports are all generated from the two tables below,
so a metric name cannot drift between them.  This module imports nothing
from ``repro``: the catalogue prints without the package on the path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: ``BENCHMARK.json`` command, the seconds one run measures, and the
#: artefact directory (under the checkout) for traces and result records.
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 18
OUT_DIR = ".bench_out"

#: Every input derives from ``--seed``.  DEFAULT_SEED is what a bare run
#: uses; HELD_OUT_SEED is reserved: no change may be tuned on it, so a
#: claimed gain can be re-checked on a seed its author never saw.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20_130_520

#: Graph500 input shared by every workload: RMAT scale 16, edgefactor 16.
SCALE = 16
EDGEFACTOR = 16


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    algorithm: str  # "bfs" or "kcore"
    partitions: int
    ghosts: int
    topology: str
    machine: str  # "hyperion_dit_nvram" or "laptop"
    workers: int
    durable: bool


WORKLOADS = (
    WorkloadSpec(
        name="g500-nvram-w1",
        why="Table 2 Graph500 BFS on NVRAM page caches, one process: the "
            "mailbox and page cache do the traversal work",
        algorithm="bfs", partitions=16, ghosts=256, topology="direct",
        machine="hyperion_dit_nvram", workers=1, durable=False,
    ),
    WorkloadSpec(
        name="g500-nvram-w2",
        why="same graph, sources and machine at workers=2 over the ring "
            "transport: barrier encode/merge/wait dominates, mailbox work "
            "equals w1",
        algorithm="bfs", partitions=16, ghosts=256, topology="direct",
        machine="hyperion_dit_nvram", workers=2, durable=False,
    ),
    WorkloadSpec(
        name="kcore-p1024-durable",
        why="k-core at p=1024 (64 vertices/rank), 2D routing, DRAM, durable "
            "epochs: O(p) engine work and checkpoint writes, mailbox and "
            "cache nearly idle",
        algorithm="kcore", partitions=1024, ghosts=16, topology="2d",
        machine="laptop", workers=1, durable=True,
    ),
)

G500 = "g500-nvram-w1, g500-nvram-w2"
ALL = "all"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    layer: str
    #: The end-to-end metric this one should move, and on which workloads.
    moves: str
    where: str
    doc: str
    #: End-to-end metrics only: direction and the regression bound (share
    #: of the parent's median).
    better: str | None = None
    bound: float | None = None


def _e2e(name, unit, better, bound, doc):
    return Metric(name, unit, "end_to_end", "-", ALL, doc, better, bound)


#: End-to-end metrics, measured with tracing off.  Bounds on times sit at
#: the largest allowed, 0.25: on a shared 2-vCPU VM, traversals of identical
#: work vary by +-20 % from second to second and the host's speed drifts
#: between phases minutes long, so 10-seed spreads of run medians measured
#: 0.05-0.23 (0.33 once, in a set that straddled such a drift).
END_TO_END = (
    _e2e("traversal_s", "s", "lower", 0.25,
         "median host seconds per BFS search or k-core run (per k, averaged)"),
    _e2e("host_visits_per_s", "1/s", "higher", 0.25,
         "median visits / median host seconds per traversal (per k, summed)"),
    _e2e("host_mteps", "MTEPS", "higher", 0.25,
         "median edges / median host seconds per traversal, in millions "
         "(per k, summed): Graph500 traversed edges (BFS), edges scanned "
         "(k-core)"),
    _e2e("peak_rss_mb", "MB", "lower", 0.1,
         "peak RSS of the benchmark process plus its largest child"),
    _e2e("setup_s", "s", "lower", 0.25,
         "median host seconds to generate, permute, simplify and "
         "partition the graph (CSR and ghosts); set up three times per run"),
)


_SETUP = ("setup_s", ALL)
_MAILBOX = ("traversal_s, host_mteps", G500)
_ENGINE = ("traversal_s", "kcore-p1024-durable")
_W2 = ("traversal_s", "g500-nvram-w2")
_SUPPORT = ("supporting count", ALL)
_REPORT = ("report only; must repeat exactly for a seed", ALL)

#: Per-layer metrics, from the traced run: span self-times (host seconds
#: per traversal) and per-traversal counters.  On w2 the rank work runs in
#: forked workers whose spans stay there, so its mailbox/core/cache times
#: read 0 and the ``runtime.parallel`` counters carry that workload.
PER_LAYER = (
    Metric("generators.rmat_s", "s", "generators", *_SETUP, "rmat_edges"),
    Metric("graph.permute_s", "s", "graph", *_SETUP, "EdgeList.permuted"),
    Metric("graph.simplify_s", "s", "graph", *_SETUP,
           "EdgeList.simple_undirected"),
    Metric("graph.build_s", "s", "graph", *_SETUP, "DistributedGraph.build"),
    Metric("graph.edges_kept_ratio", "ratio", "graph", *_SETUP,
           "undirected edges kept by simplify / generated edges"),
    Metric("comm.send_stream_s", "s", "comm", *_MAILBOX, "Mailbox.send_stream"),
    Metric("comm.packets", "count", "comm", *_MAILBOX, "packets sent"),
    Metric("comm.bytes", "B", "comm", *_MAILBOX, "bytes sent"),
    Metric("comm.visitors_per_packet", "ratio", "comm", *_MAILBOX,
           "visitors sent / packets sent (aggregation)"),
    Metric("core.process_self_s", "s", "core", *_MAILBOX,
           "BatchVisitorQueueRank.process minus its child spans"),
    Metric("runtime.engine_init_s", "s", "runtime", *_ENGINE,
           "SimulationEngine.__init__ (per-rank next_hop tables)"),
    Metric("runtime.loop_self_s", "s", "runtime", *_ENGINE,
           "SimulationEngine.run minus its child spans"),
    Metric("runtime.rank_ticks", "count", "runtime", *_ENGINE,
           "ticks x ranks executed"),
    Metric("comm.flush_s", "s", "comm", *_ENGINE, "Mailbox.flush"),
    Metric("comm.receive_s", "s", "comm", *_ENGINE, "Mailbox.receive"),
    Metric("comm.network_advance_s", "s", "comm", *_ENGINE, "Network.advance"),
    Metric("comm.envelopes_forwarded", "count", "comm", *_ENGINE,
           "envelopes relayed by intermediate routing hops"),
    Metric("runtime.durability.write_s", "s", "runtime.durability", *_ENGINE,
           "DurabilityManager.write_epoch"),
    Metric("runtime.durability.disk_bytes", "B", "runtime.durability", *_ENGINE,
           "host bytes written to the epoch directory"),
    Metric("runtime.durability.epochs", "count", "runtime.durability", *_ENGINE,
           "durable epochs committed"),
    Metric("runtime.parallel.barrier_s", "s", "runtime.parallel", *_W2,
           "TraversalResult.ipc barrier_seconds"),
    Metric("runtime.parallel.barrier_share", "ratio", "runtime.parallel", *_W2,
           "barrier seconds / traced traversal seconds"),
    Metric("runtime.parallel.frames", "count", "runtime.parallel", *_W2,
           "ring frames exchanged"),
    Metric("runtime.parallel.frame_bytes", "B", "runtime.parallel", *_W2,
           "ring frame payload bytes"),
    Metric("runtime.parallel.ring_spills", "count", "runtime.parallel", *_W2,
           "frames that overflowed the ring onto the pipe"),
    Metric("runtime.parallel.tick_bytes_pickled", "B", "runtime.parallel", *_W2,
           "tick-barrier bytes pickled (0 on a clean ring run)"),
    Metric("memory.page_cache_s", "s", "memory", *_MAILBOX,
           "PageCache.access_pages + drain_epoch_us"),
    Metric("memory.hit_rate", "ratio", "memory", *_MAILBOX,
           "page-cache hit rate (1.0 on DRAM)"),
    Metric("memory.misses", "count", "memory", *_MAILBOX, "page-cache misses"),
    Metric("core.check_mailbox_s", "s", "core", *_SUPPORT,
           "BatchVisitorQueueRank.check_mailbox"),
    Metric("core.visits", "count", "core", *_SUPPORT, "visits executed"),
    Metric("core.previsit_pass_ratio", "ratio", "core", *_SUPPORT,
           "visits / previsits (1 - wasted-visitor share)"),
    Metric("core.ghost_filtered", "count", "core", *_SUPPORT,
           "visitors dropped by ghost filters"),
    Metric("comm.termination_waves", "count", "comm", *_SUPPORT,
           "quiescence-detection waves"),
    Metric("algorithms.finalize_s", "s", "algorithms", *_SUPPORT,
           "finalize_batch"),
    Metric("runtime.ticks", "count", "runtime", *_REPORT, "simulated ticks"),
    Metric("runtime.sim_time_us", "us", "runtime", *_REPORT,
           "simulated traversal time"),
    Metric("runtime.sim_mteps", "MTEPS", "runtime", *_REPORT,
           "edges (as in host_mteps) per simulated second / 1e6"),
    Metric("trace.overhead_ratio", "ratio", "trace", "-", ALL,
           "traced / untraced traversal_s, same sources, interleaved"),
)

METRICS = END_TO_END + PER_LAYER


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, derived from the tables above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": _better(m)}
            for m in PER_LAYER
        ],
    }


def _better(m: Metric) -> str:
    # Times, traffic and wasted work are costs; hit rates, aggregation and
    # useful-visit shares are gains.  Report-only counts read "lower" by
    # convention (fewer ticks is the cheaper schedule).
    higher = {"memory.hit_rate", "comm.visitors_per_packet",
              "core.previsit_pass_ratio", "runtime.sim_mteps",
              "graph.edges_kept_ratio", "core.ghost_filtered"}
    return "higher" if m.name in higher else "lower"


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def catalog_lines() -> list[str]:
    """Quick reference: one row per metric (name, unit, layer, what it
    should move and where), then the workloads and seeds."""
    rows = [("metric", "unit", "layer", "moves", "on", "measures")]
    rows += [(m.name, m.unit, m.layer, m.moves, m.where, m.doc) for m in METRICS]
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(r[:5], widths, strict=True)) + "  " + r[5]
        for r in rows
    ]
    lines.append("")
    lines += [f"workload {w.name}: {w.why}" for w in WORKLOADS]
    lines.append(f"seeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED} "
                 "(re-check claimed gains on it; never tune on it)")
    return lines
