"""One benchmark run: set up, traverse for a time budget, check, report.

Untraced runs (``--trace 0``) give the end-to-end metrics.  Traced runs
(``--trace 1``) set up once under the tracer, then alternate an untraced
and a traced traversal on the same argument, so ``trace.overhead_ratio``
compares like with like under the same host conditions, and report the
per-layer metrics from the traced half only.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.catalog import END_TO_END, OUT_DIR, PER_LAYER, WorkloadSpec
from perfbench.tracing import Tracer
from perfbench.workloads import (
    KCORE_KS,
    Setup,
    Traversal,
    build_graph,
    check,
    make_plan,
    work_edges,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed traversals per run, whatever the time budget, counted per
#: k on the k-core workload (whose medians are taken per k).
MIN_SAMPLES = 3
#: Traversal arguments drawn per run (far more than a run can use).
PLAN_SIZE = 240
#: A run stops early after this many failed traversals: it has already
#: failed, and further samples would not be timings of correct work.
MAX_FAILURES = 3


@dataclass
class Sample:
    arg: int
    #: Raw wall seconds.
    seconds: float
    visits: int
    edges: int
    #: Traced samples only: the run's stats, IPC counters and trace id.
    #: Untraced samples keep scalars alone, so memory (and peak RSS) does
    #: not grow with the number of samples a run fits in its budget.
    stats: object = None
    ipc: dict | None = None
    tid: int = -1


class Run:
    """State of one benchmark run: counts, samples and failures."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: Setup | None = None
        self.plan = None
        self.traversal: Traversal | None = None

    def traverse(self, arg: int, label: str, tid: int | None = None) -> Sample | None:
        """Time one traversal; check it outside the timed region.

        A raised exception, a validation failure and a reference mismatch
        each count as one failed traversal and return None.
        """
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = self.traversal.run(arg)
        except Exception:  # a failed traversal is a result, not a crash
            self._fail(label, arg, traceback.format_exc())
            return None
        seconds = time.perf_counter() - t0
        errors = check(self.spec, self.setup, self.plan, arg, result.data)
        if errors:
            self._fail(label, arg, "; ".join(errors))
            return None
        sample = Sample(arg, seconds, result.stats.total_visits,
                        work_edges(self.spec, self.setup, result))
        if tid is not None:
            sample.stats, sample.ipc, sample.tid = result.stats, result.ipc, tid
        return sample

    def _fail(self, label: str, arg: int, why: str) -> None:
        what = "source" if self.spec.algorithm == "bfs" else "k"
        msg = f"FAILED {self.spec.name} traversal {label} ({what}={arg}): {why}"
        self.failures.append(msg)
        print(msg, file=sys.stderr, flush=True)

    def budget_spent(self, samples: list[Sample], seconds: float, spent: float) -> bool:
        """Stop once the budget is spent and MIN_SAMPLES are in; on k-core,
        only after whole rounds, so every k appears equally often."""
        n = len(samples)
        if self.spec.algorithm == "kcore":
            rounds, rest = divmod(n, len(KCORE_KS))
            return spent >= seconds and rounds >= MIN_SAMPLES and rest == 0
        return spent >= seconds and n >= MIN_SAMPLES


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_metadata(seed: int, root: Path) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": git_commit(root),
    }


def end_to_end(samples: list[Sample], setup_times: list[float], by_arg: bool) -> dict:
    """Medians of wall-clock host seconds and rates.

    With ``by_arg`` (k-core: a few k values of unequal cost, in whole
    rounds) the median is taken per k, so one round is the unit:
    ``traversal_s`` is the mean of the per-k medians and the rates divide
    a round's work by a round's time.  A plain median over three cost
    classes would rest on the one or two samples of the middle class.
    """
    groups: dict[int, list[Sample]] = {}
    for s in samples:
        groups.setdefault(s.arg if by_arg else 0, []).append(s)

    def per_group(attr: str) -> float:
        return sum(statistics.median(getattr(s, attr) for s in g) for g in groups.values())

    seconds = per_group("seconds")
    values = {
        "traversal_s": seconds / len(groups),
        "host_visits_per_s": per_group("visits") / seconds,
        "host_mteps": per_group("edges") / seconds / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_times),
    }
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}


def per_layer(run: Run, tracer: Tracer, traced: list[Sample],
              untraced: list[Sample]) -> dict:
    """Per-traversal means over the traced samples (set-up spans: the one
    traced set-up)."""
    own = tracer.self_seconds()
    n = len(traced)
    ids = [s.tid for s in traced]

    def span(*names: str) -> float:
        return sum(own.get((nm, t), 0.0) for nm in names for t in ids) / n

    def setup_span(name: str) -> float:
        return own.get((name, -1), 0.0)

    def mean(fn) -> float:
        return sum(fn(s) for s in traced) / n

    def ipc(key: str) -> float:
        return mean(lambda s: (s.ipc or {}).get(key, 0))

    stats = [s.stats for s in traced]
    previsits = sum(st.total_previsits for st in stats)
    packets = sum(st.total_packets for st in stats)
    sim_s = sum(st.time_us for st in stats) * 1e-6
    values = {
        "generators.rmat_s": setup_span("rmat_edges"),
        "graph.permute_s": setup_span("EdgeList.permuted"),
        "graph.simplify_s": setup_span("EdgeList.simple_undirected"),
        "graph.build_s": setup_span("DistributedGraph.build"),
        "graph.edges_kept_ratio": (
            run.setup.edges.num_edges / 2 / run.setup.generated_edges),
        "comm.send_stream_s": span("Mailbox.send_stream"),
        "comm.packets": packets / n,
        "comm.bytes": mean(lambda s: s.stats.total_bytes),
        "comm.visitors_per_packet": (
            sum(st.total_visitors_sent for st in stats) / packets if packets else 0.0
        ),
        "core.process_self_s": span("BatchVisitorQueueRank.process"),
        "runtime.engine_init_s": span("SimulationEngine.__init__"),
        "runtime.loop_self_s": span("SimulationEngine.run"),
        "runtime.rank_ticks": mean(lambda s: s.stats.ticks * run.spec.partitions),
        "comm.flush_s": span("Mailbox.flush"),
        "comm.receive_s": span("Mailbox.receive"),
        "comm.network_advance_s": span("Network.advance"),
        "comm.envelopes_forwarded": mean(
            lambda s: sum(c.envelopes_forwarded for c in s.stats.ranks)),
        "runtime.durability.write_s": span("DurabilityManager.write_epoch"),
        "runtime.durability.disk_bytes": mean(
            lambda s: s.stats.durable_disk_bytes),
        "runtime.durability.epochs": mean(lambda s: s.stats.durable_checkpoints),
        "runtime.parallel.barrier_s": ipc("barrier_seconds"),
        "runtime.parallel.barrier_share": mean(
            lambda s: (s.ipc or {}).get("barrier_seconds", 0.0) / s.seconds),
        "runtime.parallel.frames": ipc("frames"),
        "runtime.parallel.frame_bytes": ipc("frame_bytes"),
        "runtime.parallel.ring_spills": ipc("ring_spills"),
        "runtime.parallel.tick_bytes_pickled": ipc("tick_bytes_pickled"),
        "memory.page_cache_s": span("PageCache.access_pages", "PageCache.drain_epoch_us"),
        "memory.hit_rate": mean(lambda s: s.stats.cache_hit_rate()),
        "memory.misses": mean(lambda s: s.stats.total_cache_misses),
        "core.check_mailbox_s": span("BatchVisitorQueueRank.check_mailbox"),
        "core.visits": mean(lambda s: s.visits),
        "core.previsit_pass_ratio": (
            sum(st.total_visits for st in stats) / previsits if previsits else 0.0
        ),
        "core.ghost_filtered": mean(lambda s: s.stats.total_ghost_filtered),
        "comm.termination_waves": mean(lambda s: s.stats.termination_waves),
        "algorithms.finalize_s": span("finalize_batch"),
        "runtime.ticks": mean(lambda s: s.stats.ticks),
        "runtime.sim_time_us": mean(lambda s: s.stats.time_us),
        "runtime.sim_mteps": sum(s.edges for s in traced) / sim_s / 1e6,
        "trace.overhead_ratio": (
            statistics.median(s.seconds for s in traced)
            / statistics.median(s.seconds for s in untraced)
        ),
    }
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}


def measure(spec: WorkloadSpec, seed: int, seconds: float, trace: bool,
            root: Path) -> tuple[dict, dict]:
    """Run the workload; returns (result line, full record)."""
    meta = host_metadata(seed, root)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    run = Run(spec)
    durable_root = tempfile.mkdtemp(prefix="durable-", dir=out)
    tracer = Tracer() if trace else None
    try:
        setup_times: list[float] = []
        if tracer is not None:
            with tracer:
                run.setup = build_graph(spec, seed)
        else:
            for _ in range(SETUP_REPEATS):
                run.setup = None
                gc.collect()
                t0 = time.perf_counter()
                run.setup = build_graph(spec, seed)
                setup_times.append(time.perf_counter() - t0)
        run.plan = make_plan(spec, run.setup, seed, PLAN_SIZE)
        run.traversal = Traversal(spec, run.setup, durable_root)

        untraced: list[Sample] = []
        traced: list[Sample] = []
        spent = 0.0
        for i, arg in enumerate(run.plan.args):
            if run.budget_spent(untraced, seconds, spent):
                break
            if len(run.failures) >= MAX_FAILURES:
                break
            sample = run.traverse(arg, str(i))
            if sample is None:
                continue
            spent += sample.seconds
            if tracer is None:
                untraced.append(sample)
                continue
            tracer.current_traversal = i
            with tracer:
                twin = run.traverse(arg, f"{i}-traced", tid=i)
            tracer.current_traversal = -1
            if twin is None:
                continue
            spent += twin.seconds
            untraced.append(sample)
            traced.append(twin)

        record = {
            "workload": spec.name,
            "trace": int(trace),
            "host": meta,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "fail_ratio": len(run.failures) / run.attempted,
            "failures": run.failures,
            "samples": [
                {"arg": s.arg, "seconds": s.seconds, "visits": s.visits,
                 "edges": s.edges} for s in (traced or untraced)
            ],
            "setup_seconds": setup_times,
        }
        metrics: dict = {}
        if untraced and tracer is None:
            metrics = end_to_end(untraced, setup_times, by_arg=spec.algorithm == "kcore")
        elif traced:
            metrics = per_layer(run, tracer, traced, untraced)
            tracer.write(out / f"trace-{spec.name}-seed{seed}.npz")
        meta["loadavg_end"] = list(os.getloadavg())
        record["metrics"] = metrics
        result = {
            "correct": not run.failures and bool(metrics),
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": metrics,
        }
        (out / f"record-{spec.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        return result, record
    finally:
        shutil.rmtree(durable_root, ignore_errors=True)
