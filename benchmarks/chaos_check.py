"""Seeded chaos gate: faulty runs must match fault-free runs bit-for-bit.

For a small RMAT graph, runs BFS and k-core under several fixed-seed fault
plans — packet drops, duplications, delays, and a rank crash with
checkpoint/replay recovery — and diffs every result array and logical
counter against the fault-free baseline on the same reliable transport.
Any divergence, or a chaos run that was not actually perturbed (zero
drops / retransmits / recoveries), fails the gate.

This is the executable form of the INTERNALS §8 invariant: faults may
change simulated time and wire traffic, never results or logical counts.

``--worker-chaos`` switches the gate to *host*-level failures: SIGKILLed,
hung, and mid-phase-exiting worker processes under the supervised pool
(INTERNALS §12), each rolled back to the last epoch, plus
restart-budget-exhausted degradation.  Every supervised ``workers=4`` run
must match the unfailed sequential run on results and every stats field
outside ``SUPERVISION_STATS_FIELDS``, and every cell must actually have
failed (crash/re-fork/degrade counters non-zero — a dead gate fails too).

Usage::

    python benchmarks/chaos_check.py                # CI gate (exit 1 on any diff)
    python benchmarks/chaos_check.py --scale 10     # bigger graph, same checks
    python benchmarks/chaos_check.py --worker-chaos # worker-failure gate
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.bench.harness import build_rmat_graph, pick_bfs_source
from repro.comm.faults import CrashEvent, FaultPlan, WorkerFaultPlan
from repro.runtime.trace import SUPERVISION_STATS_FIELDS

#: The fixed chaos seeds CI replays (never change lightly: the point is a
#: deterministic gate, not a statistical one).
CHAOS_SEEDS = (3, 7, 23)
CRASH = CrashEvent(tick=5, rank=2)


def _plans(seed: int) -> list[tuple[str, FaultPlan]]:
    return [
        (
            f"seed={seed} noise",
            FaultPlan(seed=seed, drop_rate=0.03, duplicate_rate=0.02,
                      delay_rate=0.05, max_delay=3),
        ),
        (
            f"seed={seed} crash",
            FaultPlan(seed=seed, drop_rate=0.03, duplicate_rate=0.02,
                      crashes=(CRASH,)),
        ),
    ]


def _counters(stats) -> tuple:
    return (
        stats.ticks,
        stats.total_visits,
        stats.total_previsits,
        stats.termination_waves,
        tuple(r.visits for r in stats.ranks),
        tuple(r.edges_scanned for r in stats.ranks),
    )


def _check(label: str, faulty, baseline, arrays: dict, expect_crash: bool) -> list[str]:
    problems = []
    for name, (got, want) in arrays.items():
        if not np.array_equal(got, want):
            problems.append(f"{label}: {name} diverged "
                            f"({int(np.count_nonzero(got != want))} entries)")
    if _counters(faulty.stats) != _counters(baseline.stats):
        problems.append(f"{label}: logical counters diverged")
    if faulty.stats.packets_dropped == 0:
        problems.append(f"{label}: fault plan injected no drops (dead gate)")
    if faulty.stats.retransmitted_packets == 0:
        problems.append(f"{label}: no retransmissions (dead gate)")
    if expect_crash and faulty.stats.recoveries != 1:
        problems.append(f"{label}: expected 1 recovery, "
                        f"saw {faulty.stats.recoveries}")
    return problems


#: The worker-failure matrix ``--worker-chaos`` replays: spec, extra kwargs,
#: and which supervision counter proves the cell actually engaged.
WORKER_SCENARIOS = (
    ("kill", "seed=7,kill=4:1", dict(worker_restarts=2), "worker_respawns"),
    ("hang", "seed=7,hang=4:2",
     dict(worker_restarts=2, worker_barrier_timeout=2.0), "worker_hangs"),
    ("exita", "seed=7,exita=3:0", dict(worker_restarts=2), "worker_respawns"),
    ("degrade", "seed=7,kill=4:1,forkfail=9",
     dict(worker_restarts=2), "degraded_ranks"),
)

WORKER_RUNNERS = (
    ("bfs", lambda g, src, **kw: bfs(g, src, **kw),
     lambda r: {"levels": r.data.levels, "parents": r.data.parents}),
    ("kcore", lambda g, src, **kw: kcore(g, 3, **kw),
     lambda r: {"alive": r.data.alive}),
    ("pagerank", lambda g, src, **kw: pagerank(g, **kw),
     lambda r: {"scores": r.data.scores}),
)


def _full_stats_key(stats) -> tuple:
    """Every stats field except the supervisor's own activity counters."""
    ranks = tuple(tuple(sorted(dataclasses.asdict(r).items()))
                  for r in stats.ranks)
    top = tuple(sorted(
        (k, v) for k, v in dataclasses.asdict(stats).items()
        if k not in ("ranks", "timeline")
        and k not in SUPERVISION_STATS_FIELDS
    ))
    return top, ranks


def worker_chaos(args) -> int:
    """Gate: supervised runs through host worker failures stay
    bit-identical to the unfailed sequential run."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        print("SKIP: worker chaos requires the fork start method")
        return 0

    edges, graph = build_rmat_graph(
        args.scale, num_partitions=4, num_ghosts=32, seed=2024
    )
    source = pick_bfs_source(edges, seed=17)
    problems: list[str] = []
    cells = 0
    for algo, run, extract in WORKER_RUNNERS:
        base = run(graph, source, batch=True)
        print(f"baseline: {algo} {base.stats.ticks} ticks "
              f"(scale {args.scale}, p=4, workers=1)")
        for name, spec, kw, engaged in WORKER_SCENARIOS:
            cells += 1
            label = f"{algo} {name}"
            try:
                sup = run(graph, source, batch=True, workers=4,
                          worker_faults=WorkerFaultPlan.from_spec(spec), **kw)
            except Exception as exc:  # a healed run must never raise
                problems.append(f"{label}: raised {exc!r}")
                continue
            for field, want in extract(base).items():
                got = extract(sup)[field]
                if not np.array_equal(got, want):
                    problems.append(
                        f"{label}: {field} diverged "
                        f"({int(np.count_nonzero(got != want))} entries)")
            if _full_stats_key(sup.stats) != _full_stats_key(base.stats):
                problems.append(f"{label}: stats diverged through the failure")
            if sup.stats.worker_crashes == 0:
                problems.append(f"{label}: no worker ever failed (dead gate)")
            if getattr(sup.stats, engaged) == 0:
                problems.append(f"{label}: {engaged} == 0 (cell not engaged)")
            print(f"  {label}: {sup.stats.worker_crashes} failures "
                  f"({sup.stats.worker_hangs} hung), "
                  f"{sup.stats.worker_respawns} pool re-forks, "
                  f"{sup.stats.worker_replayed_ticks} ticks re-executed "
                  f"after rollback, "
                  f"{sup.stats.degraded_ranks} ranks degraded")

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print(f"OK: {cells} supervised chaos runs rolled back to their last "
          f"epoch and stayed bit-identical to baselines")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("-p", "--partitions", type=int, default=8)
    parser.add_argument("-k", type=int, default=3, help="k-core k")
    parser.add_argument(
        "--worker-chaos", action="store_true",
        help="gate host worker failures (SIGKILL/hang/exit/degrade at "
             "workers=4) instead of simulated transport faults")
    args = parser.parse_args(argv)

    if args.worker_chaos:
        return worker_chaos(args)

    edges, graph = build_rmat_graph(
        args.scale, num_partitions=args.partitions, num_ghosts=8, seed=17
    )
    source = pick_bfs_source(edges, seed=17)

    base_bfs = bfs(graph, source, reliable=True, batch=False)
    base_kcore = kcore(graph, args.k, reliable=True, batch=False)
    print(f"baselines: bfs {base_bfs.stats.ticks} ticks, "
          f"kcore {base_kcore.stats.ticks} ticks "
          f"(scale {args.scale}, p={args.partitions})")

    problems: list[str] = []
    for seed in CHAOS_SEEDS:
        for label, plan in _plans(seed):
            fb = bfs(graph, source, faults=plan, batch=False)
            problems += _check(
                f"bfs {label}", fb, base_bfs,
                {"levels": (fb.data.levels, base_bfs.data.levels),
                 "parents": (fb.data.parents, base_bfs.data.parents)},
                expect_crash=plan.has_crashes,
            )
            fk = kcore(graph, args.k, faults=plan, batch=False)
            problems += _check(
                f"kcore {label}", fk, base_kcore,
                {"alive": (fk.data.alive, base_kcore.data.alive)},
                expect_crash=plan.has_crashes,
            )
            # The same plan through the batch kernels: counter-mutating
            # pre-visits + checkpoint/replay of the array-backed state.
            fkb = kcore(graph, args.k, faults=plan, batch=True)
            problems += _check(
                f"kcore-batch {label}", fkb, base_kcore,
                {"alive": (fkb.data.alive, base_kcore.data.alive)},
                expect_crash=plan.has_crashes,
            )
            print(f"  {label}: bfs {fb.stats.packets_dropped} dropped / "
                  f"{fb.stats.retransmitted_packets} retransmits / "
                  f"{fb.stats.recoveries} recoveries; "
                  f"kcore {fk.stats.packets_dropped} dropped / "
                  f"{fk.stats.retransmitted_packets} retransmits / "
                  f"{fk.stats.recoveries} recoveries")

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print(f"OK: {len(CHAOS_SEEDS) * 6} chaos runs bit-identical to baselines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
