"""Host-crash restart gate: SIGKILLed runs resume bit-identically.

For a small RMAT graph, runs each traversal command as a subprocess with
durable epoch checkpoints enabled (``--durable``), SIGKILLs it at a seeded
tick (``--kill-at-tick``, firing right after that tick's barrier), then
restarts it with ``--resume`` and diffs the resumed run's full stats
JSON — every stats field outside the ``durable_*`` family, the per-run
order digest, and the result-array digests — against an uninterrupted
durable baseline.  Any divergence, a kill that never fired (the run ended
first), or a resume that re-ran from tick 0 fails the gate.

This is the executable form of the INTERNALS §13 invariant: host crashes
may cost wall-clock and disk, never results, logical counters or
simulated time.

The matrix is 3 algorithms x 3 kill ticks; one cell re-runs both the
killed and the resumed leg under ``--workers 4`` to cover the parallel
executor's epoch capture and resume protocol.

Usage::

    python benchmarks/crash_restart_check.py            # CI gate (exit 1 on diff)
    python benchmarks/crash_restart_check.py --scale 9  # bigger graph
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile

#: (algorithm, extra CLI args, kill ticks, the kill tick run at workers=4).
#: Kill ticks sit strictly inside each run's tick count at scale 8 / p=4
#: (bfs 15, kcore 11, pagerank ~1k) and deliberately include ticks both on
#: and off the epoch cadence (interval 4): an off-cadence kill proves the
#: resume replays the post-epoch ticks, not just reloads the barrier state.
CELLS = (
    ("bfs", ["bfs"], (5, 8, 13), 8),
    ("kcore", ["kcore", "-k", "3"], (5, 6, 9), None),
    ("pagerank", ["pagerank"], (50, 500, 1000), None),
)

DURABLE_INTERVAL = 4


def _run(cmd: list[str], **kw) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *cmd],
        env=env, capture_output=True, text=True, **kw,
    )


def _stats_key(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    stats = {
        k: v for k, v in payload["stats"].items() if not k.startswith("durable_")
    }
    return stats, payload["arrays"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("-p", "--partitions", type=int, default=4)
    args = parser.parse_args(argv)

    problems: list[str] = []
    cells = 0
    with tempfile.TemporaryDirectory(prefix="crash_restart_") as tmp:
        graph_path = os.path.join(tmp, "graph.npz")
        out = _run(["generate", "rmat", "--scale", str(args.scale),
                    "--seed", "1", "--simple", "-o", graph_path])
        if out.returncode != 0:
            print(f"FAIL: graph generation rc={out.returncode}\n{out.stderr}",
                  file=sys.stderr)
            return 1

        common = ["--graph", graph_path, "-p", str(args.partitions),
                  "--ghosts", "64", "--seed", "1", "--record-digests",
                  "--durable-interval", str(DURABLE_INTERVAL)]

        for algo, cmd, kill_ticks, parallel_kill in CELLS:
            base_json = os.path.join(tmp, f"{algo}_base.json")
            base_dir = os.path.join(tmp, f"{algo}_base_dur")
            out = _run(cmd + common + ["--durable", base_dir,
                                       "--stats-json", base_json])
            if out.returncode != 0:
                problems.append(f"{algo}: baseline rc={out.returncode}: "
                                f"{out.stderr.strip()}")
                continue
            base = _stats_key(base_json)
            print(f"baseline: {algo} {base[0]['ticks']} ticks "
                  f"(scale {args.scale}, p={args.partitions})")

            for kill in kill_ticks:
                cells += 1
                workers = ["--workers", "4"] if kill == parallel_kill else []
                label = f"{algo} kill@{kill}" + (" w=4" if workers else "")
                dur = os.path.join(tmp, f"{algo}_kill{kill}_dur")
                killed = _run(cmd + common + workers + [
                    "--durable", dur, "--kill-at-tick", str(kill)])
                if killed.returncode != -signal.SIGKILL:
                    problems.append(
                        f"{label}: expected SIGKILL exit, rc={killed.returncode} "
                        f"(kill tick past the end of the run?)")
                    continue
                res_json = os.path.join(tmp, f"{algo}_kill{kill}.json")
                resumed = _run(cmd + common + workers + [
                    "--durable", dur, "--resume", "--stats-json", res_json])
                if resumed.returncode != 0:
                    problems.append(f"{label}: resume rc={resumed.returncode}: "
                                    f"{resumed.stderr.strip()}")
                    continue
                res_stats, res_arrays = _stats_key(res_json)
                with open(res_json, encoding="utf-8") as fh:
                    resume_tick = json.load(fh)["stats"]["durable_resume_tick"]
                if resume_tick <= 0:
                    problems.append(f"{label}: resumed from tick {resume_tick} "
                                    f"(no epoch was restored — dead gate)")
                diff = sorted(k for k in base[0] if base[0][k] != res_stats.get(k))
                if diff:
                    problems.append(f"{label}: stats diverged: {diff}")
                if res_arrays != base[1]:
                    problems.append(f"{label}: result arrays diverged")
                print(f"  {label}: resumed from tick {resume_tick}, "
                      f"{res_stats['ticks']} ticks, bit-identical="
                      f"{not diff and res_arrays == base[1]}")

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print(f"OK: {cells} SIGKILLed runs resumed bit-identically")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
