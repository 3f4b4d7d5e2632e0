"""Repo benchmark: Graph500 BFS over NVRAM page caches and large-p k-core.

Three workloads over one Graph500 input (RMAT scale 16, edgefactor 16;
generate -> permute -> simplify -> partition), all on the batch path:

* ``g500-nvram-w1`` -- Table 2's use case: p=16, 256 ghosts, direct
  routing, ``hyperion_dit("nvram")`` page caches, one process.
* ``g500-nvram-w2`` -- the same graph, sources and machine at
  ``workers=2`` over the shared-memory ring transport.
* ``kcore-p1024-durable`` -- k-core at p=1024 (64 vertices per rank), 16
  ghosts, 2D routing, ``laptop()`` DRAM, durable epochs in a temp dir
  under ``.bench_out/``.

Usage (from the repo root)::

    python3 perfbench/run.py --workload g500-nvram-w1 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --catalog                 # every metric, unit, layer
    python3 perfbench/run.py --write-benchmark-json    # regenerate BENCHMARK.json
    python3 -m pytest perfbench -q                     # oracle self-tests

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` a separate run
with spans around each layer's public calls, reporting the per-layer
metrics.  Every traversal is checked against ``repro.reference`` (and BFS
trees by Graph500 validation) outside the timed region; any failure makes
the run exit 1 after printing its result.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  A fuller
record (host metadata, samples, failures) goes to ``.bench_out/``.

Relation to ``benchmarks/bench_wallclock_hotpath.py``: its BFS
``batch_seconds`` is the min over repeats of one search from one source on
``laptop()`` DRAM.  The w1 ``traversal_s`` here is the median over seeded
giant-component sources on ``hyperion_dit("nvram")``, whose page-cache
metering adds host work, so it reads higher than ``batch_seconds`` for
the same graph size; the two are not interchangeable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--catalog", action="store_true",
                    help="print every metric with unit, layer and what it moves")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="regenerate BENCHMARK.json from the metric table")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import catalog

    if args.catalog:
        print("\n".join(catalog.catalog_lines()))
        return 0
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(catalog.benchmark_json_text())
        return 0
    specs = {w.name: w for w in catalog.WORKLOADS}
    if args.workload not in specs:
        print(f"--workload must be one of {sorted(specs)}", file=sys.stderr)
        return 2
    seed = catalog.DEFAULT_SEED if args.seed is None else args.seed
    seconds = catalog.RUN_SECONDS if args.seconds is None else args.seconds
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a repo checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.measure import measure

    result, record = measure(specs[args.workload], seed, seconds, bool(args.trace), ROOT)
    host = record["host"]
    print(f"# {args.workload} seed={seed} trace={args.trace} "
          f"cpus={host['cpu_count']} affinity={host['affinity_cpus']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"load={host['loadavg_start'][0]:.2f}->{host['loadavg_end'][0]:.2f} "
          f"commit={host['git_commit'][:12]}")
    samples, setups = record["samples"], record["setup_seconds"]
    print(f"# samples={len(samples)} setups={len(setups)}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':36s} {record['fail_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']} traversals)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
