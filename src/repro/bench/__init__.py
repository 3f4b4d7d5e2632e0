"""Benchmark harness.

One driver function per paper figure/table lives in
:mod:`repro.bench.experiments`; the pytest-benchmark wrappers under
``benchmarks/`` call these with reproduction-scale parameters and assert
the paper's qualitative claims.
"""

from repro.bench.harness import (
    build_pa_graph,
    build_rmat_graph,
    build_sw_graph,
    pick_bfs_source,
    run_bfs_trial,
)
from repro.bench.report import format_table

__all__ = [
    "build_rmat_graph",
    "build_pa_graph",
    "build_sw_graph",
    "pick_bfs_source",
    "run_bfs_trial",
    "format_table",
]
