"""Graph storage and partitioning substrates.

* :class:`repro.graph.edge_list.EdgeList` — the canonical in-memory edge
  list (sort, symmetrise, dedup, permute, degree queries).
* :class:`repro.graph.csr.CSR` — compressed-sparse-row adjacency, the
  storage format used by every partition ("we choose to store each local
  partition as a compressed sparse row").
* Partitioners: 1D block (:mod:`repro.graph.partition_1d`), 2D block
  (:mod:`repro.graph.partition_2d`) and the paper's *edge list
  partitioning* (:mod:`repro.graph.partition_edge_list`).
* :class:`repro.graph.distributed.DistributedGraph` — the facade the
  visitor-queue framework traverses.
"""

from repro.graph.csr import CSR
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.graph.ghosts import select_ghost_candidates
from repro.graph.partition_1d import OneDPartitioning
from repro.graph.partition_2d import TwoDBlockPartitioning
from repro.graph.partition_edge_list import EdgeListPartitioning

__all__ = [
    "EdgeList",
    "CSR",
    "OneDPartitioning",
    "TwoDBlockPartitioning",
    "EdgeListPartitioning",
    "DistributedGraph",
    "select_ghost_candidates",
]
