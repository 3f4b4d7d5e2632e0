"""The paper's primary contribution: the distributed asynchronous visitor queue.

* :mod:`repro.core.visitor` — the visitor abstraction (Table I): per-vertex
  procedures ``pre_visit`` / ``visit`` plus a priority for the local
  min-heap ordering, and the :class:`AsyncAlgorithm` descriptor that binds
  visitors to state layout, seeding and result gathering.
* :mod:`repro.core.batch_queue` — the per-rank queue of Algorithm 1:
  ``push_batch`` (with ghost filtering), ``check_mailbox`` (with replica
  forwarding) and the local priority queue, over visitor batches.
* :mod:`repro.core.object_adapter` — object visitors on that queue.
* :mod:`repro.core.traversal` — the user-facing ``run_traversal`` entry
  point returning a :class:`TraversalResult`.
"""

from repro.core.traversal import TraversalResult, run_traversal
from repro.core.visitor import AsyncAlgorithm, Visitor

__all__ = ["Visitor", "AsyncAlgorithm", "run_traversal", "TraversalResult"]
