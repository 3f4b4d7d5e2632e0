"""Ghost vertices (Sections III-A2 and IV-B).

"To mitigate the communication hotspots created by hubs, we selectively use
ghost information ... Each partition locally identifies high-degree vertices
from its edges' targets to become ghost vertices.  The ghost information is
never globally synchronized, and represents only the local partitions' view
of remote hubs."

Selection is purely local: a partition ranks the *targets* of its own edge
slice by local in-degree and keeps the top ``k``.  A ghost is only useful
when the partition has at least two edges pointing at the vertex (otherwise
there is nothing to filter); the paper's observation that "when
``degree(v) > p`` there is an opportunity for ghosts to have a positive
effect" is the global version of the same condition.

Ghost *state* is algorithm-specific and created per traversal — ghosts act
as imprecise ``pre_visit`` filters, so only algorithms that declare ghost
usage (BFS; not k-core, not triangle counting) get a table
(:class:`~repro.core.batch.GhostArrayTable`).
"""

from __future__ import annotations

import numpy as np

from repro.types import VID_DTYPE


def select_ghost_candidates(
    local_targets: np.ndarray,
    *,
    num_ghosts: int,
    rank: int,
    min_owners: np.ndarray,
    min_local_indegree: int = 2,
) -> np.ndarray:
    """Pick up to ``num_ghosts`` ghost vertices for one partition.

    ``local_targets`` is the ``dst`` column of the partition's edge slice.
    Vertices mastered by this very rank are excluded (a local master needs
    no ghost — its authoritative state is already here), as are targets the
    partition references fewer than ``min_local_indegree`` times.

    Returns vertex ids sorted by descending local in-degree (ties broken by
    ascending id for determinism).
    """
    if num_ghosts < 0:
        raise ValueError(f"num_ghosts must be >= 0, got {num_ghosts}")
    if num_ghosts == 0 or local_targets.size == 0:
        return np.empty(0, dtype=VID_DTYPE)
    vertices, counts = np.unique(local_targets, return_counts=True)
    eligible = (counts >= min_local_indegree) & (min_owners[vertices] != rank)
    vertices, counts = vertices[eligible], counts[eligible]
    if vertices.size == 0:
        return np.empty(0, dtype=VID_DTYPE)
    # Descending count, ascending vertex id on ties.
    order = np.lexsort((vertices, -counts))
    return vertices[order[:num_ghosts]].astype(VID_DTYPE)
