"""The visitor abstraction (Section IV-A, Table I).

A traversal algorithm supplies a *visitor* type with:

``pre_visit(vertex_data)``
    Preliminary evaluation against the target vertex's state; returns
    ``True`` if the visit should proceed.  May be applied to *ghost*
    state, to master state on delivery, and to replica state along the
    forwarding chain — it must therefore be a pure function of the visitor
    and the state object it is handed.

``visit(ctx)``
    The main visitor procedure.  ``ctx`` is a
    :class:`~repro.core.object_adapter.VisitContext` on the executing
    rank, which exposes the graph operations (``out_edges``, ``state_of``,
    ``has_local_edge``, ``graph``) and ``push`` for dynamically created
    visitors.  (The paper writes ``visit(graph, visitor_queue)``; here
    both capabilities live on one context object.)

``priority``
    The ``operator<`` of Table I: visitors are ordered in a local min-heap
    by this integer.  Ties are broken by vertex id when the engine's
    locality ordering is enabled (Section V-A) — "to improve page-level
    locality, we order visitors by their vertex identifier when the
    algorithm does not define an order".

An :class:`AsyncAlgorithm` packages the visitor with everything the engine
needs: per-vertex state construction (master / replica / ghost roles),
initial visitor seeding, ghost-usage declaration ("each algorithm must
explicitly declare ghost usage") and result gathering.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.batch import BatchStateArrays, VisitorBatch
    from repro.core.object_adapter import VisitContext
    from repro.graph.distributed import DistributedGraph

#: State roles.  ``MASTER`` is the authoritative copy on ``min_owner``;
#: ``REPLICA`` copies live along the forwarding chain; ``GHOST`` copies are
#: the local, never-synchronised filters of Section IV-B.
ROLE_MASTER = "master"
ROLE_REPLICA = "replica"
ROLE_GHOST = "ghost"


class Visitor:
    """Base visitor: accept-everything semantics, priority 0.

    Subclasses use ``__slots__`` and plain attributes; visitors are sent by
    value through the simulated network, exactly like the paper's POD
    visitor structs travel through MPI.
    """

    __slots__ = ("vertex",)

    #: Heap priority (the ``operator<`` of Table I). Class attribute so
    #: visitors without ordering pay no per-instance storage.
    priority = 0

    def __init__(self, vertex: int) -> None:
        self.vertex = vertex

    def pre_visit(self, vertex_data) -> bool:
        """Default: always proceed."""
        return True

    def visit(self, ctx: "VisitContext") -> None:
        """Default: do nothing."""


class AsyncAlgorithm(ABC):
    """Descriptor binding a visitor type into a runnable traversal."""

    #: Human-readable algorithm name (reports, stats).
    name: str = "abstract"
    #: Whether ghosts may filter this algorithm's visitors.  Only safe for
    #: algorithms whose pre_visit is a monotonic filter (BFS, CC); counting
    #: algorithms (k-core, triangle counting) must leave this False.
    uses_ghosts: bool = False
    #: Serialized visitor size for the byte-cost model.
    visitor_bytes: int = 16
    #: Whether the algorithm implements native batch hooks (the ``*_batch``
    #: methods below, over flat numeric state); all built-in algorithms do.
    #: Without them — and for any algorithm under ``EngineConfig.batch =
    #: False`` — the engine runs the object visitors through
    #: :class:`~repro.core.object_adapter.ObjectAdapter`, which implements
    #: those hooks by calling ``pre_visit`` / ``visit`` per visitor.  A
    #: subclass of a built-in that changes its visitors must set this
    #: False; the engine refuses one that overrides ``initial_visitors``,
    #: ``make_state`` or ``finalize`` without the batch twin.
    supports_batch: bool = False
    #: Dtype of the batch payload array (BFS length, SSSP distance, CC
    #: label, triangle ``second``, PageRank residual amount).
    payload_dtype = np.float64
    #: Dtypes of additional per-visitor batch columns
    #: (:attr:`VisitorBatch.extras`); triangle counting declares one
    #: ``int64`` column for ``third``.
    batch_extra_dtypes: tuple = ()
    #: True when the heap priority *is* the payload (the monotonic
    #: traversals).  Algorithms with their own ``operator<`` (PageRank's
    #: ``-amount``, triangle counting's constant 0) set this False and
    #: implement :meth:`batch_priorities`.
    batch_priority_is_payload: bool = True

    def bind(self, graph: "DistributedGraph") -> None:
        """Called once by the engine before state construction.

        Default: no-op.  Algorithms that need graph-wide facts to shape
        their per-vertex state (e.g. PageRank gates sole-copy vertices in
        ``pre_visit`` but must stream through split-vertex replica chains)
        capture them here.
        """

    @abstractmethod
    def make_state(self, vertex: int, degree: int, role: str):
        """Create the per-vertex state object for ``vertex``.

        ``role`` is one of :data:`ROLE_MASTER`, :data:`ROLE_REPLICA`,
        :data:`ROLE_GHOST`; algorithms whose replicas behave differently
        from masters (k-core's hair-trigger replicas) dispatch on it.
        """

    @abstractmethod
    def initial_visitors(self, graph: "DistributedGraph", rank: int) -> Iterable[Visitor]:
        """Visitors rank ``rank`` pushes before the traversal starts."""

    @abstractmethod
    def finalize(self, graph: "DistributedGraph", states_per_rank: list[list]):
        """Gather per-rank state lists into the algorithm's result object.

        ``states_per_rank[r][v - state_lo_r]`` is rank ``r``'s state copy
        for vertex ``v``.  Master copies are authoritative; algorithms that
        accumulate wherever the data lives (triangle counting) sum across
        all copies instead.
        """

    # ------------------------------------------------------------------ #
    # Batch hooks (native in ``supports_batch = True`` implementations;
    # ObjectAdapter implements them for everything else).  Semantics
    # contract: each native hook must be the exact vectorization of the
    # object twin — ``make_state_arrays`` of N ``make_state`` calls,
    # ``expand_batch`` of the visitor's ``visit`` expansion loop — so that
    # both produce bit-identical states and traversal stats.
    # ------------------------------------------------------------------ #
    def make_state_arrays(
        self,
        vertices: np.ndarray,
        degrees: np.ndarray,
        role: str,
        *,
        masters: np.ndarray | None = None,
    ) -> "BatchStateArrays":
        """Array-backed state block for ``vertices`` (batch path).

        ``role`` is a single role for the whole block (:data:`ROLE_GHOST`
        for ghost tables, :data:`ROLE_MASTER` otherwise).  ``masters`` —
        supplied for rank state blocks, ``None`` for ghost tables — marks
        which rows are master copies, for algorithms whose replicas
        initialise differently (k-core's hair-trigger replicas); the
        monotonic traversals ignore it.
        """
        raise NotImplementedError(f"{self.name} does not support the batch path")

    def batch_priorities(self, payloads: np.ndarray) -> np.ndarray:
        """Heap priorities for a batch (``operator<`` of Table I),
        aligned with ``payloads``.  Only consulted when
        :attr:`batch_priority_is_payload` is False."""
        raise NotImplementedError(f"{self.name} does not define batch priorities")

    def initial_batch(self, graph: "DistributedGraph", rank: int) -> "VisitorBatch | None":
        """Batch twin of :meth:`initial_visitors` (same visitors, same order)."""
        raise NotImplementedError(f"{self.name} does not support the batch path")

    def expand_batch(
        self,
        vertices: np.ndarray,
        payloads: np.ndarray,
        lens: np.ndarray,
        targets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Vectorized ``visit`` expansion for a run of executing visitors.

        ``targets`` is the concatenation of the adjacency rows of
        ``vertices`` (row ``i`` contributing ``lens[i]`` entries); returns
        ``(payloads, parents)`` arrays aligned with ``targets`` — exactly
        the visitors the object path would ``push``, in push order.
        """
        raise NotImplementedError(f"{self.name} does not support the batch path")

    def execute_batch(self, ctx, batch: "VisitorBatch") -> "VisitorBatch | None":
        """Vectorized ``visit`` over one popped run; returns the push batch.

        ``ctx`` is the executing
        :class:`~repro.core.batch_queue.BatchVisitorQueueRank`: it exposes the local CSR
        (``ctx.csr``), state block (``ctx.states``), counters, and the
        bulk page-metering helpers.  The default implementation is the
        monotonic-traversal visit — the Alg. 2 line 13 still-the-best
        gate, then :meth:`expand_batch` over the live rows — and must
        mirror the object visitor's metering exactly: per popped visitor, a
        state page (the gate read), then its row pages only when live.

        Counting/accumulating algorithms override this entirely (k-core's
        unconditional expansion, triangle counting's three-phase visit,
        PageRank's drain-and-push); the caller centrally counts pushes and
        applies the ghost filter to whatever batch is returned.
        """
        from repro.core.batch import VisitorBatch

        vertices, payloads = batch.vertices, batch.payloads
        live = payloads == ctx.states.values[vertices - ctx.state_lo]
        ctx.meter_gate_pages(vertices, live)
        if not live.any():
            return None
        live_v = vertices[live]
        lens, targets = ctx.adjacency_batch(live_v)
        ctx.counters.edges_scanned += int(lens.sum())
        if targets.size == 0:
            return None
        out_payloads, out_parents = self.expand_batch(
            live_v, payloads[live], lens, targets
        )
        return VisitorBatch(targets, out_payloads, out_parents)

    def finalize_batch(self, graph: "DistributedGraph", arrays_per_rank: list):
        """Batch twin of :meth:`finalize` over per-rank
        :class:`~repro.core.batch.BatchStateArrays`."""
        raise NotImplementedError(f"{self.name} does not support the batch path")

    # ------------------------------------------------------------------ #
    def master_states(self, graph: "DistributedGraph", states_per_rank: list[list]):
        """Iterate ``(vertex, master_state)`` over all vertices."""
        for rank, states in enumerate(states_per_rank):
            part = graph.partitions[rank]
            for v in graph.masters_on(rank):
                yield int(v), states[int(v) - part.state_lo]
