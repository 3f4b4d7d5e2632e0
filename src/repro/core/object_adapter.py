"""Object visitors on the one rank class: the batch hooks over ``Visitor``.

:class:`~repro.core.batch_queue.BatchVisitorQueueRank` is the engine's
only rank.  An algorithm without native batch hooks — a user
:class:`~repro.core.visitor.Visitor` subclass, or a built-in's object
twin run with ``batch=False`` — is wrapped in :class:`ObjectAdapter`,
which implements those hooks over visitor objects:

* the state block (:class:`ObjectStateBlock`) is the list of
  ``make_state`` objects; its pre-visit calls ``pre_visit`` row by row in
  arrival order, and ghosts are such a block built with ``ROLE_GHOST``;
* a batch's ``payloads`` column has dtype ``object`` and holds the
  visitors themselves (their vertices ride in the ``vertices`` column);
* heap priorities are the visitors' ``priority`` (the ``operator<`` of
  Table I), with the rank's usual vertex-id tie-break;
* ``execute_batch`` runs each popped visitor's ``visit(ctx)`` in pop
  order against a :class:`VisitContext`, and the pushes come back as one
  batch for the rank's ghost filter and ``send_stream``.

Every per-visitor step runs in the order the visitors arrive, pop and
push, and ghost state, the mailbox and the vertex state a visit reads
never feed back into one another within a pop run, so this is exactly
one-visitor-at-a-time Algorithm 1: the same states, stats and order
digests.
"""

from __future__ import annotations

import copy
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import VisitorBatch
from repro.core.visitor import ROLE_MASTER, ROLE_REPLICA
from repro.types import VID_DTYPE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_queue import BatchVisitorQueueRank
    from repro.core.visitor import AsyncAlgorithm
    from repro.graph.distributed import DistributedGraph

_EMPTY = np.empty(0, dtype=np.int64)


class ObjectStateBlock:
    """One rank's (or one ghost table's) per-vertex state objects, behind
    the state-array protocol: row ``i`` is ``states[i]``."""

    __slots__ = ("states",)

    def __init__(self, states: list) -> None:
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    def previsit_batch(self, idx: np.ndarray, batch: VisitorBatch) -> np.ndarray:
        """``pre_visit`` of each arrival against its row, in batch order."""
        return self.previsit(idx, batch.payloads)

    def previsit(self, idx: np.ndarray, payloads: np.ndarray) -> np.ndarray:
        states = self.states
        return np.array(
            [bool(v.pre_visit(states[i]))
             for i, v in zip(idx.tolist(), payloads.tolist(), strict=True)],
            dtype=bool,
        )

    def snapshot(self) -> list:
        """Deep copy: ``pre_visit`` and ``visit`` mutate state objects."""
        return copy.deepcopy(self.states)

    def restore(self, snap: list) -> None:
        """Reinstall a :meth:`snapshot` (which stays pristine)."""
        self.states = copy.deepcopy(snap)


class VisitContext:
    """The ``ctx`` of ``Visitor.visit``: the executing rank's graph
    operations plus ``push``, metering pages and ``edges_scanned`` one
    call at a time."""

    __slots__ = ("graph", "push", "pushed", "_rank", "_states")

    def __init__(self, rank: "BatchVisitorQueueRank") -> None:
        self.graph = rank.graph
        #: visitors pushed so far, in push order
        self.pushed: list = []
        #: Algorithm 1, PUSH (the rank ghost-filters and sends the whole
        #: list once the pop run is done)
        self.push = self.pushed.append
        self._rank = rank
        self._states = rank.states.states

    def state_of(self, v: int):
        """This rank's state copy for vertex ``v``."""
        rank = self._rank
        idx = v - rank.state_lo
        if rank.state_pager is not None:
            cache, state_bytes = rank.state_pager
            offset = idx * state_bytes
            cache.access_range(offset, offset + state_bytes,
                               namespace=rank._STATE_NAMESPACE)
        return self._states[idx]

    def out_edges(self, v: int) -> np.ndarray:
        """This rank's slice of ``v``'s adjacency list (page-metered when
        the graph lives on NVRAM)."""
        rank = self._rank
        if rank.paged_csr is not None:
            if self.graph.partitions[rank.rank].holds_vertex(v):
                arr = rank.paged_csr.neighbors(v)
            else:
                arr = _EMPTY
        else:
            arr = self.graph.out_edges_local(rank.rank, v)
        rank.counters.edges_scanned += len(arr)
        return arr

    def has_local_edge(self, v: int, w: int) -> bool:
        """Membership test ``w in out_edges(v)`` restricted to the local
        slice (the triangle-counting closing-edge check)."""
        rank = self._rank
        part = self.graph.partitions[rank.rank]
        if not part.holds_vertex(v):
            return False
        # Charge the O(log d) binary-search cost once, up front: the page
        # metering of the paged branch is separate from the scan charge.
        rank.counters.edges_scanned += max(1, part.csr.degree(v).bit_length())
        if rank.paged_csr is not None:
            return rank.paged_csr.has_edge(v, w)
        return part.csr.has_edge(v, w)


class VisitorHeapImage(list):
    """A snapshot of an object-visitor heap that pickles column by column.

    Durable and supervision epochs pickle the whole heap,
    and the default pickling of a slotted visitor (a state dict per
    object, ``setattr`` per slot on load) costs several microseconds per
    queued visitor.  A heap of one visitor class with a fixed
    ``__slots__`` layout pickles instead as one list per heap key field
    and one list per slot, read with C-level getters.  Any other heap
    pickles as a plain list.  Visitors are never mutated after
    construction, so rebuilt copies are interchangeable with the
    originals.  The visitor is the last field of every entry.
    """

    __slots__ = ()

    def __reduce__(self):
        visitors = list(map(itemgetter(-1), self))
        classes = set(map(type, visitors))
        if len(classes) == 1:
            cls = classes.pop()
            names = _slot_layout(cls)
            try:
                columns = [list(map(attrgetter(name), visitors)) for name in names or ()]
            except AttributeError:  # an unset (or name-mangled) slot
                names = None
            if names:
                keys = [list(map(itemgetter(i), self)) for i in range(len(self[0]) - 1)]
                return (_heap_from_columns, (cls, keys, columns))
        return (VisitorHeapImage, (list(self),))


def _slot_layout(cls: type) -> tuple[str, ...] | None:
    """Every slot name of ``cls`` in MRO order, or ``None`` when its
    instances carry a ``__dict__``."""
    names: list[str] = []
    for klass in reversed(cls.__mro__[:-1]):
        slots = klass.__dict__.get("__slots__")
        if slots is None:
            return None
        slots = (slots,) if isinstance(slots, str) else tuple(slots)
        if "__dict__" in slots:
            return None
        names.extend(name for name in slots if name != "__weakref__")
    return tuple(names)


def _heap_from_columns(cls: type, keys: list, columns: list) -> VisitorHeapImage:
    """Rebuild a :class:`VisitorHeapImage` pickled by its ``__reduce__``."""
    names = _slot_layout(cls)
    visitors = []
    for values in zip(*columns, strict=True):
        visitor = cls.__new__(cls)
        for name, value in zip(names, values, strict=True):
            setattr(visitor, name, value)
        visitors.append(visitor)
    return VisitorHeapImage(zip(*keys, visitors, strict=True))


def _pack(visitors: list) -> VisitorBatch | None:
    """Visitors as one batch (``None`` when there are none)."""
    if not visitors:
        return None
    payloads = np.empty(len(visitors), dtype=object)
    payloads[:] = visitors
    return VisitorBatch(
        np.array([v.vertex for v in visitors], dtype=VID_DTYPE), payloads
    )


class ObjectAdapter:
    """Runs ``algorithm``'s object visitors through the batch hooks (the
    attributes and methods the rank and the engine read off an
    :class:`~repro.core.visitor.AsyncAlgorithm` with native hooks)."""

    payload_dtype = object
    batch_extra_dtypes = ()
    batch_priority_is_payload = False
    #: the rank's heap snapshot type (visitors pickle column-wise)
    heap_image = VisitorHeapImage

    def __init__(self, algorithm: "AsyncAlgorithm") -> None:
        self.algorithm = algorithm
        self.name = algorithm.name
        self.uses_ghosts = algorithm.uses_ghosts
        self.visitor_bytes = algorithm.visitor_bytes

    def bind(self, graph: "DistributedGraph") -> None:
        self.algorithm.bind(graph)

    def make_state_arrays(self, vertices, degrees, role, *, masters=None):
        """One ``make_state`` per row, in row order; ``masters`` (rank
        blocks) picks master or replica per row."""
        roles = (
            [role] * vertices.size
            if masters is None
            else [ROLE_MASTER if m else ROLE_REPLICA for m in masters.tolist()]
        )
        make = self.algorithm.make_state
        return ObjectStateBlock([
            make(v, d, r)
            for v, d, r in zip(vertices.tolist(), degrees.tolist(), roles, strict=True)
        ])

    def batch_priorities(self, payloads: np.ndarray) -> np.ndarray:
        out = np.empty(payloads.size, dtype=object)
        out[:] = [v.priority for v in payloads.tolist()]
        return out

    def initial_batch(self, graph: "DistributedGraph", rank: int) -> VisitorBatch | None:
        return _pack(list(self.algorithm.initial_visitors(graph, rank)))

    def execute_batch(self, ctx, batch: VisitorBatch) -> VisitorBatch | None:
        """Each popped visitor's ``visit`` in pop order; returns the pushes."""
        visit_ctx = VisitContext(ctx)
        for visitor in batch.payloads.tolist():
            visitor.visit(visit_ctx)
        return _pack(visit_ctx.pushed)

    def finalize_batch(self, graph: "DistributedGraph", arrays_per_rank: list):
        return self.algorithm.finalize(graph, [block.states for block in arrays_per_rank])
