"""Per-rank distributed visitor queue — Algorithm 1 of the paper.

Each simulated rank owns one :class:`VisitorQueueRank` holding:

* its partition's CSR slice (optionally behind a paged external-memory
  view),
* the per-vertex state copies for its contiguous state range,
* an optional ghost table,
* a local min-heap priority queue of visitors, and
* a mailbox endpoint on the routed aggregation network.

The three procedures map one-to-one onto Algorithm 1:

``push(visitor)``
    Ghost filter (``pre_visit`` on locally stored ghost state), then
    ``mailbox.send(min_owner(vertex), visitor)``.

``check_mailbox(envelopes)``
    For every arriving visitor: ``pre_visit`` against the local state copy;
    on success queue it locally **and forward it to the next replica** when
    ``rank < max_owner(vertex)`` — the chain that stitches split adjacency
    lists back together.  "The replicas are kept loosely consistent because
    visitors are first sent to the master and then forwarded to the chain
    of replicas in an ordered manner."

``process(budget)``
    Pop up to ``budget`` visitors from the local priority queue and run
    their ``visit``; the heap key is ``(priority, tie, seq)`` where ``tie``
    is the vertex id under the Section V-A locality ordering.
"""

from __future__ import annotations

import copy
import heapq
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.mailbox import Mailbox
from repro.comm.message import KIND_VISITOR
from repro.core.visitor import ROLE_MASTER, ROLE_REPLICA, Visitor
from repro.memory.spill import NS_QUEUE, QUEUE_ENTRY_OVERHEAD_BYTES
from repro.runtime.trace import RankCounters

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.visitor import AsyncAlgorithm
    from repro.graph.distributed import DistributedGraph
    from repro.graph.ghosts import GhostTable
    from repro.memory.backing import PagedCSR


class HeapImage(list):
    """A snapshot of a rank's visitor heap that pickles column by column.

    Durable epochs and worker supervision images pickle the whole heap,
    and the default pickling of a slotted visitor (a state dict per
    object, ``setattr`` per slot on load) made those images cost several
    microseconds per queued visitor.  A heap of one visitor class with a
    fixed ``__slots__`` layout pickles instead as one list per heap key
    field and one list per slot, read with C-level getters.  Any other
    heap pickles as a plain list.  Visitors are never mutated after
    construction, so rebuilt copies are interchangeable with the
    originals.
    """

    __slots__ = ()

    def __reduce__(self):
        visitors = list(map(itemgetter(3), self))
        classes = set(map(type, visitors))
        if len(classes) == 1:
            cls = classes.pop()
            names = _slot_layout(cls)
            try:
                columns = [list(map(attrgetter(name), visitors)) for name in names or ()]
            except AttributeError:  # an unset (or name-mangled) slot
                names = None
            if names:
                keys = [list(map(itemgetter(i), self)) for i in range(3)]
                return (_heap_from_columns, (cls, keys, columns))
        return (HeapImage, (list(self),))


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


def _heap_from_columns(cls: type, keys: list, columns: list) -> HeapImage:
    """Rebuild a :class:`HeapImage` pickled by its ``__reduce__``."""
    names = _slot_layout(cls)
    visitors = []
    for values in zip(*columns, strict=True):
        visitor = cls.__new__(cls)
        for name, value in zip(names, values, strict=True):
            setattr(visitor, name, value)
        visitors.append(visitor)
    return HeapImage(zip(*keys, visitors, strict=True))


class VisitorQueueRank:
    """One rank's slice of the distributed asynchronous visitor queue."""

    def __init__(
        self,
        rank: int,
        graph: "DistributedGraph",
        algorithm: "AsyncAlgorithm",
        mailbox: Mailbox,
        *,
        ghost_table: "GhostTable | None" = None,
        paged_csr: "PagedCSR | None" = None,
        locality_ordering: bool = True,
        state_pager=None,
    ) -> None:
        self.rank = rank
        self.graph = graph
        self.algorithm = algorithm
        self.mailbox = mailbox
        self.ghost_table = ghost_table
        self.paged_csr = paged_csr
        self.locality_ordering = locality_ordering
        #: optional fully-external mode: (cache, state_bytes) charging a
        #: page touch per vertex-state access (semi-external leaves state
        #: in DRAM and this None — the paper's design).
        self.state_pager = state_pager
        self.counters = RankCounters()

        part = graph.partitions[rank]
        self.state_lo = part.state_lo
        degrees = graph.global_out_degrees
        min_owners = graph.min_owners
        self.states: list = [
            algorithm.make_state(
                v,
                int(degrees[v]),
                ROLE_MASTER if int(min_owners[v]) == rank else ROLE_REPLICA,
            )
            for v in range(part.state_lo, part.state_hi + 1)
        ]
        self._heap: list[tuple[int, int, int, Visitor]] = []
        self._seq = 0
        #: queue entries currently living in the external spill log
        #: (tick-granularity ledger; see :meth:`sync_spill`).  Deliberately
        #: outside snapshot/restore: the ledger mirrors the spill pager,
        #: which survives a crash un-rolled-back, so restoring an epoch
        #: value would desynchronise the next ``sync_spill`` delta.
        # repro-lint: volatile -- ledger tracks the pager, which is not rolled back on restore
        self._spilled_visitors = 0
        #: race-detector tap: when the engine installs a list here, every
        #: executed visitor appends its vertex (the observable application
        #: order that the per-tick digests hash).  Externally owned and
        #: drained, hence outside snapshot/restore.
        # repro-lint: volatile -- engine-owned observability tap, drained every tick
        self.order_probe: list[int] | None = None

    # ------------------------------------------------------------------ #
    # Graph context exposed to visitors
    # ------------------------------------------------------------------ #
    _STATE_NAMESPACE = 2  # page-cache namespace for vertex state

    def state_of(self, v: int):
        """This rank's state copy for vertex ``v``."""
        idx = v - self.state_lo
        if self.state_pager is not None:
            cache, state_bytes = self.state_pager
            offset = idx * state_bytes
            cache.access_range(offset, offset + state_bytes,
                               namespace=self._STATE_NAMESPACE)
        return self.states[idx]

    def out_edges(self, v: int) -> np.ndarray:
        """This rank's slice of ``v``'s adjacency list (page-metered when
        the graph lives on NVRAM)."""
        if self.paged_csr is not None:
            part = self.graph.partitions[self.rank]
            if part.holds_vertex(v):
                arr = self.paged_csr.neighbors(v)
            else:
                arr = _EMPTY
        else:
            arr = self.graph.out_edges_local(self.rank, v)
        self.counters.edges_scanned += len(arr)
        return arr

    def has_local_edge(self, v: int, w: int) -> bool:
        """Membership test ``w in out_edges(v)`` restricted to the local
        slice (the triangle-counting closing-edge check)."""
        part = self.graph.partitions[self.rank]
        if not part.holds_vertex(v):
            return False
        # Charge the O(log d) binary-search cost once, up front: the page
        # metering of the paged branch is separate from the scan charge.
        self.counters.edges_scanned += max(1, part.csr.degree(v).bit_length())
        if self.paged_csr is not None:
            return self.paged_csr.has_edge(v, w)
        return part.csr.has_edge(v, w)

    @property
    def num_local_states(self) -> int:
        return len(self.states)

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def push(self, visitor: Visitor) -> None:
        """Algorithm 1, PUSH: ghost filter, then send to the master."""
        self.counters.pushes += 1
        vertex = visitor.vertex
        master = self.graph.min_owner(vertex)
        if self.ghost_table is not None and self.ghost_table.has_local_ghost(vertex):
            ghost = self.ghost_table.local_ghost(vertex)
            self.counters.previsits += 1
            if not visitor.pre_visit(ghost):
                self.ghost_table.filter_hits += 1
                self.counters.ghost_filtered += 1
                return
            self.ghost_table.filter_passes += 1
        self.mailbox.send(master, KIND_VISITOR, visitor, self.algorithm.visitor_bytes)

    def check_mailbox(self, visitors: list[Visitor]) -> None:
        """Algorithm 1, CHECK_MAILBOX: pre-visit arrivals, queue locally,
        forward along the replica chain."""
        for visitor in visitors:
            vertex = visitor.vertex
            self.counters.previsits += 1
            if visitor.pre_visit(self.state_of(vertex)):
                self._enqueue_local(visitor)
                if self.rank < self.graph.max_owner(vertex):
                    # forwards to next replica
                    self.mailbox.send(
                        self.rank + 1, KIND_VISITOR, visitor, self.algorithm.visitor_bytes
                    )

    def _enqueue_local(self, visitor: Visitor) -> None:
        self._seq += 1
        tie = visitor.vertex if self.locality_ordering else self._seq
        heapq.heappush(self._heap, (visitor.priority, tie, self._seq, visitor))

    def process(self, budget: int) -> int:
        """Run up to ``budget`` queued visitors; returns how many ran."""
        executed = 0
        heap = self._heap
        probe = self.order_probe
        while heap and executed < budget:
            _, _, _, visitor = heapq.heappop(heap)
            self.counters.visits += 1
            if probe is not None:
                probe.append(visitor.vertex)
            visitor.visit(self)
            executed += 1
        return executed

    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Checkpointable rank state for crash recovery.

        State objects are mutable (``pre_visit``/``visit`` write them) and
        are deep-copied; heap entries and the visitor objects inside them
        are never mutated after construction, so the heap is a shallow
        container copy sharing the visitors.
        """
        snap = {
            "states": copy.deepcopy(self.states),
            "heap": HeapImage(self._heap),
            "seq": self._seq,
            "counters": copy.copy(self.counters),
        }
        if self.ghost_table is not None:
            snap["ghosts"] = self.ghost_table.snapshot_state()
        return snap

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` checkpoint (the snapshot
        itself stays pristine so a later crash can restore it again)."""
        self.states = copy.deepcopy(snap["states"])
        self._heap = list(snap["heap"])
        self._seq = snap["seq"]
        self.counters = copy.copy(snap["counters"])
        if self.ghost_table is not None:
            self.ghost_table.restore_state(snap["ghosts"])

    # ------------------------------------------------------------------ #
    def locally_quiet(self) -> bool:
        """True when this rank's local visitor queue is empty (envelopes in
        flight are covered by the send/receive counts)."""
        return not self._heap

    def queue_length(self) -> int:
        return len(self._heap)

    def sync_spill(self, pager, resident_limit: int) -> None:
        """Reconcile the external-memory queue overflow with the current
        queue depth (the paper's §V-A external queue, at tick granularity).

        Entries beyond ``resident_limit`` live in the spill log: growth
        since the last call is written out, shrinkage read back in, both
        charged through ``pager``.  Pure cost accounting — pop order and
        visitor execution are untouched, so results stay bit-identical.
        """
        entry_bytes = self.algorithm.visitor_bytes + QUEUE_ENTRY_OVERHEAD_BYTES
        target = max(0, self.queue_length() - resident_limit)
        cur = self._spilled_visitors
        if target > cur:
            pager.spill(NS_QUEUE, (target - cur) * entry_bytes)
            self.counters.queue_spilled += target - cur
        elif target < cur:
            pager.unspill(NS_QUEUE, (cur - target) * entry_bytes)
            self.counters.queue_unspilled += cur - target
        self._spilled_visitors = target

    @property
    def spill_ledger(self) -> int:
        """The spill ledger, exposed for worker-supervision images (see
        the batch path's note): restored together with the pager snapshot
        on respawn, deliberately outside :meth:`snapshot_state`."""
        return self._spilled_visitors

    @spill_ledger.setter
    def spill_ledger(self, value: int) -> None:
        self._spilled_visitors = value

    def sync_mailbox_counters(self) -> None:
        """Mirror mailbox counters into this rank's trace counters."""
        c = self.counters
        mb = self.mailbox
        c.visitors_sent = mb.visitors_sent
        c.visitors_received = mb.visitors_received
        c.packets_sent = mb.packets_sent
        c.bytes_sent = mb.bytes_sent
        c.envelopes_forwarded = mb.envelopes_forwarded
        c.bp_stalls = mb.bp_stalls
        c.bp_spilled_bytes = mb.bp_spilled_bytes


_EMPTY = np.empty(0, dtype=np.int64)
