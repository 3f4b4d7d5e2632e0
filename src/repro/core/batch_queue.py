"""The per-rank visitor queue — Algorithm 1, frontier-at-a-time.

This is the engine's only rank class.  Algorithms with native batch hooks
run here directly; object visitors run through
:class:`~repro.core.object_adapter.ObjectAdapter`, whose hooks call
``pre_visit`` / ``visit`` one visitor at a time.  Arrivals are
:class:`~repro.core.batch.VisitorBatch` objects whose pre-visit is the
state block's ``previsit_batch``; ``visit`` expansion runs over one popped
run at a time and its pushes go out as one stream; page metering for
NVRAM machines goes through :meth:`PageCache.access_pages` in bulk.

Equivalence with one-visitor-at-a-time execution (the determinism
guarantee of INTERNALS §6/§7) rests on three ordering facts:

* **Pre-visit** uses the state block's ``previsit_batch``, which resolves
  within-batch races on the same vertex sequentially (monotonic
  improve-or-drop for the traversals, exact arrival-ordered counter
  updates for k-core/triangles/PageRank), and local heap keys are
  ``(priority, tie, seq)`` triples, so queue contents and pop order match
  visitor-for-visitor.
* **Send order**: adjacency rows are expanded in pop order and row targets
  are destination-monotone (owners are contiguous vertex ranges), so
  splitting the concatenated push stream at destination changes yields
  per-hop envelope streams identical to per-visitor ``push`` calls; the
  mailbox then splits batches at aggregation boundaries so every packet
  carries the same visitors as per-visitor sends would.
* **Page order**: per executing visitor, state pages then row pages are
  metered in pop order — the same page-id sequence ``state_of`` /
  ``out_edges`` would touch — so cache hits, misses and LRU state match.
"""

from __future__ import annotations

import copy
import heapq
import io
import pickle
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.mailbox import Mailbox
from repro.core.batch import GhostArrayTable, VisitorBatch, concat_ranges
from repro.core.visitor import ROLE_MASTER
from repro.memory.page_cache import NAMESPACE_SHIFT
from repro.memory.spill import NS_QUEUE, QUEUE_ENTRY_OVERHEAD_BYTES
from repro.runtime.trace import RankCounters
from repro.types import VID_DTYPE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.visitor import AsyncAlgorithm
    from repro.graph.distributed import DistributedGraph
    from repro.memory.backing import PagedCSR


class ScalarHeapImage(list):
    """A snapshot of a native batch heap that pickles without a memo.

    Every heap entry is a fresh tuple of Python scalars (``tolist()``
    output), so the entries share nothing and hold no cycles, and the
    pickler's memo — a table entry per tuple — is pure overhead: it made up
    over half the cost of pickling a large heap into a durable or a
    supervision epoch.  The image pickles its entries in fast mode
    into one bytes blob.
    """

    __slots__ = ()

    def __reduce__(self):
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.fast = True  # no memo: sound only for acyclic, unshared entries
        pickler.dump(list(self))
        return (_scalar_heap_from_bytes, (buf.getvalue(),))


def _scalar_heap_from_bytes(data: bytes) -> ScalarHeapImage:
    """Rebuild a :class:`ScalarHeapImage` pickled by its ``__reduce__``."""
    return ScalarHeapImage(pickle.loads(data))


class BatchVisitorQueueRank:
    """One rank's slice of the distributed asynchronous visitor queue."""

    _STATE_NAMESPACE = 2  # page-cache namespace for vertex state

    def __init__(
        self,
        rank: int,
        graph: "DistributedGraph",
        algorithm: "AsyncAlgorithm",
        mailbox: Mailbox,
        *,
        ghost_table: GhostArrayTable | None = None,
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
        self.state_pager = state_pager
        self.counters = RankCounters()

        part = graph.partitions[rank]
        self.state_lo = part.state_lo
        #: This rank's in-memory CSR slice (``execute_batch`` hooks read it
        #: directly; the paged view is metering-only).
        self.csr = part.csr
        self._min_owners = graph.min_owners
        self._max_owners = graph.max_owners
        self._prio_is_payload = algorithm.batch_priority_is_payload
        vertices = np.arange(part.state_lo, part.state_hi + 1, dtype=VID_DTYPE)
        #: The rank's state block (state-array protocol: ``previsit_batch``
        #: / ``snapshot`` / ``restore``).
        self.states = algorithm.make_state_arrays(
            vertices,
            graph.global_out_degrees[vertices],
            ROLE_MASTER,
            masters=graph.min_owners[vertices] == rank,
        )
        self._heap: list[tuple] = []
        self._seq = 0
        #: Heap snapshot type: scalar entries pickle memo-free; an adapter
        #: for object visitors brings its own.
        self._heap_image = getattr(algorithm, "heap_image", ScalarHeapImage)
        #: queue entries currently living in the external spill log
        #: (tick-granularity ledger; see :meth:`sync_spill`).  Deliberately
        #: outside snapshot/restore: the ledger mirrors the spill pager,
        #: which survives a crash un-rolled-back, so restoring an epoch
        #: value would desynchronise the next ``sync_spill`` delta.
        # repro-lint: volatile -- ledger tracks the pager, which is not rolled back on restore
        self._spilled_visitors = 0
        #: race-detector tap: when the engine installs a list here, every
        #: executed visitor appends its vertex (the observable application
        #: order that the per-tick digests hash).  Engine-owned, drained
        #: every tick, hence outside snapshot/restore.
        # repro-lint: volatile -- engine-owned observability tap, drained every tick
        self.order_probe: list[int] | None = None

    @property
    def num_local_states(self) -> int:
        return len(self.states)

    # ------------------------------------------------------------------ #
    # Algorithm 1, batched
    # ------------------------------------------------------------------ #
    def push_batch(self, batch: VisitorBatch) -> None:
        """Algorithm 1, PUSH over a batch: ghost filter, then one batch
        envelope per destination run toward the masters."""
        n = len(batch)
        if n == 0:
            return
        self.counters.pushes += n
        if self.ghost_table is not None:
            keep, previsits, filtered = self.ghost_table.filter(
                batch.vertices, batch.payloads
            )
            self.counters.previsits += previsits
            self.counters.ghost_filtered += filtered
            if filtered:
                batch = batch.take(keep)
        self._send_runs(batch)

    def check_mailbox(self, batches: list[VisitorBatch]) -> None:
        """Algorithm 1, CHECK_MAILBOX: batched pre-visit of the arrivals,
        local enqueue of the winners, replica-chain forward."""
        batch = batches[0] if len(batches) == 1 else VisitorBatch.concat(batches)
        n = len(batch)
        if n == 0:
            return
        self.counters.previsits += n
        if self.state_pager is not None:
            self._meter_state_pages(batch.vertices)
        mask = self.states.previsit_batch(batch.vertices - self.state_lo, batch)
        if not mask.any():
            return
        passed = batch.take(mask) if not mask.all() else batch
        self._enqueue_local(passed)
        fwd = self.rank < self._max_owners[passed.vertices]
        if fwd.any():
            self.mailbox.send_batch(
                self.rank + 1,
                passed.take(fwd) if not fwd.all() else passed,
                self.algorithm.visitor_bytes,
            )

    def _enqueue_local(self, passed: VisitorBatch) -> None:
        # Heap keys are (priority, tie, seq), tie the vertex id under the
        # Section V-A locality ordering.  Monotonic traversals (priority ==
        # payload) store ``(payload, tie, seq, vertex, parent)``;
        # own-priority algorithms store ``(priority, tie, seq, vertex,
        # payload, *extras)`` — comparisons never reach past ``seq`` (it is
        # unique), so pop order is independent of the tail layout.
        heap = self._heap
        seq = self._seq
        loc = self.locality_ordering
        vs = passed.vertices.tolist()
        ps = passed.payloads.tolist()
        if self._prio_is_payload:
            prs = passed.parents.tolist() if passed.parents is not None else None
            if prs is None:
                for v, p in zip(vs, ps, strict=False):
                    seq += 1
                    heapq.heappush(heap, (p, v if loc else seq, seq, v, 0))
            else:
                for v, p, pr in zip(vs, ps, prs, strict=False):
                    seq += 1
                    heapq.heappush(heap, (p, v if loc else seq, seq, v, pr))
        else:
            ks = self.algorithm.batch_priorities(passed.payloads).tolist()
            if not passed.extras:
                for v, p, k in zip(vs, ps, ks, strict=False):
                    seq += 1
                    heapq.heappush(heap, (k, v if loc else seq, seq, v, p))
            elif len(passed.extras) == 1:
                es = passed.extras[0].tolist()
                for v, p, k, e in zip(vs, ps, ks, es, strict=False):
                    seq += 1
                    heapq.heappush(heap, (k, v if loc else seq, seq, v, p, e))
            else:
                cols = [e.tolist() for e in passed.extras]
                for i, (v, p, k) in enumerate(zip(vs, ps, ks, strict=False)):
                    seq += 1
                    heapq.heappush(
                        heap,
                        (k, v if loc else seq, seq, v, p, *(c[i] for c in cols)),
                    )
        self._seq = seq

    def process(self, budget: int) -> int:
        """Pop up to ``budget`` visitors and run their (vectorized) visits."""
        heap = self._heap
        if not heap:
            return 0
        pop = heapq.heappop
        algo = self.algorithm
        prio_is_payload = self._prio_is_payload
        n_extra = len(algo.batch_extra_dtypes)
        vs: list = []
        ps: list = []
        extra_cols: list[list] = [[] for _ in range(n_extra)]
        executed = 0
        while heap and executed < budget:
            entry = pop(heap)
            vs.append(entry[3])
            ps.append(entry[0] if prio_is_payload else entry[4])
            for j in range(n_extra):
                extra_cols[j].append(entry[5 + j])
            executed += 1
        self.counters.visits += executed
        if self.order_probe is not None:
            self.order_probe.extend(vs)
        batch = VisitorBatch(
            np.array(vs, dtype=VID_DTYPE),
            np.array(ps, dtype=algo.payload_dtype),
            None,
            tuple(
                np.array(col, dtype=dt)
                for col, dt in zip(extra_cols, algo.batch_extra_dtypes, strict=False)
            ),
        )
        out = algo.execute_batch(self, batch)
        if out is None or len(out) == 0:
            return executed
        self.counters.pushes += len(out)
        if self.ghost_table is not None:
            keep, previsits, filtered = self.ghost_table.filter(
                out.vertices, out.payloads
            )
            self.counters.previsits += previsits
            self.counters.ghost_filtered += filtered
            if filtered:
                out = out.take(keep)
        self._send_runs(out)
        return executed

    # ------------------------------------------------------------------ #
    def _send_runs(self, batch: VisitorBatch) -> None:
        """Hand the whole expansion stream to the mailbox, which groups it
        by next hop (stably, so per-hop message order — the only order
        packet composition and arrival order depend on — is exactly the
        per-visitor push order)."""
        if len(batch) == 0:
            return
        self.mailbox.send_stream(
            self._min_owners[batch.vertices],
            batch,
            self.algorithm.visitor_bytes,
        )

    # ------------------------------------------------------------------ #
    # Bulk helpers for ``execute_batch`` hooks
    # ------------------------------------------------------------------ #
    def adjacency_batch(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lens, targets)`` of the local adjacency rows of ``vertices``:
        ``targets`` concatenates the rows in order (row ``i`` contributing
        ``lens[i]`` entries) — the bulk twin of N ``out_edges`` calls."""
        csr = self.csr
        r = vertices - csr.vertex_base
        row_lo = csr.row_ptr[r]
        lens = csr.row_ptr[r + 1] - row_lo
        return lens, csr.cols[concat_ranges(row_lo, lens)]

    # ------------------------------------------------------------------ #
    # Page metering (NVRAM machines)
    # ------------------------------------------------------------------ #
    def _meter_state_pages(self, vertices: np.ndarray) -> None:
        """Fully-external mode: charge the state-page touches that
        ``state_of`` would make, one per arrival, in arrival order."""
        cache, state_bytes = self.state_pager
        byte_lo = (vertices - self.state_lo) * state_bytes
        first = byte_lo // cache.page_size
        lengths = (byte_lo + state_bytes - 1) // cache.page_size - first + 1
        base = self._STATE_NAMESPACE << NAMESPACE_SHIFT
        cache.access_pages(concat_ranges(first + base, lengths))

    def meter_gate_pages(self, vertices: np.ndarray, live: np.ndarray) -> None:
        """Meter the pages of one popped run, in ``VisitContext`` order:
        per visitor, its state pages (the ``state_of`` gate read), then —
        only where ``live`` — its adjacency row's pages (``out_edges``).
        No-op on in-memory machines."""
        if self.paged_csr is None and self.state_pager is None:
            return
        nv = vertices.size
        starts = np.zeros((nv, 3), dtype=np.int64)
        lengths = np.zeros((nv, 3), dtype=np.int64)
        cache = None
        if self.state_pager is not None:
            cache, state_bytes = self.state_pager
            byte_lo = (vertices - self.state_lo) * state_bytes
            first = byte_lo // cache.page_size
            starts[:, 0] = first + (self._STATE_NAMESPACE << NAMESPACE_SHIFT)
            lengths[:, 0] = (
                (byte_lo + state_bytes - 1) // cache.page_size - first + 1
            )
        if self.paged_csr is not None and live.any():
            row_starts, row_lengths = self.paged_csr.row_page_segments(vertices[live])
            starts[live, 1:] = row_starts
            lengths[live, 1:] = row_lengths
            cache = self.paged_csr.cache
        if cache is not None:
            cache.access_pages(concat_ranges(starts.ravel(), lengths.ravel()))

    def meter_row_pages(self, vertices: np.ndarray) -> None:
        """Meter only adjacency-row pages, one visitor at a time in pop
        order — the k-core visit, which expands unconditionally and never
        reads vertex state."""
        if self.paged_csr is None or vertices.size == 0:
            return
        starts, lengths = self.paged_csr.row_page_segments(vertices)
        self.paged_csr.cache.access_pages(
            concat_ranges(starts.ravel(), lengths.ravel())
        )

    def meter_closing_pages(self, vertices: np.ndarray, state_hit: np.ndarray) -> None:
        """Meter a triangle-counting popped run: every visitor touches its
        adjacency row (expansion scan or ``has_local_edge`` closing probe),
        and closing visitors that *found* the edge then touch their state
        page (the counter increment) — rows before state, per visitor, in
        pop order, exactly as the object visitor's visit."""
        if self.paged_csr is None and self.state_pager is None:
            return
        nv = vertices.size
        starts = np.zeros((nv, 3), dtype=np.int64)
        lengths = np.zeros((nv, 3), dtype=np.int64)
        cache = None
        if self.paged_csr is not None:
            row_starts, row_lengths = self.paged_csr.row_page_segments(vertices)
            starts[:, :2] = row_starts
            lengths[:, :2] = row_lengths
            cache = self.paged_csr.cache
        if self.state_pager is not None and state_hit.any():
            state_cache, state_bytes = self.state_pager
            hit_v = vertices[state_hit]
            byte_lo = (hit_v - self.state_lo) * state_bytes
            first = byte_lo // state_cache.page_size
            starts[state_hit, 2] = first + (self._STATE_NAMESPACE << NAMESPACE_SHIFT)
            lengths[state_hit, 2] = (
                (byte_lo + state_bytes - 1) // state_cache.page_size - first + 1
            )
            cache = state_cache
        if cache is not None:
            cache.access_pages(concat_ranges(starts.ravel(), lengths.ravel()))

    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Checkpointable rank state for crash recovery (copies via the
        state block's ``snapshot``; heap tuples and the visitors in them
        are never mutated, so they are shared)."""
        snap = {
            "arrays": self.states.snapshot(),
            "heap": self._heap_image(self._heap),
            "seq": self._seq,
            "counters": copy.copy(self.counters),
        }
        if self.ghost_table is not None:
            snap["ghosts"] = self.ghost_table.snapshot_state()
        return snap

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` checkpoint in place."""
        self.states.restore(snap["arrays"])
        self._heap = list(snap["heap"])
        self._seq = snap["seq"]
        self.counters = copy.copy(snap["counters"])
        if self.ghost_table is not None:
            self.ghost_table.restore_state(snap["ghosts"])

    # ------------------------------------------------------------------ #
    def locally_quiet(self) -> bool:
        """True when this rank's local visitor queue is empty."""
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
        """The spill ledger, exposed for full-scope rank images: a restored
        rank adopts the ledger alongside the pager snapshot, so the pair
        stays reconciled (the ledger is deliberately outside
        :meth:`snapshot_state` — see its note)."""
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
