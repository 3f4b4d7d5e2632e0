"""User-space page cache (Section II-B).

"We implemented a custom page cache that resides in user space and provides
a POSIX I/O interface.  Our custom page cache was designed to support a
high level of concurrent I/O requests, both for cache hits and misses, and
interfaces with NVRAM using direct I/O."

The simulated cache is an exact-LRU page map in front of a
:class:`~repro.memory.device.MemoryDevice`.  Accesses are recorded per
*tick epoch*; misses accumulated within one epoch are assumed issued
concurrently (the asynchronous visitor queue naturally batches them), so
the engine charges ``device.batch_read_us`` over the whole batch.  Hits
cost a DRAM page touch.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import MemorySystemError
from repro.memory.device import MemoryDevice

#: DRAM cost of touching one cached page, microseconds.
HIT_COST_US = 0.05

#: Bit position separating the namespace tag from the page number in a
#: page id (namespaces are disjoint 16 TiB windows).
NAMESPACE_SHIFT = 44


class PageCache:
    """Exact-LRU user-space page cache for one rank's graph data."""

    def __init__(self, *, capacity_pages: int, page_size: int, device: MemoryDevice) -> None:
        if capacity_pages < 1:
            raise MemorySystemError(f"capacity_pages must be >= 1, got {capacity_pages}")
        if page_size < 8:
            raise MemorySystemError(f"page_size must be >= 8 bytes, got {page_size}")
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self.device = device
        self._lru: OrderedDict[int, None] = OrderedDict()
        # cumulative statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # per-epoch (per-tick) counters, drained by the engine
        self.epoch_hits = 0
        self.epoch_misses = 0
        #: Optional :class:`~repro.memory.faults.StorageFaultInjector`;
        #: when set, each drained epoch's miss batch is inspected for
        #: read errors / spikes / torn pages and the extra time charged.
        self.fault_injector = None
        #: The last drained epoch's :class:`~repro.memory.faults.
        #: EpochStorageFaults` (None when fault-free) — read by the engine
        #: to surface fault counters and escalate permanent failures.
        self.last_epoch_faults = None

    # ------------------------------------------------------------------ #
    def access(self, page_id: int) -> bool:
        """Touch one page; returns True on hit.

        A miss installs the page (direct I/O read), evicting the LRU page
        when full — the paper's cache bypasses the OS page cache
        (O_DIRECT), so there is no second-level cache behind this one.
        """
        if page_id in self._lru:
            self._lru.move_to_end(page_id)
            self.hits += 1
            self.epoch_hits += 1
            return True
        self.misses += 1
        self.epoch_misses += 1
        if len(self._lru) >= self.capacity_pages:
            self._lru.popitem(last=False)
            self.evictions += 1
        self._lru[page_id] = None
        return False

    def access_range(self, byte_lo: int, byte_hi: int, *, namespace: int = 0) -> None:
        """Touch every page overlapping ``[byte_lo, byte_hi)``.

        ``namespace`` separates address spaces of distinct backing arrays
        (e.g. a CSR's row-pointer array vs its column array) sharing one
        cache.
        """
        if byte_hi <= byte_lo:
            return
        first = byte_lo // self.page_size
        last = (byte_hi - 1) // self.page_size
        base = namespace << NAMESPACE_SHIFT
        for page in range(first, last + 1):
            self.access(base | page)

    def access_pages(self, page_ids: np.ndarray) -> None:
        """Touch a batch of (namespaced) page ids in order.

        Exactly equivalent to calling :meth:`access` once per id, in
        sequence — same hit/miss/eviction counts, same final LRU order —
        but the common no-eviction case is handled in bulk: duplicates are
        folded with :func:`np.unique`, hit/miss totals are added in one
        step, and recency is replayed only once per distinct page (final
        recency among touched pages is their last-occurrence order, which
        is what sequential touching produces).  Under eviction pressure
        (the batch could displace one of its own pages mid-stream) the
        exact per-page walk runs instead.
        """
        n = int(page_ids.size)
        if n == 0:
            return
        lru = self._lru
        uniq = np.unique(page_ids)
        new = [p for p in uniq.tolist() if p not in lru]
        if len(lru) + len(new) <= self.capacity_pages:
            misses = len(new)
            hits = n - misses
            self.hits += hits
            self.epoch_hits += hits
            self.misses += misses
            self.epoch_misses += misses
            if uniq.size == n:  # already in last-occurrence order
                last_order = page_ids.tolist()
            else:
                rev = page_ids[::-1]
                _, first_in_rev = np.unique(rev, return_index=True)
                last_order = rev[np.sort(first_in_rev)][::-1].tolist()
            move = lru.move_to_end
            for p in last_order:
                if p in lru:
                    move(p)
                else:
                    lru[p] = None
            return
        access = self.access
        for p in page_ids.tolist():
            access(p)

    # ------------------------------------------------------------------ #
    def drain_epoch_us(self, *, concurrency: int | None = None) -> float:
        """Charge and reset the current epoch's accesses.

        Returns the simulated time for this epoch: hits at DRAM page cost,
        misses as one concurrent device batch.  With a
        :attr:`fault_injector` attached, the miss batch is additionally
        inspected for storage faults (retries with backoff, latency
        spikes, torn-page re-reads, degraded bandwidth) whose time is
        charged on top; the tally lands in :attr:`last_epoch_faults`.
        """
        misses = self.epoch_misses
        cost = self.epoch_hits * HIT_COST_US + self.device.batch_read_us(
            misses, self.page_size, concurrency=concurrency
        )
        self.last_epoch_faults = None
        if self.fault_injector is not None and misses:
            faults = self.fault_injector.inspect_epoch(
                misses, self.device, self.page_size
            )
            cost += faults.extra_us
            self.last_epoch_faults = faults
        self.epoch_hits = 0
        self.epoch_misses = 0
        return cost

    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Full cache state for full-scope rank images (supervision and
        durable epochs): the LRU order (oldest first) plus every
        counter, so a restored cache resumes with bit-identical
        hit/miss/eviction evolution.  Taken at tick barriers, where the
        epoch counters are freshly drained."""
        return {
            "lru": list(self._lru),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "epoch_hits": self.epoch_hits,
            "epoch_misses": self.epoch_misses,
        }

    def restore_state(self, snap: dict) -> None:
        """Adopt a :meth:`snapshot_state` image in place."""
        self._lru = OrderedDict((page, None) for page in snap["lru"])
        self.hits = snap["hits"]
        self.misses = snap["misses"]
        self.evictions = snap["evictions"]
        self.epoch_hits = snap["epoch_hits"]
        self.epoch_misses = snap["epoch_misses"]
        self.last_epoch_faults = None

    @property
    def resident_pages(self) -> int:
        """Pages currently cached."""
        return len(self._lru)

    def hit_rate(self) -> float:
        """Cumulative hit rate (1.0 when no accesses yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0
