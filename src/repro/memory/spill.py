"""External-memory spill store for overflow state (Section V-A).

The paper's visitor queue "may require substantial memory for its
operation ... the queue itself may be stored in external memory".  A
:class:`SpillPager` models that path for one rank: an append-only,
page-aligned log on the rank's storage device, fronted by a small
dedicated :class:`~repro.memory.page_cache.PageCache` for read-back.
Two namespaces share the log address space: mailbox aggregation-buffer
overflow (bytes beyond the bounded mailbox's DRAM cap) and visitor-queue
overflow (pending visitors beyond the configured resident limit).

The pager is pure cost accounting: spilled bytes are charged device
*write* time when they leave DRAM and page-cache *read* time when they
return, all folded into the owning rank's per-tick cost.  It deliberately
uses its own cache instance so a pressured run's CSR cache hit/miss
counters stay bit-identical to the unpressured baseline.
"""

from __future__ import annotations

from math import ceil

from repro.errors import MemorySystemError
from repro.memory.device import MemoryDevice
from repro.memory.page_cache import PageCache

#: Spill-log namespaces (disjoint windows of one pager's address space).
NS_MAILBOX = 0
NS_QUEUE = 1

#: Simulated bytes of one spilled queue entry beyond the visitor payload
#: (the heap key: priority, tie, sequence number).
QUEUE_ENTRY_OVERHEAD_BYTES = 24


class SpillPager:
    """One rank's append-only external-memory spill log."""

    def __init__(self, *, page_size: int, device: MemoryDevice,
                 cache_pages: int = 16) -> None:
        if page_size < 8:
            raise MemorySystemError(f"page_size must be >= 8, got {page_size}")
        self.page_size = page_size
        self.device = device
        self.cache = PageCache(
            capacity_pages=cache_pages, page_size=page_size, device=device
        )
        self._write_cursor = [0, 0]
        self._read_cursor = [0, 0]
        # cumulative totals (surfaced via TraversalStats)
        self.bytes_spilled = 0
        self.bytes_unspilled = 0
        # per-epoch write accumulator (reads are metered by the cache)
        self._epoch_write_bytes = 0

    # ------------------------------------------------------------------ #
    def spill(self, namespace: int, nbytes: int) -> None:
        """Append ``nbytes`` to the namespace's log (device write)."""
        if nbytes <= 0:
            return
        self._write_cursor[namespace] += nbytes
        self._epoch_write_bytes += nbytes
        self.bytes_spilled += nbytes

    def unspill(self, namespace: int, nbytes: int) -> None:
        """Read the oldest ``nbytes`` back from the namespace's log.

        The log is consumed FIFO (a circular spill file); reads go through
        the pager's cache, so a read-back that lands on still-resident
        pages is a cheap DRAM touch.
        """
        if nbytes <= 0:
            return
        lo = self._read_cursor[namespace]
        hi = lo + nbytes
        if hi > self._write_cursor[namespace]:
            raise MemorySystemError(
                f"spill namespace {namespace}: reading past the log end "
                f"({hi} > {self._write_cursor[namespace]})"
            )
        self.cache.access_range(lo, hi, namespace=namespace)
        self._read_cursor[namespace] = hi
        self.bytes_unspilled += nbytes

    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Full pager state for full-scope rank images (supervision and
        durable epochs): log cursors, byte totals and the read-back
        cache, so a restored pager's spill charges evolve bit-identically.
        Taken at tick barriers, where the epoch write accumulator is
        freshly drained."""
        return {
            "write_cursor": list(self._write_cursor),
            "read_cursor": list(self._read_cursor),
            "bytes_spilled": self.bytes_spilled,
            "bytes_unspilled": self.bytes_unspilled,
            "epoch_write_bytes": self._epoch_write_bytes,
            "cache": self.cache.snapshot_state(),
        }

    def restore_state(self, snap: dict) -> None:
        """Adopt a :meth:`snapshot_state` image in place."""
        self._write_cursor = list(snap["write_cursor"])
        self._read_cursor = list(snap["read_cursor"])
        self.bytes_spilled = snap["bytes_spilled"]
        self.bytes_unspilled = snap["bytes_unspilled"]
        self._epoch_write_bytes = snap["epoch_write_bytes"]
        self.cache.restore_state(snap["cache"])

    # ------------------------------------------------------------------ #
    def drain_epoch_us(self, *, concurrency: int | None = None) -> float:
        """Charge and reset this epoch's spill I/O (writes + read-backs)."""
        cost = 0.0
        if self._epoch_write_bytes:
            pages = ceil(self._epoch_write_bytes / self.page_size)
            cost += self.device.batch_write_us(
                pages, self.page_size, concurrency=concurrency
            )
            self._epoch_write_bytes = 0
        cost += self.cache.drain_epoch_us(concurrency=concurrency)
        return cost
