"""Traversal statistics: per-rank counters and the aggregate trace.

Every quantity the cost model charges is first *measured* here; the
benchmark harness reports both the simulated time and the raw counts, so a
reader can always decompose a TEPS number into its mechanical causes
(visitors, messages, cache misses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RankCounters:
    """Cumulative event counts for one simulated rank."""

    visits: int = 0
    previsits: int = 0
    pushes: int = 0
    ghost_filtered: int = 0
    edges_scanned: int = 0
    visitors_sent: int = 0
    visitors_received: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0
    envelopes_forwarded: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    # resource pressure (zero when unconstrained)
    #: logical messages that hit mailbox backpressure on this rank.
    bp_stalls: int = 0
    #: mailbox overflow bytes spilled to external memory.
    bp_spilled_bytes: int = 0
    #: pending visitors paged out of / back into the external queue.
    queue_spilled: int = 0
    queue_unspilled: int = 0
    busy_us: float = 0.0


@dataclass(frozen=True)
class TickSample:
    """One entry of the optional per-tick timeline."""

    tick: int
    time_us: float  # cumulative simulated time at tick end
    queued_visitors: int  # sum of local queue depths across ranks
    packets_in_flight: int  # logical packets: a packet train counts its count
    visits_this_tick: int
    # Reliable-delivery / fault-injection activity (zero on plain fabric).
    retransmits: int = 0
    faults: int = 0  # drops + duplications + delays injected this tick
    recoveries: int = 0  # rank restarts completed this tick
    # Memory-pressure activity (zero when unconstrained).
    cache_hits: int = 0  # page-cache hits across ranks this tick
    cache_misses: int = 0
    bp_stalls: int = 0  # messages backpressured this tick


@dataclass
class TraversalStats:
    """Aggregate outcome of one simulated traversal."""

    algorithm: str
    machine: str
    topology: str
    num_ranks: int
    num_vertices: int
    num_edges: int
    ticks: int = 0
    time_us: float = 0.0
    termination_waves: int = 0
    used_detector: bool = True
    ranks: list[RankCounters] = field(default_factory=list)
    #: Per-tick samples, populated when ``EngineConfig.trace_timeline``.
    timeline: list[TickSample] = field(default_factory=list)

    # --- reliable delivery / fault injection (zero on plain fabric) ----- #
    #: Seed of the active :class:`~repro.comm.faults.FaultPlan` (None when
    #: the run used the plain lossless fabric).
    fault_seed: int | None = None
    #: Wire transmissions the fault injector dropped / duplicated / delayed.
    packets_dropped: int = 0
    packets_duplicated: int = 0
    packets_delayed: int = 0
    #: Arriving copies discarded by receiver-side dedup.
    duplicates_discarded: int = 0
    #: Timeout-driven retransmissions (packets / wire bytes incl. headers).
    retransmitted_packets: int = 0
    retransmitted_bytes: int = 0
    #: Standalone cumulative-ack packets (piggybacked acks are free).
    ack_packets: int = 0
    #: Reliability wire tax: sequence/ack headers plus standalone acks.
    reliable_overhead_bytes: int = 0
    #: Total fabric rounds the transport spun (1 per tick when fault-free).
    transport_rounds: int = 0
    # --- checkpoint / crash recovery ------------------------------------ #
    crashes: int = 0
    recoveries: int = 0
    #: Logical ticks re-executed from delivery logs during restarts.
    replayed_ticks: int = 0
    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0
    #: Simulated time charged for restarts (restore + replay compute).
    recovery_us: float = 0.0

    # --- resource pressure (zero when unconstrained; INTERNALS §9) ------ #
    #: Simulated time charged for credit-stall waits under backpressure.
    backpressure_stall_us: float = 0.0
    #: Simulated time charged for spill-log device I/O (writes + reads).
    spill_io_us: float = 0.0
    #: Reliable-transport injections deferred by the per-channel window.
    transport_window_stalls: int = 0
    #: Seed of the active storage fault plan (None = healthy devices).
    storage_fault_seed: int | None = None
    #: Storage fault outcomes: retried reads, latency spikes, torn pages
    #: (checksum re-reads) and permanent failures.
    storage_retries: int = 0
    storage_spikes: int = 0
    torn_pages: int = 0
    storage_errors: int = 0
    #: Pages re-fetched through the recovery manager after permanent
    #: device failures.
    storage_recoveries: int = 0
    #: Simulated time the storage faults added (retries/backoff/spikes/
    #: re-reads/degraded bandwidth).
    storage_fault_us: float = 0.0
    #: Largest per-rank slowdown of the active straggler plan (1.0 = none).
    max_slowdown: float = 1.0
    #: Simulated time lost to straggler skew (after rebalance).
    straggler_stall_us: float = 0.0
    #: Simulated time work stealing clawed back from the skewed critical
    #: path.
    rebalanced_us: float = 0.0

    # --- worker supervision (zero without a pool; INTERNALS §12) -------- #
    #: Worker-process failures the supervisor detected (all kinds).
    worker_crashes: int = 0
    #: The subset classified as hangs (barrier deadline, force-killed).
    worker_hangs: int = 0
    #: Successful pool re-forks after a rollback to the last epoch.
    worker_respawns: int = 0
    #: Logical ticks re-executed after rollbacks, each failed tick
    #: included (host-side work, simulation-invisible).
    worker_replayed_ticks: int = 0
    #: ``p`` once the run has fallen back to the in-process executor
    #: after a restart budget ran out (graceful degradation), else 0.
    degraded_ranks: int = 0
    #: Supervision cost priced through the machine model (per rollback:
    #: restart, the epoch's image bytes, the compute re-executed).  Deliberately *not* added to
    #: ``time_us``: the simulated cluster never failed, only the host
    #: processes did, so the simulated clock stays bit-identical to the
    #: unfailed run and this field carries the what-if price tag.
    supervision_us: float = 0.0

    # --- durable host-crash checkpoints (zero without --durable) -------- #
    #: Durable epochs committed to disk (tmp + fsync + rename).
    durable_checkpoints: int = 0
    #: Simulated checkpoint image bytes (the estimator the cost model
    #: charges, *not* host pickle sizes — those are ``durable_disk_bytes``).
    durable_bytes: int = 0
    #: Simulated time charged for durable checkpoint I/O through the
    #: machine model's ``checkpoint_byte_us`` rate.  Folded into the
    #: per-tick cost vector, so it *is* part of ``time_us`` and must stay
    #: bit-identical between an uninterrupted run and a resumed one.
    # repro-lint: disable=RPR008 -- rides time_us by design (charged to the simulated clock), so it must stay bit-identity-checked, i.e. OUT of the DURABILITY_STATS_FIELDS exclusion tuple
    durable_io_us: float = 0.0
    #: Host bytes actually written to the durable directory (pickle +
    #: manifest sizes; host-dependent, excluded from bit-identity).
    durable_disk_bytes: int = 0
    #: Epochs that failed write-time read-back verification (injected or
    #: real corruption detected while the run was still alive).
    durable_corrupt_epochs: int = 0
    #: Corrupt/incomplete epochs skipped while resuming (fallback ladder).
    durable_fallbacks: int = 0
    #: Times this stats object was restored from a durable epoch.
    durable_resumes: int = 0
    #: Tick of the most recent successful durable resume (-1 = never).
    durable_resume_tick: int = -1
    #: blake2b over the run's concatenated per-tick order digests (set at
    #: finalize when ``record_order_digests``; None otherwise).  One field
    #: that certifies the whole execution schedule — the crash-restart
    #: harness compares it across kill/resume boundaries.
    order_digest: str | None = None

    # ------------------------------------------------------------------ #
    def _sum(self, attr: str):
        return sum(getattr(r, attr) for r in self.ranks)

    @property
    def total_visits(self) -> int:
        return self._sum("visits")

    @property
    def total_previsits(self) -> int:
        return self._sum("previsits")

    @property
    def total_pushes(self) -> int:
        return self._sum("pushes")

    @property
    def total_ghost_filtered(self) -> int:
        return self._sum("ghost_filtered")

    @property
    def total_edges_scanned(self) -> int:
        return self._sum("edges_scanned")

    @property
    def total_visitors_sent(self) -> int:
        return self._sum("visitors_sent")

    @property
    def total_packets(self) -> int:
        return self._sum("packets_sent")

    @property
    def total_bytes(self) -> int:
        return self._sum("bytes_sent")

    @property
    def total_cache_hits(self) -> int:
        return self._sum("cache_hits")

    @property
    def total_cache_misses(self) -> int:
        return self._sum("cache_misses")

    @property
    def total_cache_evictions(self) -> int:
        return self._sum("cache_evictions")

    @property
    def total_bp_stalls(self) -> int:
        return self._sum("bp_stalls")

    @property
    def total_bp_spilled_bytes(self) -> int:
        return self._sum("bp_spilled_bytes")

    @property
    def total_queue_spilled(self) -> int:
        return self._sum("queue_spilled")

    @property
    def time_seconds(self) -> float:
        return self.time_us * 1e-6

    def cache_hit_rate(self) -> float:
        """Cumulative page-cache hit rate across ranks (1.0 for DRAM runs)."""
        total = self.total_cache_hits + self.total_cache_misses
        return self.total_cache_hits / total if total else 1.0

    def visit_imbalance(self) -> float:
        """Max/mean of per-rank visitor executions — the hotspot metric
        ghosts exist to reduce."""
        counts = np.array([r.visits for r in self.ranks], dtype=np.float64)
        mean = counts.mean() if counts.size else 0.0
        return float(counts.max() / mean) if mean > 0 else 1.0

    def summary(self) -> str:
        """Single-line human-readable digest (examples / harness output)."""
        line = (
            f"{self.algorithm} on {self.machine}/{self.topology} p={self.num_ranks}: "
            f"{self.time_us / 1e6:.4f}s sim, {self.ticks} ticks, "
            f"{self.total_visits} visits, {self.total_packets} packets, "
            f"hit-rate {self.cache_hit_rate():.3f}"
        )
        if self.fault_seed is not None:
            line += (
                f" | faults seed={self.fault_seed}: "
                f"{self.packets_dropped} dropped, "
                f"{self.retransmitted_packets} retransmits, "
                f"{self.recoveries} recoveries"
            )
        if self.total_bp_stalls or self.total_queue_spilled:
            line += (
                f" | pressure: {self.total_bp_stalls} bp-stalls, "
                f"{self.total_bp_spilled_bytes} bytes spilled, "
                f"{self.total_queue_spilled} visitors paged out"
            )
        if self.storage_fault_seed is not None:
            line += (
                f" | storage seed={self.storage_fault_seed}: "
                f"{self.storage_retries} retries, {self.torn_pages} torn, "
                f"{self.storage_errors} failures"
            )
        if self.max_slowdown > 1.0:
            line += (
                f" | stragglers x{self.max_slowdown:g}: "
                f"{self.straggler_stall_us / 1e6:.4f}s stalled"
            )
        if self.worker_crashes or self.degraded_ranks:
            line += (
                f" | supervision: {self.worker_crashes} worker failures "
                f"({self.worker_hangs} hung), {self.worker_respawns} re-forks, "
                f"{self.worker_replayed_ticks} ticks re-executed, "
                f"{self.degraded_ranks} ranks degraded"
            )
        if self.durable_checkpoints or self.durable_resumes:
            line += (
                f" | durable: {self.durable_checkpoints} epochs "
                f"({self.durable_bytes} bytes), "
                f"{self.durable_resumes} resumes, "
                f"{self.durable_fallbacks} fallbacks"
            )
        return line


#: ``TraversalStats`` fields describing the supervision layer's own
#: activity.  These are the *only* fields allowed to differ between a
#: worker-chaos run and its unfailed baseline — every other counter (and
#: the simulated clock) is covered by the bit-identity contract, so the
#: chaos suite compares full stats minus exactly this set.
SUPERVISION_STATS_FIELDS = (
    "worker_crashes",
    "worker_hangs",
    "worker_respawns",
    "worker_replayed_ticks",
    "degraded_ranks",
    "supervision_us",
)

#: ``TraversalStats`` fields describing the durability layer's own
#: activity.  A resumed run legitimately differs from an uninterrupted one
#: here (it restored at least once, may have skipped corrupt epochs, and
#: host pickle sizes are machine-dependent) — everything *outside* this
#: set, including ``durable_io_us`` inside ``time_us``, stays under the
#: bit-identity contract and the crash-restart gate compares it.
DURABILITY_STATS_FIELDS = (
    "durable_checkpoints",
    "durable_bytes",
    "durable_disk_bytes",
    "durable_corrupt_epochs",
    "durable_fallbacks",
    "durable_resumes",
    "durable_resume_tick",
)
