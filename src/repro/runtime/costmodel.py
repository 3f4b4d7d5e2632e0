"""Machine cost models and engine configuration.

A :class:`MachineModel` maps the engine's measured events (visitor
executions, pre-visits, edge scans, packets, bytes, page-cache activity) to
simulated microseconds.  The presets are *profiles* of the machines in the
paper's evaluation — relative magnitudes chosen to reflect each system's
character (BG/P: slow cores, fast balanced torus; Hyperion: fast x86 cores,
commodity fabric, NAND Flash under the graph) — not measurements.  All
paper-vs-measured comparisons in EXPERIMENTS.md are therefore about curve
*shapes* and ratios, never absolute TEPS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.memory.device import MemoryDevice, dram, fusion_io, sata_ssd

#: Storage placement of the graph's CSR image.
STORAGE_DRAM = "dram"
STORAGE_NVRAM = "nvram"


@dataclass(frozen=True)
class MachineModel:
    """Cost parameters of one simulated cluster (all times in microseconds)."""

    name: str
    #: Fixed CPU cost of executing one visitor's ``visit``.
    visit_us: float
    #: CPU cost of one ``pre_visit`` evaluation (ghost, master or replica).
    previsit_us: float
    #: CPU + DRAM cost per adjacency entry scanned.
    edge_scan_us: float
    #: Software overhead per aggregated packet injected into the network.
    packet_overhead_us: float
    #: Wire cost per payload byte.
    byte_us: float
    #: Latency of one network hop (a tick with traffic lasts at least this).
    hop_latency_us: float
    #: Floor on tick duration (scheduler / polling quantum).
    min_tick_us: float
    #: Stall charged per logical message that hits mailbox backpressure
    #: (one credit round-trip's amortised share; bounded-mailbox runs only).
    credit_stall_us: float = 1.0
    #: Where the CSR lives: :data:`STORAGE_DRAM` or :data:`STORAGE_NVRAM`.
    storage: str = STORAGE_DRAM
    #: Backing device when ``storage == "nvram"``.
    device: MemoryDevice | None = None
    #: Page size of the user-space page cache.
    page_size: int = 4096
    #: Page-cache capacity per rank, bytes (NVRAM mode only).
    cache_bytes_per_rank: int = 64 * 1024
    #: Cost per byte of writing an epoch checkpoint (crash recovery).
    checkpoint_byte_us: float = 0.0002
    #: Cost per byte of restoring a checkpoint on a restarted rank.
    restore_byte_us: float = 0.0002
    #: Fixed cost of one rank restart (process relaunch + rejoin).
    restart_us: float = 100.0

    def __post_init__(self) -> None:
        if self.storage not in (STORAGE_DRAM, STORAGE_NVRAM):
            raise ConfigurationError(f"unknown storage {self.storage!r}")
        if self.storage == STORAGE_NVRAM and self.device is None:
            raise ConfigurationError("NVRAM storage requires a device model")
        for field_name in ("visit_us", "previsit_us", "edge_scan_us", "packet_overhead_us",
                           "byte_us", "hop_latency_us", "min_tick_us", "credit_stall_us",
                           "checkpoint_byte_us", "restore_byte_us", "restart_us"):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be >= 0")

    @property
    def cache_pages_per_rank(self) -> int:
        """Page-cache capacity in pages."""
        return max(1, self.cache_bytes_per_rank // self.page_size)

    def with_storage(self, storage: str, *, device: MemoryDevice | None = None,
                     cache_bytes_per_rank: int | None = None) -> MachineModel:
        """A copy of this model with different graph-data placement."""
        kwargs = {"storage": storage}
        if device is not None:
            kwargs["device"] = device
        if cache_bytes_per_rank is not None:
            kwargs["cache_bytes_per_rank"] = cache_bytes_per_rank
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EngineConfig:
    """Execution knobs of the simulation engine."""

    #: Max visitors a rank executes per tick (batching quantum).  Larger
    #: budgets batch more I/O and amortise per-tick latency, at the cost of
    #: coarser asynchrony.
    visitor_budget: int = 64
    #: Envelopes per aggregation buffer before an eager flush.
    aggregation_size: int = 16
    #: Run the counting quiescence detector (Algorithm 1's global_empty);
    #: when False the engine uses its omniscient oracle instead.
    use_termination_detector: bool = True
    #: Tie-break equal-priority visitors by vertex id (the Section V-A
    #: external-memory locality optimisation); False tie-breaks by arrival.
    locality_ordering: bool = True
    #: Abort the traversal after this many ticks (safety net).
    max_ticks: int = 5_000_000
    #: Cap on concurrent page-cache misses per tick (None = device limit).
    io_concurrency: int | None = None
    #: Record a per-tick timeline (queue depths, in-flight packets, work)
    #: into the traversal stats — for debugging and the timeline example.
    trace_timeline: bool = False
    #: NVRAM machines only: page *vertex state* through the cache as well
    #: (fully-external memory).  The default False is the paper's
    #: *semi-external* design — vertex state in DRAM, edges on flash —
    #: whose superiority §VIII-A argues and the ablation measures.
    page_vertex_state: bool = False
    #: Run the algorithm's native batch hooks (SoA visitor batches, array
    #: pre-visit, batched page metering) when it has them
    #: (``algorithm.supports_batch``).  False runs its object visitors
    #: through the adapter on the same rank instead — bit-identical states
    #: and traversal stats, slower wall-clock; algorithms without batch
    #: hooks always run that way.
    batch: bool = True
    #: Worker processes running the ranks.  1 (default) runs them in
    #: process; N > 1 selects the worker-pool rank executor — a persistent
    #: pool of N forked workers (capped at the rank count) whose packets,
    #: counters and spill/cache charges the one tick loop merges at a
    #: deterministic per-tick barrier in canonical rank order, so stats,
    #: result arrays, wire-level transport counters and order digests stay
    #: bit-identical to ``workers=1``.  Ticks cross the worker pipes
    #: as SoA packet frames (INTERNALS §14).  Wall-clock only; requires a
    #: platform with the ``fork`` start method (Linux).
    workers: int = 1
    #: Fault plan for the simulated fabric (``repro.comm.faults.FaultPlan``;
    #: None = lossless fabric).  Setting a plan implies reliable delivery.
    faults: object | None = None
    #: Run the reliable-delivery transport (seq/ack/retransmit/dedup) even
    #: without faults — used to measure the protocol's no-fault tax.
    reliable: bool = False
    #: Ticks between epoch checkpoints for crash recovery.  0 = automatic:
    #: 16 when the fault plan contains rank crashes, otherwise off.
    checkpoint_interval: int = 0
    #: Fabric rounds before an unacked packet is retransmitted (doubles per
    #: attempt, capped at 64 rounds).
    retransmit_timeout: int = 4
    #: Retransmission attempts before the transport declares the fabric
    #: unrecoverable.
    retransmit_max_attempts: int = 16
    #: Safety valve: abort if one tick's delivery cannot complete within
    #: this many fabric rounds.
    max_rounds_per_tick: int = 100_000
    # --- resource-pressure knobs (INTERNALS §9) ------------------------ #
    #: Per-destination (per next hop) DRAM cap on mailbox aggregation
    #: buffers, bytes.  Overflow backpressures the producer (a credit
    #: stall per message) and spills to external memory; None = unbounded.
    mailbox_cap_bytes: int | None = None
    #: Resident pending-visitor limit per rank; overflow pages through the
    #: external-memory spill log (the paper's §V-A external queue).
    #: None = fully DRAM-resident.
    queue_spill: int | None = None
    #: Storage fault plan (``repro.memory.faults.StorageFaultPlan``;
    #: None = healthy devices).
    storage_faults: object | None = None
    #: Straggler plan (``repro.runtime.pressure.StragglerPlan``;
    #: None = uniform rank speeds).
    stragglers: object | None = None
    #: Per-channel in-flight window of the reliable transport (max unacked
    #: packets per (src, dst) pair; None = unbounded).  Requires the
    #: reliable transport.
    transport_window: int | None = None
    #: Dedicated spill-pager cache capacity, pages (per rank).
    spill_cache_pages: int = 16
    # --- worker-supervision knobs (INTERNALS §12) ---------------------- #
    #: Respawn budget of the parallel executor's supervision layer: total
    #: worker-restart attempts allowed per run.  0 (default) keeps PR 6's
    #: fail-fast behaviour — any worker failure aborts the run with a
    #: ``TraversalError`` — unless a ``worker_faults`` plan is set, in
    #: which case failures degrade immediately to parent-side execution.
    #: N > 0 turns supervision on: failed workers are respawned, restored
    #: from the latest supervision epoch images and replayed back to the
    #: barrier; when the budget runs out the parent absorbs the orphaned
    #: ranks and the run completes at reduced parallelism.
    worker_restarts: int = 0
    #: Barrier deadline in host seconds: a worker that stays silent past
    #: this (scaled by the tick's arrival volume) is classified as hung
    #: and force-killed.  None = a default deadline when supervision is
    #: active, no deadline otherwise (PR 6 behaviour).
    worker_barrier_timeout: float | None = None
    #: Worker-process fault plan
    #: (``repro.comm.faults.WorkerFaultPlan``; None = healthy workers).
    #: Requires ``workers > 1``; injects real process failures (SIGKILL,
    #: hangs, mid-phase exits, fork failures) for the chaos suite.
    worker_faults: object | None = None
    # --- race-detection knobs (INTERNALS §10) -------------------------- #
    #: Record per-tick order digests (rank-by-rank counter deltas plus the
    #: visitor-application sequence) into ``SimulationEngine.tick_digests``.
    #: Pure observability: costs, states and stats are untouched.
    record_order_digests: bool = False
    #: Rank execution order within a tick — a permutation of
    #: ``range(num_ranks)``; ``None`` means natural order.  A non-natural
    #: order requires the reliable transport, whose canonical ``(src, seq)``
    #: release makes arrival order independent of send interleaving; on the
    #: plain fabric the perturbation would change delivery order and flag
    #: perfectly correct algorithms.  Used by ``repro.runtime.race``.
    rank_order: tuple[int, ...] | None = None
    # --- durable host-crash checkpoints (INTERNALS §13) ---------------- #
    #: Directory for durable on-disk epoch checkpoints (None = off).  One
    #: live run per directory; epochs are written atomically every
    #: ``durable_interval`` ticks and a killed run restarts from the
    #: newest valid epoch with ``durable_resume``.
    durable_dir: str | None = None
    #: Logical ticks between durable epochs.
    durable_interval: int = 16
    #: Committed epochs retained on disk (older ones are pruned; the
    #: newest write-verified epoch is always kept as a fallback rung).
    durable_keep: int = 2
    #: Resume from the newest valid epoch in ``durable_dir`` instead of
    #: starting fresh (an empty directory still starts fresh).
    durable_resume: bool = False
    #: Durable-storage fault plan
    #: (``repro.runtime.durability.DurableFaultPlan``; None = healthy
    #: disk).  Corrupts committed epochs post-write for the fallback
    #: ladder tests.
    durable_faults: object | None = None
    #: SIGKILL this process after the durable epoch at this tick commits
    #: (crash-restart harness hook; requires ``durable_dir``).
    kill_at_tick: int | None = None

    def __post_init__(self) -> None:
        if self.visitor_budget < 1:
            raise ConfigurationError("visitor_budget must be >= 1")
        if self.aggregation_size < 1:
            raise ConfigurationError("aggregation_size must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_ticks < 1:
            raise ConfigurationError("max_ticks must be >= 1")
        if self.checkpoint_interval < 0:
            raise ConfigurationError("checkpoint_interval must be >= 0")
        if self.checkpoint_interval > 0 and not self.reliable_active:
            raise ConfigurationError(
                "checkpoint_interval requires the reliable transport "
                "(set reliable=True or provide a fault plan)"
            )
        if self.retransmit_max_attempts < 1:
            raise ConfigurationError("retransmit_max_attempts must be >= 1")
        if self.max_rounds_per_tick < 1:
            raise ConfigurationError("max_rounds_per_tick must be >= 1")
        if self.mailbox_cap_bytes is not None and self.mailbox_cap_bytes < 1:
            raise ConfigurationError("mailbox_cap_bytes must be >= 1")
        if self.queue_spill is not None and self.queue_spill < 0:
            raise ConfigurationError("queue_spill must be >= 0")
        if self.transport_window is not None:
            if self.transport_window < 1:
                raise ConfigurationError("transport_window must be >= 1")
            if not self.reliable_active:
                raise ConfigurationError(
                    "transport_window requires the reliable transport "
                    "(set reliable=True or provide a fault plan)"
                )
        if self.spill_cache_pages < 1:
            raise ConfigurationError("spill_cache_pages must be >= 1")
        if self.worker_restarts < 0:
            raise ConfigurationError("worker_restarts must be >= 0")
        if self.worker_barrier_timeout is not None and self.worker_barrier_timeout <= 0:
            raise ConfigurationError("worker_barrier_timeout must be > 0")
        if self.worker_faults is not None and self.workers <= 1:
            raise ConfigurationError(
                "worker_faults requires workers > 1 (there is no worker "
                "pool to fail at workers=1)"
            )
        if self.durable_interval < 1:
            raise ConfigurationError("durable_interval must be >= 1")
        if self.durable_keep < 1:
            raise ConfigurationError("durable_keep must be >= 1")
        if self.durable_dir is None:
            for name in ("durable_resume", "durable_faults", "kill_at_tick"):
                if getattr(self, name):
                    raise ConfigurationError(
                        f"{name} requires durable_dir (set --durable DIR)"
                    )
        if self.kill_at_tick is not None and self.kill_at_tick < 1:
            raise ConfigurationError("kill_at_tick must be >= 1")
        if self.rank_order is not None:
            order = tuple(self.rank_order)
            if sorted(order) != list(range(len(order))):
                raise ConfigurationError(
                    f"rank_order must be a permutation of range(p), got {order!r}"
                )
            if order != tuple(range(len(order))) and not self.reliable_active:
                raise ConfigurationError(
                    "a perturbed rank_order requires the reliable transport "
                    "(its canonical (src, seq) release keeps arrival order "
                    "schedule-invariant; set reliable=True)"
                )

    # ------------------------------------------------------------------ #
    @property
    def reliable_active(self) -> bool:
        """Whether this run uses the reliable transport (explicitly, or
        implied by a fault plan)."""
        return self.reliable or self.faults is not None

    @property
    def spill_active(self) -> bool:
        """Whether this run needs a per-rank external-memory spill pager
        (a bounded mailbox or a resident-limited visitor queue)."""
        return self.mailbox_cap_bytes is not None or self.queue_spill is not None

    @property
    def supervision_active(self) -> bool:
        """Whether the parallel executor runs with self-healing on: a
        restart budget, or an injection plan to survive (a plan with
        ``worker_restarts=0`` degrades on the first failure instead of
        respawning — the budget-exhausted path, just immediately)."""
        return self.worker_restarts > 0 or self.worker_faults is not None

    @property
    def checkpoint_every(self) -> int:
        """Effective checkpoint interval in ticks (0 = no checkpointing)."""
        if self.checkpoint_interval > 0:
            return self.checkpoint_interval
        if self.faults is not None and getattr(self.faults, "has_crashes", False):
            return 16
        return 0


# ---------------------------------------------------------------------- #
# Machine profiles
# ---------------------------------------------------------------------- #
def laptop() -> MachineModel:
    """A fast, flat, in-memory profile for tests and quickstarts."""
    return MachineModel(
        name="laptop",
        visit_us=0.2,
        previsit_us=0.05,
        edge_scan_us=0.01,
        packet_overhead_us=1.0,
        byte_us=0.001,
        hop_latency_us=1.0,
        min_tick_us=0.5,
    )


def bgp_intrepid() -> MachineModel:
    """IBM BG/P Intrepid profile: slow PowerPC 450 cores, low-latency
    balanced 3D torus (Figures 5, 6, 7, 10, 11, 12, 13)."""
    return MachineModel(
        name="bgp-intrepid",
        visit_us=1.2,
        previsit_us=0.3,
        edge_scan_us=0.08,
        packet_overhead_us=3.0,
        byte_us=0.0026,  # ~375 MB/s per link
        hop_latency_us=2.5,
        min_tick_us=1.0,
    )


def hyperion_dit(
    storage: str = STORAGE_DRAM, *, cache_bytes_per_rank: int = 256 * 1024,
    page_size: int = 4096,
) -> MachineModel:
    """Hyperion-DIT profile: 8-core x86 nodes, 24 GB DRAM, node-local
    Fusion-io NAND Flash (Figures 8, 9; Table II rows 1-2)."""
    return MachineModel(
        name=f"hyperion-dit-{storage}",
        visit_us=0.35,
        previsit_us=0.08,
        edge_scan_us=0.02,
        packet_overhead_us=2.0,
        byte_us=0.001,  # ~1 GB/s IB-ish per rank share
        hop_latency_us=3.0,
        min_tick_us=1.0,
        storage=storage,
        device=fusion_io() if storage == STORAGE_NVRAM else None,
        page_size=page_size,
        cache_bytes_per_rank=cache_bytes_per_rank,
    )


def trestles(*, cache_bytes_per_rank: int = 256 * 1024, page_size: int = 4096) -> MachineModel:
    """SDSC Trestles profile: commodity SATA SSDs (Table II row 3)."""
    return MachineModel(
        name="trestles",
        visit_us=0.35,
        previsit_us=0.08,
        edge_scan_us=0.02,
        packet_overhead_us=2.5,
        byte_us=0.0015,
        hop_latency_us=3.5,
        min_tick_us=1.0,
        storage=STORAGE_NVRAM,
        device=sata_ssd(),
        page_size=page_size,
        cache_bytes_per_rank=cache_bytes_per_rank,
    )


def leviathan(*, cache_bytes_per_rank: int = 1024 * 1024, page_size: int = 4096) -> MachineModel:
    """LLNL Leviathan profile: one fat node, 40 cores, 12 TB Fusion-io; no
    inter-node network, so hop latency is shared-memory cheap — but every
    rank contends for the *same* flash cards, so the per-rank device share
    has a fraction of a dedicated card's bandwidth and queue depth
    (Table II row 4: single-node trails the distributed NVRAM systems)."""
    shared_fusion_io = MemoryDevice(
        name="fusion-io-shared",
        read_latency_us=60.0,
        bandwidth_bytes_per_us=150.0,  # one card's 1.2 GB/s split 8 ways
        io_parallelism=6,
    )
    return MachineModel(
        name="leviathan",
        visit_us=0.35,
        previsit_us=0.08,
        edge_scan_us=0.02,
        packet_overhead_us=0.3,
        byte_us=0.0002,
        hop_latency_us=0.3,
        min_tick_us=0.5,
        storage=STORAGE_NVRAM,
        device=shared_fusion_io,
        page_size=page_size,
        cache_bytes_per_rank=cache_bytes_per_rank,
    )


def dram_reference() -> MemoryDevice:
    """Convenience re-export of the DRAM device model."""
    return dram()
