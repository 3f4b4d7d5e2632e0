"""The discrete-event simulation engine.

Executes the *real* Algorithm-1 code (push / check_mailbox / local priority
queues / replica forwarding / counting quiescence detection) on ``p``
simulated ranks, advancing a simulated clock.

One **tick** is the engine's scheduling quantum: every rank drains its
arrived packets, executes up to ``visitor_budget`` visitors, and flushes
its aggregation buffers; packets flushed in tick ``t`` arrive at their next
hop in tick ``t + 1``.  Tick duration is::

    max( per-rank cost this tick ...,  min_tick,  hop latency if traffic )

i.e. the **critical path**: a rank hammered by a hub hotspot, or stalled on
page-cache misses, stretches the tick for everyone — which is precisely how
imbalance and hotspots cost wall-clock time on a real machine, and what
makes the paper's mitigations (edge list partitioning, ghosts, routing,
locality ordering) show up in simulated TEPS.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import signal
import struct

import numpy as np

from repro.comm.mailbox import Mailbox
from repro.comm.message import KIND_CONTROL, KIND_VISITOR
from repro.comm.network import Network
from repro.comm.reliable import ReliableTransport
from repro.comm.routing import Topology, make_topology
from repro.comm.termination import LocalSnapshot, QuiescenceDetector
from repro.core.batch import GhostArrayTable
from repro.core.batch_queue import BatchVisitorQueueRank
from repro.core.object_adapter import ObjectAdapter
from repro.core.visitor import ROLE_GHOST, AsyncAlgorithm
from repro.errors import (
    ConfigurationError,
    MemorySystemError,
    TerminationError,
    TraversalError,
)
from repro.graph.distributed import DistributedGraph
from repro.memory.backing import PagedCSR
from repro.memory.device import dram
from repro.memory.faults import StorageFaultInjector
from repro.memory.page_cache import PageCache
from repro.memory.spill import SpillPager
from repro.runtime import rank_image
from repro.runtime.costmodel import STORAGE_NVRAM, EngineConfig, MachineModel
from repro.runtime.durability import DurabilityManager
from repro.runtime.parallel import (
    PoolRanks,
    WorkerCrash,
    WorkerPool,
    finalize_ranks,
)
from repro.runtime.pressure import StragglerClock
from repro.runtime.recovery import RecoveryManager, estimate_checkpoint_bytes
from repro.runtime.trace import TickSample, TraversalStats

#: Object hooks and the batch twins that replace them on the native path.
_BATCH_TWINS = (
    ("initial_visitors", "initial_batch"),
    ("make_state", "make_state_arrays"),
    ("finalize", "finalize_batch"),
)


def _check_batch_twins(algorithm: AsyncAlgorithm) -> None:
    """Refuse an algorithm whose class overrides an object hook below the
    classes that define its batch twin and ``supports_batch``: the native
    batch hooks would run and silently ignore the override."""
    mro = type(algorithm).__mro__

    def owner(name: str) -> int:
        return next((i for i, cls in enumerate(mro) if name in vars(cls)), len(mro))

    for obj_hook, batch_hook in _BATCH_TWINS:
        depth = owner(obj_hook)
        if depth < owner(batch_hook) and depth < owner("supports_batch"):
            raise ConfigurationError(
                f"{mro[depth].__name__} overrides {obj_hook} but not "
                f"{batch_hook}, and the native batch hooks would ignore the "
                f"override; set supports_batch = False to run its object "
                f"visitors"
            )


class SimulationEngine:
    """Run one asynchronous traversal on a simulated distributed machine."""

    def __init__(
        self,
        graph: DistributedGraph,
        algorithm: AsyncAlgorithm,
        machine: MachineModel,
        *,
        topology: Topology | str = "direct",
        config: EngineConfig | None = None,
        page_caches: list[PageCache] | None = None,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm
        self.machine = machine
        self.config = config or EngineConfig()
        p = graph.num_partitions
        self.topology = (
            topology if isinstance(topology, Topology) else make_topology(topology, p)
        )
        if self.topology.num_ranks != p:
            raise TraversalError(
                f"topology covers {self.topology.num_ranks} ranks, graph has {p}"
            )

        #: Effective worker-process count (capped at the rank count); > 1
        #: makes :meth:`run`'s tick loop drive the worker-pool rank
        #: executor (:class:`~repro.runtime.parallel.PoolRanks`).
        self.workers = min(self.config.workers, p)
        #: Barrier IPC telemetry from the worker pool (frame / pickled-byte
        #: / barrier-wait counters); stays None at ``workers=1``.
        self.ipc_counters: dict | None = None
        if self.workers > 1 and page_caches is not None:
            raise ConfigurationError(
                "caller-provided page_caches cannot stay warm across worker "
                "processes; run warm-cache traversals with workers=1"
            )

        #: Plain lossless fabric, or the reliable transport when a fault
        #: plan or ``reliable=True`` is configured (same interface; the
        #: mailboxes read only its ``packet_trains`` class property).
        self.reliable_mode = self.config.reliable_active
        if self.reliable_mode:
            self.network: Network | ReliableTransport = ReliableTransport(
                p,
                self.config.faults,
                retransmit_timeout=self.config.retransmit_timeout,
                max_attempts=self.config.retransmit_max_attempts,
                max_rounds_per_tick=self.config.max_rounds_per_tick,
                channel_window=self.config.transport_window,
            )
        else:
            self.network = Network(p)

        #: Per-rank external-memory spill logs, present only under resource
        #: pressure (bounded mailboxes or a visitor-queue resident limit).
        #: Each pager owns its own small page cache so the CSR cache's
        #: hit/miss counters stay bit-identical to an unpressured run.
        self.spills: list[SpillPager | None] = [None] * p
        if self.config.spill_active:
            spill_device = machine.device if machine.device is not None else dram()
            self.spills = [
                SpillPager(
                    page_size=machine.page_size,
                    device=spill_device,
                    cache_pages=self.config.spill_cache_pages,
                )
                for _ in range(p)
            ]
        self.mailboxes = [
            Mailbox(
                r,
                self.topology,
                self.network,
                aggregation_size=self.config.aggregation_size,
                capacity_bytes=self.config.mailbox_cap_bytes,
                spill=self.spills[r],
            )
            for r in range(p)
        ]

        self.caches: list[PageCache | None] = [None] * p
        paged: list[PagedCSR | None] = [None] * p
        if machine.storage == STORAGE_NVRAM:
            if page_caches is not None and len(page_caches) != p:
                raise TraversalError(
                    f"page_caches must have one cache per rank ({p}), got {len(page_caches)}"
                )
            for r in range(p):
                # Caller-provided caches stay warm across traversals,
                # modelling Graph500's repeated BFS runs over a persistent
                # user-space page cache.
                cache = page_caches[r] if page_caches is not None else PageCache(
                    capacity_pages=machine.cache_pages_per_rank,
                    page_size=machine.page_size,
                    device=machine.device,
                )
                self.caches[r] = cache
                paged[r] = PagedCSR(graph.partitions[r].csr, cache)

        #: Storage fault injection: one deterministic per-rank stream shared
        #: by the rank's CSR cache and spill cache (drained CSR-first, so
        #: the uniform draws land identically run to run).
        self.storage_plan = self.config.storage_faults
        if self.storage_plan is not None and self.storage_plan.any_faults:
            has_target = any(c is not None for c in self.caches) or any(
                s is not None for s in self.spills
            )
            if not has_target:
                raise ConfigurationError(
                    "storage_faults configured but no component performs "
                    "device I/O (need an NVRAM machine or an active spill "
                    "pager via mailbox_cap_bytes/queue_spill)"
                )
            for r in range(p):
                injector = StorageFaultInjector(self.storage_plan, r, p)
                if self.caches[r] is not None:
                    self.caches[r].fault_injector = injector
                if self.spills[r] is not None:
                    self.spills[r].cache.fault_injector = injector

        #: Straggler simulation: seeded per-rank slowdowns applied to tick
        #: costs (simulated time only — the logical schedule is untouched).
        self.straggler: StragglerClock | None = None
        if self.config.stragglers is not None and self.config.stragglers.any_skew:
            self.straggler = StragglerClock(self.config.stragglers, p)

        #: The algorithm the ranks run: its native batch hooks, or — without
        #: them, or with ``batch=False`` — its object visitors through the
        #: adapter (INTERNALS §7).  ``algorithm`` stays the caller's.
        if self.config.batch and algorithm.supports_batch:
            _check_batch_twins(algorithm)
        else:
            self.algorithm = ObjectAdapter(algorithm)
        self.algorithm.bind(graph)
        self.ranks: list[BatchVisitorQueueRank] = []
        for r in range(p):
            ghost_table = None
            ghosts = np.sort(graph.partitions[r].ghost_candidates)
            if self.algorithm.uses_ghosts and ghosts.size:
                ghost_state = self.algorithm.make_state_arrays(
                    ghosts, graph.global_out_degrees[ghosts], ROLE_GHOST
                )
                if not hasattr(ghost_state, "previsit"):
                    # Ghosts filter with the monotonic pre-visit; counting
                    # state blocks (k-core, triangles) have none.
                    raise ConfigurationError(
                        f"{algorithm.name} sets uses_ghosts = True, but its "
                        f"ghost state block ({type(ghost_state).__name__}) has "
                        f"no previsit filter; counting algorithms cannot use "
                        f"ghosts"
                    )
                ghost_table = GhostArrayTable(ghosts, ghost_state)
            state_pager = None
            if self.config.page_vertex_state and self.caches[r] is not None:
                # fully-external mode: vertex state shares the rank's page
                # cache with the CSR (one DRAM budget), 16 bytes per state.
                state_pager = (self.caches[r], 16)
            self.ranks.append(
                BatchVisitorQueueRank(
                    r,
                    graph,
                    self.algorithm,
                    self.mailboxes[r],
                    ghost_table=ghost_table,
                    paged_csr=paged[r],
                    locality_ordering=self.config.locality_ordering,
                    state_pager=state_pager,
                )
            )

        #: Within-tick rank execution order.  Natural by default; the race
        #: detector perturbs it — a scheduling freedom that correct code
        #: must be invariant to under the reliable transport's canonical
        #: ``(src, seq)`` release (plain fabric delivery order would shift
        #: with it, so EngineConfig rejects that combination).
        order = self.config.rank_order
        if order is not None and len(order) != p:
            raise ConfigurationError(
                f"rank_order has {len(order)} entries, graph has {p} ranks"
            )
        self._rank_order: list[int] = (
            list(range(p)) if order is None else [int(r) for r in order]
        )

        #: Per-tick order digests (race detection); empty unless
        #: ``record_order_digests`` is set.  ``tick_digests[t-1]`` folds the
        #: per-rank digests of tick ``t``; ``tick_rank_digests`` keeps them
        #: separate so a divergence can be localised to ranks.
        self.tick_digests: list[bytes] = []
        self.tick_rank_digests: list[tuple[bytes, ...]] = []
        self._record_digests = bool(self.config.record_order_digests)
        if self._record_digests:
            self._digest_prev = np.zeros((p, 5), dtype=np.int64)
            for rk in self.ranks:
                rk.order_probe = []

        self.detectors: list[QuiescenceDetector] | None = None
        if self.config.use_termination_detector:
            self.detectors = [
                QuiescenceDetector(r, p, self.mailboxes[r], self._make_snapshot_fn(r))
                for r in range(p)
            ]

        #: Checkpoint/restart coordinator (crash recovery); present only
        #: when the reliable transport is on and checkpointing is enabled.
        self.recovery: RecoveryManager | None = None
        self._checkpoint_every = self.config.checkpoint_every
        if self.reliable_mode and self._checkpoint_every:
            self.recovery = RecoveryManager(self)
            self.network.recovery = self.recovery

        #: Worker-local crash-recovery images re-seeded into freshly
        #: forked workers after a durable resume (rank -> recovery-scope
        #: rank image); empty otherwise — INTERNALS §13.
        self._resume_recovery_snaps: dict[int, dict] = {}
        #: Durable on-disk epoch writer/reader (host-crash recovery);
        #: present only when ``durable_dir`` is configured.
        self.durable: DurabilityManager | None = None
        if self.config.durable_dir is not None:
            if self.config.durable_resume and page_caches is not None:
                raise ConfigurationError(
                    "durable_resume cannot combine with caller-provided "
                    "page_caches: the epoch restore would overwrite the "
                    "warm cache state the caller is trying to preserve"
                )
            self.durable = DurabilityManager(self)

    # ------------------------------------------------------------------ #
    def _make_snapshot_fn(self, r: int):
        mailbox = self.mailboxes[r]
        rank = self.ranks[r]
        return lambda: LocalSnapshot(
            sent=mailbox.visitors_sent,
            received=mailbox.visitors_received,
            quiet=rank.locally_quiet(),
        )

    def _seed_rank(self, r: int) -> None:
        """Push rank ``r``'s initial visitors (the in-process executor and
        the forked workers seed through this one helper)."""
        seed = self.algorithm.initial_batch(self.graph, r)
        if seed is not None:
            self.ranks[r].push_batch(seed)

    @contextlib.contextmanager
    def _rank_executor(self, resume):
        """The rank executor :meth:`run`'s tick loop drives: in-process at
        ``workers=1``, a forked worker pool otherwise (shut down on exit,
        whatever the outcome)."""
        if self.workers == 1:
            yield _InProcessRanks(self, resume)
            return
        if resume is not None and resume.recovery is not None:
            # Worker-local crash-recovery snapshot halves, picked up by
            # each forked worker at startup (same-epoch invariant: they
            # match the transplanted parent-side recovery state).
            self._resume_recovery_snaps = {
                r: snap
                for r, snap in enumerate(resume.rank_recovery_snaps)
                if snap is not None
            }
        with WorkerPool(self, seed_ranks=(resume is None)) as pool:
            yield PoolRanks(self, pool, resume)

    # ------------------------------------------------------------------ #
    def run(self) -> tuple[list, TraversalStats]:
        """Seed, traverse to global quiescence, return (states, stats).

        The one tick loop.  Rank-local work (seeding, ``_rank_tick``, the
        rank-0 detector wave, flushes, cache/spill epoch drains) goes
        through the rank executor; everything the parent owns — transport,
        cost model, recovery, straggler clock, timeline, durable epochs,
        termination and the post-mortem — runs here once, whatever the
        executor.
        """
        p = self.graph.num_partitions
        m = self.machine
        cfg = self.config
        stats = TraversalStats(
            algorithm=self.algorithm.name,
            machine=m.name,
            topology=self.topology.name,
            num_ranks=p,
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            used_detector=self.detectors is not None,
        )

        # Warm (caller-provided) caches carry statistics from earlier
        # traversals; report per-run deltas.
        cache_base = [
            (c.hits, c.misses, c.evictions) if c is not None else (0, 0, 0)
            for c in self.caches
        ]
        for c in self.caches:
            if c is not None:
                c.drain_epoch_us()  # discard any epoch residue defensively
        if self.storage_plan is not None and self.storage_plan.any_faults:
            stats.storage_fault_seed = self.storage_plan.seed
        if self.straggler is not None:
            stats.max_slowdown = float(self.straggler.max_slowdown)

        # Durable resume: reinstall the newest valid on-disk epoch *before*
        # seeding (and, for workers > 1, before the pool forks, so workers
        # inherit the restored state copy-on-write).  The restored stats
        # object replaces the fresh one wholesale.
        resume = None
        if self.durable is not None and cfg.durable_resume:
            resume = self.durable.load_latest()
            if resume is not None:
                stats = resume.stats
                cache_base = [tuple(cb) for cb in resume.loop["cache_base"]]

        with self._rank_executor(resume) as ex:
            # Previous / current cumulative counter snapshots for the
            # per-tick cost deltas, columns: previsits, visits, edges,
            # packets, bytes.
            prev = np.zeros((p, 5), dtype=np.int64)
            cur = np.empty((p, 5), dtype=np.int64)
            # Cumulative backpressure stalls already charged (the mailboxes
            # keep the ledger; the loop charges per-tick deltas).
            bp_prev = np.zeros(p, dtype=np.int64)
            last_cache_hits = 0
            last_cache_misses = 0
            last_bp_stalls = 0
            if cfg.trace_timeline:
                # Seeding already ran; a pool's parent-side caches are the
                # cold fork-time copies (warm caches need workers=1).
                last_cache_hits = sum(c.hits for c in self.caches if c is not None)
                last_cache_misses = sum(c.misses for c in self.caches if c is not None)

            if self.recovery is not None:
                stats.fault_seed = cfg.faults.seed if cfg.faults is not None else None
                if resume is None:
                    self.recovery.initial_checkpoint()
                else:
                    self._apply_resume_recovery(resume)
            elif self.reliable_mode and cfg.faults is not None:
                stats.fault_seed = cfg.faults.seed

            ticks = 0
            time_us = 0.0
            last_total_visits = 0
            if resume is not None:
                loop = resume.loop
                ticks = loop["ticks"]
                time_us = loop["time_us"]
                prev[:] = loop["prev"]
                bp_prev[:] = loop["bp_prev"]
                last_total_visits = loop["last_total_visits"]
                last_cache_hits = loop["last_cache_hits"]
                last_cache_misses = loop["last_cache_misses"]
                last_bp_stalls = loop["last_bp_stalls"]
            try:
                while True:
                    t = ticks + 1
                    arrivals = self.network.advance()
                    report = self.network.take_report() if self.reliable_mode else None
                    had_traffic = any(arrivals)
                    if self.recovery is not None:
                        for r in self._rank_order:
                            self.recovery.log_arrivals(t, r, arrivals[r])
                    control_events = ex.tick(t, arrivals)

                    if self._record_digests:
                        self._fold_order_digest(t, *ex.digest_rows())

                    checkpoint_costs = None
                    if (
                        self.recovery is not None
                        and t % self._checkpoint_every == 0
                    ):
                        checkpoint_costs = self.recovery.checkpoint(t)

                    # ---- charge simulated time -------------------------
                    # Vectorized counter-delta bookkeeping.  The expression
                    # below is elementwise and left-associated exactly like
                    # a scalar per-rank formula would be, so each rank's
                    # cost is the bit-identical IEEE double a scalar loop
                    # would compute.
                    ex.gather_counters(cur)
                    delta = cur - prev
                    prev[:] = cur
                    costs = (
                        (delta[:, 0] + np.asarray(control_events)) * m.previsit_us
                        + delta[:, 1] * m.visit_us
                        + delta[:, 2] * m.edge_scan_us
                        + delta[:, 3] * m.packet_overhead_us
                        + delta[:, 4] * m.byte_us
                    )
                    for r in range(p):
                        if self.caches[r] is not None:
                            cache_us, faults = ex.cache_epoch(r)
                            costs[r] += cache_us
                            self._charge_storage_faults(stats, costs, r, faults)
                        if self.spills[r] is not None:
                            spill_us, faults = ex.spill_epoch(r)
                            if spill_us:
                                costs[r] += spill_us
                                stats.spill_io_us += spill_us
                            self._charge_storage_faults(stats, costs, r, faults)
                        if cfg.mailbox_cap_bytes is not None:
                            stalls = ex.bp_stalls(r)
                            bp_delta = stalls - bp_prev[r]
                            bp_prev[r] = stalls
                            if bp_delta:
                                charge = bp_delta * m.credit_stall_us
                                costs[r] += charge
                                stats.backpressure_stall_us += charge
                    if report is not None:
                        # Reliability tax and recovery time, kept out of the
                        # logical counters: retransmissions and standalone
                        # acks pay packet overhead, all protocol bytes pay
                        # wire cost, restarted ranks pay their restore +
                        # replay time.
                        for r in range(p):
                            extra = (
                                (report.retrans_packets[r] + report.ack_packets[r])
                                * m.packet_overhead_us
                                + (report.retrans_bytes[r] + report.overhead_bytes[r])
                                * m.byte_us
                                + report.recovery_us[r]
                            )
                            if extra:
                                costs[r] += extra
                        self._accumulate_report(stats, report)
                    if checkpoint_costs is not None:
                        costs += checkpoint_costs
                    # Durable epoch cost, from rank-local estimates taken
                    # after every rank's flush and spill sync.
                    durable_costs = None
                    if self.durable is not None and self.durable.due(t):
                        durable_costs = self.durable.epoch_costs(ex.ckpt_bytes())
                        costs += durable_costs
                    if self.straggler is not None:
                        tick_cost = self.straggler.tick_cost(costs)
                        tick_floor = self.straggler.pacing_floor(m.min_tick_us)
                    else:
                        tick_cost = float(costs.max())
                        tick_floor = m.min_tick_us
                    tick_time = max(tick_cost, tick_floor)
                    if had_traffic or not self.network.idle():
                        hops = 1 if report is None else max(1, report.data_latency)
                        tick_time = max(tick_time, m.hop_latency_us * hops)
                    time_us += tick_time
                    ticks += 1

                    if cfg.trace_timeline:
                        visits_now, hits_now, misses_now, bp_now, queued = (
                            ex.timeline_totals()
                        )
                        stats.timeline.append(
                            TickSample(
                                tick=ticks,
                                time_us=time_us,
                                queued_visitors=queued,
                                packets_in_flight=self.network.packets_in_flight(),
                                visits_this_tick=visits_now - last_total_visits,
                                retransmits=(
                                    sum(report.retrans_packets)
                                    if report is not None
                                    else 0
                                ),
                                faults=(
                                    report.dropped + report.duplicated + report.delayed
                                    if report is not None
                                    else 0
                                ),
                                recoveries=(
                                    len(report.recovered) if report is not None else 0
                                ),
                                cache_hits=hits_now - last_cache_hits,
                                cache_misses=misses_now - last_cache_misses,
                                bp_stalls=bp_now - last_bp_stalls,
                            )
                        )
                        last_total_visits = visits_now
                        last_cache_hits = hits_now
                        last_cache_misses = misses_now
                        last_bp_stalls = bp_now

                    if durable_costs is not None:
                        # Captured after this tick's checkpoints, so the
                        # recovery snaps in the rank sections are current.
                        self.durable.write_epoch(
                            ticks,
                            {
                                "ticks": ticks,
                                "time_us": time_us,
                                "prev": prev.copy(),
                                "bp_prev": bp_prev.copy(),
                                "last_total_visits": last_total_visits,
                                "last_cache_hits": last_cache_hits,
                                "last_cache_misses": last_cache_misses,
                                "last_bp_stalls": last_bp_stalls,
                                "cache_base": list(cache_base),
                            },
                            stats,
                            rank_sections=ex.durable_sections(),
                        )
                    if cfg.kill_at_tick is not None and ticks == cfg.kill_at_tick:
                        # Crash-restart harness hook: die hard *after* this
                        # tick's epoch (if any) committed, like a host power
                        # loss.
                        os.kill(os.getpid(), signal.SIGKILL)

                    # ---- stop? -----------------------------------------
                    if self.detectors is not None:
                        if ex.all_terminated():
                            self._assert_truly_done(ex)
                            break
                    elif self._oracle_done(ex):
                        break
                    if ticks >= cfg.max_ticks:
                        # Attach the partial stats so a stalled run can be
                        # post-mortemed (per-rank counters, tick count,
                        # timeline).
                        self._finalize_stats(stats, ticks, time_us, cache_base, ex, ex.final())
                        raise TraversalError(
                            f"traversal exceeded max_ticks={cfg.max_ticks} "
                            f"(queued visitors: {ex.queue_lengths()})",
                            stats=stats,
                        )
                states = self._finalize_stats(
                    stats, ticks, time_us, cache_base, ex, ex.final()
                )
            except WorkerCrash as crash:
                # A worker failure the supervisor could not (or was not
                # allowed to) heal: partial stats from the last barrier,
                # wrapped like the max_ticks post-mortem.
                self._finalize_stats(
                    stats, ticks, time_us, cache_base, ex, ex.last_barrier()
                )
                raise TraversalError(
                    f"parallel worker failed after {ticks} ticks: {crash}",
                    stats=stats,
                ) from crash
        return states, stats

    def _apply_resume_recovery(self, resume) -> None:
        """Transplant a durable epoch's in-memory recovery state.

        Transplanted, never realigned: re-checkpointing at the resume tick
        would shorten a later simulated crash's replay window and change
        its ``recovery_us`` — breaking bit-identity with the uninterrupted
        run.  Sequentially, each rank's recovery-scope image rides
        ``resume.rank_recovery_snaps``; under ``workers > 1`` those images
        are re-seeded worker-side via ``_resume_recovery_snaps`` and the
        parent keeps only the transport snapshots, mirroring
        :class:`~repro.runtime.parallel.ParallelRecoveryManager`.
        """
        rec = self.recovery
        sec = resume.recovery
        if rec is None or sec is None:
            return
        p = self.graph.num_partitions
        rec.epoch_tick = sec["epoch_tick"]
        rec._state_bytes = list(sec["state_bytes"])
        rec._log = [dict(sec["log"][r]) for r in range(p)]
        rec.checkpoints_taken = sec["checkpoints_taken"]
        rec.checkpoint_bytes = sec["checkpoint_bytes"]
        rec.recoveries = sec["recoveries"]
        rec._transport = list(sec["transport"])
        if self.workers == 1:
            rec._images = list(resume.rank_recovery_snaps)

    def _order_digest_hex(self) -> str | None:
        """Whole-run schedule certificate: blake2b over the concatenated
        per-tick order digests (None unless digests are recorded)."""
        if not self._record_digests:
            return None
        h = hashlib.blake2b(digest_size=16)
        for d in self.tick_digests:
            h.update(d)
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    def _rank_tick(self, r: int, packets: list) -> int:
        """One rank's slice of a tick: drain arrivals, run visitors.

        Shared by the main loop and crash-recovery replay (the recovery
        manager re-executes logged ticks through this exact code path so
        replays are behaviour-identical).  Returns the number of control
        messages handled (charged like pre-visits).
        """
        controls = 0
        envelopes = self.mailboxes[r].receive(packets)
        if envelopes:
            visitors = [e.payload for e in envelopes if e.kind == KIND_VISITOR]
            if visitors:
                self.ranks[r].check_mailbox(visitors)
            if self.detectors is not None:
                for e in envelopes:
                    if e.kind == KIND_CONTROL:
                        controls += 1
                        self.detectors[r].handle(e.payload)
        self.ranks[r].process(self.config.visitor_budget)
        return controls

    def _fold_order_digest(self, tick, rows, probes) -> None:
        """Fold one tick's observable visitor-application order into digests.

        ``rows`` are the ranks' cumulative (previsits, visits, edges,
        pushes, ghost_filtered) counters and ``probes`` the sequences of
        vertices whose visitors ran this tick, both from the rank executor.
        Each rank's digest covers (tick, rank, counter deltas, probe); the
        tick digest folds the per-rank digests in rank-id order, so it is
        identical for any two schedules that produce the same per-rank
        behaviour — exactly the invariant the race detector checks.
        """
        rank_digests: list[bytes] = []
        for r in range(self.graph.num_partitions):
            cur = rows[r]
            prev = self._digest_prev[r]
            h = hashlib.blake2b(digest_size=16)
            h.update(struct.pack(
                "<7q", tick, r, *(int(a) - int(b) for a, b in zip(cur, prev, strict=False))
            ))
            probe = probes[r]
            if probe:
                h.update(np.asarray(probe, dtype=np.int64).tobytes())
            self._digest_prev[r] = cur
            rank_digests.append(h.digest())
        tick_h = hashlib.blake2b(digest_size=16)
        for d in rank_digests:
            tick_h.update(d)
        self.tick_digests.append(tick_h.digest())
        self.tick_rank_digests.append(tuple(rank_digests))

    def _charge_storage_faults(self, stats, costs, r: int, faults) -> None:
        """Fold one cache's epoch fault record into the run stats; escalate
        permanent read failures to the recovery manager (or fail the run).

        The retry/backoff/degradation time itself is already inside the
        drain cost; this accumulates the observability counters and charges
        the replicated-store re-fetch for pages the device gave up on.
        """
        if faults is None:
            return
        stats.storage_retries += faults.retries
        stats.storage_spikes += faults.spikes
        stats.torn_pages += faults.torn_pages
        stats.storage_fault_us += faults.extra_us
        if faults.permanent_failures:
            stats.storage_errors += faults.permanent_failures
            if self.recovery is None:
                raise MemorySystemError(
                    f"rank {r}: {faults.permanent_failures} page read(s) "
                    f"still failing after "
                    f"{self.storage_plan.max_retries} retries with no "
                    f"recovery manager to re-fetch them (enable the "
                    f"reliable transport with checkpointing, or lower "
                    f"read_error_rate)"
                )
            costs[r] += self.recovery.storage_recover(r, faults.permanent_failures)
            stats.storage_recoveries += faults.permanent_failures

    def _finalize_stats(
        self,
        stats: TraversalStats,
        ticks: int,
        time_us: float,
        cache_base: list[tuple[int, int, int]],
        ex,
        final: tuple,
    ) -> list | None:
        """Fold the executor's per-rank counters (``final`` is its
        ``(counters, waves, states)``) and the parent's totals into
        ``stats``; returns the states."""
        counters, waves, states = final
        for r, c in enumerate(counters):
            if self.caches[r] is not None:
                c.cache_hits -= cache_base[r][0]
                c.cache_misses -= cache_base[r][1]
                c.cache_evictions -= cache_base[r][2]
            stats.ranks.append(c)
        stats.ticks = ticks
        stats.time_us = time_us
        if waves is not None:
            stats.termination_waves = waves
        if self.recovery is not None:
            stats.checkpoints_taken = self.recovery.checkpoints_taken
            stats.checkpoint_bytes = self.recovery.checkpoint_bytes
        if self.straggler is not None:
            stats.straggler_stall_us = self.straggler.stall_us
            stats.rebalanced_us = self.straggler.rebalanced_us
            stats.max_slowdown = float(self.straggler.max_slowdown)
        ex.fold_stats(stats)
        stats.order_digest = self._order_digest_hex()
        return states

    @staticmethod
    def _accumulate_report(stats: TraversalStats, report) -> None:
        """Add one tick's transport report to the run totals."""
        stats.packets_dropped += report.dropped
        stats.packets_duplicated += report.duplicated
        stats.packets_delayed += report.delayed
        stats.duplicates_discarded += report.duplicates_discarded
        stats.retransmitted_packets += sum(report.retrans_packets)
        stats.retransmitted_bytes += sum(report.retrans_bytes)
        stats.ack_packets += sum(report.ack_packets)
        stats.reliable_overhead_bytes += sum(report.overhead_bytes)
        stats.transport_rounds += report.rounds
        stats.transport_window_stalls += report.window_stalls
        stats.crashes += len(report.crashed)
        stats.recoveries += len(report.recovered)
        stats.replayed_ticks += report.replayed_ticks
        stats.recovery_us += sum(report.recovery_us)

    # ------------------------------------------------------------------ #
    def _oracle_done(self, ex) -> bool:
        """Omniscient global-emptiness check (engine-internal)."""
        return self.network.idle() and ex.all_quiet() and not ex.any_buffered()

    def _assert_truly_done(self, ex) -> None:
        """Cross-check the detector against global truth.

        The counting quiescence protocol must never announce termination
        while visitor work remains; this is the safety invariant the tests
        lean on.  Control traffic may still be in flight (the termination
        broadcast itself), so only visitor work is checked.
        """
        if not ex.all_quiet():
            raise TerminationError("detector fired with visitors still queued")
        if ex.any_buffered_visitors():
            raise TerminationError("detector fired with visitors buffered")
        if self.network.visitor_envelopes_in_flight():
            raise TerminationError("detector fired with visitors in flight")


class _InProcessRanks:
    """The ``workers=1`` rank executor of :meth:`SimulationEngine.run`.

    Ranks run in this process and their packets go straight to the
    engine's network.  Every answer is read lazily from the live rank,
    mailbox and cache objects; nothing is built per rank per tick that
    the loop does not ask for.
    """

    def __init__(self, engine: SimulationEngine, resume) -> None:
        self.engine = engine
        if resume is None:
            for r in range(engine.graph.num_partitions):
                engine._seed_rank(r)

    def tick(self, t: int, arrivals: list[list]) -> list[int]:
        eng = self.engine
        controls = [0] * len(eng.ranks)
        for r in eng._rank_order:
            controls[r] = eng._rank_tick(r, arrivals[r])
        if eng.detectors is not None and not eng.detectors[0].terminated:
            eng.detectors[0].maybe_start_wave()
        for r in eng._rank_order:
            eng.mailboxes[r].flush()
        return controls

    def gather_counters(self, cur: np.ndarray) -> None:
        eng = self.engine
        for r, rank in enumerate(eng.ranks):
            c = rank.counters
            mb = eng.mailboxes[r]
            cur[r, 0] = c.previsits
            cur[r, 1] = c.visits
            cur[r, 2] = c.edges_scanned
            cur[r, 3] = mb.packets_sent
            cur[r, 4] = mb.bytes_sent

    def cache_epoch(self, r: int) -> tuple[float, object | None]:
        cache = self.engine.caches[r]
        us = cache.drain_epoch_us(concurrency=self.engine.config.io_concurrency)
        return us, cache.last_epoch_faults

    def spill_epoch(self, r: int) -> tuple[float, object | None]:
        eng = self.engine
        cfg = eng.config
        spill = eng.spills[r]
        if cfg.queue_spill is not None:
            eng.ranks[r].sync_spill(spill, cfg.queue_spill)
        us = spill.drain_epoch_us(concurrency=cfg.io_concurrency)
        return us, spill.cache.last_epoch_faults

    def bp_stalls(self, r: int) -> int:
        return self.engine.mailboxes[r].bp_stalls

    def digest_rows(self) -> tuple[list, list]:
        rows = []
        probes = []
        for rank in self.engine.ranks:
            c = rank.counters
            rows.append((c.previsits, c.visits, c.edges_scanned, c.pushes,
                         c.ghost_filtered))
            probe = rank.order_probe
            probes.append(tuple(probe))
            if probe:
                probe.clear()
        return rows, probes

    def ckpt_bytes(self) -> list[int]:
        eng = self.engine
        return [estimate_checkpoint_bytes(eng, r) for r in range(len(eng.ranks))]

    def timeline_totals(self) -> tuple[int, int, int, int, int]:
        eng = self.engine
        caches = [c for c in eng.caches if c is not None]
        return (
            sum(rk.counters.visits for rk in eng.ranks),
            sum(c.hits for c in caches),
            sum(c.misses for c in caches),
            sum(mb.bp_stalls for mb in eng.mailboxes),
            sum(rk.queue_length() for rk in eng.ranks),
        )

    def all_terminated(self) -> bool:
        return all(d.terminated for d in self.engine.detectors)

    def all_quiet(self) -> bool:
        return all(rk.locally_quiet() for rk in self.engine.ranks)

    def any_buffered(self) -> bool:
        return any(mb.has_buffered() for mb in self.engine.mailboxes)

    def any_buffered_visitors(self) -> bool:
        return any(mb.buffered_visitor_count() for mb in self.engine.mailboxes)

    def queue_lengths(self) -> list[int]:
        return [rk.queue_length() for rk in self.engine.ranks]

    def durable_sections(self) -> list[bytes]:
        eng = self.engine
        rec = eng.recovery
        return [rank_image.pack(eng, r, None if rec is None else rec._images[r])
                for r in range(len(eng.ranks))]

    def final(self) -> tuple[list, int | None, list]:
        eng = self.engine
        counters, _, waves = finalize_ranks(eng, range(len(eng.ranks)))
        return list(counters.values()), waves, [rk.states for rk in eng.ranks]

    def fold_stats(self, stats: TraversalStats) -> None:
        pass
