"""User-facing traversal entry point.

:func:`run_traversal` wires a :class:`DistributedGraph`, an
:class:`AsyncAlgorithm`, a machine profile and a routing topology into a
:class:`~repro.runtime.engine.SimulationEngine`, runs it to global
quiescence and returns a :class:`TraversalResult` bundling the algorithm's
output with the full simulation trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.comm.routing import Topology
from repro.core.visitor import AsyncAlgorithm
from repro.graph.distributed import DistributedGraph
from repro.runtime.costmodel import EngineConfig, MachineModel, laptop
from repro.runtime.engine import SimulationEngine
from repro.runtime.trace import TraversalStats


@dataclass(frozen=True)
class TraversalResult:
    """Output of one asynchronous traversal."""

    #: Algorithm-specific result object (see each algorithm's ``finalize``).
    data: object
    #: Full simulation trace (counts, simulated time, cache behaviour).
    stats: TraversalStats
    #: Host-side barrier IPC telemetry of the parallel executor (frame /
    #: pickled-byte / barrier-wait counters; None at ``workers=1``).
    #: Deliberately outside ``stats``: it varies with the host while
    #: ``stats`` is bit-identical at any worker count.
    ipc: dict | None = None

    @property
    def time_us(self) -> float:
        """Simulated traversal time in microseconds."""
        return self.stats.time_us


def resolve_config(
    config: EngineConfig | None = None,
    *,
    batch: bool | None = None,
    faults=None,
    reliable: bool | None = None,
    checkpoint_interval: int | None = None,
    mailbox_cap: int | None = None,
    queue_spill: int | None = None,
    storage_faults=None,
    stragglers=None,
    workers: int | None = None,
    worker_faults=None,
    worker_restarts: int | None = None,
    worker_barrier_timeout: float | None = None,
    durable_dir: str | None = None,
    durable_interval: int | None = None,
    durable_keep: int | None = None,
    durable_resume: bool | None = None,
    durable_faults=None,
    kill_at_tick: int | None = None,
    record_digests: bool | None = None,
) -> EngineConfig:
    """Overlay the :func:`run_traversal` convenience overrides onto a base
    :class:`EngineConfig` (shared with :func:`repro.runtime.race.detect_races`
    so both entry points accept the identical keyword surface)."""
    overrides: dict = {}
    if batch is not None:
        overrides["batch"] = batch
    if workers is not None:
        overrides["workers"] = workers
    if faults is not None:
        overrides["faults"] = faults
    if reliable is not None:
        overrides["reliable"] = reliable
    if checkpoint_interval is not None:
        overrides["checkpoint_interval"] = checkpoint_interval
    if mailbox_cap is not None:
        overrides["mailbox_cap_bytes"] = mailbox_cap
    if queue_spill is not None:
        overrides["queue_spill"] = queue_spill
    if storage_faults is not None:
        overrides["storage_faults"] = storage_faults
    if stragglers is not None:
        overrides["stragglers"] = stragglers
    if worker_faults is not None:
        overrides["worker_faults"] = worker_faults
    if worker_restarts is not None:
        overrides["worker_restarts"] = worker_restarts
    if worker_barrier_timeout is not None:
        overrides["worker_barrier_timeout"] = worker_barrier_timeout
    if durable_dir is not None:
        overrides["durable_dir"] = durable_dir
    if durable_interval is not None:
        overrides["durable_interval"] = durable_interval
    if durable_keep is not None:
        overrides["durable_keep"] = durable_keep
    if durable_resume is not None:
        overrides["durable_resume"] = durable_resume
    if durable_faults is not None:
        overrides["durable_faults"] = durable_faults
    if kill_at_tick is not None:
        overrides["kill_at_tick"] = kill_at_tick
    if record_digests is not None:
        overrides["record_order_digests"] = record_digests
    base = config or EngineConfig()
    return replace(base, **overrides) if overrides else base


def run_traversal(
    graph: DistributedGraph,
    algorithm: AsyncAlgorithm,
    *,
    machine: MachineModel | None = None,
    topology: Topology | str = "direct",
    config: EngineConfig | None = None,
    page_caches: list | None = None,
    batch: bool | None = None,
    faults=None,
    reliable: bool | None = None,
    checkpoint_interval: int | None = None,
    mailbox_cap: int | None = None,
    queue_spill: int | None = None,
    storage_faults=None,
    stragglers=None,
    workers: int | None = None,
    worker_faults=None,
    worker_restarts: int | None = None,
    worker_barrier_timeout: float | None = None,
    durable_dir: str | None = None,
    durable_interval: int | None = None,
    durable_keep: int | None = None,
    durable_resume: bool | None = None,
    durable_faults=None,
    kill_at_tick: int | None = None,
    record_digests: bool | None = None,
) -> TraversalResult:
    """Run ``algorithm`` over ``graph`` on a simulated machine.

    Parameters
    ----------
    graph:
        A :meth:`DistributedGraph.build` result (edge-list or 1D layout).
    algorithm:
        e.g. :class:`repro.algorithms.bfs.BFSAlgorithm`.
    machine:
        Cost profile; defaults to the fast in-memory ``laptop()`` profile.
    topology:
        ``"direct"``, ``"2d"``, ``"3d"`` or a prebuilt
        :class:`~repro.comm.routing.Topology`.
    config:
        Engine knobs (:class:`~repro.runtime.costmodel.EngineConfig`).
    page_caches:
        Optional per-rank :class:`~repro.memory.page_cache.PageCache`
        objects (NVRAM machines only).  Passing the same caches across
        traversals keeps them *warm*, modelling Graph500's repeated BFS
        runs over a persistent user-space page cache.
    batch:
        Override :attr:`EngineConfig.batch` — ``False`` runs the
        algorithm's object visitors through the adapter even when it has
        native batch hooks (the object twins are the test oracle).
        Results and stats are bit-identical either way.
    faults:
        Override :attr:`EngineConfig.faults` — a
        :class:`~repro.comm.faults.FaultPlan` (implies reliable delivery).
        Vertex states and logical visit counts stay bit-identical to the
        fault-free run; only simulated time and wire traffic change.
    reliable:
        Override :attr:`EngineConfig.reliable` — run the reliable
        transport without faults (measures the protocol's no-fault tax).
    checkpoint_interval:
        Override :attr:`EngineConfig.checkpoint_interval` (ticks between
        crash-recovery epoch checkpoints).
    mailbox_cap:
        Override :attr:`EngineConfig.mailbox_cap_bytes` — per-destination
        DRAM cap on mailbox aggregation buffers; overflow backpressures
        the producer and spills to external memory.  Cost-only: results
        and logical counters stay bit-identical to the unbounded run.
    queue_spill:
        Override :attr:`EngineConfig.queue_spill` — resident pending-
        visitor limit per rank; overflow pages through the external-memory
        spill log (the paper's §V-A external queue).  Cost-only.
    storage_faults:
        Override :attr:`EngineConfig.storage_faults` — a
        :class:`~repro.memory.faults.StorageFaultPlan` for the simulated
        devices.  Cost-only (plus fault counters).
    stragglers:
        Override :attr:`EngineConfig.stragglers` — a
        :class:`~repro.runtime.pressure.StragglerPlan` of per-rank
        slowdowns.  Cost-only.
    workers:
        Override :attr:`EngineConfig.workers` — worker processes for the
        tick loop (1 = sequential).  Wall-clock only: stats, result
        arrays, wire counters and order digests are bit-identical to the
        sequential schedule at any worker count.
    worker_faults:
        Override :attr:`EngineConfig.worker_faults` — a
        :class:`~repro.comm.faults.WorkerFaultPlan` injecting *host*
        worker-process failures (SIGKILL, hangs, mid-phase exits, fork
        failures) for the supervision layer to roll back from.  Requires
        ``workers > 1``; results and all logical stats stay bit-identical
        to the unfailed run (only the ``SUPERVISION_STATS_FIELDS``
        differ).
    worker_restarts:
        Override :attr:`EngineConfig.worker_restarts` — per-worker
        re-fork budget; 0 with a fault plan continues in-process on the
        first failure.
    worker_barrier_timeout:
        Override :attr:`EngineConfig.worker_barrier_timeout` — wall-clock
        seconds a barrier waits before declaring a worker hung.
    durable_dir:
        Override :attr:`EngineConfig.durable_dir` — directory for durable
        on-disk epoch checkpoints (host-crash recovery).  A killed run
        restarted with ``durable_resume=True`` continues from the latest
        valid epoch with results and stats bit-identical to an
        uninterrupted run.
    durable_interval:
        Override :attr:`EngineConfig.durable_interval` — ticks between
        durable epochs.
    durable_keep:
        Override :attr:`EngineConfig.durable_keep` — retained epoch
        generations (the corruption-fallback ladder depth).
    durable_resume:
        Override :attr:`EngineConfig.durable_resume` — resume from the
        latest valid epoch in ``durable_dir`` instead of starting fresh.
    durable_faults:
        Override :attr:`EngineConfig.durable_faults` — a
        :class:`~repro.runtime.durability.DurableFaultPlan` injecting
        checkpoint-file corruption (torn writes, bit flips, truncated
        manifests, missing sections) for the fallback ladder to absorb.
    kill_at_tick:
        Override :attr:`EngineConfig.kill_at_tick` — SIGKILL this process
        right after the durable epoch at the given tick commits (crash
        harness hook; requires ``durable_dir``).
    record_digests:
        Override :attr:`EngineConfig.record_order_digests` — record
        per-tick visit-order digests (and the whole-run
        ``stats.order_digest``) for bit-identity checks.
    """
    config = resolve_config(
        config,
        batch=batch,
        faults=faults,
        reliable=reliable,
        checkpoint_interval=checkpoint_interval,
        mailbox_cap=mailbox_cap,
        queue_spill=queue_spill,
        storage_faults=storage_faults,
        stragglers=stragglers,
        workers=workers,
        worker_faults=worker_faults,
        worker_restarts=worker_restarts,
        worker_barrier_timeout=worker_barrier_timeout,
        durable_dir=durable_dir,
        durable_interval=durable_interval,
        durable_keep=durable_keep,
        durable_resume=durable_resume,
        durable_faults=durable_faults,
        kill_at_tick=kill_at_tick,
        record_digests=record_digests,
    )
    engine = SimulationEngine(
        graph,
        algorithm,
        machine or laptop(),
        topology=topology,
        config=config,
        page_caches=page_caches,
    )
    states_per_rank, stats = engine.run()
    data = engine.algorithm.finalize_batch(graph, states_per_rank)
    return TraversalResult(data=data, stats=stats, ipc=engine.ipc_counters)
