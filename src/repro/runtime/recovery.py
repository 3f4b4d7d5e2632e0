"""Traversal-level checkpoint/restart for crash recovery.

The :class:`RecoveryManager` implements the coordinated-epoch scheme the
reliable transport (:mod:`repro.comm.reliable`) leans on when the fault
plan crashes ranks:

* **Epoch checkpoints.**  Every ``EngineConfig.checkpoint_interval`` ticks
  (after the tick's flushes, so the snapshot is a clean between-ticks cut)
  each rank snapshots its restartable state: vertex states, local visitor
  heap, ghost table, mailbox buffers and counters, quiescence-detector
  protocol state, and its transport channel state (per-channel sequence
  counters, receive watermarks, queued-but-untransmitted packets).  The
  snapshot cost is charged through ``MachineModel.checkpoint_byte_us`` on
  the checkpoint tick.

* **Delivery logs.**  Between checkpoints, every packet released to a rank
  is appended to that rank's delivery log (shared references — packets are
  immutable once released).  Logs are trimmed at each checkpoint.

* **Restore + deterministic replay.**  When a crashed rank restarts, its
  epoch snapshot is reinstalled in place and the logical ticks between the
  epoch and the crash are *re-executed* against the logged deliveries —
  the same inputs, in the same canonical order, from the same state, so
  the rank deterministically re-derives exactly its pre-crash state,
  including every counter the quiescence detector counts.  Sends emitted
  during replay get their original sequence numbers; the transport skips
  those below the receiver's watermark (already delivered — the restart
  handshake) and re-queues the rest, which receiver-side dedup makes safe.

Recovery time — fixed restart cost, restore bytes, and the replayed
compute priced by the ordinary ``MachineModel`` event rates — is returned
to the transport and charged into the crash tick's per-rank costs.

Page caches are deliberately left warm across a crash: restoring cache
state would change *other* ranks' simulated timing, and the distortion is
cost-only (replay I/O lands in the crash tick as recovery time), never
state-visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.comm.message import Packet
from repro.errors import TraversalError
from repro.runtime import rank_image

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import SimulationEngine


def estimate_checkpoint_bytes(engine: "SimulationEngine", r: int) -> int:
    """Simulated size of rank ``r``'s checkpoint image: 16 bytes per vertex
    state (value + parent), the queued visitors at their wire size, 8 bytes
    per ghost value, plus a fixed header.  Shared with the parallel
    executor, whose workers compute it rank-locally."""
    rank = engine.ranks[r]
    ghosts = len(rank.ghost_table) if rank.ghost_table is not None else 0
    return (
        64
        + rank.num_local_states * 16
        + rank.queue_length() * engine.algorithm.visitor_bytes
        + ghosts * 8
    )


def counter_snapshot(
    engine: "SimulationEngine", ranks
) -> tuple[int, int, int, int, int]:
    """Summed cumulative (previsits, visits, edges, packets, bytes) over
    ``ranks`` — the before/after pair a replay's compute is priced from."""
    pv = vi = es = ps = bs = 0
    for r in ranks:
        c = engine.ranks[r].counters
        mb = engine.mailboxes[r]
        pv += c.previsits
        vi += c.visits
        es += c.edges_scanned
        ps += mb.packets_sent
        bs += mb.bytes_sent
    return (pv, vi, es, ps, bs)


def replay_price_us(machine, c0, c1, controls: int, restore_bytes: int) -> float:
    """Simulated price of one restore-and-replay: the fixed restart cost,
    the restored bytes, and the replayed compute (counter deltas ``c1 -
    c0`` plus handled control messages) at the ordinary event rates."""
    m = machine
    compute_us = (
        (c1[0] - c0[0] + controls) * m.previsit_us
        + (c1[1] - c0[1]) * m.visit_us
        + (c1[2] - c0[2]) * m.edge_scan_us
        + (c1[3] - c0[3]) * m.packet_overhead_us
        + (c1[4] - c0[4]) * m.byte_us
    )
    return m.restart_us + restore_bytes * m.restore_byte_us + compute_us


def replay_ticks(
    engine: "SimulationEngine",
    order,
    first: int,
    last: int,
    arrivals,
    *,
    before=None,
    after=None,
) -> tuple[int, int]:
    """Re-execute ticks ``first .. last`` for the ranks in ``order``: each
    rank's ``_rank_tick`` on its logged ``arrivals(r, t)``, the rank-0
    detector wave if rank 0 is among them, then each rank's flush — the
    main loop's sequence, so replays are behaviour-identical.
    ``before(t)`` / ``after(t)`` bracket each tick.  Returns ``(controls
    handled, ticks replayed)``."""
    detectors = engine.detectors
    wave = 0 in order and detectors is not None
    controls = 0
    for t in range(first, last + 1):
        if before is not None:
            before(t)
        for r in order:
            controls += engine._rank_tick(r, list(arrivals(r, t)))
        if wave and not detectors[0].terminated:
            detectors[0].maybe_start_wave()
        for r in order:
            engine.mailboxes[r].flush()
        if after is not None:
            after(t)
    return controls, max(0, last - first + 1)


class RecoveryManager:
    """Checkpoint/restart coordinator for one engine run."""

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        p = engine.graph.num_partitions
        self.epoch_tick = -1  # no checkpoint yet
        #: per-rank recovery-scope rank images (``None`` where the image
        #: lives in the owning worker) and transport channel snapshots.
        self._images: list[dict | None] = [None] * p
        self._transport: list[dict | None] = [None] * p
        self._state_bytes = [0] * p
        self._log: list[dict[int, list[Packet]]] = [{} for _ in range(p)]
        # cumulative statistics (folded into TraversalStats by the engine)
        self.checkpoints_taken = 0
        self.checkpoint_bytes = 0
        self.recoveries = 0

    # ------------------------------------------------------------------ #
    def initial_checkpoint(self) -> None:
        """Epoch 0: taken right after seeding, before the first tick.

        Safe as a recovery point because seeding is rank-local — every
        initial visitor is pushed on its own rank, so the epoch-0 cut plus
        the transport's queued-packet snapshot captures the complete
        pre-tick state.  Charged nowhere (it models job setup, not
        steady-state checkpoint traffic).
        """
        self._take_snapshots(0)

    def checkpoint(self, tick: int) -> np.ndarray:
        """Snapshot every rank at the end of ``tick``; returns the per-rank
        simulated cost (bytes x ``checkpoint_byte_us``) to charge into the
        tick."""
        costs = self._take_snapshots(tick)
        self.checkpoints_taken += 1
        return costs

    def _take_snapshots(self, tick: int) -> np.ndarray:
        eng = self.engine
        images, sizes = self._snapshot_ranks(tick)
        costs = np.zeros(len(images), dtype=np.float64)
        for r, image in enumerate(images):
            self._images[r] = image
            self._transport[r] = eng.network.snapshot_rank(r)
            nbytes = sizes[r]
            self._state_bytes[r] = nbytes
            self.checkpoint_bytes += nbytes
            costs[r] = nbytes * eng.machine.checkpoint_byte_us
            # log entries at or before the new epoch can never be replayed
            self._log[r] = {t: v for t, v in self._log[r].items() if t > tick}
        self.epoch_tick = tick
        return costs

    def _snapshot_ranks(self, tick: int) -> tuple[list[dict | None], list[int]]:
        """Every rank's recovery-scope image and simulated byte size."""
        eng = self.engine
        p = eng.graph.num_partitions
        return (
            [rank_image.capture(eng, r, full=False) for r in range(p)],
            [estimate_checkpoint_bytes(eng, r) for r in range(p)],
        )

    # ------------------------------------------------------------------ #
    def log_arrivals(self, tick: int, rank: int, packets: list[Packet]) -> None:
        """Record the packets released to ``rank`` on ``tick`` (replay
        input for a later restart)."""
        if packets:
            self._log[rank][tick] = packets

    # ------------------------------------------------------------------ #
    def restore_and_replay(self, r: int, crash_tick: int) -> tuple[float, int]:
        """Bring restarted rank ``r`` back to its pre-crash state.

        Reinstalls the epoch snapshot, then re-executes ticks
        ``epoch_tick+1 .. crash_tick-1`` against the delivery log.  Replay
        is deterministic, so the rank's vertex states, heap, mailbox and
        detector counters land bit-identical to the moment before the
        crash.  Returns ``(simulated_cost_us, ticks_replayed)``.
        """
        if self._transport[r] is None:
            raise TraversalError(
                f"rank {r} crashed at tick {crash_tick} with no checkpoint "
                f"to restore (recovery manager not initialised?)"
            )
        c0, c1, controls, replayed = self._replay(r, crash_tick)
        self.recoveries += 1
        cost_us = replay_price_us(
            self.engine.machine, c0, c1, controls, self._state_bytes[r]
        )
        return cost_us, replayed

    def _replay(self, r: int, crash_tick: int) -> tuple:
        """Restore rank ``r`` from its epoch image and re-execute its
        logged ticks in this process; returns ``(c0, c1, controls,
        replayed)``."""
        eng = self.engine
        rank_image.restore(eng, r, self._images[r])
        eng.network.restore_rank(r, self._transport[r])
        log = self._log[r]

        def note_deliveries(t: int) -> None:
            for pkt in log.get(t, ()):
                eng.network.note_replayed_delivery(r, pkt)

        c0 = counter_snapshot(eng, (r,))
        controls, replayed = replay_ticks(
            eng, (r,), self.epoch_tick + 1, crash_tick - 1,
            lambda _r, t: log.get(t, ()), before=note_deliveries,
        )
        return c0, counter_snapshot(eng, (r,)), controls, replayed

    # ------------------------------------------------------------------ #
    def storage_recover(self, r: int, num_pages: int) -> float:
        """Escalation path for permanent device read failures.

        A page that still fails after the page cache's bounded retries is
        lost to the local device; the paper's substrate keeps the graph
        image replicated across the checkpoint store, so the rank re-fetches
        the page over the network instead of dying.  Returns the simulated
        cost: one round trip plus the page bytes at checkpoint-restore
        bandwidth.  Pure cost — the cache already installed the page, so no
        simulated state changes.
        """
        m = self.engine.machine
        page = self.engine.machine.page_size
        return num_pages * (
            2 * m.hop_latency_us + page * (m.restore_byte_us + m.byte_us)
        )
