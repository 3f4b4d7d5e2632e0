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

One manager drives every rank executor.  A rank's recovery image lives in
``SimulationEngine.recovery_images``, written and read only by the process
that runs the rank: :func:`checkpoint_rank` and :func:`replay_rank` are
the rank-local half, run in this process at ``workers=1`` and in the
owning worker under a pool (which inherits the list copy-on-write when it
forks, e.g. right after an epoch was reinstalled).  Replay sends into a
:class:`~repro.comm.network.PacketRecorder`; the manager restores the
rank's transport snapshot and then, per replayed tick, notes the logged
deliveries and re-sends that tick's packets.  Its own epoch — transport
snapshots, delivery logs, counters — rides the engine epoch through
:meth:`RecoveryManager.snapshot_state` / :meth:`~RecoveryManager.restore_state`,
and the rank images ride the ranks' sections
(:func:`repro.runtime.rank_image.pack`).

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


def counter_snapshot(engine: "SimulationEngine", r: int) -> tuple[int, int, int, int, int]:
    """Rank ``r``'s cumulative (previsits, visits, edges, packets, bytes)
    — the before/after pair a replay's compute is priced from."""
    c = engine.ranks[r].counters
    mb = engine.mailboxes[r]
    return (c.previsits, c.visits, c.edges_scanned, mb.packets_sent, mb.bytes_sent)


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


def checkpoint_rank(engine: "SimulationEngine", r: int) -> int:
    """Take rank ``r``'s recovery-scope image into
    ``engine.recovery_images`` (in the process that runs the rank);
    returns its simulated byte size."""
    engine.recovery_images[r] = rank_image.capture(engine, r, full=False)
    return estimate_checkpoint_bytes(engine, r)


def replay_rank(
    engine: "SimulationEngine",
    recorder,
    r: int,
    epoch_tick: int,
    crash_tick: int,
    log: dict[int, list[Packet]],
) -> tuple[list[list[Packet]], tuple, tuple, int]:
    """Restore rank ``r`` from its recovery image and re-execute ticks
    ``epoch_tick+1 .. crash_tick-1`` on the logged deliveries — the main
    loop's sequence (``_rank_tick``, the rank-0 detector wave, the flush),
    so replays are behaviour-identical.  The rank's mailbox must send
    into ``recorder`` (a :class:`~repro.comm.network.PacketRecorder`).
    Returns the packets each replayed tick emitted, the counters before
    and after, and the control messages handled."""
    rank_image.restore(engine, r, engine.recovery_images[r])
    detector = engine.detectors[0] if r == 0 and engine.detectors is not None else None
    c0 = counter_snapshot(engine, r)
    per_tick: list[list[Packet]] = []
    controls = 0
    for t in range(epoch_tick + 1, crash_tick):
        controls += engine._rank_tick(r, list(log.get(t, ())))
        if detector is not None and not detector.terminated:
            detector.maybe_start_wave()
        engine.mailboxes[r].flush()
        per_tick.append(recorder.take())
    return per_tick, c0, counter_snapshot(engine, r), controls


class RecoveryManager:
    """Checkpoint/restart coordinator for one engine run, whatever the
    rank executor: the parent keeps the transport snapshots, delivery
    logs and cost accounting; the executor (``ranks``, attached by the
    tick loop) takes and replays the rank images where the ranks run."""

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        p = engine.graph.num_partitions
        #: the rank executor whose ``checkpoint`` / ``replay`` run the
        #: rank-local half (set by :meth:`SimulationEngine._traverse`).
        self.ranks = None
        self.epoch_tick = -1  # no checkpoint yet
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
        sizes = self.ranks.checkpoint()
        costs = np.zeros(len(sizes), dtype=np.float64)
        for r, nbytes in enumerate(sizes):
            self._transport[r] = eng.network.snapshot_rank(r)
            self._state_bytes[r] = nbytes
            self.checkpoint_bytes += nbytes
            costs[r] = nbytes * eng.machine.checkpoint_byte_us
            # log entries at or before the new epoch can never be replayed
            self._log[r] = {t: v for t, v in self._log[r].items() if t > tick}
        self.epoch_tick = tick
        return costs

    # ------------------------------------------------------------------ #
    def log_arrivals(self, tick: int, rank: int, packets: list[Packet]) -> None:
        """Record the packets released to ``rank`` on ``tick`` (replay
        input for a later restart)."""
        if packets:
            self._log[rank][tick] = packets

    # ------------------------------------------------------------------ #
    def restore_and_replay(self, r: int, crash_tick: int) -> tuple[float, int]:
        """Bring restarted rank ``r`` back to its pre-crash state.

        Restores the rank's transport snapshot, has the executor reinstall
        the epoch image and re-execute ticks ``epoch_tick+1 ..
        crash_tick-1`` against the delivery log, then per replayed tick
        notes the logged deliveries and re-sends that tick's packets — the
        transport sees the same operation sequence as the original ticks.
        Replay is deterministic, so the rank's vertex states, heap,
        mailbox and detector counters land bit-identical to the moment
        before the crash.  Returns ``(simulated_cost_us, ticks_replayed)``.
        """
        if self._transport[r] is None:
            raise TraversalError(
                f"rank {r} crashed at tick {crash_tick} with no checkpoint "
                f"to restore (recovery manager not initialised?)"
            )
        net = self.engine.network
        net.restore_rank(r, self._transport[r])
        log = self._log[r]
        per_tick, c0, c1, controls = self.ranks.replay(
            r, self.epoch_tick, crash_tick, log
        )
        for t, packets in enumerate(per_tick, start=self.epoch_tick + 1):
            for pkt in log.get(t, ()):
                net.note_replayed_delivery(r, pkt)
            for pkt in packets:
                net.send_packet(pkt)
        self.recoveries += 1
        cost_us = replay_price_us(
            self.engine.machine, c0, c1, controls, self._state_bytes[r]
        )
        return cost_us, len(per_tick)

    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The parent-side epoch (transport snapshots, delivery logs,
        counters) for an engine epoch; the rank images ride the ranks'
        own sections."""
        return {
            "epoch_tick": self.epoch_tick,
            "state_bytes": list(self._state_bytes),
            "log": [dict(log) for log in self._log],
            "transport": list(self._transport),
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_bytes": self.checkpoint_bytes,
            "recoveries": self.recoveries,
        }

    def restore_state(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot_state` image — never re-checkpoint
        at a resume tick, which would shorten a later crash's replay
        window and change its ``recovery_us``."""
        self.epoch_tick = state["epoch_tick"]
        self._state_bytes = list(state["state_bytes"])
        self._log = [dict(log) for log in state["log"]]
        self._transport = list(state["transport"])
        self.checkpoints_taken = state["checkpoints_taken"]
        self.checkpoint_bytes = state["checkpoint_bytes"]
        self.recoveries = state["recoveries"]

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
