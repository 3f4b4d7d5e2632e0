"""Reliable, exactly-once packet delivery over a faulty fabric.

:class:`ReliableTransport` presents the same interface as
:class:`~repro.comm.network.Network` (mailboxes and the engine cannot tell
them apart) but runs a link-level reliability protocol over a fabric that
may drop, duplicate and delay transmissions and whose ranks may crash:

* every data packet carries a per-``(src, hop_dest)`` **sequence number**;
* receivers **deduplicate** (a seq at or below the cumulative watermark, or
  already buffered, is discarded) and **release in order** — the visitor
  and control streams each mailbox observes are exactly-once, per-channel
  FIFO;
* receivers send **cumulative acks**, piggybacked on reverse-direction data
  packets when one is departing the same round, as standalone ack packets
  otherwise;
* senders keep unacked packets and **retransmit on timeout** with
  exponential backoff in fabric rounds (simulated time).

Tick transparency
-----------------
The engine calls :meth:`advance` once per logical tick, exactly as it calls
``Network.advance``.  Internally the transport spins *fabric rounds* (one
round = one hop time) until every data packet of the tick is released at
its destination; faults therefore stretch the tick's simulated latency and
add retransmission wire traffic, but the *logical delivery schedule* — which
envelopes each rank processes on which tick, and in which order — is
identical to the fault-free run.  That schedule preservation is what makes
the fault-equivalence guarantee exact (bit-identical vertex states and
visit counts) rather than statistical; see INTERNALS §8.

Released packets are handed to mailboxes in canonical ``(src, seq)`` order,
a deterministic order reproducible across crash recovery (unlike raw
injection order, which a replayed rank cannot reconstruct).

Rank crashes are orchestrated here (the fault plan names the tick), while
state restoration itself lives in :mod:`repro.runtime.recovery`: the
transport wipes the crashed rank's endpoint state, waits out the down time,
then asks the recovery manager to restore the last epoch checkpoint and
replay the delivery log.  Replayed sends are assigned their original
sequence numbers and skipped when the receiver's watermark shows them
already delivered — the restart handshake of real reliable transports,
charged a flat resync cost instead of a simulated round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.faults import FaultInjector, FaultPlan
from repro.comm.message import (
    ACK_PACKET_BYTES,
    KIND_VISITOR,
    RELIABLE_HEADER_BYTES,
    Packet,
)
from repro.errors import CommunicationError


@dataclass
class TransportReport:
    """Per-``advance`` accounting the engine folds into costs and stats."""

    num_ranks: int
    #: fabric rounds this tick took (1 for a fault-free tick with traffic).
    rounds: int = 0
    #: hop-times from first send to last data release (the tick's latency).
    data_latency: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    duplicates_discarded: int = 0
    #: data injections deferred a round because the per-channel in-flight
    #: window was full (bounded-transport flow control).
    window_stalls: int = 0
    lost_to_down: int = 0
    replay_skipped: int = 0
    replay_resent: int = 0
    replayed_ticks: int = 0
    retrans_packets: list[int] = field(default_factory=list)
    retrans_bytes: list[int] = field(default_factory=list)
    ack_packets: list[int] = field(default_factory=list)
    overhead_bytes: list[int] = field(default_factory=list)
    recovery_us: list[float] = field(default_factory=list)
    crashed: list[int] = field(default_factory=list)
    recovered: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        p = self.num_ranks
        self.retrans_packets = [0] * p
        self.retrans_bytes = [0] * p
        self.ack_packets = [0] * p
        self.overhead_bytes = [0] * p
        self.recovery_us = [0.0] * p


class ReliableTransport:
    """Drop-in :class:`Network` replacement with reliable delivery.

    The fault injector draws from one decision stream in global emission
    order, so mailboxes must hand this fabric single packets in per-message
    order, never trains (:attr:`packet_trains` is False).

    ``recovery`` (a :class:`~repro.runtime.recovery.RecoveryManager`) must
    be attached before the first tick when the fault plan contains crashes.
    """

    #: See :attr:`repro.comm.network.Network.packet_trains`.
    packet_trains = False

    def __init__(
        self,
        num_ranks: int,
        plan: FaultPlan | None = None,
        *,
        retransmit_timeout: int = 4,
        max_attempts: int = 16,
        backoff_cap: int = 64,
        max_rounds_per_tick: int = 100_000,
        channel_window: int | None = None,
    ) -> None:
        if num_ranks < 1:
            raise CommunicationError(f"need at least 1 rank, got {num_ranks}")
        if channel_window is not None and channel_window < 1:
            raise CommunicationError(
                f"channel_window must be >= 1, got {channel_window}"
            )
        if retransmit_timeout < 3:
            # data hop + ack hop + one round of slack: anything shorter
            # retransmits spuriously on a healthy fabric.
            raise CommunicationError(
                f"retransmit_timeout must be >= 3 rounds, got {retransmit_timeout}"
            )
        self.num_ranks = num_ranks
        self.plan = plan
        self.injector = FaultInjector(plan) if plan is not None and plan.any_faults else None
        self.recovery = None  # attached by the engine when checkpointing is on
        self.timeout0 = retransmit_timeout
        self.max_attempts = max_attempts
        self.backoff_cap = backoff_cap
        self.max_rounds = max_rounds_per_tick
        #: Max unacked data packets per (src, dst) channel; further
        #: injections wait in the queue until acks free window slots.
        #: Flow control only: per-channel FIFO release order is unchanged,
        #: so the logical delivery schedule stays identical.
        self.channel_window = channel_window

        #: Cumulative fabric statistics (wire truth: every transmission,
        #: retransmissions, duplicates and acks included).
        self.total_packets = 0
        self.total_bytes = 0

        self._tick = 0
        self._round = 0
        # channel state, keyed (src, dst)
        self._next_seq: dict[tuple[int, int], int] = {}
        self._recv_next: dict[tuple[int, int], int] = {}
        self._recv_buffer: dict[tuple[int, int], dict[int, Packet]] = {}
        # sender retransmission state: (src, dst) -> {seq: [pkt, attempts, due]}
        self._unacked: dict[tuple[int, int], dict[int, list]] = {}
        # receivers owing a cumulative ack: (src, dst) -> ack value
        self._need_ack: dict[tuple[int, int], int] = {}
        # transmissions awaiting injection / copies on the wire
        self._queued: list[tuple[int, Packet]] = []
        self._in_flight: list[tuple[int, Packet]] = []
        # logical data packets not yet released to their destination mailbox
        self._live: dict[tuple[int, int, int], Packet] = {}
        # crash state
        self._down: set[int] = set()
        self._restore_due: dict[int, int] = {}
        self._replaying: int | None = None
        self._report = TransportReport(num_ranks)

    # ------------------------------------------------------------------ #
    # Network interface
    # ------------------------------------------------------------------ #
    def send_packet(self, packet: Packet) -> None:
        """Stamp a sequence number and queue the packet for the next tick's
        delivery phase (or skip it, during replay, when the receiver's
        watermark shows it was already delivered)."""
        if not 0 <= packet.hop_dest < self.num_ranks:
            raise CommunicationError(
                f"packet addressed to invalid rank {packet.hop_dest}"
            )
        if packet.count != 1:
            raise CommunicationError(
                f"the reliable transport sequences single packets, got a "
                f"train of {packet.count}"
            )
        s, d = packet.src, packet.hop_dest
        ch = (s, d)
        seq = self._next_seq.get(ch, 0)
        self._next_seq[ch] = seq + 1
        packet.seq = seq
        if self._replaying is not None and s == self._replaying:
            if seq < self._recv_next.get(ch, 0):
                self._report.replay_skipped += 1
                return
            self._report.replay_resent += 1
        self._queued.append((self._round + 1, packet))
        self._live[(s, d, seq)] = packet

    def advance(self) -> list[list[Packet]]:
        """Run one logical tick's delivery phase to completion.

        Spins fabric rounds — injecting queued transmissions, delivering
        in-flight copies, emitting acks, retransmitting on timeout, and
        crashing / restoring ranks per the fault plan — until every data
        packet is released, then returns per-rank packet lists in canonical
        ``(src, seq)`` order.  :meth:`take_report` describes what it cost.
        """
        self._tick += 1
        rep = self._report = TransportReport(self.num_ranks)
        if self.plan is not None:
            for ev in self.plan.crashes_at(self._tick):
                self._crash(ev)
        released: list[list[Packet]] = [[] for _ in range(self.num_ranks)]
        start = self._round
        last_release = start
        while True:
            if not self._live and not self._restore_due:
                if self._round > start:
                    break
                if not (
                    self._queued
                    or self._in_flight
                    or self._need_ack
                    or any(self._unacked.values())
                ):
                    break
            if self._round - start >= self.max_rounds:
                raise CommunicationError(
                    f"reliable transport could not complete tick {self._tick} "
                    f"within {self.max_rounds} fabric rounds "
                    f"({len(self._live)} packets undelivered)"
                )
            self._round += 1
            now = self._round
            rep.rounds += 1
            # 1. restarts due this round
            for r in sorted(r for r, due in self._restore_due.items() if due <= now):
                del self._restore_due[r]
                self._down.discard(r)
                self._restore(r)
            # 2. deliver in-flight copies
            arriving = [item for item in self._in_flight if item[0] <= now]
            if arriving:
                self._in_flight = [item for item in self._in_flight if item[0] > now]
                for _, pkt in arriving:
                    if self._receive_copy(pkt, released):
                        last_release = now
            # 3. send phase: acks, queued transmissions, due retransmits
            self._send_phase(now)
        rep.data_latency = max(0, last_release - start)
        for r in range(self.num_ranks):
            released[r].sort(key=lambda p: (p.src, p.seq))
        return released

    def packets_in_flight(self) -> int:
        """Logical data packets sent but not yet released to a mailbox."""
        return len(self._live)

    def visitor_envelopes_in_flight(self) -> int:
        """Logical visitor messages inside unreleased data packets (wire
        copies and retransmissions of already-released packets excluded)."""
        return sum(
            env.count
            for pkt in self._live.values()
            for env in pkt.envelopes
            if env.kind == KIND_VISITOR
        )

    def idle(self) -> bool:
        """True when nothing — data, acks or retransmission state — remains
        anywhere in the transport."""
        return not (
            self._live
            or self._queued
            or self._in_flight
            or self._need_ack
            or self._restore_due
            or any(self._unacked.values())
        )

    # ------------------------------------------------------------------ #
    def take_report(self) -> TransportReport:
        """The accounting of the most recent :meth:`advance`."""
        return self._report

    # ------------------------------------------------------------------ #
    # protocol internals
    # ------------------------------------------------------------------ #
    def _transmit(self, pkt: Packet, now: int, *, count_overhead: bool) -> None:
        """Put one wire copy of a data packet on the fabric (fault draws
        apply).  ``count_overhead=False`` for retransmissions, whose full
        wire cost (payload + header) is already in ``retrans_bytes``."""
        rep = self._report
        self.total_packets += 1
        self.total_bytes += pkt.wire_bytes + RELIABLE_HEADER_BYTES
        if count_overhead:
            rep.overhead_bytes[pkt.src] += RELIABLE_HEADER_BYTES
        decision = self.injector.decide() if self.injector is not None else None
        if decision is not None and decision.dropped:
            rep.dropped += 1
            return
        delay = 0
        if decision is not None:
            if decision.delay:
                rep.delayed += 1
                delay = decision.delay
            if decision.duplicated:
                rep.duplicated += 1
                self.total_packets += 1
                self.total_bytes += pkt.wire_bytes + RELIABLE_HEADER_BYTES
                self._in_flight.append((now + 1 + decision.dup_delay, pkt))
        self._in_flight.append((now + 1 + delay, pkt))

    def _send_phase(self, now: int) -> None:
        rep = self._report
        due = [item for item in self._queued if item[0] <= now]
        if due:
            self._queued = [item for item in self._queued if item[0] > now]
        if self.channel_window is not None and due:
            # credit gate: injections beyond the per-channel window wait a
            # round for acks to free slots (relative order preserved)
            inject: list = []
            injected_now: dict[tuple[int, int], int] = {}
            for item in due:
                pkt = item[1]
                ch = (pkt.src, pkt.hop_dest)
                outstanding = (len(self._unacked.get(ch, ()))
                               + injected_now.get(ch, 0))
                if outstanding < self.channel_window:
                    inject.append(item)
                    injected_now[ch] = injected_now.get(ch, 0) + 1
                else:
                    rep.window_stalls += 1
                    self._queued.append((now + 1, pkt))
            due = inject
        # piggyback owed acks onto departing reverse-direction data
        for _, pkt in due:
            owed = (pkt.hop_dest, pkt.src)  # channel whose receiver is pkt.src
            if owed in self._need_ack:
                pkt.ack = self._need_ack.pop(owed)
        # standalone acks for whatever could not piggyback
        if self._need_ack:
            for (s, d) in sorted(self._need_ack):
                value = self._need_ack[(s, d)]
                if d in self._down or value < 0:
                    continue
                ack = Packet(src=d, hop_dest=s, envelopes=[], ack=value)
                rep.ack_packets[d] += 1
                self.total_packets += 1
                self.total_bytes += ACK_PACKET_BYTES
                rep.overhead_bytes[d] += ACK_PACKET_BYTES
                self._transmit_raw(ack, now)
            self._need_ack.clear()
        # inject queued data
        for _, pkt in due:
            ch = (pkt.src, pkt.hop_dest)
            self._unacked.setdefault(ch, {})[pkt.seq] = [pkt, 0, now + self.timeout0]
            self._transmit(pkt, now, count_overhead=True)
        # timeout-driven retransmissions (exponential backoff)
        for ch in sorted(self._unacked):
            pending = self._unacked[ch]
            src = ch[0]
            if src in self._down:
                continue
            for seq in sorted(pending):
                entry = pending[seq]
                if entry[2] > now:
                    continue
                entry[1] += 1
                if entry[1] > self.max_attempts:
                    raise CommunicationError(
                        f"packet {ch}#{seq} exceeded {self.max_attempts} "
                        f"retransmission attempts; fabric unrecoverable"
                    )
                entry[2] = now + min(self.timeout0 << entry[1], self.backoff_cap)
                rep.retrans_packets[src] += 1
                rep.retrans_bytes[src] += entry[0].wire_bytes + RELIABLE_HEADER_BYTES
                self._transmit(entry[0], now, count_overhead=False)

    def _transmit_raw(self, pkt: Packet, now: int) -> None:
        """Transmit an ack copy (fault draws apply, no retransmission —
        cumulative acks are naturally re-sent on the next reception)."""
        decision = self.injector.decide() if self.injector is not None else None
        if decision is not None and decision.dropped:
            self._report.dropped += 1
            return
        delay = decision.delay if decision is not None else 0
        if decision is not None and decision.delay:
            self._report.delayed += 1
        if decision is not None and decision.duplicated:
            self._report.duplicated += 1
            self.total_packets += 1
            self.total_bytes += ACK_PACKET_BYTES
            self._in_flight.append((now + 1 + decision.dup_delay, pkt))
        self._in_flight.append((now + 1 + delay, pkt))

    def _receive_copy(self, pkt: Packet, released: list[list[Packet]]) -> bool:
        """Process one arriving wire copy; True when data was released."""
        rep = self._report
        d = pkt.hop_dest
        if d in self._down:
            rep.lost_to_down += 1
            return False
        s = pkt.src
        if pkt.ack >= 0:
            # ack for the reverse channel (d -> s): prune the sender side
            pending = self._unacked.get((d, s))
            if pending:
                for seq in [q for q in pending if q <= pkt.ack]:
                    del pending[seq]
        if pkt.seq < 0:
            return False  # pure ack
        ch = (s, d)
        nxt = self._recv_next.get(ch, 0)
        buf = self._recv_buffer.setdefault(ch, {})
        if pkt.seq < nxt or pkt.seq in buf:
            rep.duplicates_discarded += 1
            self._need_ack[ch] = nxt - 1  # re-ack so the sender stops
            return False
        buf[pkt.seq] = pkt
        got = False
        while nxt in buf:
            out = buf.pop(nxt)
            released[d].append(out)
            self._live.pop((s, d, nxt), None)
            nxt += 1
            got = True
        self._recv_next[ch] = nxt
        self._need_ack[ch] = nxt - 1
        return got

    # ------------------------------------------------------------------ #
    # crash / recovery orchestration
    # ------------------------------------------------------------------ #
    def _crash(self, ev) -> None:
        r = ev.rank
        if not 0 <= r < self.num_ranks:
            raise CommunicationError(f"fault plan crashes invalid rank {r}")
        if self.recovery is None:
            raise CommunicationError(
                "fault plan contains rank crashes but no recovery manager is "
                "attached (enable checkpointing: EngineConfig.checkpoint_interval)"
            )
        self._report.crashed.append(r)
        self._down.add(r)
        self._restore_due[r] = self._round + ev.down_rounds
        # the crashed rank's NIC state dies with it
        self._queued = [(due, p) for (due, p) in self._queued if p.src != r]
        for key in [k for k in self._unacked if k[0] == r]:
            del self._unacked[key]
        for key in [k for k in self._next_seq if k[0] == r]:
            del self._next_seq[key]
        for key in [k for k in self._recv_next if k[1] == r]:
            del self._recv_next[key]
        for key in [k for k in self._recv_buffer if k[1] == r]:
            del self._recv_buffer[key]
        for key in [k for k in self._need_ack if k[1] == r]:
            del self._need_ack[key]

    def _restore(self, r: int) -> None:
        rep = self._report
        rep.recovered.append(r)
        self._replaying = r
        try:
            cost_us, replayed = self.recovery.restore_and_replay(r, self._tick)
        finally:
            self._replaying = None
        rep.recovery_us[r] += cost_us
        rep.replayed_ticks += replayed

    # --- hooks used by the recovery manager --------------------------- #
    def snapshot_rank(self, r: int) -> dict:
        """Channel state owned by rank ``r`` (checkpointed each epoch)."""
        return {
            "next_seq": {k[1]: v for k, v in self._next_seq.items() if k[0] == r},
            "recv_next": {k[0]: v for k, v in self._recv_next.items() if k[1] == r},
            "queued": [pkt for _, pkt in self._queued if pkt.src == r],
        }

    def restore_rank(self, r: int, snap: dict) -> None:
        """Reinstall ``r``'s epoch channel state and re-queue its
        checkpointed-but-undelivered outgoing packets (watermark-filtered,
        the restart handshake)."""
        for d, v in snap["next_seq"].items():
            self._next_seq[(r, d)] = v
        for s, v in snap["recv_next"].items():
            self._recv_next[(s, r)] = v
        for pkt in snap["queued"]:
            if pkt.seq >= self._recv_next.get((r, pkt.hop_dest), 0):
                self._queued.append((self._round, pkt))
                self._live[(r, pkt.hop_dest, pkt.seq)] = pkt
            else:
                self._report.replay_skipped += 1

    # --- durable checkpoints ------------------------------------------ #
    def snapshot_full(self) -> dict:
        """Whole-transport state image for durable checkpoints.

        Captured (and later restored) as *one* object so that a data packet
        referenced from several structures at once (``_queued``, ``_live``,
        ``_unacked``, ``_in_flight``) keeps a single identity through the
        pickle round-trip, exactly as it would in a live process.  Sets are
        stored as sorted lists so the on-disk bytes are independent of the
        writer's hash seed."""
        return {
            "tick": self._tick,
            "round": self._round,
            "total_packets": self.total_packets,
            "total_bytes": self.total_bytes,
            "next_seq": dict(self._next_seq),
            "recv_next": dict(self._recv_next),
            "recv_buffer": {ch: dict(buf) for ch, buf in sorted(self._recv_buffer.items())},
            "unacked": {
                ch: {seq: list(entry) for seq, entry in sorted(pending.items())}
                for ch, pending in sorted(self._unacked.items())
            },
            "need_ack": dict(self._need_ack),
            "queued": list(self._queued),
            "in_flight": list(self._in_flight),
            "live": dict(self._live),
            "down": sorted(self._down),
            "restore_due": dict(self._restore_due),
            "injector": (
                self.injector.snapshot_state() if self.injector is not None else None
            ),
        }

    def restore_full(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_full` image (same plan/topology)."""
        self._tick = snap["tick"]
        self._round = snap["round"]
        self.total_packets = snap["total_packets"]
        self.total_bytes = snap["total_bytes"]
        self._next_seq = dict(snap["next_seq"])
        self._recv_next = dict(snap["recv_next"])
        self._recv_buffer = {ch: dict(buf) for ch, buf in snap["recv_buffer"].items()}
        self._unacked = {
            ch: {seq: list(entry) for seq, entry in pending.items()}
            for ch, pending in snap["unacked"].items()
        }
        self._need_ack = dict(snap["need_ack"])
        self._queued = list(snap["queued"])
        self._in_flight = list(snap["in_flight"])
        self._live = dict(snap["live"])
        self._down = set(snap["down"])
        self._restore_due = dict(snap["restore_due"])
        self._replaying = None
        self._report = TransportReport(self.num_ranks)
        if snap["injector"] is not None and self.injector is not None:
            self.injector.restore_state(snap["injector"])

    def note_replayed_delivery(self, r: int, pkt: Packet) -> None:
        """Advance ``r``'s receive watermark over a replayed delivery."""
        ch = (pkt.src, r)
        nxt = self._recv_next.get(ch, 0)
        if pkt.seq >= nxt:
            self._recv_next[ch] = pkt.seq + 1
