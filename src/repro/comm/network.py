"""Deterministic store-and-forward network fabric.

Packets flushed during tick ``t`` become available at their next-hop rank
at tick ``t + 1`` — one simulation tick per network hop.  The engine maps
tick count to simulated time via the machine model's hop latency, so a 2D
route costs two hops of latency but buys larger aggregated packets, exactly
the trade-off Section III-B describes.
"""

from __future__ import annotations

from repro.comm.message import KIND_VISITOR, Packet
from repro.errors import CommunicationError


class Network:
    """In-flight packet store shared by all mailboxes of one traversal."""

    #: The fabric delivers per destination and nothing observes the order
    #: of sends across destinations, so a mailbox may ship each hop's full
    #: packets of one segment pass as one train (:attr:`Packet.count`).
    #: Fabrics whose behaviour depends on the global emission order (the
    #: reliable transport's fault injector) set this False.
    packet_trains = True

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise CommunicationError(f"need at least 1 rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self._sent_this_tick: list[Packet] = []
        #: Cumulative fabric statistics.
        self.total_packets = 0
        self.total_bytes = 0

    def send_packet(self, packet: Packet) -> None:
        """Inject a packet; it arrives at ``packet.hop_dest`` next tick."""
        if not 0 <= packet.hop_dest < self.num_ranks:
            raise CommunicationError(f"packet addressed to invalid rank {packet.hop_dest}")
        self._sent_this_tick.append(packet)
        self.total_packets += packet.count
        self.total_bytes += packet.wire_bytes

    def advance(self) -> list[list[Packet]]:
        """Move the tick boundary: deliver everything sent last tick.

        Returns per-rank packet lists (index = rank); one call per tick, so
        every hop costs exactly one tick of latency.
        """
        arrivals: list[list[Packet]] = [[] for _ in range(self.num_ranks)]
        for pkt in self._sent_this_tick:
            arrivals[pkt.hop_dest].append(pkt)
        self._sent_this_tick = []
        return arrivals

    def packets_in_flight(self) -> int:
        """Packets sent but not yet handed to a mailbox (a train counts
        its ``count`` packets)."""
        return sum(pkt.count for pkt in self._sent_this_tick)

    def visitor_envelopes_in_flight(self) -> int:
        """Logical visitor messages inside in-flight packets (quiescence
        cross-checks; control traffic is excluded)."""
        return sum(
            env.count
            for pkt in self._sent_this_tick
            for env in pkt.envelopes
            if env.kind == KIND_VISITOR
        )

    def idle(self) -> bool:
        """True when no packet is anywhere in the fabric."""
        return not self._sent_this_tick

    # -- durable checkpoints ------------------------------------------- #
    def snapshot_full(self) -> dict:
        """Whole-fabric state image for durable checkpoints.

        Unlike the per-rank recovery snapshots, this captures everything a
        host restart needs in one object so packet identity inside the
        image survives a single pickle round-trip."""
        return {
            "sent": list(self._sent_this_tick),
            "total_packets": self.total_packets,
            "total_bytes": self.total_bytes,
        }

    def restore_full(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_full` image."""
        self._sent_this_tick = list(snap["sent"])
        self.total_packets = snap["total_packets"]
        self.total_bytes = snap["total_bytes"]


class PacketRecorder:
    """Packet recorder standing in for the fabric in a rank's mailbox.

    The fabric — sequence stamping, fault injection, delivery scheduling —
    belongs to the process that owns the network, so ranks run elsewhere
    (forked workers) or re-executed in isolation (crash replay) send into
    this collector instead; :meth:`take` cuts the emission-ordered stream
    into the buckets their owner replays into the fabric unchanged.  It
    takes packet trains exactly when that fabric does.
    """

    __slots__ = ("_packets", "packet_trains")

    def __init__(self, fabric) -> None:
        self._packets: list[Packet] = []
        self.packet_trains = fabric.packet_trains

    def send_packet(self, packet: Packet) -> None:
        self._packets.append(packet)

    def take(self) -> list[Packet]:
        out = self._packets
        self._packets = []
        return out
