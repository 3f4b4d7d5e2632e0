"""Message envelopes and aggregated packets.

An :class:`Envelope` is one logical message (a visitor, or a termination
control message) addressed to a final destination rank.  The mailbox layer
aggregates envelopes heading to the same *next hop* into a
:class:`Packet` — "2D routing increases the amount of message aggregation
possible by O(sqrt(p))" — and the cost model charges per packet plus per
byte, which is what makes aggregation profitable in simulated time exactly
as it is on real interconnects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Envelope kinds.
KIND_VISITOR = 0
KIND_CONTROL = 1

#: Fixed per-envelope header bytes (destination + kind tag).
ENVELOPE_HEADER_BYTES = 8
#: Fixed per-packet header bytes (MPI-style match info).
PACKET_HEADER_BYTES = 32
#: Extra per-packet header when reliable delivery is on (sequence number
#: plus piggybacked cumulative ack).  Charged as transport overhead, not
#: baked into :attr:`Packet.wire_bytes`, so logical byte counters stay
#: comparable with unreliable runs.
RELIABLE_HEADER_BYTES = 12
#: Wire size of a standalone cumulative-ack packet (header + ack word).
ACK_PACKET_BYTES = PACKET_HEADER_BYTES + 8


@dataclass(slots=True)
class Envelope:
    """One logical message: ``payload`` bound for rank ``dest``.

    ``count`` is the number of logical messages the envelope stands for:
    1 for ordinary object-path envelopes and control messages, N when the
    payload is a :class:`~repro.core.batch.VisitorBatch` carrying N
    visitors.  ``size_bytes`` is always the *per-message* payload size, so
    wire accounting is identical whether N messages travel as N envelopes
    or as one batch envelope.
    """

    dest: int
    kind: int
    payload: object
    size_bytes: int
    count: int = 1

    @property
    def wire_bytes(self) -> int:
        """Bytes this envelope occupies inside a packet."""
        return self.count * (self.size_bytes + ENVELOPE_HEADER_BYTES)


@dataclass(slots=True)
class Packet:
    """A batch of envelopes moving one hop together.

    ``seq`` and ``ack`` exist only under reliable delivery
    (:mod:`repro.comm.reliable`): ``seq`` is the packet's position in its
    ``(src, hop_dest)`` channel (-1 = unsequenced / plain fabric), ``ack``
    is a piggybacked cumulative ack for the *reverse* channel (-1 = none).
    """

    src: int
    hop_dest: int
    envelopes: list[Envelope] = field(default_factory=list)
    _cached_wire_bytes: int = -1
    seq: int = -1
    ack: int = -1

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire, including the packet header (computed
        once — this is on the network hot path)."""
        if self._cached_wire_bytes < 0:
            total = PACKET_HEADER_BYTES  # Envelope.wire_bytes, inlined per envelope
            for e in self.envelopes:
                total += e.count * (e.size_bytes + ENVELOPE_HEADER_BYTES)
            self._cached_wire_bytes = total
        return self._cached_wire_bytes
