"""Tests for envelope / packet wire accounting."""

from repro.comm.message import (
    ENVELOPE_HEADER_BYTES,
    KIND_CONTROL,
    KIND_VISITOR,
    PACKET_HEADER_BYTES,
    Envelope,
    Packet,
)


class TestEnvelope:
    def test_wire_bytes(self):
        env = Envelope(dest=3, kind=KIND_VISITOR, payload="x", size_bytes=24)
        assert env.wire_bytes == 24 + ENVELOPE_HEADER_BYTES

    def test_kinds_distinct(self):
        assert KIND_VISITOR != KIND_CONTROL


class TestPacket:
    def test_empty_packet_is_header_only(self):
        pkt = Packet(src=0, hop_dest=1)
        assert pkt.wire_bytes == PACKET_HEADER_BYTES

    def test_wire_bytes_sum(self):
        envs = [
            Envelope(dest=1, kind=KIND_VISITOR, payload=None, size_bytes=8),
            Envelope(dest=1, kind=KIND_VISITOR, payload=None, size_bytes=16),
        ]
        pkt = Packet(src=0, hop_dest=1, envelopes=envs)
        expected = PACKET_HEADER_BYTES + sum(e.wire_bytes for e in envs)
        assert pkt.wire_bytes == expected

    def test_aggregation_amortises_header(self):
        """The whole point of aggregation: one fat packet beats n thin ones."""
        one_each = [
            Packet(src=0, hop_dest=1,
                   envelopes=[Envelope(1, KIND_VISITOR, None, 8)])
            for _ in range(16)
        ]
        fat = Packet(
            src=0, hop_dest=1,
            envelopes=[Envelope(1, KIND_VISITOR, None, 8) for _ in range(16)],
        )
        assert fat.wire_bytes < sum(p.wire_bytes for p in one_each)

    def test_train_charges_one_header_per_packet(self):
        """A train of k packets costs exactly its k packets' wire bytes."""
        envs = [Envelope(1, KIND_VISITOR, None, 8) for _ in range(6)]
        singles = [Packet(src=0, hop_dest=1, envelopes=envs[i:i + 2]) for i in range(0, 6, 2)]
        train = Packet(src=0, hop_dest=1, envelopes=envs, count=3)
        assert train.wire_bytes == sum(p.wire_bytes for p in singles)
        assert train.wire_bytes == 3 * PACKET_HEADER_BYTES + 6 * (8 + ENVELOPE_HEADER_BYTES)
