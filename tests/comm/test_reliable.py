"""Unit tests for the reliable exactly-once transport."""

import pytest

from repro.comm.faults import CrashEvent, FaultPlan
from repro.comm.message import (
    ACK_PACKET_BYTES,
    KIND_VISITOR,
    RELIABLE_HEADER_BYTES,
    Envelope,
    Packet,
)
from repro.comm.reliable import ReliableTransport
from repro.errors import CommunicationError


def visitor_packet(src, dst, tag):
    env = Envelope(dest=dst, kind=KIND_VISITOR, payload=tag, size_bytes=16)
    return Packet(src=src, hop_dest=dst, envelopes=[env])


def payloads(packets):
    return [env.payload for pkt in packets for env in pkt.envelopes]


def drain(transport, limit=8):
    """Advance empty ticks until trailing acks settle."""
    for _ in range(limit):
        if transport.idle():
            return
        transport.advance()
    assert transport.idle()


class TestValidation:
    def test_num_ranks(self):
        with pytest.raises(CommunicationError):
            ReliableTransport(0)

    def test_timeout_floor(self):
        with pytest.raises(CommunicationError):
            ReliableTransport(2, retransmit_timeout=2)

    def test_invalid_destination(self):
        t = ReliableTransport(2)
        with pytest.raises(CommunicationError):
            t.send_packet(visitor_packet(0, 5, "x"))

    def test_trains_refused(self):
        """Sequencing and fault draws are per packet: a mailbox never hands
        this fabric a packet train."""
        t = ReliableTransport(2)
        assert not t.packet_trains
        train = visitor_packet(0, 1, "x")
        train.count = 2
        with pytest.raises(CommunicationError, match="train"):
            t.send_packet(train)

    def test_crash_requires_recovery_manager(self):
        plan = FaultPlan(crashes=(CrashEvent(tick=1, rank=0),))
        t = ReliableTransport(2, plan)
        with pytest.raises(CommunicationError, match="recovery"):
            t.advance()


class TestFaultFreeDelivery:
    def test_single_packet(self):
        t = ReliableTransport(2)
        t.send_packet(visitor_packet(0, 1, "a"))
        assert t.packets_in_flight() == 1
        assert t.visitor_envelopes_in_flight() == 1
        released = t.advance()
        assert payloads(released[1]) == ["a"]
        assert t.packets_in_flight() == 0
        rep = t.take_report()
        assert rep.data_latency >= 1
        assert sum(rep.retrans_packets) == 0
        assert rep.dropped == rep.duplicated == rep.duplicates_discarded == 0

    def test_canonical_release_order(self):
        t = ReliableTransport(4)
        # inject out of src order; release must sort by (src, seq)
        t.send_packet(visitor_packet(3, 1, "c0"))
        t.send_packet(visitor_packet(0, 1, "a0"))
        t.send_packet(visitor_packet(3, 1, "c1"))
        t.send_packet(visitor_packet(0, 1, "a1"))
        released = t.advance()
        assert payloads(released[1]) == ["a0", "a1", "c0", "c1"]

    def test_sequence_numbers_per_channel(self):
        t = ReliableTransport(3)
        p1 = visitor_packet(0, 1, "x")
        p2 = visitor_packet(0, 2, "y")
        p3 = visitor_packet(0, 1, "z")
        for p in (p1, p2, p3):
            t.send_packet(p)
        assert (p1.seq, p2.seq, p3.seq) == (0, 0, 1)

    def test_overhead_accounting(self):
        t = ReliableTransport(2)
        pkt = visitor_packet(0, 1, "a")
        t.send_packet(pkt)
        t.advance()
        rep = t.take_report()
        # sender pays the reliable header once; no retransmissions happened
        assert rep.overhead_bytes[0] == RELIABLE_HEADER_BYTES
        assert sum(rep.retrans_bytes) == 0
        # the receiver's cumulative ack departs in the round after release
        # (standalone — no reverse data to piggyback on)
        ack_seen = rep.ack_packets[1]
        assert rep.overhead_bytes[1] == ack_seen * ACK_PACKET_BYTES
        for _ in range(6):
            if t.idle():
                break
            t.advance()
            ack_seen += t.take_report().ack_packets[1]
        assert ack_seen == 1
        assert t.idle()

    def test_wire_totals_include_headers(self):
        t = ReliableTransport(2)
        pkt = visitor_packet(0, 1, "a")
        t.send_packet(pkt)
        t.advance()
        drain(t)
        # one data transmission (+ reliable header) and one standalone ack
        assert t.total_packets == 2
        assert t.total_bytes == pkt.wire_bytes + RELIABLE_HEADER_BYTES + ACK_PACKET_BYTES


class TestFaultyDelivery:
    def _run(self, plan, n=40):
        t = ReliableTransport(4, plan)
        tags = []
        for i in range(n):
            tag = f"m{i}"
            tags.append(tag)
            t.send_packet(visitor_packet(i % 3, 3, tag))
        released = t.advance()
        return t, released, tags

    def test_drops_are_retransmitted_same_tick(self):
        plan = FaultPlan(seed=11, drop_rate=0.3)
        t, released, tags = self._run(plan)
        # every logical message released within the single advance() call
        assert sorted(payloads(released[3])) == sorted(tags)
        rep = t.take_report()
        assert rep.dropped > 0
        assert sum(rep.retrans_packets) > 0
        assert sum(rep.retrans_bytes) > 0
        drain(t, limit=20)

    def test_duplicates_are_discarded(self):
        plan = FaultPlan(seed=11, duplicate_rate=0.6)
        t, released, tags = self._run(plan)
        assert sorted(payloads(released[3])) == sorted(tags)  # exactly once
        assert t.take_report().duplicated > 0
        # delayed duplicate copies arrive on later ticks and are discarded
        discarded = t.take_report().duplicates_discarded
        for _ in range(20):
            if t.idle():
                break
            for r, pkts in enumerate(t.advance()):
                assert not pkts, f"duplicate released at rank {r}"
            discarded += t.take_report().duplicates_discarded
        assert t.idle()
        assert discarded > 0

    def test_delays_stretch_latency_not_schedule(self):
        plan = FaultPlan(seed=11, delay_rate=0.8, max_delay=5)
        t, released, tags = self._run(plan)
        assert sorted(payloads(released[3])) == sorted(tags)
        rep = t.take_report()
        assert rep.delayed > 0
        assert rep.data_latency > 1
        drain(t, limit=30)

    def test_same_seed_same_wire_behaviour(self):
        plan = FaultPlan(seed=9, drop_rate=0.2, duplicate_rate=0.2, delay_rate=0.2)
        runs = []
        for _ in range(2):
            t, released, _ = self._run(plan)
            rep = t.take_report()
            runs.append(
                (
                    payloads(released[3]),
                    rep.rounds,
                    rep.dropped,
                    rep.duplicated,
                    rep.delayed,
                    tuple(rep.retrans_packets),
                    t.total_packets,
                    t.total_bytes,
                )
            )
        assert runs[0] == runs[1]

    def test_unrecoverable_fabric_raises(self):
        plan = FaultPlan(seed=1, drop_rate=0.99)
        t = ReliableTransport(2, plan, max_attempts=3)
        t.send_packet(visitor_packet(0, 1, "doomed"))
        with pytest.raises(CommunicationError, match="retransmission attempts"):
            t.advance()


class TestChannelWindow:
    def test_window_validation(self):
        with pytest.raises(CommunicationError):
            ReliableTransport(2, channel_window=0)

    def test_window_defers_but_delivers_in_order(self):
        t = ReliableTransport(2, channel_window=1)
        tags = [f"m{i}" for i in range(6)]
        for tag in tags:
            t.send_packet(visitor_packet(0, 1, tag))
        released, stalls = [], 0
        for _ in range(40):
            arrivals = t.advance()
            released.extend(payloads(arrivals[1]))
            stalls += t.take_report().window_stalls
            if t.idle():
                break
        assert released == tags  # per-channel FIFO preserved
        assert stalls > 0  # the credit gate engaged

    def test_unbounded_window_never_stalls(self):
        t = ReliableTransport(2)
        for i in range(6):
            t.send_packet(visitor_packet(0, 1, i))
        stalls = 0
        for _ in range(20):
            t.advance()
            stalls += t.take_report().window_stalls
            if t.idle():
                break
        assert t.idle() and stalls == 0
