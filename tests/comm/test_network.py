"""Tests for the store-and-forward network."""

import pytest

from repro.comm.message import KIND_VISITOR, Envelope, Packet
from repro.comm.network import Network
from repro.errors import CommunicationError


def _packet(src, dest, n=1, count=1):
    envs = [Envelope(dest=dest, kind=KIND_VISITOR, payload=i, size_bytes=8) for i in range(n)]
    return Packet(src=src, hop_dest=dest, envelopes=envs, count=count)


class TestDelivery:
    def test_one_tick_latency(self):
        net = Network(4)
        net.send_packet(_packet(0, 2))
        # packets sent during tick t arrive at the t+1 boundary, not later
        first = net.advance()
        assert len(first[2]) == 1
        assert not first[0]
        second = net.advance()
        assert all(not inbox for inbox in second)

    def test_multiple_packets_same_dest(self):
        net = Network(3)
        net.send_packet(_packet(0, 1))
        net.send_packet(_packet(2, 1))
        arrivals = net.advance()
        assert len(arrivals[1]) == 2

    def test_invalid_dest(self):
        net = Network(2)
        with pytest.raises(CommunicationError):
            net.send_packet(_packet(0, 5))

    def test_zero_ranks_invalid(self):
        with pytest.raises(CommunicationError):
            Network(0)


class TestIdleTracking:
    def test_idle_initially(self):
        assert Network(2).idle()

    def test_busy_after_send_until_drained(self):
        net = Network(2)
        net.send_packet(_packet(0, 1))
        assert not net.idle()
        net.advance()  # handed to the destination mailbox
        assert net.idle()

    def test_packets_in_flight_counts(self):
        net = Network(4)
        net.send_packet(_packet(0, 1))
        net.send_packet(_packet(0, 2))
        assert net.packets_in_flight() == 2

    def test_trains_count_their_logical_packets(self):
        net = Network(4)
        net.send_packet(_packet(0, 1, n=6, count=3))
        net.send_packet(_packet(0, 2))
        assert net.packets_in_flight() == 4
        assert not net.idle()
        assert [len(a) for a in net.advance()] == [0, 1, 1, 0]
        assert net.idle()


class TestAccounting:
    def test_totals(self):
        net = Network(2)
        p = _packet(0, 1, n=3)
        net.send_packet(p)
        assert net.total_packets == 1
        assert net.total_bytes == p.wire_bytes

    def test_train_totals_count_logical_packets(self):
        net = Network(2)
        train = _packet(0, 1, n=4, count=2)
        net.send_packet(train)
        assert net.total_packets == 2
        assert net.total_bytes == train.wire_bytes
