"""Tests for the routed, aggregating mailbox."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.comm.mailbox import Mailbox
from repro.comm.message import (
    ENVELOPE_HEADER_BYTES,
    KIND_CONTROL,
    KIND_VISITOR,
    PACKET_HEADER_BYTES,
)
from repro.comm.network import Network
from repro.comm.routing import DirectTopology, Grid2DTopology
from repro.errors import CommunicationError


def _fabric(p, topo_cls=DirectTopology, agg=16, **topo_kwargs):
    net = Network(p)
    topo = topo_cls(p, **topo_kwargs)
    boxes = [Mailbox(r, topo, net, aggregation_size=agg) for r in range(p)]
    return net, boxes


def _pump(net, boxes, max_ticks=10):
    """Run delivery ticks until the fabric drains; returns {rank: payloads}."""
    delivered = {r: [] for r in range(len(boxes))}
    for _ in range(max_ticks):
        arrivals = net.advance()
        for r, box in enumerate(boxes):
            for env in box.receive(arrivals[r]):
                delivered[r].append(env.payload)
        for box in boxes:
            box.flush()
        if net.idle() and not any(b.has_buffered() for b in boxes):
            break
    return delivered


class TestDirectDelivery:
    def test_simple_send(self):
        net, boxes = _fabric(2)
        boxes[0].send(1, KIND_VISITOR, "hello", 8)
        boxes[0].flush()
        delivered = _pump(net, boxes)
        assert delivered[1] == ["hello"]

    def test_local_send_short_circuits(self):
        net, boxes = _fabric(2)
        boxes[0].send(0, KIND_VISITOR, "self", 8)
        delivered = _pump(net, boxes)
        assert delivered[0] == ["self"]
        assert net.total_packets == 0  # never touched the wire

    def test_counters(self):
        net, boxes = _fabric(2)
        boxes[0].send(1, KIND_VISITOR, "a", 8)
        boxes[0].send(1, KIND_CONTROL, "c", 8)
        boxes[0].flush()
        _pump(net, boxes)
        assert boxes[0].visitors_sent == 1  # control not counted
        assert boxes[1].visitors_received == 1


class TestAggregation:
    def test_eager_flush_at_threshold(self):
        net, boxes = _fabric(2, agg=3)
        for i in range(3):
            boxes[0].send(1, KIND_VISITOR, i, 8)
        # threshold reached -> packet already on the wire without flush()
        assert net.total_packets == 1

    def test_small_batches_wait_for_flush(self):
        net, boxes = _fabric(2, agg=10)
        boxes[0].send(1, KIND_VISITOR, 0, 8)
        assert net.total_packets == 0
        assert boxes[0].has_buffered()
        boxes[0].flush()
        assert net.total_packets == 1

    def test_aggregation_reduces_packets(self):
        """The aggregation claim: same messages, fewer packets."""
        net1, boxes1 = _fabric(2, agg=1)
        net16, boxes16 = _fabric(2, agg=16)
        for boxes, _net in ((boxes1, net1), (boxes16, net16)):
            for i in range(16):
                boxes[0].send(1, KIND_VISITOR, i, 8)
            boxes[0].flush()
        assert net1.total_packets == 16
        assert net16.total_packets == 1

    def test_invalid_aggregation_size(self):
        net = Network(2)
        with pytest.raises(CommunicationError):
            Mailbox(0, DirectTopology(2), net, aggregation_size=0)


class Test2DRouting:
    def test_two_hop_delivery(self):
        """Figure 4's example through the real mailbox: 11 -> 5 via 9."""
        net, boxes = _fabric(16, Grid2DTopology, shape=(4, 4))
        boxes[11].send(5, KIND_VISITOR, "routed", 8)
        boxes[11].flush()
        delivered = _pump(net, boxes)
        assert delivered[5] == ["routed"]
        assert boxes[9].envelopes_forwarded == 1  # transited rank 9

    def test_transit_reaggregates(self):
        """Envelopes from different row peers bound for the same final
        destination merge at the intermediate hop into one packet — the
        O(sqrt(p)) aggregation gain."""
        net, boxes = _fabric(16, Grid2DTopology, shape=(4, 4), agg=16)
        # 8, 10 and 11 share row 2; all send to rank 5 (column 1)
        for sender in (8, 10, 11):
            boxes[sender].send(5, KIND_VISITOR, sender, 8)
        for b in boxes:
            b.flush()
        delivered = _pump(net, boxes)
        assert sorted(delivered[5]) == [8, 10, 11]
        # rank 9 forwarded all three envelopes in a single packet
        assert boxes[9].envelopes_forwarded == 3
        assert boxes[9].packets_sent == 1

    def test_all_pairs_deliver(self):
        net, boxes = _fabric(16, Grid2DTopology, shape=(4, 4))
        for s in range(16):
            for d in range(16):
                if s != d:
                    boxes[s].send(d, KIND_VISITOR, (s, d), 8)
        for b in boxes:
            b.flush()
        delivered = _pump(net, boxes, max_ticks=20)
        for d in range(16):
            senders = {pair[0] for pair in delivered[d]}
            assert senders == set(range(16)) - {d}


class TestProtocolErrors:
    def test_wrong_hop_packet_rejected(self):
        from repro.comm.message import Envelope, Packet

        net, boxes = _fabric(2)
        bad = Packet(src=0, hop_dest=0, envelopes=[Envelope(1, KIND_VISITOR, "x", 8)])
        with pytest.raises(CommunicationError):
            boxes[1].receive([bad])


class TestBatchSends:
    """send_batch / send_stream must be indistinguishable from N
    individual sends: same packets, bytes, counters and arrival order."""

    @staticmethod
    def _flatten(payloads):
        """Delivered payloads -> [(vertex, payload)] in arrival order,
        whether they arrived as scalars or as VisitorBatch envelopes."""
        from repro.core.batch import VisitorBatch

        out = []
        for p in payloads:
            if isinstance(p, VisitorBatch):
                out.extend(zip(p.vertices.tolist(), p.payloads.tolist(), strict=False))
            else:
                out.append(p)
        return out

    def _pump_flat(self, net, boxes, **kw):
        delivered = _pump(net, boxes, **kw)
        return {r: self._flatten(v) for r, v in delivered.items()}

    def test_send_batch_matches_individual_sends(self):
        import numpy as np

        from repro.core.batch import VisitorBatch

        n = 23
        net_a, boxes_a = _fabric(2, agg=7)
        net_b, boxes_b = _fabric(2, agg=7)
        for i in range(n):
            boxes_a[0].send(1, KIND_VISITOR, (i, i * 10), 8)
        batch = VisitorBatch(np.arange(n), np.arange(n) * 10)
        boxes_b[0].send_batch(1, batch, 8)
        # threshold flushes must fire at the same logical counts
        assert net_a.total_packets == net_b.total_packets == n // 7
        for boxes in (boxes_a, boxes_b):
            boxes[0].flush()
        got_a = self._pump_flat(net_a, boxes_a)
        got_b = self._pump_flat(net_b, boxes_b)
        assert got_a[1] == got_b[1]
        for attr in ("visitors_sent", "packets_sent", "bytes_sent"):
            assert getattr(boxes_a[0], attr) == getattr(boxes_b[0], attr)
        assert boxes_a[1].visitors_received == boxes_b[1].visitors_received == n

    def test_send_stream_matches_individual_sends_2d(self):
        """Mixed-destination stream over a routed topology: every
        per-receiver arrival sequence and every counter must match."""
        import numpy as np

        from repro.core.batch import VisitorBatch

        rng = np.random.default_rng(7)
        dests = rng.integers(0, 16, size=200)
        vertices = np.arange(200)
        payloads = rng.integers(0, 1000, size=200)
        net_a, boxes_a = _fabric(16, Grid2DTopology, shape=(4, 4), agg=5)
        net_b, boxes_b = _fabric(16, Grid2DTopology, shape=(4, 4), agg=5)
        for d, v, p in zip(dests.tolist(), vertices.tolist(), payloads.tolist(), strict=False):
            boxes_a[3].send(d, KIND_VISITOR, (v, p), 8)
        boxes_b[3].send_stream(dests, VisitorBatch(vertices, payloads), 8)
        for boxes in (boxes_a, boxes_b):
            for b in boxes:
                b.flush()
        got_a = self._pump_flat(net_a, boxes_a, max_ticks=20)
        got_b = self._pump_flat(net_b, boxes_b, max_ticks=20)
        assert got_a == got_b
        assert net_a.total_packets == net_b.total_packets
        for ba, bb in zip(boxes_a, boxes_b, strict=False):
            for attr in ("visitors_sent", "visitors_received", "packets_sent",
                         "bytes_sent", "envelopes_forwarded"):
                assert getattr(ba, attr) == getattr(bb, attr), attr

    def test_send_stream_loopback(self):
        import numpy as np

        from repro.core.batch import VisitorBatch

        net, boxes = _fabric(4)
        dests = np.array([0, 0, 2])
        boxes[0].send_stream(dests, VisitorBatch(np.arange(3), np.arange(3)), 8)
        boxes[0].flush()
        got = self._pump_flat(net, boxes)
        assert got[0] == [(0, 0), (1, 1)]
        assert got[2] == [(2, 2)]

    def test_buffered_visitor_count(self):
        import numpy as np

        from repro.core.batch import VisitorBatch

        net, boxes = _fabric(2, agg=100)
        boxes[0].send(1, KIND_VISITOR, "v", 8)
        boxes[0].send(1, KIND_CONTROL, "c", 8)  # not a visitor
        boxes[0].send_batch(1, VisitorBatch(np.arange(5), np.arange(5)), 8)
        boxes[0].send(0, KIND_VISITOR, "self", 8)  # loopback queue
        assert boxes[0].buffered_visitor_count() == 7
        boxes[0].flush()
        assert boxes[0].buffered_visitor_count() == 1  # loopback remains
        assert net.visitor_envelopes_in_flight() == 6

    def test_visitor_envelopes_in_flight_counts_logical_messages(self):
        import numpy as np

        from repro.core.batch import VisitorBatch

        net, boxes = _fabric(2)
        boxes[0].send_batch(1, VisitorBatch(np.arange(9), np.arange(9)), 8)
        boxes[0].flush()
        assert net.visitor_envelopes_in_flight() == 9
        net.advance()
        assert net.visitor_envelopes_in_flight() == 0


# ---------------------------------------------------------------------- #
# Segment-pass oracle: batch sends vs per-visitor sends
# ---------------------------------------------------------------------- #
_VISITOR_BYTES = 8
_CONTROL_BYTES = 28


class _RecordingNetwork(Network):
    """An ordered fabric that records each packet as (hop_dest,
    per-message contents, wire bytes); per-message contents flatten batch
    envelopes, so envelope boundaries inside a packet are not compared."""

    packet_trains = False

    def __init__(self, p):
        super().__init__(p)
        self.log = []

    def send_packet(self, packet):
        super().send_packet(packet)
        assert packet.count == 1
        self.log.append((packet.hop_dest, _messages(packet.envelopes), packet.wire_bytes))


class _TrainRecordingNetwork(_RecordingNetwork):
    """An order-free fabric that expands each packet train into its
    ``count`` logical packets (all full, so equal message shares) and
    records those."""

    packet_trains = True

    def send_packet(self, packet):
        Network.send_packet(self, packet)
        sized = _sized_messages(packet.envelopes)
        share, rem = divmod(len(sized), packet.count)
        assert rem == 0 and share > 0
        wires = []
        for i in range(0, len(sized), share):
            chunk = sized[i:i + share]
            wires.append(PACKET_HEADER_BYTES
                         + sum(size + ENVELOPE_HEADER_BYTES for _, size in chunk))
            self.log.append((packet.hop_dest, [m for m, _ in chunk], wires[-1]))
        assert packet.wire_bytes == sum(wires)


def _sized_messages(envelopes):
    """Per-message (contents, payload size) pairs of an envelope list."""
    from repro.core.batch import VisitorBatch

    out = []
    for env in envelopes:
        if isinstance(env.payload, VisitorBatch):
            b = env.payload
            assert len(b) == env.count
            out.extend(((env.dest, KIND_VISITOR, v, p), env.size_bytes)
                       for v, p in zip(b.vertices.tolist(), b.payloads.tolist(), strict=True))
        elif env.kind == KIND_VISITOR:
            out.append(((env.dest, KIND_VISITOR, *env.payload), env.size_bytes))
        else:
            out.append(((env.dest, KIND_CONTROL, env.payload), env.size_bytes))
    return out


def _messages(envelopes):
    return [m for m, _ in _sized_messages(envelopes)]


def _per_hop(log):
    """A packet log as each hop's packet sequence: what an order-free
    fabric preserves."""
    out = {}
    for entry in log:
        out.setdefault(entry[0], []).append(entry)
    return out


def _oracle_ops():
    """Op sequences over destinations ``0..hi`` (a small ``hi`` makes hop
    collisions, mid-run packet cuts and re-inserted hops likely)."""

    def ops(hi):
        dest = st.integers(0, hi)
        return st.lists(
            st.one_of(
                st.tuples(st.just("send"), dest,
                          st.sampled_from([KIND_VISITOR, KIND_CONTROL])),
                st.tuples(st.just("stream"), st.lists(dest, max_size=40)),
                st.tuples(st.just("batch"), dest, st.integers(0, 30)),
                st.tuples(st.just("recv"), st.lists(
                    st.tuples(dest, st.integers(0, 12)), max_size=6)),  # count 0 = control
                st.tuples(st.just("flush")),
            ),
            max_size=25,
        )

    return st.integers(1, 11).flatmap(ops)


class _PerMessageModel:
    """The per-message mailbox, written out independently of
    :class:`Mailbox`: each message joins its next hop's buffer, is charged
    against the byte cap (bytes beyond it spill, one credit stall), and the
    buffer flushes — reading its spill back — on reaching ``agg``."""

    def __init__(self, topo, rank, agg, cap):
        self.row = [topo.next_hop(rank, d) if d != rank else rank
                    for d in range(topo.num_ranks)]
        self.agg, self.cap = agg, cap
        self.buffers, self.bytes, self.spilled = {}, {}, {}
        self.log = []
        self.counters = dict(packets_sent=0, bytes_sent=0, bp_stalls=0, bp_spilled_bytes=0,
                             bp_unspilled_bytes=0, max_resident_bytes=0)

    def put(self, message, size):
        hop = self.row[message[0]]
        self.buffers.setdefault(hop, []).append((message, size))
        if self.cap is not None:
            pre = self.bytes.get(hop, 0)
            post = self.bytes[hop] = pre + size + ENVELOPE_HEADER_BYTES
            over = max(post - self.cap, 0) - max(pre - self.cap, 0)
            if over:
                self.spilled[hop] = self.spilled.get(hop, 0) + over
                self.counters["bp_stalls"] += 1
                self.counters["bp_spilled_bytes"] += over
            self.counters["max_resident_bytes"] = max(self.counters["max_resident_bytes"],
                                                      min(post, self.cap))
        if len(self.buffers[hop]) == self.agg:
            self.flush_hop(hop)

    def flush_hop(self, hop):
        buf = self.buffers.pop(hop)
        self.bytes.pop(hop, None)
        self.counters["bp_unspilled_bytes"] += self.spilled.pop(hop, 0)
        wire = PACKET_HEADER_BYTES + sum(size + ENVELOPE_HEADER_BYTES for _, size in buf)
        self.log.append((hop, [m for m, _ in buf], wire))
        self.counters["packets_sent"] += 1
        self.counters["bytes_sent"] += wire

    def flush(self):
        for hop in list(self.buffers):
            self.flush_hop(hop)


_ORACLE_ARGS = dict(
    topo_name=st.sampled_from(["direct", "2d", "3d"]),
    rank=st.integers(0, 11),
    agg=st.integers(1, 20),
    cap=st.one_of(st.none(), st.integers(1, 80)),
    ops=_oracle_ops(),
)


class TestSegmentPassOracle:
    """Every batch entry point (send_batch, send_stream, forwarded runs in
    receive) against per-visitor sends on a twin mailbox: the packets handed
    to the network, wire bytes, every counter, the flow-control ledger and
    the spill pager's state must match — and match an independent
    per-message model.  On an ordered fabric the packets' global order
    must match too; on an order-free one the batch side ships packet
    trains, and each hop's expanded packet sequence must match."""

    @staticmethod
    def _twin(topo, rank, agg, cap, trains):
        from repro.memory.device import dram
        from repro.memory.spill import SpillPager

        twins = []
        for fabric in (_RecordingNetwork, _TrainRecordingNetwork if trains else _RecordingNetwork):
            net = fabric(topo.num_ranks)
            pager = SpillPager(page_size=64, device=dram(), cache_pages=2) if cap else None
            twins.append((net, Mailbox(rank, topo, net, aggregation_size=agg,
                                       capacity_bytes=cap, spill=pager)))
        return twins

    @staticmethod
    def _state(net, box, trains):
        snap = box.snapshot_state()
        snap["buffers"] = {h: _messages(b) for h, b in snap.pop("buffers").items()}
        snap["buffer_order"] = list(box._buffers)
        snap["local"] = _messages(snap["local"])
        pager = box.spill.snapshot_state() if box.spill is not None else None
        return _per_hop(net.log) if trains else net.log, snap, pager

    @staticmethod
    def _check_model(model, net, box, trains):
        from repro.memory.spill import NS_MAILBOX

        if trains:
            assert _per_hop(net.log) == _per_hop(model.log)
        else:
            assert net.log == model.log
        assert {k: getattr(box, k) for k in model.counters} == model.counters
        assert {h: _messages(b) for h, b in box._buffers.items()} == {
            h: [m for m, _ in b] for h, b in model.buffers.items()
        }
        assert list(box._buffers) == list(model.buffers)
        if box.spill is not None:
            assert box.spill._write_cursor[NS_MAILBOX] == model.counters["bp_spilled_bytes"]
            assert box.spill._read_cursor[NS_MAILBOX] == model.counters["bp_unspilled_bytes"]

    @given(**_ORACLE_ARGS)
    @settings(max_examples=300)
    def test_matches_per_visitor_sends(self, topo_name, rank, agg, cap, ops):
        self._drive(topo_name, rank, agg, cap, ops, trains=False)

    @given(**_ORACLE_ARGS)
    @example(topo_name="direct", rank=0, agg=1, cap=None, ops=[("batch", 1, 2)])
    # Two hops whose first packets read back different spill (24 and 64
    # bytes): only the stream order of those read-backs puts the spill
    # log's split where the per-visitor sends put it, so the pager's page
    # hits catch a train that reads back in hop order.
    @example(topo_name="direct", rank=0, agg=4, cap=40,
             ops=[("send", 1, KIND_CONTROL), ("send", 1, KIND_CONTROL),
                  ("stream", [2, 2, 2, 2, 1, 1])])
    @settings(max_examples=300)
    def test_trains_match_per_visitor_sends(self, topo_name, rank, agg, cap, ops):
        self._drive(topo_name, rank, agg, cap, ops, trains=True)

    def _drive(self, topo_name, rank, agg, cap, ops, trains):
        import numpy as np

        from repro.comm.message import Envelope, Packet
        from repro.comm.routing import make_topology
        from repro.core.batch import VisitorBatch

        topo = make_topology(topo_name, 12)
        (net_a, ref), (net_b, box) = self._twin(topo, rank, agg, cap, trains)
        model = _PerMessageModel(topo, rank, agg, cap)
        vid = 0

        def visitors(n):
            nonlocal vid
            v = np.arange(vid, vid + n)
            vid += n
            return VisitorBatch(v, v * 7 % 13)

        def per_message(d, kind, payload, size):
            ref.send(d, kind, payload, size)
            if d != rank:
                model.put(_messages([Envelope(d, kind, payload, size)])[0], size)

        for op in ops:
            if op[0] == "send":
                _, d, kind = op
                size = _VISITOR_BYTES if kind == KIND_VISITOR else _CONTROL_BYTES
                payload = (vid, 0) if kind == KIND_VISITOR else ("probe", vid)
                vid += 1
                per_message(d, kind, payload, size)
                box.send(d, kind, payload, size)
            elif op[0] in ("stream", "batch"):
                dests = op[1] if op[0] == "stream" else [op[1]] * op[2]
                b = visitors(len(dests))
                for d, v, p in zip(dests, b.vertices.tolist(), b.payloads.tolist(),
                                   strict=True):
                    per_message(d, KIND_VISITOR, (v, p), _VISITOR_BYTES)
                if op[0] == "stream":
                    box.send_stream(np.array(dests, dtype=np.int64), b, _VISITOR_BYTES)
                else:
                    box.send_batch(op[1], b, _VISITOR_BYTES)
            elif op[0] == "recv":
                env_a, env_b = [], []
                for d, n in op[1]:
                    if n == 0:
                        ctl = Envelope(d, KIND_CONTROL, ("reply", vid), _CONTROL_BYTES)
                        vid += 1
                        env_a.append(ctl)
                        env_b.append(ctl)
                        continue
                    b = visitors(n)
                    env_a.extend(
                        Envelope(d, KIND_VISITOR, (v, p), _VISITOR_BYTES)
                        for v, p in zip(b.vertices.tolist(), b.payloads.tolist(),
                                        strict=True)
                    )
                    env_b.append(Envelope(d, KIND_VISITOR, b, _VISITOR_BYTES, n))
                for env in env_a:
                    if env.dest != rank:
                        model.put(_messages([env])[0], env.size_bytes)
                got_a = ref.receive([Packet(src=0, hop_dest=rank, envelopes=env_a)])
                got_b = box.receive([Packet(src=0, hop_dest=rank, envelopes=env_b)])
                assert _messages(got_a) == _messages(got_b)
            else:
                for m in (ref, box, model):
                    m.flush()
            assert self._state(net_a, ref, trains) == self._state(net_b, box, trains)
            self._check_model(model, net_b, box, trains)
        for m in (ref, box, model):
            m.flush()
        assert self._state(net_a, ref, trains) == self._state(net_b, box, trains)
        self._check_model(model, net_b, box, trains)
