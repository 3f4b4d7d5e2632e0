"""Unit tests for the SoA packet-frame codec: exact round-trips of batch
and control payloads (dtypes, seq/ack stamps, per-message sizes, value
types), of the pickled-payload kind that carries everything else, and the
writable-view contract decoded batches must honor."""

from __future__ import annotations

import numpy as np

from repro.comm.message import Envelope, Packet
from repro.core.batch import VisitorBatch
from repro.runtime.packet_codec import (
    decode_ints,
    decode_packets,
    encode_ints,
    encode_packets,
)


def _batch(n: int, *, parents: bool = False, extras: int = 0, seed: int = 0):
    rng = np.random.default_rng(seed)
    return VisitorBatch(
        rng.integers(0, 1 << 20, n).astype(np.int64),
        rng.integers(0, 1 << 10, n).astype(np.int64),
        rng.integers(-1, 1 << 20, n).astype(np.int64) if parents else None,
        tuple(rng.integers(0, 99, n).astype(np.int64) for _ in range(extras)),
    )


def _round_trip(packets):
    # bytearray: the pool hands the decoder a writable buffer.
    return decode_packets(bytearray(encode_packets(packets)))


def assert_packets_equal(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b, strict=False):
        assert (pa.src, pa.hop_dest, pa.seq, pa.ack, pa.count) == (
            pb.src, pb.hop_dest, pb.seq, pb.ack, pb.count)
        assert len(pa.envelopes) == len(pb.envelopes)
        for ea, eb in zip(pa.envelopes, pb.envelopes, strict=False):
            assert (ea.dest, ea.kind, ea.size_bytes, ea.count) == (
                eb.dest, eb.kind, eb.size_bytes, eb.count)
            if isinstance(ea.payload, VisitorBatch):
                assert isinstance(eb.payload, VisitorBatch)
                for ca, cb in (
                    (ea.payload.vertices, eb.payload.vertices),
                    (ea.payload.payloads, eb.payload.payloads),
                    (ea.payload.parents, eb.payload.parents),
                    *zip(ea.payload.extras, eb.payload.extras, strict=True),
                ):
                    if ca is None:
                        assert cb is None
                    else:
                        assert ca.dtype == cb.dtype
                        assert np.array_equal(ca, cb)
            else:
                assert ea.payload == eb.payload
                assert type(ea.payload) is type(eb.payload)
                if isinstance(ea.payload, tuple):
                    # bool vs int must survive the int64 column.
                    for va, vb in zip(ea.payload, eb.payload, strict=True):
                        assert type(va) is type(vb)
        assert pa.wire_bytes == pb.wire_bytes


def test_batch_payload_round_trip():
    pkt = Packet(src=3, hop_dest=1, envelopes=[
        Envelope(dest=1, kind=2, payload=_batch(17, parents=True),
                 size_bytes=24, count=17),
    ], seq=41, ack=7)
    assert_packets_equal([pkt], _round_trip([pkt]))


def test_multi_packet_multi_envelope_round_trip():
    packets = [
        Packet(src=0, hop_dest=2, envelopes=[
            Envelope(dest=2, kind=2, payload=_batch(5, extras=1, seed=1),
                     size_bytes=16, count=5),
            Envelope(dest=3, kind=2, payload=_batch(9, extras=1, seed=2),
                     size_bytes=16, count=9),
        ]),
        Packet(src=1, hop_dest=0, envelopes=[]),
        Packet(src=2, hop_dest=0, envelopes=[
            Envelope(dest=0, kind=1, payload=("probe", 4, 1, True, 0),
                     size_bytes=8, count=1),
        ], seq=0, ack=3),
    ]
    assert_packets_equal(packets, _round_trip(packets))


def test_train_round_trip_keeps_count_and_wire_bytes():
    train = Packet(src=2, hop_dest=0, envelopes=[
        Envelope(dest=0, kind=0, payload=_batch(7, seed=3), size_bytes=16, count=7),
        Envelope(dest=1, kind=0, payload=_batch(9, seed=4), size_bytes=16, count=9),
    ], count=4)
    sent = train.wire_bytes
    (out,) = _round_trip([train])
    assert out.count == 4
    assert out.wire_bytes == sent == 4 * 32 + 16 * (16 + 8)
    assert_packets_equal([train], [out])


def _stream(n, seed):
    b = _batch(n, seed=seed)
    return np.random.default_rng(seed).integers(0, 4, n), b


def test_trains_mixed_with_singles_in_tick_buckets_and_arrival_frames():
    """What a batch tick really ships: a worker's phase-A bucket (segment
    pass trains), its phase-B bucket (end-of-tick flush singles, control
    packets among them), and the parent's per-rank arrival frames that
    interleave both from several senders.  Every list round-trips exactly,
    and the decoded arrivals deliver what the originals deliver."""
    from repro.comm.mailbox import Mailbox
    from repro.comm.message import KIND_CONTROL
    from repro.comm.network import Network
    from repro.comm.routing import DirectTopology
    from repro.runtime.parallel import _StubNetwork

    p = 4
    net = Network(p)
    topo = DirectTopology(p)
    buckets = []
    for src in range(p):
        stub = _StubNetwork(net)
        box = Mailbox(src, topo, stub, aggregation_size=4)
        box.send_stream(*_stream(40, seed=src), 16)
        phase_a = stub.take()
        box.send((src + 1) % p, KIND_CONTROL, ("probe", src, True), 8)
        box.flush()
        phase_b = stub.take()
        assert any(pkt.count > 1 for pkt in phase_a)
        assert all(pkt.count == 1 for pkt in phase_b)
        buckets += [phase_a, phase_b]
        for pkts in (phase_a, phase_b):
            assert_packets_equal(pkts, _round_trip(pkts))
            for pkt in pkts:
                net.send_packet(pkt)
    arrivals = net.advance()
    for r in range(p):
        assert {pkt.count > 1 for pkt in arrivals[r]} == {False, True}
        decoded = _round_trip(arrivals[r])
        assert_packets_equal(arrivals[r], decoded)
        ref = Mailbox(r, topo, Network(p), aggregation_size=4)
        twin = Mailbox(r, topo, Network(p), aggregation_size=4)
        got = [(e.dest, e.kind, e.count, e.payload if e.kind == KIND_CONTROL
                else e.payload.vertices.tolist()) for e in ref.receive(arrivals[r])]
        assert got == [(e.dest, e.kind, e.count, e.payload if e.kind == KIND_CONTROL
                        else e.payload.vertices.tolist()) for e in twin.receive(decoded)]


def test_empty_packet_list():
    assert _round_trip([]) == []


def test_control_value_types_survive():
    pkt = Packet(src=0, hop_dest=1, envelopes=[
        Envelope(dest=1, kind=1, payload=("reply", 0, False, True, -5),
                 size_bytes=8, count=1),
        Envelope(dest=1, kind=1, payload=("terminate",), size_bytes=8, count=1),
    ])
    out = _round_trip([pkt])[0]
    assert out.envelopes[0].payload == ("reply", 0, False, True, -5)
    assert out.envelopes[0].payload[2] is False
    assert out.envelopes[0].payload[3] is True
    assert out.envelopes[1].payload == ("terminate",)


def test_non_default_column_dtypes_round_trip():
    batch = VisitorBatch(
        np.arange(6, dtype=np.uint32),
        np.linspace(0, 1, 6).astype(np.float64),
        np.arange(6, dtype=np.int16),
        (np.array([1, 0, 1, 1, 0, 0], dtype=np.bool_),),
    )
    pkt = Packet(src=0, hop_dest=1, envelopes=[
        Envelope(dest=1, kind=2, payload=batch, size_bytes=8, count=6)])
    assert_packets_equal([pkt], _round_trip([pkt]))


def test_decoded_columns_are_mutable_views():
    pkt = Packet(src=0, hop_dest=1, envelopes=[
        Envelope(dest=1, kind=2, payload=_batch(4), size_bytes=8, count=4)])
    out = _round_trip([pkt])[0]
    col = out.envelopes[0].payload.vertices
    col[0] = 12345  # raises on a readonly frombuffer view
    assert col[0] == 12345


class Opaque:
    """An envelope payload of no type the SoA schema knows."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.value == self.value


def _pickled_round_trip(envelopes):
    """Round-trip one packet whose envelopes include pickled-kind
    payloads; batch columns must come back mutable."""
    pkt = Packet(src=0, hop_dest=1, envelopes=envelopes, seq=3, ack=1)
    (out,) = _round_trip([pkt])
    assert_packets_equal([pkt], [out])
    for env in out.envelopes:
        if isinstance(env.payload, VisitorBatch):
            for col in (env.payload.vertices, env.payload.payloads):
                col[0] = col[1]  # raises on a readonly view
    return out


def test_object_payload_round_trips_pickled():
    out = _pickled_round_trip([
        Envelope(dest=1, kind=0, payload=Opaque(7), size_bytes=8, count=1),
        Envelope(dest=1, kind=2, payload=_batch(3), size_bytes=8, count=3),
    ])
    assert out.envelopes[0].payload == Opaque(7)


def test_object_dtype_batch_round_trips_pickled():
    payloads = np.empty(3, dtype=object)
    payloads[:] = [Opaque(1), Opaque(2), (3, "x")]
    batch = VisitorBatch(np.arange(3, dtype=np.int64), payloads)
    out = _pickled_round_trip([
        Envelope(dest=1, kind=2, payload=batch, size_bytes=8, count=3)])
    assert out.envelopes[0].payload.payloads.dtype == object


def test_unregistered_control_string_round_trips_pickled():
    _pickled_round_trip([
        Envelope(dest=1, kind=1, payload=("gossip", 3), size_bytes=8, count=1),
        Envelope(dest=1, kind=1, payload=("probe", 3), size_bytes=8, count=1),
    ])


def test_non_scalar_control_value_round_trips_pickled():
    _pickled_round_trip([
        Envelope(dest=1, kind=1, payload=(3.5,), size_bytes=8, count=1),
        Envelope(dest=1, kind=1, payload=(1 << 70, True), size_bytes=8, count=1),
    ])


def test_heterogeneous_batch_schemas_round_trip_pickled():
    """One frame carries one column schema (the first batch's); a batch
    with another schema crosses pickled, in its envelope's place."""
    _pickled_round_trip([
        Envelope(dest=1, kind=2, payload=_batch(3), size_bytes=8, count=3),
        Envelope(dest=2, kind=2, payload=VisitorBatch(
            np.arange(3, dtype=np.int32), np.arange(3, dtype=np.int64)),
            size_bytes=8, count=3),
        Envelope(dest=3, kind=2, payload=_batch(4, seed=5), size_bytes=8, count=4),
    ])


def test_unsupported_dtype_round_trips_pickled():
    batch = VisitorBatch(
        np.arange(3, dtype=np.complex128), np.arange(3, dtype=np.int64))
    _pickled_round_trip([
        Envelope(dest=1, kind=2, payload=batch, size_bytes=8, count=3)])


def test_encode_ints_round_trip():
    assert decode_ints(bytearray(encode_ints((1, -2, 1 << 40, 0)))) == (
        1, -2, 1 << 40, 0)
    assert decode_ints(bytearray(encode_ints(()))) == ()
