"""SoA packet-frame codec: a tick's packets as flat numpy columns.

The parallel executor's barrier traffic is lists of
:class:`~repro.comm.message.Packet` — batch-path payloads are
:class:`~repro.core.batch.VisitorBatch` column blocks, control payloads
are the termination detector's small tuples.  Pickling those object
graphs per tick is what the first pipe transport paid for every barrier;
this codec flattens the same structure into a handful of contiguous
numpy columns (struct-of-arrays, one ``frombuffer`` each to decode), and
the executor sends each frame as one raw message on the worker pipe.

Frame layout (little-endian, in order)::

    header   <IIIII>  n_packets, n_envelopes, n_batches, n_controls,
                      n_control_values
    schema   u8 length + [v_dtype, p_dtype, has_parents, parents_dtype,
                          n_extras, extras dtypes...]   (batch payloads)
    packets  src i32 | hop_dest i32 | seq i64 | ack i64 | count i32 |
             n_env i32
    envs     dest i32 | kind u8 | size_bytes i64 | count i64 | ptype u8
    batches  length i64 per batch, then the concatenated vertices /
             payloads / parents / per-extra columns
    controls arity u8 per tuple, then per-value type codes u8 and
             values i64
    pickled  one pickle of the list of pickled payloads (present only
             when some envelope has the pickled type code)

The codec is total.  Every payload a steady-state tick of native batch
hooks emits takes the SoA columns; any other payload crosses in the
pickled tail instead: a batch with an ``object`` or otherwise unsupported
column dtype (object visitors run through the adapter), a batch whose
column schema differs from the frame's (the first batch fixes it), a
control tuple holding anything but bools, int64s and registered strings
(or more than 255 values).
Decoding is exact: dtypes, ``seq``/``ack`` stamps, packet-train counts,
per-message byte sizes, control value *types* (``bool`` vs ``int``) all
round-trip, so the parent's barrier merge replays bit-identical packets.

Decoded batch columns are numpy views over the frame buffer — pass a
writable buffer (``bytearray``) so the reconstructed batches are mutable;
pickled payloads are unpickled into fresh, writable arrays.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

from repro.comm.message import Envelope, Packet
from repro.core.batch import VisitorBatch

__all__ = [
    "decode_ints",
    "decode_packets",
    "encode_ints",
    "encode_packets",
]


_HEADER = struct.Struct("<IIIII")

#: Envelope payload type codes.
_PT_BATCH = 0
_PT_CONTROL = 1
_PT_PICKLE = 2

#: Control tuple value type codes (bool before int: bool is an int).
_CV_INT = 0
_CV_BOOL = 1
_CV_STR = 2

#: The registered control strings (the termination detector's message
#: tags — see ``repro/comm/termination.py``).  A tuple holding any other
#: string crosses pickled.
_CONTROL_STRINGS = ("probe", "reply", "terminate")
_CONTROL_CODES = {s: i for i, s in enumerate(_CONTROL_STRINGS)}
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Supported column dtypes, by wire code.
_DTYPES = tuple(
    np.dtype(n)
    for n in (
        "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64",
        "float32", "float64", "bool",
    )
)
_DTYPE_CODES = {dt: i for i, dt in enumerate(_DTYPES)}


def _batch_schema(batch: VisitorBatch) -> tuple | None:
    """``(v_code, p_code, par_code|None, extra codes)`` for ``batch``, or
    None when a column's dtype has no wire code."""
    codes = [
        _DTYPE_CODES.get(col.dtype)
        for col in (batch.vertices, batch.payloads, *batch.extras)
    ]
    par_code = None
    if batch.parents is not None:
        par_code = _DTYPE_CODES.get(batch.parents.dtype)
        codes.append(par_code)
    if None in codes:
        return None
    return codes[0], codes[1], par_code, tuple(codes[2:2 + len(batch.extras)])


def _control_row(values: tuple) -> list[tuple[int, int]] | None:
    """``(type code, int64 value)`` per control value, or None when the
    tuple is too long for its u8 arity or a value is not a bool, an int64
    or a registered string."""
    if len(values) > 0xFF:
        return None
    row = []
    for value in values:
        if isinstance(value, bool):
            row.append((_CV_BOOL, int(value)))
        elif isinstance(value, int) and _I64_MIN <= value <= _I64_MAX:
            row.append((_CV_INT, value))
        elif isinstance(value, str) and value in _CONTROL_CODES:
            row.append((_CV_STR, _CONTROL_CODES[value]))
        else:
            return None
    return row


# ---------------------------------------------------------------------- #
# Encode
# ---------------------------------------------------------------------- #
def encode_packets(packets: list[Packet]) -> bytes:
    """Flatten ``packets`` into one frame payload (see module docstring).
    Total: payloads outside the SoA schema cross in the pickled tail."""
    n_packets = len(packets)
    pkt_src = np.empty(n_packets, dtype=np.int32)
    pkt_dst = np.empty(n_packets, dtype=np.int32)
    pkt_seq = np.empty(n_packets, dtype=np.int64)
    pkt_ack = np.empty(n_packets, dtype=np.int64)
    pkt_count = np.empty(n_packets, dtype=np.int32)
    pkt_nenv = np.empty(n_packets, dtype=np.int32)

    env_dest: list[int] = []
    env_kind: list[int] = []
    env_size: list[int] = []
    env_count: list[int] = []
    env_ptype: list[int] = []

    schema: tuple | None = None  # (v_code, p_code, par_code|None, extra codes)
    vb_lens: list[int] = []
    vb_vertices: list[bytes] = []
    vb_payloads: list[bytes] = []
    vb_parents: list[bytes] = []
    vb_extras: list[list[bytes]] = []

    ctl_arity: list[int] = []
    ctl_types: list[int] = []
    ctl_vals: list[int] = []

    pickled: list = []

    for i, pkt in enumerate(packets):
        pkt_src[i] = pkt.src
        pkt_dst[i] = pkt.hop_dest
        pkt_seq[i] = pkt.seq
        pkt_ack[i] = pkt.ack
        pkt_count[i] = pkt.count
        pkt_nenv[i] = len(pkt.envelopes)
        for env in pkt.envelopes:
            env_dest.append(env.dest)
            env_kind.append(env.kind)
            env_size.append(env.size_bytes)
            env_count.append(env.count)
            payload = env.payload
            if isinstance(payload, VisitorBatch):
                sig = _batch_schema(payload)
                if schema is None and sig is not None:
                    schema = sig
                    vb_extras.extend([] for _ in sig[3])
                if sig is not None and sig == schema:
                    env_ptype.append(_PT_BATCH)
                    vb_lens.append(len(payload))
                    vb_vertices.append(payload.vertices.tobytes())
                    vb_payloads.append(payload.payloads.tobytes())
                    if payload.parents is not None:
                        vb_parents.append(payload.parents.tobytes())
                    for j, extra in enumerate(payload.extras):
                        vb_extras[j].append(extra.tobytes())
                    continue
            elif isinstance(payload, tuple):
                row = _control_row(payload)
                if row is not None:
                    env_ptype.append(_PT_CONTROL)
                    ctl_arity.append(len(row))
                    for code, value in row:
                        ctl_types.append(code)
                        ctl_vals.append(value)
                    continue
            env_ptype.append(_PT_PICKLE)
            pickled.append(payload)

    if schema is None:
        schema_bytes = b""
    else:
        v_code, p_code, par_code, extra_codes = schema
        schema_bytes = bytes(
            [v_code, p_code,
             0 if par_code is None else 1,
             par_code if par_code is not None else 0,
             len(extra_codes), *extra_codes]
        )

    parts = [
        _HEADER.pack(n_packets, len(env_dest), len(vb_lens),
                     len(ctl_arity), len(ctl_types)),
        bytes([len(schema_bytes)]), schema_bytes,
        pkt_src.tobytes(), pkt_dst.tobytes(), pkt_seq.tobytes(),
        pkt_ack.tobytes(), pkt_count.tobytes(), pkt_nenv.tobytes(),
        np.asarray(env_dest, dtype=np.int32).tobytes(),
        np.asarray(env_kind, dtype=np.uint8).tobytes(),
        np.asarray(env_size, dtype=np.int64).tobytes(),
        np.asarray(env_count, dtype=np.int64).tobytes(),
        np.asarray(env_ptype, dtype=np.uint8).tobytes(),
        np.asarray(vb_lens, dtype=np.int64).tobytes(),
        *vb_vertices, *vb_payloads, *vb_parents,
        *(b for col in vb_extras for b in col),
        np.asarray(ctl_arity, dtype=np.uint8).tobytes(),
        np.asarray(ctl_types, dtype=np.uint8).tobytes(),
        np.asarray(ctl_vals, dtype=np.int64).tobytes(),
    ]
    if pickled:
        parts.append(pickle.dumps(pickled, protocol=pickle.HIGHEST_PROTOCOL))
    return b"".join(parts)


# ---------------------------------------------------------------------- #
# Decode
# ---------------------------------------------------------------------- #
def _take(buf, dtype: np.dtype, count: int, offset: int) -> tuple[np.ndarray, int]:
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return arr, offset + arr.nbytes


def decode_packets(buf) -> list[Packet]:
    """Inverse of :func:`encode_packets`.  ``buf`` should be writable
    (``bytearray``) so the reconstructed batch columns are mutable."""
    n_packets, n_env, n_vb, n_ctl, n_ctl_vals = _HEADER.unpack_from(buf, 0)
    off = _HEADER.size
    schema_len = buf[off]
    off += 1
    schema_raw = bytes(buf[off:off + schema_len])
    off += schema_len

    i32, i64, u8 = np.dtype("<i4"), np.dtype("<i8"), np.dtype("u1")
    pkt_src, off = _take(buf, i32, n_packets, off)
    pkt_dst, off = _take(buf, i32, n_packets, off)
    pkt_seq, off = _take(buf, i64, n_packets, off)
    pkt_ack, off = _take(buf, i64, n_packets, off)
    pkt_count, off = _take(buf, i32, n_packets, off)
    pkt_nenv, off = _take(buf, i32, n_packets, off)
    env_dest, off = _take(buf, i32, n_env, off)
    env_kind, off = _take(buf, u8, n_env, off)
    env_size, off = _take(buf, i64, n_env, off)
    env_count, off = _take(buf, i64, n_env, off)
    env_ptype, off = _take(buf, u8, n_env, off)
    vb_lens, off = _take(buf, i64, n_vb, off)

    total = int(vb_lens.sum()) if n_vb else 0
    bounds = np.zeros(n_vb + 1, dtype=np.int64)
    if n_vb:
        np.cumsum(vb_lens, out=bounds[1:])
    vertices = payloads = parents = None
    extras_cols: list[np.ndarray] = []
    has_parents = False
    if schema_len:
        v_dt = _DTYPES[schema_raw[0]]
        p_dt = _DTYPES[schema_raw[1]]
        has_parents = bool(schema_raw[2])
        par_dt = _DTYPES[schema_raw[3]]
        n_extras = schema_raw[4]
        extra_dts = [_DTYPES[c] for c in schema_raw[5:5 + n_extras]]
        vertices, off = _take(buf, v_dt, total, off)
        payloads, off = _take(buf, p_dt, total, off)
        if has_parents:
            parents, off = _take(buf, par_dt, total, off)
        for dt in extra_dts:
            col, off = _take(buf, dt, total, off)
            extras_cols.append(col)

    ctl_arity, off = _take(buf, u8, n_ctl, off)
    ctl_types, off = _take(buf, u8, n_ctl_vals, off)
    ctl_vals, off = _take(buf, i64, n_ctl_vals, off)
    pickled = pickle.loads(buf[off:]) if off < len(buf) else []

    packets: list[Packet] = []
    e = 0   # envelope cursor
    vb = 0  # batch cursor
    ct = 0  # control-tuple cursor
    cv = 0  # control-value cursor
    pk = 0  # pickled-payload cursor
    for i in range(n_packets):
        envelopes: list[Envelope] = []
        for _ in range(int(pkt_nenv[i])):
            ptype = env_ptype[e]
            if ptype == _PT_BATCH:
                lo, hi = int(bounds[vb]), int(bounds[vb + 1])
                payload = VisitorBatch(
                    vertices[lo:hi],
                    payloads[lo:hi],
                    parents[lo:hi] if has_parents else None,
                    tuple(col[lo:hi] for col in extras_cols),
                )
                vb += 1
            elif ptype == _PT_CONTROL:
                arity = int(ctl_arity[ct])
                values = []
                for k in range(cv, cv + arity):
                    code = ctl_types[k]
                    if code == _CV_INT:
                        values.append(int(ctl_vals[k]))
                    elif code == _CV_BOOL:
                        values.append(bool(ctl_vals[k]))
                    else:
                        values.append(_CONTROL_STRINGS[int(ctl_vals[k])])
                payload = tuple(values)
                cv += arity
                ct += 1
            else:
                payload = pickled[pk]
                pk += 1
            envelopes.append(
                Envelope(
                    dest=int(env_dest[e]),
                    kind=int(env_kind[e]),
                    payload=payload,
                    size_bytes=int(env_size[e]),
                    count=int(env_count[e]),
                )
            )
            e += 1
        packets.append(
            Packet(
                src=int(pkt_src[i]),
                hop_dest=int(pkt_dst[i]),
                envelopes=envelopes,
                seq=int(pkt_seq[i]),
                ack=int(pkt_ack[i]),
                count=int(pkt_count[i]),
            )
        )
    return packets


# ---------------------------------------------------------------------- #
# Scalar sequences (order probes)
# ---------------------------------------------------------------------- #
def encode_ints(values) -> bytes:
    """Encode a flat int sequence (an order-probe stream) as one column."""
    return np.asarray(values, dtype=np.int64).tobytes()


def decode_ints(buf) -> tuple[int, ...]:
    """Inverse of :func:`encode_ints`."""
    return tuple(int(v) for v in np.frombuffer(buf, dtype=np.int64))
