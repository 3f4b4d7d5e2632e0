"""SoA packet-frame codec: a tick's packets as flat numpy columns.

The parallel executor's barrier traffic is lists of
:class:`~repro.comm.message.Packet` — batch-path payloads are
:class:`~repro.core.batch.VisitorBatch` column blocks, control payloads
are the termination detector's small tuples.  Pickling those object
graphs per tick is what PR 6's pipe transport paid for every barrier;
this codec flattens the same structure into a handful of contiguous
numpy columns (struct-of-arrays, one ``frombuffer`` each to decode) so a
frame can be memcpy'd through a :class:`~repro.runtime.shm_ring.SpscRing`
with zero pickled bytes.

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

Everything a steady-state tick of native batch hooks emits is encodable;
anything else — object visitors in an ``object`` payload column, an
unregistered control string, batch
envelopes with heterogeneous column schemas — raises
:class:`UnframeablePayload` and the caller falls back to the pickled
pipe, which is always correct.  Decoding is exact: dtypes, ``seq``/``ack``
stamps, packet-train counts, per-message byte sizes, control value
*types* (``bool`` vs ``int``) all round-trip, so the parent's barrier
merge replays bit-identical packets whether they travelled as frames or
as pickles.

Decoded batch columns are numpy views over the frame buffer — pass a
writable buffer (``bytearray``, as :meth:`SpscRing.read` returns) so the
reconstructed batches are mutable like their pickled twins.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.comm.message import Envelope, Packet
from repro.core.batch import VisitorBatch

__all__ = [
    "UnframeablePayload",
    "decode_ints",
    "decode_packets",
    "encode_ints",
    "encode_packets",
    "frameable",
]


class UnframeablePayload(Exception):
    """The packet list carries content the SoA frame format cannot
    represent; ship it over the pickled pipe instead."""


_HEADER = struct.Struct("<IIIII")

#: Envelope payload type codes.
_PT_BATCH = 0
_PT_CONTROL = 1

#: Control tuple value type codes (bool before int: bool is an int).
_CV_INT = 0
_CV_BOOL = 1
_CV_STR = 2

#: The registered control strings (the termination detector's message
#: tags — see ``repro/comm/termination.py``).  Any other string payload
#: value makes the packet list unframeable.
_CONTROL_STRINGS = ("probe", "reply", "terminate")
_CONTROL_CODES = {s: i for i, s in enumerate(_CONTROL_STRINGS)}

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


def frameable(*dtypes) -> bool:
    """Whether batch columns of these dtypes fit the frame format."""
    return all(np.dtype(dt) in _DTYPE_CODES for dt in dtypes)


def _dtype_code(dtype: np.dtype) -> int:
    code = _DTYPE_CODES.get(dtype)
    if code is None:
        raise UnframeablePayload(f"unsupported column dtype {dtype}")
    return code


# ---------------------------------------------------------------------- #
# Encode
# ---------------------------------------------------------------------- #
def encode_packets(packets: list[Packet]) -> bytes:
    """Flatten ``packets`` into one frame payload (see module docstring).
    Raises :class:`UnframeablePayload` for anything the format cannot
    carry — the caller must fall back to the pipe."""
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
                env_ptype.append(_PT_BATCH)
                sig = (
                    _dtype_code(payload.vertices.dtype),
                    _dtype_code(payload.payloads.dtype),
                    None if payload.parents is None
                    else _dtype_code(payload.parents.dtype),
                    tuple(_dtype_code(e.dtype) for e in payload.extras),
                )
                if schema is None:
                    schema = sig
                    vb_extras.extend([] for _ in sig[3])
                elif sig != schema:
                    # One frame carries one batch column schema; a tick of
                    # one algorithm is homogeneous, so a mismatch means
                    # mixed payload shapes — spill rather than guess.
                    raise UnframeablePayload(
                        "heterogeneous visitor-batch schemas in one frame"
                    )
                vb_lens.append(len(payload))
                vb_vertices.append(payload.vertices.tobytes())
                vb_payloads.append(payload.payloads.tobytes())
                if payload.parents is not None:
                    vb_parents.append(payload.parents.tobytes())
                for j, extra in enumerate(payload.extras):
                    vb_extras[j].append(extra.tobytes())
            elif isinstance(payload, tuple):
                env_ptype.append(_PT_CONTROL)
                ctl_arity.append(len(payload))
                for value in payload:
                    if isinstance(value, bool):
                        ctl_types.append(_CV_BOOL)
                        ctl_vals.append(int(value))
                    elif isinstance(value, int):
                        ctl_types.append(_CV_INT)
                        ctl_vals.append(value)
                    elif isinstance(value, str):
                        code = _CONTROL_CODES.get(value)
                        if code is None:
                            raise UnframeablePayload(
                                f"unregistered control string {value!r}"
                            )
                        ctl_types.append(_CV_STR)
                        ctl_vals.append(code)
                    else:
                        raise UnframeablePayload(
                            f"control value of type {type(value).__name__}"
                        )
            else:
                raise UnframeablePayload(
                    f"envelope payload of type {type(payload).__name__}"
                )

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

    packets: list[Packet] = []
    e = 0   # envelope cursor
    vb = 0  # batch cursor
    ct = 0  # control-tuple cursor
    cv = 0  # control-value cursor
    for i in range(n_packets):
        envelopes: list[Envelope] = []
        for _ in range(int(pkt_nenv[i])):
            if env_ptype[e] == _PT_BATCH:
                lo, hi = int(bounds[vb]), int(bounds[vb + 1])
                payload = VisitorBatch(
                    vertices[lo:hi],
                    payloads[lo:hi],
                    parents[lo:hi] if has_parents else None,
                    tuple(col[lo:hi] for col in extras_cols),
                )
                vb += 1
            else:
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
