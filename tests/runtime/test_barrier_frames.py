"""Unit tests for the worker-pipe barrier carrier (INTERNALS §14): the
tick token and its arrival frames reach the worker intact, an OK reply's
frames, counters-table row and fault residue rebuild the reports, frames
of any size cross whole, the pool counts frames in both directions, and a
peer that dies or stalls mid-frame is a classified ``WorkerCrash``.

Each test forks one scripted peer in place of a real worker and drives it
through a :class:`WorkerPool` shell (no engine), so the wire protocol is
exercised exactly as ``_worker_main`` speaks it."""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.comm.message import Envelope, Packet
from repro.core.batch import SharedArrayBlock, VisitorBatch
from repro.errors import WorkerCrash
from repro.runtime.packet_codec import encode_packets
from repro.runtime.parallel import (
    _CH_PACKETS_A,
    _OK_TOKEN,
    _TAG_TOKEN,
    _TBL_I64_COLS,
    _TOK_OK,
    REPORT_COUNTERS,
    RankTickReport,
    WorkerPool,
    _frame_tag,
    _recv_tick,
    _send_frames,
    _send_obj,
    _ship_tick,
    _worker_recv,
)

RANKS = 2


def _packets(seed: int, n: int = 5) -> list[Packet]:
    rng = np.random.default_rng(seed)
    batch = VisitorBatch(
        rng.integers(0, 1 << 20, n).astype(np.int64),
        rng.integers(0, 1 << 10, n).astype(np.int64),
    )
    return [Packet(src=seed % RANKS, hop_dest=1, envelopes=[
        Envelope(dest=1, kind=2, payload=batch, size_bytes=8, count=n),
        Envelope(dest=1, kind=1, payload=("probe", seed), size_bytes=8, count=1),
    ])]


def _same(a: list[Packet], b: list[Packet]) -> bool:
    """Packets are equal when their frames are byte-identical."""
    return encode_packets(a) == encode_packets(b)


def _report(rank: int, **kw) -> RankTickReport:
    fields = dict(
        controls=3 + rank,
        counters=tuple(range(rank, rank + len(REPORT_COUNTERS))),
        packets_a=[], packets_b=[],
        cache_us=1.5 * (rank + 1), cache_faults=None,
        spill_us=0.25 * (rank + 1), spill_faults=None,
        bp_stalls=rank, cache_hits=10 + rank, cache_misses=20 + rank,
        queue_len=7 + rank, quiet=bool(rank), buffered=not rank,
        buffered_visitors=rank * 4, terminated=False, probe=None,
        ckpt_bytes=100 * rank,
    )
    fields.update(kw)
    return RankTickReport(**fields)


@pytest.fixture
def peer():
    """``peer(target, *args)`` forks ``target(conn, table, *args)`` as the
    only worker of a :class:`WorkerPool` shell and returns the pool."""
    pools: list[WorkerPool] = []

    def start(target, *args) -> WorkerPool:
        ctx = mp.get_context("fork")
        pool = WorkerPool.__new__(WorkerPool)
        pool._ctx = ctx
        pool._engine = None
        pool.owned = [list(range(RANKS))]
        pool.owner = [0] * RANKS
        pool._table_block = SharedArrayBlock([
            ("i64", np.zeros((RANKS, _TBL_I64_COLS), dtype=np.int64)),
            ("f64", np.zeros((RANKS, 2), dtype=np.float64)),
        ])
        pool._table = (pool._table_block.view("i64"), pool._table_block.view("f64"))
        pool.ipc_frames = pool.ipc_frame_bytes = 0
        pool.ipc_bytes_pickled = pool.ipc_tick_bytes_pickled = 0
        pool.barrier_seconds = 0.0
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=target, args=(child_conn, pool._table, *args), daemon=True
        )
        proc.start()
        child_conn.close()
        pool._procs, pool._conns, pool.alive = [proc], [parent_conn], [True]
        pools.append(pool)
        return pool

    yield start
    for pool in pools:
        pool.kill(0)
        pool._conns[0].close()


# ---------------------------------------------------------------------- #
# Scripted peers (run in the forked child)
# ---------------------------------------------------------------------- #
def _echo_tick(conn, table):
    """Read one tick as a worker does and echo what it decoded, pickled."""
    kind, token = _worker_recv(conn)
    arrivals, directive = _recv_tick(conn, token)
    _send_obj(conn, ("ok", (kind, arrivals, directive)))


def _ship(conn, table, out):
    _ship_tick(conn, table, out)


def _ship_and_exit(conn, table, out):
    _ship_tick(conn, table, out)
    conn.close()
    os._exit(0)


def _torn_reply(conn, table, exit_code):
    """An OK token promising three frames, one frame, then death or a stall."""
    tags = [_frame_tag(_CH_PACKETS_A, r) for r in range(3)]
    token = _OK_TOKEN.pack(_TAG_TOKEN, _TOK_OK, len(tags), 0)
    conn.send_bytes(token + np.array(tags, dtype="<u4").tobytes())
    conn.send_bytes(encode_packets(_packets(0)))
    if exit_code is None:
        time.sleep(60.0)
    os._exit(exit_code)


def _raise(conn, table):
    _send_obj(conn, ("error", "ValueError('boom')", "worker traceback text"))


def _exit_now(conn, table):
    os._exit(0)


# ---------------------------------------------------------------------- #
# Parent -> worker: tick token and arrival frames
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("directive", [None, "kill", "hang", "exita"])
def test_tick_token_and_arrival_frames_reach_the_worker(peer, directive):
    pool = peer(_echo_tick)
    arrivals = {1: _packets(1), 0: _packets(2, n=9)}
    pool.send_tick(0, 7, arrivals, directive)
    kind, got, got_directive = pool.recv(0, 10.0)
    assert kind == "tok"
    assert got_directive == directive
    assert sorted(got) == [0, 1]
    for r in arrivals:
        assert _same(got[r], arrivals[r])
    # One frame per rank with arrivals, counted on the way out.
    assert pool.ipc_frames == 2
    assert pool.ipc_frame_bytes == sum(len(encode_packets(p)) for p in arrivals.values())
    assert pool.ipc_tick_bytes_pickled == 0


def test_tick_without_arrivals_sends_only_the_token(peer):
    pool = peer(_echo_tick)
    pool.send_tick(0, 3, {}, None)
    assert pool.recv(0, 10.0) == ("tok", {}, None)
    assert pool.ipc_frames == pool.ipc_frame_bytes == 0


def test_object_payloads_cross_inside_the_frame(peer):
    """Object-dtype columns take the codec's pickled-payload kind: they
    ride the arrival frame, so no tick byte is pickled as a command."""
    pool = peer(_echo_tick)
    payloads = np.empty(2, dtype=object)
    payloads[:] = [("visitor", 1), {"depth": 2}]
    batch = VisitorBatch(np.arange(2, dtype=np.int64), payloads)
    pkt = Packet(src=0, hop_dest=1, envelopes=[
        Envelope(dest=1, kind=2, payload=batch, size_bytes=8, count=2)])
    pool.send_tick(0, 1, {0: [pkt]}, None)
    sent_pickled = pool.ipc_bytes_pickled
    _, got, _ = pool.recv(0, 10.0)
    assert sent_pickled == 0
    assert pool.ipc_frames == 1
    (out,) = got[0]
    assert list(out.envelopes[0].payload.payloads) == list(payloads)


def test_frame_far_larger_than_a_pipe_buffer_crosses_whole(peer):
    """The pipe has no capacity limit: a multi-MiB frame is one message,
    with nothing spilled or split."""
    pool = peer(_echo_tick)
    big = _packets(3, n=1 << 18)  # two 2 MiB columns
    pool.send_tick(0, 1, {1: big}, None)
    _, got, _ = pool.recv(0, 30.0)
    assert pool.ipc_frame_bytes > 4 << 20
    assert _same(got[1], big)


# ---------------------------------------------------------------------- #
# Worker -> parent: OK token, reply frames, counters table, residue
# ---------------------------------------------------------------------- #
def test_ok_reply_rebuilds_the_reports(peer):
    reports = {
        0: _report(0, packets_a=_packets(4), probe=(5, 1, 9)),
        1: _report(1, packets_b=_packets(5), terminated=True),
    }
    wave = _packets(6)
    pool = peer(_ship, (reports, wave))
    got, got_wave = pool.recv(0, 10.0)
    assert _same(got_wave, wave)
    assert sorted(got) == [0, 1]
    for r, want in reports.items():
        have = got[r]
        assert _same(have.packets_a, want.packets_a)
        assert _same(have.packets_b, want.packets_b)
        for name in RankTickReport.__slots__:
            if name not in ("packets_a", "packets_b"):
                assert getattr(have, name) == getattr(want, name), name
        assert type(have.quiet) is bool
    # packets_a, wave, packets_b and probe: four frames, none pickled.
    assert pool.ipc_frames == 4
    assert pool.ipc_tick_bytes_pickled == 0
    assert pool.ipc_bytes_pickled == 0


def test_fault_residue_is_the_only_pickled_tick_traffic(peer):
    reports = {
        0: _report(0, cache_faults={"retries": 3}),
        1: _report(1, spill_faults=("torn", 2), packets_a=_packets(7)),
    }
    pool = peer(_ship, (reports, None))
    got, wave = pool.recv(0, 10.0)
    assert wave is None
    assert got[0].cache_faults == {"retries": 3} and got[0].spill_faults is None
    assert got[1].spill_faults == ("torn", 2) and got[1].cache_faults is None
    assert pool.ipc_frames == 1
    assert pool.ipc_tick_bytes_pickled > 0
    assert pool.ipc_tick_bytes_pickled == pool.ipc_bytes_pickled


def test_reply_buffered_before_worker_exit_is_still_read(peer):
    """A worker that ships its reply and exits at once: the parent must
    drain the buffered frames, not report a death."""
    reports = {0: _report(0, packets_a=_packets(8)), 1: _report(1)}
    pool = peer(_ship_and_exit, (reports, None))
    pool._procs[0].join(10.0)
    got, _ = pool.recv(0, 10.0)
    assert _same(got[0].packets_a, reports[0].packets_a)


# ---------------------------------------------------------------------- #
# Failure classification
# ---------------------------------------------------------------------- #
def test_worker_dying_mid_frame_is_a_crash(peer):
    pool = peer(_torn_reply, 3)
    with pytest.raises(WorkerCrash) as info:
        pool.recv(0, 10.0)
    assert info.value.kind == "crash"
    assert not pool.alive[0]


def test_worker_stalling_mid_frame_misses_the_deadline(peer):
    pool = peer(_torn_reply, None)
    with pytest.raises(WorkerCrash) as info:
        pool.recv(0, 0.5)
    assert info.value.kind == "hang"
    assert not pool._procs[0].is_alive()  # force-killed before raising


def test_worker_error_reply_is_classified(peer):
    pool = peer(_raise)
    with pytest.raises(WorkerCrash) as info:
        pool.recv(0, 10.0)
    assert info.value.kind == "error"
    assert info.value.worker_traceback == "worker traceback text"


def test_sending_a_tick_to_a_dead_worker_is_a_crash(peer):
    pool = peer(_exit_now)
    pool._procs[0].join(10.0)
    with pytest.raises(WorkerCrash) as info:
        for t in range(64):  # the first sends may still land in the buffer
            pool.send_tick(0, t, {0: _packets(t, n=1 << 12)}, None)
    assert info.value.kind == "crash"
    assert not pool.alive[0]


def test_send_frames_appends_one_tag_per_frame():
    a, b = mp.Pipe()
    frames = [(_frame_tag(_CH_PACKETS_A, 3), b"xyz"), (_frame_tag(5), b"")]
    token = _OK_TOKEN.pack(_TAG_TOKEN, _TOK_OK, len(frames), 0)
    assert _send_frames(a, token, frames) == 3
    head = b.recv_bytes()
    assert head[: _OK_TOKEN.size] == token
    tags = np.frombuffer(head[_OK_TOKEN.size:], dtype="<u4").tolist()
    assert tags == [t for t, _ in frames]
    assert [b.recv_bytes() for _ in frames] == [p for _, p in frames]
    a.close()
    b.close()
