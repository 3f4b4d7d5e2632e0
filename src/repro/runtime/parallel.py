"""Process-parallel rank execution with deterministic barriers.

``EngineConfig.workers = N`` makes :class:`PoolRanks` the rank executor
of :meth:`SimulationEngine.run`'s one tick loop: the per-rank work of
each tick — ``SimulationEngine._rank_tick``, detector waves, mailbox
flushes, cache/spill epoch drains — runs in a persistent pool of forked
worker processes, one fork per run.  The contract is the
one the race detector polices: within a tick, rank ``r`` touches only rank
``r``'s queue, mailbox, ghost table, caches and detector, and the only
cross-rank traffic is mailbox packets.  That makes rank execution
embarrassingly parallel *between* the engine's barriers, and the barriers
are where determinism is re-established:

* **Static rank affinity.**  Worker ``w`` owns ranks ``{r : r % W == w}``
  for the whole run, so every per-rank RNG stream, cache, spill pager and
  detector lives in exactly one process and advances exactly as it would
  sequentially.

* **Fork + shared memory.**  The pool is forked *after* engine
  construction, so workers inherit the fully-built engine copy-on-write
  (graph, CSR, topology — nothing is pickled to start a run).  Array
  state blocks are first rebound onto anonymous ``MAP_SHARED`` arenas
  (:class:`repro.core.batch.SharedArrayBlock`), so worker writes land in
  pages the parent reads — final states come back zero-copy.  Blocks
  without arrays (object visitors' state objects) are pickled back once,
  at finalize.

* **Deterministic merge.**  Workers never talk to the real fabric; their
  mailboxes are rewired to a :class:`~repro.comm.network.PacketRecorder`
  that records packets in emission order, bucketed per phase (mid-tick
  eager flushes, detector wave, end-of-tick flush).  At the barrier the
  parent replays the buckets into the real
  :class:`~repro.comm.network.Network` /
  :class:`~repro.comm.reliable.ReliableTransport` in exactly the
  sequential global send order — for each rank in ``_rank_order``: phase-A
  packets; then the rank-0 wave packets; then for each rank in
  ``_rank_order``: phase-B packets — so sequence stamps, the fault
  injector's single decision stream, wire counters and order digests are
  bit-identical to ``workers=1``.  Counter deltas and spill/cache charges
  are likewise folded in ascending rank order with the sequential
  per-rank float-addition order preserved.

* **Barrier frames.**  A tick crosses the worker pipe in both directions
  as a small token followed by its packets as SoA frames
  (:mod:`repro.runtime.packet_codec`, one raw pipe message each); the
  per-rank report scalars go into a shared counters table.  Control
  commands (checkpoint, replay, durable, finalize) stay pickled envelopes.

Simulated rank crashes (:mod:`repro.runtime.recovery`) keep a rank's
recovery image where the rank runs: the ``checkpoint`` command takes the
owned ranks' images into the worker's ``engine.recovery_images`` (only the
simulated byte sizes cross the pipe), and ``replay`` restores and
re-executes one rank there, returning its per-tick packets for the one
:class:`~repro.runtime.recovery.RecoveryManager` to interleave with the
transport's delivery notes.

Worker supervision (INTERNALS §12)
----------------------------------
Without supervision, a worker failure of any kind (exception, abrupt
death) surfaces as :class:`~repro.errors.WorkerCrash`, which the engine
converts into a :class:`~repro.errors.TraversalError` carrying the partial
stats, matching the ``max_ticks`` behaviour.  With supervision active
(``worker_restarts > 0`` or a ``worker_faults`` plan), a failure rolls the
whole run back to its last epoch instead, exactly as ``--resume`` restarts
from a durable one:

* **Detection.**  Every barrier receive carries a wall-clock deadline
  (``worker_barrier_timeout``, scaled by the tick's arrival volume and by
  replay length); pipe EOF / process death classify a failure as a
  *crash*, a missed deadline as a *hang* (the wedged process is
  force-killed).  Worker-reported exceptions keep their traceback and
  surface as ``kind="error"``.

* **Epochs.**  The engine captures an epoch — the durable layer's seven
  pickled sections (:func:`~repro.runtime.durability.capture_epoch`) — at
  the start tick and every :data:`SUPERVISION_EPOCH_TICKS` ticks; a
  durable epoch written on such a tick is kept instead of a second
  capture.  :class:`WorkerSupervisor` holds the newest one in memory.

* **Rollback.**  Whatever pool command failed (tick, checkpoint,
  simulated-crash replay, durable capture, finalize), the
  :class:`~repro.errors.WorkerCrash` reaches ``SimulationEngine.run``,
  which shuts the pool down; the supervisor reinstalls the epoch into the
  parent and the loop resumes from the epoch tick on a pool forked afresh
  from the restored state.  Re-forks are paced by a seeded exponential
  backoff and bounded per failing worker by ``worker_restarts``.

* **Graceful degradation.**  When the failing worker's budget is spent
  (or ``fork`` fails), the epoch is reinstalled and the run continues on
  the in-process executor — slower, never wrong.

* **Pricing.**  Each rollback is charged through the machine model into
  ``TraversalStats.supervision_us`` — deliberately *not* into
  ``time_us``: the simulated cluster never failed, only host processes
  did, so the simulated clock and every logical counter stay
  bit-identical to the unfailed run (the chaos suite compares full stats
  minus exactly :data:`~repro.runtime.trace.SUPERVISION_STATS_FIELDS`).

Injected worker faults (:class:`~repro.comm.faults.WorkerFaultPlan`) ride
the tick token as directives: ``kill`` SIGKILLs the worker before it
does the tick's work, ``hang`` completes the work and then sleeps past the
deadline, ``exita`` hard-exits mid-phase-A, and ``forkfail`` consumes
re-fork attempts parent-side.  Each directive fires once per run: the
re-executed ticks after a rollback do not fire it again.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _mp_wait
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.message import Packet
from repro.comm.network import PacketRecorder
from repro.core.batch import SharedArrayBlock, share_state_arrays
from repro.errors import ConfigurationError, WorkerCrash
from repro.runtime import rank_image
from repro.runtime.durability import ResumeState, install_epoch, unpickle_epoch
from repro.runtime.packet_codec import (
    decode_ints,
    decode_packets,
    encode_ints,
    encode_packets,
)
from repro.runtime.recovery import (
    checkpoint_rank,
    estimate_checkpoint_bytes,
    replay_price_us,
    replay_rank,
)
from repro.runtime.trace import RankCounters, TraversalStats
from repro.utils.rng import resolve_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import SimulationEngine

__all__ = [
    "SUPERVISION_EPOCH_TICKS",
    "PoolRanks",
    "RankTickReport",
    "WorkerCrash",
    "WorkerPool",
    "WorkerSupervisor",
]

#: Barrier deadline when supervision is active and the user gave none.
DEFAULT_BARRIER_TIMEOUT_S = 30.0
#: Supervision epoch cadence in ticks (plus one epoch at the start tick).
SUPERVISION_EPOCH_TICKS = 16
#: Seeded exponential re-fork backoff: base doubles per attempt, capped.
_BACKOFF_BASE_S = 0.02
_BACKOFF_CAP_S = 0.5
#: Arrival-packet volume one deadline unit is assumed to cover.
_DEADLINE_PACKETS = 50_000


#: The :class:`~repro.runtime.trace.RankCounters` fields a barrier report
#: carries, in ``RankTickReport.counters`` order.
REPORT_COUNTERS = (
    "previsits", "visits", "edges_scanned", "pushes", "ghost_filtered",
    "packets_sent", "bytes_sent", "visitors_sent", "visitors_received",
)


@dataclass(slots=True)
class RankTickReport:
    """One rank's barrier contribution for one tick (worker -> parent)."""

    #: control envelopes handled (charged like pre-visits).
    controls: int
    #: cumulative counters, one per :data:`REPORT_COUNTERS` name.
    counters: tuple[int, int, int, int, int, int, int, int, int]
    #: packets emitted during ``_rank_tick`` (mid-tick eager flushes).
    packets_a: list[Packet]
    #: packets emitted by the end-of-tick ``flush()``.
    packets_b: list[Packet]
    #: this tick's cache epoch drain (simulated us) and fault record.
    cache_us: float
    cache_faults: object | None
    #: this tick's spill-pager drain (simulated us) and fault record.
    spill_us: float
    spill_faults: object | None
    #: cumulative backpressure stalls / cache hit/miss totals.
    bp_stalls: int
    cache_hits: int
    cache_misses: int
    #: end-of-tick termination inputs.
    queue_len: int
    quiet: bool
    buffered: bool
    buffered_visitors: int
    terminated: bool
    #: drained order-probe sequence (None unless digests are recorded).
    probe: tuple[int, ...] | None
    #: simulated durable-checkpoint byte size of this rank's state, taken
    #: worker-side after ``sync_spill`` (0 when no durable dir is set).
    ckpt_bytes: int = 0


# ---------------------------------------------------------------------- #
# Pipe framing: tokens, barrier frames, pickled envelopes (INTERNALS §14)
# ---------------------------------------------------------------------- #
#: First byte of every command or reply: a pickled envelope or a token.
_TAG_PICKLE = 0
_TAG_TOKEN = 1
#: Pickled-envelope header: tag + number of out-of-band buffers following.
_PICKLE_HDR = struct.Struct("<BI")
#: Token opcodes (second byte).
_TOK_TICK = 1
_TOK_OK = 2
#: Parent -> worker tick token: tag, op, tick, n arrival frames, directive.
#: Every token is followed by one u32 tag per frame, then by each frame as
#: its own pipe message (see :func:`_send_frames`).
_TICK_TOKEN = struct.Struct("<BBqIB")
#: Worker -> parent barrier token: tag, op, n frames, flags (bit 0 = a
#: pickled fault-residue envelope follows the frames).
_OK_TOKEN = struct.Struct("<BBIB")
_OK_RESIDUE = 1

#: Injected-fault directives, encoded into the tick token.
_DIRECTIVE_CODES = {None: 0, "kill": 1, "hang": 2, "exita": 3}
_DIRECTIVE_NAMES = {v: k for k, v in _DIRECTIVE_CODES.items()}

#: Frame-tag channels: ``tag = channel << 16 | rank``.
_CH_ARRIVALS = 1
_CH_PACKETS_A = 2
_CH_WAVE = 3
_CH_PACKETS_B = 4
_CH_PROBE = 5


def _frame_tag(channel: int, rank: int = 0) -> int:
    return (channel << 16) | rank


#: Shared counters-table layout: one row per rank, fixed columns, so the
#: scalar half of a :class:`RankTickReport` crosses the process boundary
#: as plain stores into a shared arena (zero pickled bytes).  The int64
#: columns are ``controls``, the :data:`REPORT_COUNTERS`, then these
#: fields; the float64 columns are ``cache_us`` and ``spill_us``.
_TABLE_INTS = (
    "bp_stalls", "cache_hits", "cache_misses", "queue_len", "quiet",
    "buffered", "buffered_visitors", "terminated", "ckpt_bytes",
)
_TABLE_BOOLS = ("quiet", "buffered", "terminated")
_TI_EXTRA = 1 + len(REPORT_COUNTERS)
_TBL_I64_COLS = _TI_EXTRA + len(_TABLE_INTS)


def _send_frames(conn, token: bytes, frames: list[tuple[int, bytes]]) -> int:
    """Send ``token`` with the frames' u32 tags appended, then each frame
    payload as one raw pipe message.  Returns the payload byte count."""
    conn.send_bytes(token + struct.pack(f"<{len(frames)}I", *(t for t, _ in frames)))
    for _, payload in frames:
        conn.send_bytes(payload)
    return sum(len(payload) for _, payload in frames)


def _frame_tags(token: bytes, head: struct.Struct, n_frames: int) -> tuple[int, ...]:
    """The u32 frame tags :func:`_send_frames` appended to ``token``."""
    return struct.unpack_from(f"<{n_frames}I", token, head.size)


def _send_obj(conn, obj) -> int:
    """Ship one python object over the pipe as a tagged pickle-5 envelope
    with out-of-band buffers (numpy columns and checkpoint images cross as
    raw bytes instead of being copied into the pickle stream).  Returns
    the pickled byte count for the telemetry counters."""
    buffers: list = []
    body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    conn.send_bytes(_PICKLE_HDR.pack(_TAG_PICKLE, len(buffers)) + body)
    total = _PICKLE_HDR.size + len(body)
    for buf in buffers:
        raw = buf.raw()
        conn.send_bytes(raw)
        total += raw.nbytes
    return total


def _recv_obj_tail(conn, first: bytes) -> tuple[object, int]:
    """Finish receiving a pickled envelope whose first pipe message is
    ``first``: collect the out-of-band buffers, then unpickle.  Buffers
    are copied into ``bytearray`` so restored numpy arrays are writable
    (restore paths mutate them in place).  Returns ``(obj, bytes)``."""
    tag, n_buffers = _PICKLE_HDR.unpack_from(first, 0)
    total = len(first)
    buffers: list[bytearray] = []
    for _ in range(n_buffers):
        raw = conn.recv_bytes()
        total += len(raw)
        buffers.append(bytearray(raw))
    obj = pickle.loads(first[_PICKLE_HDR.size:], buffers=buffers)
    return obj, total


def _worker_recv(conn) -> tuple[str, object]:
    """Worker-side receive: ``("tok", raw_bytes)`` for a tick token,
    ``("obj", message)`` for a pickled command."""
    data = conn.recv_bytes()
    if data[0] == _TAG_TOKEN:
        return "tok", data
    return "obj", _recv_obj_tail(conn, data)[0]


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _store_report_scalars(table: tuple, r: int, rep: RankTickReport) -> None:
    """Write the scalar half of one rank's report into its shared
    counters-table row (the parent reads it back after the OK token)."""
    table_i, table_f = table
    row = table_i[r]
    row[0] = rep.controls
    row[1:_TI_EXTRA] = rep.counters
    row[_TI_EXTRA:] = [int(getattr(rep, name)) for name in _TABLE_INTS]
    table_f[r] = (rep.cache_us, rep.spill_us)


def _recv_tick(conn, token: bytes) -> tuple[dict[int, list[Packet]], str | None]:
    """Worker-side read of one tick command: the arrival frames that
    follow ``token`` (one per rank with arrivals) and the directive."""
    _, op, _tick, n_frames, dcode = _TICK_TOKEN.unpack_from(token)
    if op != _TOK_TICK:  # pragma: no cover - protocol guard
        raise RuntimeError(f"unknown worker token op {op}")
    arrivals: dict[int, list[Packet]] = {}
    for tag in _frame_tags(token, _TICK_TOKEN, n_frames):
        arrivals[tag & 0xFFFF] = decode_packets(bytearray(conn.recv_bytes()))
    return arrivals, _DIRECTIVE_NAMES[dcode]


def _ship_tick(conn, table: tuple, out) -> None:
    """Ship one tick's barrier output: scalars into the shared counters
    table, then the OK token and the packet/probe columns as frames.
    Every frame is encoded before the token goes out, so a worker that
    fails while encoding replies with its error, never half a tick.  Fault
    records (rare; storage fault plans only) ride a pickled residue
    envelope after the frames."""
    reports, wave_packets = out
    frames: list[tuple[int, bytes]] = []
    for r, rep in reports.items():
        if rep.packets_a:
            frames.append((_frame_tag(_CH_PACKETS_A, r), encode_packets(rep.packets_a)))
    if wave_packets:
        frames.append((_frame_tag(_CH_WAVE), encode_packets(wave_packets)))
    for r, rep in reports.items():
        if rep.packets_b:
            frames.append((_frame_tag(_CH_PACKETS_B, r), encode_packets(rep.packets_b)))
        if rep.probe is not None:
            frames.append((_frame_tag(_CH_PROBE, r), encode_ints(rep.probe)))
    faults: dict[int, tuple] = {}
    for r, rep in reports.items():
        _store_report_scalars(table, r, rep)
        if rep.cache_faults is not None or rep.spill_faults is not None:
            faults[r] = (rep.cache_faults, rep.spill_faults)
    flags = _OK_RESIDUE if faults else 0
    _send_frames(conn, _OK_TOKEN.pack(_TAG_TOKEN, _TOK_OK, len(frames), flags), frames)
    if faults:
        _send_obj(conn, faults)


def _worker_main(
    engine: "SimulationEngine",
    owned: list[int],
    conn,
    table: tuple,
    seed_ranks: bool = True,
) -> None:
    """Entry point of one forked worker (owns ``owned`` ranks for life).

    ``seed_ranks=False`` marks a pool forked from a reinstalled epoch (a
    durable resume or a supervision rollback): the inherited ranks already
    hold the epoch's state, so the worker sends a bare ready.

    ``table`` is the shared counters table ``(int64, float64)`` (inherited
    through the fork).  A tick arrives as a token followed by its arrival
    frames and is answered the same way (:func:`_ship_tick`); every other
    command is a pickled envelope answered by one.
    """
    try:
        stub = PacketRecorder(engine.network)
        for r in owned:
            engine.mailboxes[r].network = stub

        if seed_ranks:
            # Seed the owned ranks (ascending, like the sequential path);
            # any eager-flush packets are shipped for the parent to replay
            # in natural rank order before the first tick.
            seed_packets: dict[int, list[Packet]] = {}
            for r in owned:
                engine._seed_rank(r)
                seed_packets[r] = stub.take()
            _send_obj(conn, ("ready", seed_packets))
        else:
            _send_obj(conn, ("ready", {}))

        parent_pid = os.getppid()
        while True:
            # Host-crash hygiene: a SIGKILLed parent never closes our pipe
            # (sibling workers hold inherited duplicates of every parent
            # end), so a blocking recv would orphan this process forever —
            # poll, and exit when reparented.  ``poll`` returns the moment
            # a command arrives, so the live path is unthrottled.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    os._exit(0)
            kind, msg = _worker_recv(conn)
            if kind == "tok":
                arrivals, inject = _recv_tick(conn, msg)
                if inject == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                out = _worker_tick(
                    engine, stub, owned, arrivals,
                    exit_mid_phase_a=(inject == "exita"),
                )
                if inject == "hang":
                    while True:  # hang *before* the barrier reply
                        time.sleep(1.0)
                _ship_tick(conn, table, out)
                continue
            cmd = msg[0]
            if cmd == "checkpoint":
                _send_obj(conn, ("ok", {r: checkpoint_rank(engine, r) for r in owned}))
            elif cmd == "replay":
                _send_obj(conn, ("ok", replay_rank(engine, stub, *msg[1:])))
            elif cmd == "durable":
                _send_obj(conn, ("ok", {r: rank_image.pack(engine, r) for r in owned}))
            elif cmd == "finalize":
                _send_obj(conn, ("ok", finalize_ranks(engine, owned, msg[1])))
            elif cmd == "stop":
                break
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown worker command {cmd!r}")
    except BaseException as exc:  # noqa: BLE001 - everything must cross the pipe
        try:
            _send_obj(conn, ("error", repr(exc), traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


def _worker_tick(
    engine: "SimulationEngine",
    stub: PacketRecorder,
    owned: list[int],
    arrivals: dict[int, list[Packet]],
    *,
    exit_mid_phase_a: bool = False,
) -> tuple[dict[int, RankTickReport], list[Packet] | None]:
    """One tick's owned-rank work: phase A, wave (rank-0 owner), phase B
    for the active owned ranks (``SimulationEngine._active_ranks``, the
    in-process executor's rule), then every owned rank's epoch drains and
    termination inputs."""
    cfg = engine.config
    owned_set = frozenset(owned)
    order = [r for r in engine._rank_order if r in owned_set]
    inbox = [()] * len(engine.ranks)
    for r, arrived in arrivals.items():
        inbox[r] = arrived
    active = engine._active_ranks(order, inbox)
    controls: dict[int, int] = {}
    packets_a: dict[int, list[Packet]] = {}
    for r in active:
        controls[r] = engine._rank_tick(r, inbox[r])
        packets_a[r] = stub.take()
        if exit_mid_phase_a:
            break
    if exit_mid_phase_a:
        # Injected mid-phase death: partial state mutations stay behind
        # (batch arenas are shared) — exactly what rollback must undo.
        os._exit(13)

    # The wave only reads and mutates rank 0's detector/mailbox, so running
    # it before *other workers'* phase A completes is unobservable; it is
    # sequenced exactly between this worker's phase A and phase B, as the
    # sequential loop sequences it for rank 0.
    wave_packets: list[Packet] | None = None
    detectors = engine.detectors
    if 0 in owned_set and detectors is not None and not detectors[0].terminated:
        detectors[0].maybe_start_wave()
        wave_packets = stub.take()

    packets_b: dict[int, list[Packet]] = {}
    for r in active:
        engine.mailboxes[r].flush()
        packets_b[r] = stub.take()
    reports: dict[int, RankTickReport] = {}
    for r in order:
        rank = engine.ranks[r]
        mailbox = engine.mailboxes[r]
        c = rank.counters
        cache = engine.caches[r]
        cache_us = 0.0
        cache_faults = None
        if cache is not None:
            cache_us = cache.drain_epoch_us(concurrency=cfg.io_concurrency)
            cache_faults = cache.last_epoch_faults
        spill = engine.spills[r]
        spill_us = 0.0
        spill_faults = None
        if spill is not None:
            if cfg.queue_spill is not None:
                rank.sync_spill(spill, cfg.queue_spill)
            spill_us = spill.drain_epoch_us(concurrency=cfg.io_concurrency)
            spill_faults = spill.cache.last_epoch_faults
        probe = None
        if engine._record_digests:
            probe = tuple(rank.order_probe)
            rank.order_probe.clear()
        reports[r] = RankTickReport(
            controls=controls.get(r, 0),
            counters=(
                c.previsits, c.visits, c.edges_scanned, c.pushes,
                c.ghost_filtered, mailbox.packets_sent, mailbox.bytes_sent,
                mailbox.visitors_sent, mailbox.visitors_received,
            ),
            packets_a=packets_a.get(r, []),
            packets_b=packets_b.get(r, []),
            cache_us=cache_us,
            cache_faults=cache_faults,
            spill_us=spill_us,
            spill_faults=spill_faults,
            bp_stalls=mailbox.bp_stalls,
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            queue_len=rank.queue_length(),
            quiet=rank.locally_quiet(),
            buffered=mailbox.has_buffered(),
            buffered_visitors=mailbox.buffered_visitor_count(),
            terminated=(
                engine.detectors[r].terminated
                if engine.detectors is not None
                else True
            ),
            probe=probe,
            ckpt_bytes=(
                estimate_checkpoint_bytes(engine, r)
                if engine.durable is not None
                else 0
            ),
        )
    return reports, wave_packets


def finalize_ranks(
    engine: "SimulationEngine", owned, ship_states: bool = False
) -> tuple[dict, dict, int | None]:
    """End-of-run accounting for the ``owned`` ranks: sync mailbox
    counters, fold absolute cache totals, return the counters, the state
    blocks when ``ship_states`` (blocks the pool could not share) and
    (when rank 0 is owned) the detector's wave count."""
    counters: dict[int, object] = {}
    states: dict[int, object] = {}
    for r in owned:
        rank = engine.ranks[r]
        rank.sync_mailbox_counters()
        cache = engine.caches[r]
        if cache is not None:
            rank.counters.cache_hits = cache.hits
            rank.counters.cache_misses = cache.misses
            rank.counters.cache_evictions = cache.evictions
        counters[r] = rank.counters
        if ship_states:
            states[r] = rank.states
    waves = None
    if 0 in owned and engine.detectors is not None:
        waves = engine.detectors[0].waves_participated
    return counters, states, waves


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class WorkerPool:
    """Persistent forked worker pool for one rank executor.

    Forked in the constructor — after the engine is fully built (or an
    epoch reinstalled) and after the array state blocks are rebound onto
    shared arenas — so every worker's engine copy is bit-identical to the
    parent's by construction.

    The pool is pure *transport*: fork, send, receive-with-deadline,
    kill, reap.  Failure classification happens here (every receive path
    raises a structured :class:`~repro.errors.WorkerCrash`); the recovery
    *policy* lives in :class:`WorkerSupervisor`.  Use as a context manager
    so no child processes outlive a parent-side error::

        with WorkerPool(engine) as pool:
            ...
    """

    def __init__(self, engine: "SimulationEngine", seed_ranks: bool = True) -> None:
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise ConfigurationError(
                "workers > 1 requires the 'fork' multiprocessing start "
                "method (POSIX); run with workers=1 on this platform"
            )
        ctx = mp.get_context("fork")
        p = engine.graph.num_partitions
        w = min(engine.config.workers, p)
        self._engine = engine
        self._ctx = ctx
        self.owned: list[list[int]] = [
            [r for r in range(p) if r % w == i] for i in range(w)
        ]
        self.owner: list[int] = [r % w for r in range(p)]
        self.blocks: list[SharedArrayBlock] = []
        for rank in engine.ranks:
            block = share_state_arrays(rank.states)
            if block is not None:
                self.blocks.append(block)
        #: Whether final states cross the pipe: state blocks without
        #: arrays (object visitors' state objects) cannot be shared.
        self.ship_states: bool = not self.blocks

        #: The shared counters table every worker writes its ranks' report
        #: scalars into (INTERNALS §14).
        self._table_block = SharedArrayBlock(
            [
                ("i64", np.zeros((p, _TBL_I64_COLS), dtype=np.int64)),
                ("f64", np.zeros((p, 2), dtype=np.float64)),
            ]
        )
        self._table = (self._table_block.view("i64"), self._table_block.view("f64"))

        #: Host-side IPC telemetry (see :meth:`ipc_counters`).
        self.ipc_frames = 0
        self.ipc_frame_bytes = 0
        self.ipc_bytes_pickled = 0
        self.ipc_tick_bytes_pickled = 0
        self.barrier_seconds = 0.0

        self._procs = []
        self._conns = []
        #: liveness according to the last observation (updated by
        #: :meth:`recv` / :meth:`kill`).
        self.alive: list[bool] = []
        for i in range(w):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(engine, self.owned[i], child_conn, self._table, seed_ranks),
                daemon=True,
            )
            try:
                proc.start()
            except OSError as exc:
                # A failed fork is a failed worker: reap the ones already
                # started and let the supervisor decide.
                parent_conn.close()
                self.shutdown()
                raise WorkerCrash(
                    f"forking worker {i} failed: {exc}",
                    worker=i, ranks=self.owned[i], kind="crash",
                ) from exc
            finally:
                child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self.alive.append(True)

    @property
    def num_workers(self) -> int:
        return len(self._procs)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # A failed run: no worker holds anything the parent needs, and
            # a worker mid-reply would block on its pipe instead of
            # reading "stop".
            for i in range(self.num_workers):
                self.kill(i)
        self.shutdown()
        return False

    # -------------------------------------------------------------- #
    def _who(self, i: int) -> str:
        return f"worker {i} (ranks {self.owned[i]})"

    def _send_raw(self, i: int, write):
        """``write(conn)`` on worker ``i``'s pipe; a dead pipe raises a
        structured :class:`~repro.errors.WorkerCrash` instead of leaking
        ``BrokenPipeError``."""
        try:
            return write(self._conns[i])
        except (BrokenPipeError, OSError, ValueError) as exc:
            self.alive[i] = False
            raise WorkerCrash(
                f"{self._who(i)} is gone (send failed: {exc})",
                worker=i, ranks=self.owned[i], kind="crash",
                exitcode=self._procs[i].exitcode,
            ) from exc

    def send(self, i: int, message: tuple) -> None:
        """Send one pickled command to worker ``i`` (protocol 5, columns
        and images as out-of-band buffers); a dead pipe raises a
        structured :class:`~repro.errors.WorkerCrash` instead of leaking
        ``BrokenPipeError``."""
        self.ipc_bytes_pickled += self._send_raw(i, lambda conn: _send_obj(conn, message))

    def send_tick(
        self,
        i: int,
        t: int,
        arrivals: dict[int, list[Packet]],
        directive: str | None,
    ) -> None:
        """Fan tick ``t`` out to worker ``i``: the tick token, then one SoA
        arrival frame per rank with arrivals (ascending rank, tagged with
        it)."""
        frames = [
            (_frame_tag(_CH_ARRIVALS, r), encode_packets(arrivals[r]))
            for r in sorted(arrivals)
        ]
        token = _TICK_TOKEN.pack(
            _TAG_TOKEN, _TOK_TICK, t, len(frames), _DIRECTIVE_CODES[directive]
        )
        self.ipc_frame_bytes += self._send_raw(
            i, lambda conn: _send_frames(conn, token, frames)
        )
        self.ipc_frames += len(frames)

    def _recv_bytes(self, i: int, deadline_s: float | None, start: float):
        """Block until worker ``i``'s pipe has one message and return its
        raw bytes, classifying failures.  No busy loop: the wait parks in
        ``multiprocessing.connection.wait`` on the pipe *and* the process
        sentinel, so an idle barrier burns no CPU the workers need and a
        dying worker wakes the parent immediately."""
        conn = self._conns[i]
        proc = self._procs[i]
        who = self._who(i)
        while True:
            timeout = None
            if deadline_s is not None:
                # Host-side failure detection; wall-clock never touches
                # the simulated schedule (a hang is replayed
                # deterministically).
                elapsed = time.monotonic() - start  # repro-lint: disable=RPR002 -- host-side barrier deadline, simulation-invisible
                timeout = deadline_s - elapsed
                if timeout <= 0:
                    self.kill(i)
                    raise WorkerCrash(
                        f"{who} missed the barrier deadline "
                        f"({deadline_s:.1f}s); force-killed",
                        worker=i, ranks=self.owned[i], kind="hang",
                    )
            ready = _mp_wait([conn, proc.sentinel], timeout)
            if conn in ready:
                try:
                    return conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    self.alive[i] = False
                    raise WorkerCrash(
                        f"{who} closed its pipe mid-reply",
                        worker=i, ranks=self.owned[i], kind="crash",
                        exitcode=proc.exitcode,
                    ) from exc
            if ready:  # sentinel only: the process died
                if conn.poll(0):
                    continue  # its last reply is still buffered — read it
                self.alive[i] = False
                proc.join(timeout=5.0)
                raise WorkerCrash(
                    f"{who} died (exitcode {proc.exitcode})",
                    worker=i, ranks=self.owned[i], kind="crash",
                    exitcode=proc.exitcode,
                )

    def recv(self, i: int, deadline_s: float | None = None):
        """Receive one reply from worker ``i`` — a pickled envelope, or a
        tick's OK token, whose payload is decoded from the frames that
        follow it and the shared counters table.

        Raises :class:`~repro.errors.WorkerCrash` classified as:

        * ``kind="error"`` — the worker reported an exception (its
          traceback rides along in ``worker_traceback``);
        * ``kind="crash"`` — pipe EOF or process death (``exitcode`` set),
          also mid-frame;
        * ``kind="hang"`` — no reply within ``deadline_s`` wall-clock
          seconds; the wedged process is force-killed first, so the pipe
          is dead by the time the caller sees the exception.

        Without a deadline the wait is indefinite but never busy-hangs on
        a dead process.
        """
        who = self._who(i)
        start = time.monotonic()  # repro-lint: disable=RPR002 -- host-side barrier deadline, simulation-invisible
        try:
            data = self._recv_bytes(i, deadline_s, start)
            if data[0] == _TAG_TOKEN:
                return self._recv_tick_reply(i, data, deadline_s, start)
            msg, n = _recv_obj_tail(self._conns[i], data)
            self.ipc_bytes_pickled += n
            if msg[0] == "error":
                raise WorkerCrash(
                    f"{who} raised {msg[1]}\n--- worker traceback ---\n{msg[2]}",
                    worker=i, ranks=self.owned[i], kind="error",
                    worker_traceback=msg[2],
                )
            return msg[1]
        finally:
            self.barrier_seconds += time.monotonic() - start  # repro-lint: disable=RPR002 -- host-side telemetry, simulation-invisible

    def _recv_tick_reply(
        self, i: int, token: bytes, deadline_s: float | None, start: float
    ) -> tuple[dict[int, RankTickReport], list[Packet] | None]:
        """Rebuild worker ``i``'s barrier reply from the frames following
        its OK ``token``, the optional pickled fault residue and the shared
        counters table — the ``(reports, wave_packets)`` tuple
        :func:`_worker_tick` returned, so the caller's deterministic merge
        never sees the wire format."""
        _, op, n_frames, flags = _OK_TOKEN.unpack_from(token)
        if op != _TOK_OK:  # pragma: no cover - protocol guard
            raise WorkerCrash(
                f"{self._who(i)} sent an unknown token op {op}",
                worker=i, ranks=self.owned[i], kind="error",
            )
        packets_a: dict[int, list[Packet]] = {}
        packets_b: dict[int, list[Packet]] = {}
        probes: dict[int, tuple[int, ...]] = {}
        wave: list[Packet] | None = None
        for tag in _frame_tags(token, _OK_TOKEN, n_frames):
            payload = bytearray(self._recv_bytes(i, deadline_s, start))
            self.ipc_frames += 1
            self.ipc_frame_bytes += len(payload)
            ch, r = tag >> 16, tag & 0xFFFF
            if ch == _CH_PACKETS_A:
                packets_a[r] = decode_packets(payload)
            elif ch == _CH_WAVE:
                wave = decode_packets(payload)
            elif ch == _CH_PACKETS_B:
                packets_b[r] = decode_packets(payload)
            elif ch == _CH_PROBE:
                probes[r] = decode_ints(payload)
            else:  # pragma: no cover - protocol guard
                raise WorkerCrash(
                    f"{self._who(i)} sent an unknown frame channel {ch}",
                    worker=i, ranks=self.owned[i], kind="error",
                )
        faults: dict[int, tuple] = {}
        if flags & _OK_RESIDUE:
            first = self._recv_bytes(i, deadline_s, start)
            faults, n = _recv_obj_tail(self._conns[i], first)
            self.ipc_bytes_pickled += n
            self.ipc_tick_bytes_pickled += n
        table_i, table_f = self._table
        reports: dict[int, RankTickReport] = {}
        for r in self.owned[i]:
            row = table_i[r].tolist()
            cache_us, spill_us = table_f[r].tolist()
            cache_faults, spill_faults = faults.get(r, (None, None))
            fields = dict(zip(_TABLE_INTS, row[_TI_EXTRA:], strict=True))
            for name in _TABLE_BOOLS:
                fields[name] = bool(fields[name])
            reports[r] = RankTickReport(
                controls=row[0],
                counters=tuple(row[1:_TI_EXTRA]),  # type: ignore[arg-type]
                packets_a=packets_a.get(r, []),
                packets_b=packets_b.get(r, []),
                cache_us=cache_us,
                cache_faults=cache_faults,
                spill_us=spill_us,
                spill_faults=spill_faults,
                probe=probes.get(r),
                **fields,
            )
        return reports, wave

    def ipc_counters(self) -> dict:
        """Host-side barrier IPC telemetry for this run (surfaced as
        :attr:`~repro.core.traversal.TraversalResult.ipc` and by the
        hotpath bench), counted by the pool in both directions.
        ``tick_bytes_pickled`` is the zero-pickle contract's observable:
        ticks cross as frames, so it stays 0 unless a storage fault plan
        sent fault records in a tick's pickled residue."""
        return {
            "workers": self.num_workers,
            "frames": self.ipc_frames,
            "frame_bytes": self.ipc_frame_bytes,
            "bytes_pickled": self.ipc_bytes_pickled,
            "tick_bytes_pickled": self.ipc_tick_bytes_pickled,
            "barrier_seconds": round(self.barrier_seconds, 6),
        }

    # -------------------------------------------------------------- #
    def kill(self, i: int) -> None:
        """Force-kill worker ``i`` (SIGKILL) and reap it."""
        proc = self._procs[i]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        self.alive[i] = False

    def shutdown(self) -> None:
        """Stop and reap every worker (no child-process leak across runs).
        Safe after errors: a wedged worker is terminated, not joined
        forever.  The shared arenas stay mapped — the parent's state views
        still read from them — and are reclaimed with the objects."""
        for i, conn in enumerate(self._conns):
            if not self.alive[i]:
                continue
            try:
                _send_obj(conn, ("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class WorkerSupervisor:
    """Worker-failure policy of one :meth:`SimulationEngine.run`.

    Inactive (the default: no restart budget, no fault plan), it adds no
    deadline and a :class:`~repro.errors.WorkerCrash` fails the run — the
    fail-fast contract.  Active, it keeps the run's newest epoch in memory
    and :meth:`rollback` answers a failure: classify it, then reinstall
    the epoch and either fork a fresh pool (seeded backoff, at most
    ``worker_restarts`` attempts per failing worker) or, with the budget
    spent, continue in-process.

    The supervisor outlives the pools it watches, so everything a rollback
    must *not* rewind lives here rather than in the restored stats: the
    fired fault directives (a re-executed tick must not fire a kill
    again), the per-worker attempts, the backoff RNG, the supervision
    counters and the IPC totals of retired pools.
    """

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        cfg = engine.config
        p = engine.graph.num_partitions
        self.plan = cfg.worker_faults
        self.active: bool = cfg.supervision_active
        self.restart_budget: int = cfg.worker_restarts
        timeout = cfg.worker_barrier_timeout
        if timeout is None and self.active:
            timeout = DEFAULT_BARRIER_TIMEOUT_S
        #: barrier deadline base (None = wait forever, the inactive mode).
        self.timeout: float | None = timeout
        if self.plan is not None:
            for ev in self.plan.events:
                if ev.rank >= p:
                    raise ConfigurationError(
                        f"worker fault event targets rank {ev.rank}, "
                        f"but the graph has {p} ranks"
                    )
        self._rng = resolve_rng(self.plan.seed if self.plan is not None else 0)
        self._forkfails_left = self.plan.fork_failures if self.plan is not None else 0
        self._fired: set[tuple[int, int, str]] = set()
        self._attempts = [0] * engine.workers
        #: the run fell back to the in-process executor for good.
        self.degraded = False
        #: newest epoch: (tick, capture_epoch sections by name, durable
        #: writer state or None).
        self.epoch: tuple[int, dict[str, bytes], tuple | None] | None = None
        #: (tick, summed counters) where the loop saw the pending failure.
        self._failure: tuple[int, list[int]] | None = None
        self._reforking = False
        self._ipc: dict = {}
        # supervision stats, folded into TraversalStats at finalize
        self.worker_crashes = 0
        self.worker_hangs = 0
        self.worker_respawns = 0
        self.worker_replayed_ticks = 0
        self.supervision_us = 0.0

    @property
    def armed(self) -> bool:
        """Whether a worker failure rolls back (and epochs are taken)."""
        return self.active and not self.degraded

    # -------------------------------------------------------------- #
    # Epochs and rollback
    # -------------------------------------------------------------- #
    def keep_epoch(self, tick: int, blobs: list[tuple[str, bytes]], stats) -> None:
        """Make ``blobs`` (:func:`~repro.runtime.durability.capture_epoch`
        of tick ``tick``) the rollback target."""
        durable = self.engine.durable
        writer = None if durable is None else durable.writer_state(stats)
        self.epoch = (tick, dict(blobs), writer)

    def note_failure(self, tick: int, counters: np.ndarray) -> None:
        """Record where the loop stood when a failure reached it: the tick
        being executed and the ranks' cumulative ``(previsits, visits,
        edges, packets, bytes)`` counters, for :meth:`rollback`'s price."""
        self._failure = (tick, counters.sum(axis=0).tolist())

    def rollback(self, crash: WorkerCrash) -> ResumeState:
        """Answer a failure of the (already shut down) pool: pick a fresh
        pool or the in-process fallback, then reinstall the newest epoch
        into the engine and return it for the loop to resume from.  Raises
        ``crash`` when no epoch exists yet."""
        self.worker_crashes += 1
        if crash.kind == "hang":
            self.worker_hangs += 1
        if self.epoch is None:
            raise crash
        i = crash.worker
        self._reforking = False
        while self._attempts[i] < self.restart_budget:
            self._attempts[i] += 1
            self._backoff(self._attempts[i])
            if self._forkfails_left > 0:
                # Injected fork failure: the attempt is consumed, no child.
                self._forkfails_left -= 1
                continue
            self._reforking = True
            break
        self.degraded = not self._reforking
        eng = self.engine
        tick, blobs, writer = self.epoch
        resume = install_epoch(eng, tick, unpickle_epoch(blobs))
        if writer is not None:
            eng.durable.set_writer_state(writer, resume.stats)
        c0 = resume.loop["prev"].sum(axis=0).tolist()
        failed_tick, c1 = self._failure or (tick, c0)
        self._failure = None
        self.supervision_us += replay_price_us(eng.machine, c0, c1, 0, len(blobs["ranks"]))
        self.worker_replayed_ticks += failed_tick - tick
        return resume

    def pool_started(self) -> None:
        """A pool answered its readies; counts it when it is a re-fork."""
        if self._reforking:
            self.worker_respawns += 1
            self._reforking = False

    def _backoff(self, attempt: int) -> None:
        """Seeded exponential backoff between re-fork attempts (host-side
        pacing; the jitter stream is deterministic per fault seed)."""
        delay = min(_BACKOFF_BASE_S * (2 ** (attempt - 1)), _BACKOFF_CAP_S)
        time.sleep(delay * (0.5 + float(self._rng.random())))

    # -------------------------------------------------------------- #
    # Barrier policy
    # -------------------------------------------------------------- #
    def directives(self, t: int, owner: list[int]) -> dict[int, str]:
        """This tick's injected fault directives by worker id (one per
        worker per tick); each plan event fires once per run."""
        if self.plan is None:
            return {}
        out: dict[int, str] = {}
        for ev in self.plan.events_at(t):
            key = (ev.tick, ev.rank, ev.kind)
            if key in self._fired:
                continue
            self._fired.add(key)
            out.setdefault(owner[ev.rank], ev.kind)
        return out

    def tick_deadline(self, arrivals: list[list[Packet]]) -> float | None:
        """Wall-clock barrier deadline for one tick, scaled by the tick's
        arrival volume so heavy ticks aren't misclassified as hangs."""
        if self.timeout is None:
            return None
        total = sum(pkt.count for a in arrivals for pkt in a)
        return self.timeout * max(1.0, total / _DEADLINE_PACKETS)

    # -------------------------------------------------------------- #
    # Bookkeeping
    # -------------------------------------------------------------- #
    def retire(self, pool: WorkerPool) -> None:
        """Add a shut-down pool's IPC counters to the run's totals."""
        for key, value in pool.ipc_counters().items():
            self._ipc[key] = value if key == "workers" else self._ipc.get(key, 0) + value

    def ipc_counters(self) -> dict:
        """Barrier IPC telemetry summed over every pool of the run."""
        out = dict(self._ipc)
        out["barrier_seconds"] = round(out["barrier_seconds"], 6)
        return out

    def fold_stats(self, stats: TraversalStats) -> None:
        """Surface the supervisor's own activity (excluded from the chaos
        bit-identity contract via ``SUPERVISION_STATS_FIELDS``)."""
        stats.worker_crashes = self.worker_crashes
        stats.worker_hangs = self.worker_hangs
        stats.worker_respawns = self.worker_respawns
        stats.worker_replayed_ticks = self.worker_replayed_ticks
        stats.degraded_ranks = self.engine.graph.num_partitions if self.degraded else 0
        stats.supervision_us = self.supervision_us


class PoolRanks:
    """The ``workers > 1`` rank executor of :meth:`SimulationEngine.run`.

    Runs each tick's rank work in the forked pool and replays the
    workers' packets into the real network in the sequential global send
    order — per-rank phase A in ``_rank_order``, the rank-0 wave, per-rank
    phase B in ``_rank_order`` — so the engine's one tick loop sees exactly
    what the in-process executor produces.  Every other answer is read
    from the tick's barrier reports.  A failed command raises
    :class:`~repro.errors.WorkerCrash` to the loop.
    """

    def __init__(
        self, engine: "SimulationEngine", pool: WorkerPool, sup: WorkerSupervisor
    ) -> None:
        self.engine = engine
        self.pool = pool
        self.sup = sup
        #: the last completed barrier's reports, indexed by rank.
        self.reports: list[RankTickReport] | None = None
        # Seed-phase packets, replayed in natural rank order — exactly
        # where in-process seeding's eager flushes land.  A pool forked
        # from an epoch sends bare readies (the restored network already
        # carries every in-flight packet).
        seed_packets: dict[int, list[Packet]] = {}
        for i in range(pool.num_workers):
            seed_packets.update(pool.recv(i, sup.timeout))
        sup.pool_started()
        for r in range(engine.graph.num_partitions):
            for pkt in seed_packets.get(r, ()):
                engine.network.send_packet(pkt)

    def _gather(self, msg: tuple) -> list:
        """Send one control command to every worker, then collect their
        replies in worker order."""
        pool = self.pool
        for i in range(pool.num_workers):
            pool.send(i, msg)
        return [pool.recv(i, self.sup.timeout) for i in range(pool.num_workers)]

    def tick(self, t: int, arrivals: list[list[Packet]]) -> list[int]:
        eng = self.engine
        pool = self.pool
        directives = self.sup.directives(t, pool.owner)
        deadline = self.sup.tick_deadline(arrivals)
        for i in range(pool.num_workers):
            owned = {r: arrivals[r] for r in pool.owned[i] if arrivals[r]}
            pool.send_tick(i, t, owned, directives.get(i))
        by_rank: dict[int, RankTickReport] = {}
        wave_packets: list[Packet] = []
        for i in range(pool.num_workers):
            out_reports, wave = pool.recv(i, deadline)
            by_rank.update(out_reports)
            if wave:
                wave_packets = wave
        reports = [by_rank[r] for r in range(len(by_rank))]
        send = eng.network.send_packet
        for r in eng._rank_order:
            for pkt in reports[r].packets_a:
                send(pkt)
        for pkt in wave_packets:
            send(pkt)
        for r in eng._rank_order:
            for pkt in reports[r].packets_b:
                send(pkt)
        self.reports = reports
        return [rep.controls for rep in reports]

    def checkpoint(self) -> list[int]:
        """Every worker takes its ranks' recovery images; simulated bytes
        by rank."""
        sizes: dict[int, int] = {}
        for part in self._gather(("checkpoint",)):
            sizes.update(part)
        return [sizes[r] for r in range(self.engine.graph.num_partitions)]

    def replay(
        self, r: int, epoch_tick: int, crash_tick: int, log: dict[int, list[Packet]]
    ) -> tuple[list[list[Packet]], tuple, tuple, int]:
        """Rank ``r``'s restore and replay in its owner
        (:func:`~repro.runtime.recovery.replay_rank`)."""
        i = self.pool.owner[r]
        deadline = None
        if self.sup.timeout is not None:
            deadline = self.sup.timeout * max(1, crash_tick - epoch_tick)
        self.pool.send(i, ("replay", r, epoch_tick, crash_tick, log))
        return self.pool.recv(i, deadline)

    def gather_counters(self, cur: np.ndarray) -> None:
        for r, rep in enumerate(self.reports):
            cnt = rep.counters
            cur[r, 0] = cnt[0]
            cur[r, 1] = cnt[1]
            cur[r, 2] = cnt[2]
            cur[r, 3] = cnt[5]
            cur[r, 4] = cnt[6]

    def cache_epoch(self, r: int) -> tuple[float, object | None]:
        rep = self.reports[r]
        return rep.cache_us, rep.cache_faults

    def spill_epoch(self, r: int) -> tuple[float, object | None]:
        rep = self.reports[r]
        return rep.spill_us, rep.spill_faults

    def bp_stalls(self, r: int) -> int:
        return self.reports[r].bp_stalls

    def digest_rows(self) -> tuple[list, list]:
        return (
            [rep.counters[:5] for rep in self.reports],
            [rep.probe or () for rep in self.reports],
        )

    def ckpt_bytes(self) -> list[int]:
        return [rep.ckpt_bytes for rep in self.reports]

    def timeline_totals(self) -> tuple[int, int, int, int, int]:
        reps = self.reports
        return (
            sum(rep.counters[1] for rep in reps),
            sum(rep.cache_hits for rep in reps),
            sum(rep.cache_misses for rep in reps),
            sum(rep.bp_stalls for rep in reps),
            sum(rep.queue_len for rep in reps),
        )

    def all_terminated(self) -> bool:
        return all(rep.terminated for rep in self.reports)

    def all_quiet(self) -> bool:
        return all(rep.quiet for rep in self.reports)

    def any_buffered(self) -> bool:
        return any(rep.buffered for rep in self.reports)

    def any_buffered_visitors(self) -> bool:
        return any(rep.buffered_visitors for rep in self.reports)

    def queue_lengths(self) -> list[int]:
        return [rep.queue_len for rep in self.reports]

    def durable_sections(self) -> list[bytes]:
        """Every rank's packed epoch section
        (:func:`~repro.runtime.rank_image.pack`), packed by its owner so
        the workers pickle their ranks in parallel.  Runs at the same
        barrier position as the sequential collection, so the captured
        state is bit-identical to a ``workers=1`` epoch."""
        sections: dict[int, bytes] = {}
        for part in self._gather(("durable",)):
            sections.update(part)
        return [sections[r] for r in range(self.engine.graph.num_partitions)]

    def final(self) -> tuple[list, int | None, list]:
        """Final counters, wave count and states from the finalize
        barrier: array states are read zero-copy from the shared arenas,
        object states are pickled back once."""
        ship = self.pool.ship_states
        counters: dict[int, object] = {}
        states: dict[int, object] = {}
        waves: int | None = None
        for part_c, part_s, part_w in self._gather(("finalize", ship)):
            counters.update(part_c)
            states.update(part_s)
            if part_w is not None:
                waves = part_w
        eng = self.engine
        ranks = range(eng.graph.num_partitions)
        if not ship:
            states = {r: eng.ranks[r].states for r in ranks}
        return [counters[r] for r in ranks], waves, [states[r] for r in ranks]

    def last_barrier(self) -> tuple[list, None, None]:
        """Post-mortem counters after a worker failure, reconstructed from
        the last completed barrier (no worker is asked)."""
        if self.reports is None:
            return [], None, None
        counters = [
            RankCounters(
                **dict(zip(REPORT_COUNTERS, rep.counters, strict=True)),
                bp_stalls=rep.bp_stalls,
            )
            for rep in self.reports
        ]
        return counters, None, None
