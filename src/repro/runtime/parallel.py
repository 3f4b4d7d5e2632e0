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
  mailboxes are rewired to a :class:`_StubNetwork` that records packets in
  emission order, bucketed per phase (mid-tick eager flushes, detector
  wave, end-of-tick flush).  At the barrier the parent replays the buckets
  into the real :class:`~repro.comm.network.Network` /
  :class:`~repro.comm.reliable.ReliableTransport` in exactly the
  sequential global send order — for each rank in ``_rank_order``: phase-A
  packets; then the rank-0 wave packets; then for each rank in
  ``_rank_order``: phase-B packets — so sequence stamps, the fault
  injector's single decision stream, wire counters and order digests are
  bit-identical to ``workers=1``.  Counter deltas and spill/cache charges
  are likewise folded in ascending rank order with the sequential
  per-rank float-addition order preserved.

Checkpoints snapshot rank-local state *inside* the owning worker (the
snapshot never crosses the process boundary; only its simulated byte size
does), and crash replay re-executes the logged ticks in the owning worker
while the parent interleaves transport notes and replayed sends per tick —
see :class:`ParallelRecoveryManager`.

Worker supervision (INTERNALS §12)
----------------------------------
Without supervision, a worker failure of any kind (exception, abrupt
death) surfaces as :class:`~repro.errors.WorkerCrash`, which the engine
converts into a :class:`~repro.errors.TraversalError` carrying the partial
stats, matching the ``max_ticks`` behaviour.  With supervision active
(``worker_restarts > 0`` or a ``worker_faults`` plan), the
:class:`WorkerSupervisor` makes the pool *self-healing* instead:

* **Detection.**  Every barrier receive carries a wall-clock deadline
  (``worker_barrier_timeout``, scaled by the tick's arrival volume and by
  replay length); pipe EOF / process death classify a failure as a
  *crash*, a missed deadline as a *hang* (the wedged process is
  force-killed).  Worker-reported exceptions keep their traceback and
  surface as ``kind="error"``.

* **Respawn and replay.**  At every supervision epoch the workers ship
  full per-rank state *images* (queue, mailbox, detector, spill pager,
  caches, spill ledger) to the parent alongside their local snapshots.  A
  failed worker is forked again from the parent, restored from the latest
  images, and replays the logged arrival ticks up to the last completed
  barrier — re-running any *simulated* rank-crash recoveries recorded in
  that window, so cumulative counters (which carry replay
  double-increments) land bit-identically.  Replay is
  simulation-invisible: stub packets are discarded (the real fabric
  already carried them) and the epoch drains are thrown away.  Respawns
  are paced by a seeded exponential backoff and bounded by
  ``worker_restarts``.

* **Graceful degradation.**  When the restart budget is exhausted (or
  ``fork`` itself fails), the parent adopts the dead worker's images
  itself and absorbs the orphaned ranks into its own in-process tick
  loop; the run completes — slower, never wrong.

* **Pricing.**  Restarts, image restores and replayed compute are charged
  through the machine model into ``TraversalStats.supervision_us`` —
  deliberately *not* into ``time_us``: the simulated cluster never
  failed, only host processes did, so the simulated clock and every
  logical counter stay bit-identical to the unfailed run (the chaos suite
  compares full stats minus exactly
  :data:`~repro.runtime.trace.SUPERVISION_STATS_FIELDS`).

Injected worker faults (:class:`~repro.comm.faults.WorkerFaultPlan`) ride
the tick command as directives: ``kill`` SIGKILLs the worker before it
does the tick's work, ``hang`` completes the work and then sleeps past the
deadline, ``exita`` hard-exits mid-phase-A, and ``forkfail`` consumes
respawn attempts parent-side.
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
from repro.core.batch import SharedArrayBlock, share_state_arrays
from repro.errors import ConfigurationError, TraversalError, WorkerCrash
from repro.runtime import rank_image
from repro.runtime.packet_codec import (
    UnframeablePayload,
    decode_ints,
    decode_packets,
    encode_ints,
    encode_packets,
    frameable,
)
from repro.runtime.recovery import (
    RecoveryManager,
    counter_snapshot,
    estimate_checkpoint_bytes,
    replay_price_us,
    replay_ticks,
)
from repro.runtime.shm_ring import RingIntegrityError, SpscRing
from repro.runtime.trace import RankCounters, TraversalStats
from repro.utils.rng import resolve_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import SimulationEngine

__all__ = [
    "ParallelRecoveryManager",
    "PoolRanks",
    "RankTickReport",
    "WorkerCrash",
    "WorkerPool",
    "WorkerSupervisor",
]

#: Barrier deadline when supervision is active and the user gave none.
DEFAULT_BARRIER_TIMEOUT_S = 30.0
#: Supervision image cadence (ticks) when no recovery manager drives it.
SUPERVISION_EPOCH_TICKS = 16
#: Seeded exponential respawn backoff: base doubles per attempt, capped.
_BACKOFF_BASE_S = 0.02
_BACKOFF_CAP_S = 0.5
#: Arrival-packet volume one deadline unit is assumed to cover.
_DEADLINE_PACKETS = 50_000


class _StubNetwork:
    """Packet recorder standing in for the fabric inside a worker.

    Workers must not touch the real network — sequence stamping, fault
    injection and delivery scheduling are parent-side — so their mailboxes
    get this collector instead; :meth:`take` cuts the emission-ordered
    stream into the per-phase buckets the parent's barrier merge replays.
    The parent replays them into its fabric unchanged, so the stub takes
    packet trains exactly when that fabric does.
    """

    __slots__ = ("_packets", "packet_trains")

    def __init__(self, fabric) -> None:
        self._packets: list[Packet] = []
        self.packet_trains = fabric.packet_trains

    def send_packet(self, packet: Packet) -> None:
        self._packets.append(packet)

    def take(self) -> list[Packet]:
        out = self._packets
        self._packets = []
        return out


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
# Pipe framing & shared-memory ring transport (INTERNALS §14)
# ---------------------------------------------------------------------- #
#: Per-direction ring capacity.  16 MiB holds hundreds of ticks of frame
#: traffic for the bench workloads; a tick that does not fit spills to the
#: pickled pipe, which is always correct.  Module-level so tests can
#: shrink it to force the overflow path.
RING_BYTES = 1 << 24

#: First byte of every pipe message: a pickled envelope or a fixed token.
_TAG_PICKLE = 0
_TAG_TOKEN = 1
#: Pickled-envelope header: tag + number of out-of-band buffers following.
_PICKLE_HDR = struct.Struct("<BI")
#: Token opcodes (second byte).
_TOK_TICK = 1
_TOK_OK = 2
#: Parent -> worker tick token: tag, op, tick, n arrival frames, directive.
_TICK_TOKEN = struct.Struct("<BBqIB")
#: Worker -> parent barrier token: tag, op, n frames, flags (bit 0 = a
#: pickled residue envelope follows on the pipe).
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


@dataclass
class _RingLinks:
    """One worker's shared-memory attachments, created parent-side before
    the fork and inherited through it (never pickled)."""

    #: worker -> parent frame ring (barrier reports).
    tx: SpscRing
    #: parent -> worker frame ring (tick arrivals).
    rx: SpscRing
    #: per-rank scalar report columns (shared by all workers; each writes
    #: only its owned rows).
    table_i: np.ndarray
    table_f: np.ndarray


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
    """Worker-side receive: ``("tok", raw_bytes)`` for a fixed-size token,
    ``("obj", message)`` for a pickled command."""
    data = conn.recv_bytes()
    if data[0] == _TAG_TOKEN:
        return "tok", data
    return "obj", _recv_obj_tail(conn, data)[0]


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _store_report_scalars(links: _RingLinks, r: int, rep: RankTickReport) -> None:
    """Write the scalar half of one rank's report into its shared
    counters-table row (the parent reads it back after the OK token)."""
    row = links.table_i[r]
    row[0] = rep.controls
    row[1:_TI_EXTRA] = rep.counters
    row[_TI_EXTRA:] = [int(getattr(rep, name)) for name in _TABLE_INTS]
    links.table_f[r] = (rep.cache_us, rep.spill_us)


def _ship_tick_ring(conn, links: _RingLinks, out) -> None:
    """Ship one tick's barrier output over the ring: scalars into the
    counters table, packet/probe columns as ring frames, then the OK
    token.  All-or-nothing — the frames are encoded and costed *before*
    anything is written, so an unframeable payload or a full ring spills
    the whole tick to the pickled pipe without desyncing the frame
    sequence.  Fault records (rare; storage fault plans only) ride a
    pickled residue envelope after the token."""
    reports, wave_packets = out
    frames: list[tuple[int, bytes]] | None = []
    try:
        for r, rep in reports.items():
            if rep.packets_a:
                frames.append(
                    (_frame_tag(_CH_PACKETS_A, r), encode_packets(rep.packets_a))
                )
        if wave_packets:
            frames.append((_frame_tag(_CH_WAVE), encode_packets(wave_packets)))
        for r, rep in reports.items():
            if rep.packets_b:
                frames.append(
                    (_frame_tag(_CH_PACKETS_B, r), encode_packets(rep.packets_b))
                )
            if rep.probe is not None:
                frames.append((_frame_tag(_CH_PROBE, r), encode_ints(rep.probe)))
    except UnframeablePayload:
        frames = None
    if frames is not None:
        need = sum(SpscRing.frame_cost(len(p)) for _, p in frames)
        if need > links.tx.free():
            frames = None
    if frames is None:
        # Whole-tick spill: the pickled residue is the exact pickled-pipe
        # reply, so the parent replays it bit-identically.
        conn.send_bytes(_OK_TOKEN.pack(_TAG_TOKEN, _TOK_OK, 0, _OK_RESIDUE))
        _send_obj(conn, ("ok", {"spill": out}))
        return
    faults: dict[int, tuple] = {}
    for r, rep in reports.items():
        _store_report_scalars(links, r, rep)
        if rep.cache_faults is not None or rep.spill_faults is not None:
            faults[r] = (rep.cache_faults, rep.spill_faults)
    for tag, payload in frames:
        links.tx.write(tag, payload)
    flags = _OK_RESIDUE if faults else 0
    conn.send_bytes(_OK_TOKEN.pack(_TAG_TOKEN, _TOK_OK, len(frames), flags))
    if faults:
        _send_obj(conn, ("ok", {"faults": faults}))


def _worker_main(
    engine: "SimulationEngine",
    owned: list[int],
    conn,
    seed_ranks: bool = True,
    links: _RingLinks | None = None,
) -> None:
    """Entry point of one forked worker (owns ``owned`` ranks for life).

    ``seed_ranks=False`` marks a supervision *respawn*: the replacement is
    forked from the parent mid-run, so its inherited rank state is a stale
    fork-time copy; it sends a bare ready and waits for the ``restore``
    command to adopt the latest epoch images before rejoining barriers.

    ``links`` carries the shared-memory ring attachments (inherited
    through the fork).  Commands arrive either as fixed-size tokens (the
    ring fast path: arrivals are frames in ``links.rx``, the reply goes
    back through ``links.tx``) or as pickled envelopes (control plane and
    correctness fallback) — the worker always replies in the transport
    the command arrived on.
    """
    try:
        stub = _StubNetwork(engine.network)
        for r in owned:
            engine.mailboxes[r].network = stub
        snaps: dict[int, dict] = {}
        # Durable resume: the parent transplanted each rank's recovery
        # snapshot half before forking; adopt the owned ones so a later
        # simulated rank-crash replays from the pre-kill epoch.
        for r in owned:
            snap = engine._resume_recovery_snaps.get(r)
            if snap is not None:
                snaps[r] = dict(snap)

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
                # Ring fast path: the whole tick command is one fixed-size
                # token; arrivals are frames already sitting in the ring.
                _, op, t, n_frames, dcode = _TICK_TOKEN.unpack(msg)
                if op != _TOK_TICK:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unknown worker token op {op}")
                arrivals: dict[int, list[Packet]] = {}
                for _ in range(n_frames):
                    tag, payload = links.rx.read()
                    arrivals[tag & 0xFFFF] = decode_packets(payload)
                msg = ("tick", arrivals, _DIRECTIVE_NAMES[dcode])
            cmd = msg[0]
            if cmd == "tick":
                inject = msg[2]
                if inject == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                out = _worker_tick(
                    engine, stub, owned, msg[1],
                    exit_mid_phase_a=(inject == "exita"),
                )
                if inject == "hang":
                    while True:  # hang *before* the barrier reply
                        time.sleep(1.0)
                if kind == "tok":
                    _ship_tick_ring(conn, links, out)
                else:
                    _send_obj(conn, ("ok", out))
            elif cmd == "checkpoint":
                _send_obj(
                    conn, ("ok", _worker_checkpoint(engine, owned, snaps, ship=msg[1]))
                )
            elif cmd == "restore":
                _send_obj(conn, ("ok", _adopt_images(engine, stub, *msg[1:], snaps=snaps)))
            elif cmd == "replay":
                _send_obj(conn, ("ok", _worker_replay(engine, stub, snaps, *msg[1:])))
            elif cmd == "durable":
                _send_obj(conn, ("ok", _worker_durable(engine, owned, snaps)))
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
    stub: _StubNetwork,
    owned: list[int],
    arrivals: dict[int, list[Packet]],
    *,
    exit_mid_phase_a: bool = False,
) -> tuple[dict[int, RankTickReport], list[Packet] | None]:
    """One tick's owned-rank work: phase A, wave (rank-0 owner), phase B,
    then the per-rank epoch drains and termination inputs."""
    cfg = engine.config
    owned_set = frozenset(owned)
    order = [r for r in engine._rank_order if r in owned_set]
    controls: dict[int, int] = {}
    packets_a: dict[int, list[Packet]] = {}
    for idx, r in enumerate(order):
        controls[r] = engine._rank_tick(r, arrivals.get(r, []))
        packets_a[r] = stub.take()
        if exit_mid_phase_a and idx == 0:
            # Injected mid-phase death: partial state mutations stay behind
            # (batch arenas are shared) — exactly what restore must undo.
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

    reports: dict[int, RankTickReport] = {}
    for r in order:
        engine.mailboxes[r].flush()
        packets_b = stub.take()
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
            controls=controls[r],
            counters=(
                c.previsits, c.visits, c.edges_scanned, c.pushes,
                c.ghost_filtered, mailbox.packets_sent, mailbox.bytes_sent,
                mailbox.visitors_sent, mailbox.visitors_received,
            ),
            packets_a=packets_a[r],
            packets_b=packets_b,
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


def _worker_checkpoint(
    engine: "SimulationEngine",
    owned: list[int],
    snaps: dict[int, dict],
    ship: bool = False,
) -> tuple[dict[int, int], dict[int, dict] | None]:
    """Snapshot the owned ranks' restartable state locally; ship only the
    simulated checkpoint byte sizes — unless ``ship`` (supervision
    active), in which case full-scope rank images cross the pipe too:
    everything a replacement process forked from the parent cannot
    reconstruct."""
    out: dict[int, int] = {}
    images: dict[int, dict] | None = {} if ship else None
    for r in owned:
        image = rank_image.capture(engine, r, full=ship)
        snaps[r] = rank_image.recovery_part(image)
        out[r] = estimate_checkpoint_bytes(engine, r)
        if ship:
            images[r] = image
    return out, images


def _adopt_images(
    engine: "SimulationEngine",
    stub: _StubNetwork,
    images: dict[int, dict],
    epoch_tick: int,
    upto_tick: int,
    logs: dict[int, dict[int, tuple]],
    recoveries: dict[int, list],
    snaps: dict[int, dict],
) -> tuple[tuple, tuple, int, int]:
    """Restore epoch images for a rank set and replay through ``upto_tick``.

    Shared by the respawned worker's ``restore`` command and the parent's
    graceful-degradation absorb.  Restores every image in place (shared
    batch arenas survive; a dead worker's partial writes are overwritten),
    repopulates ``snaps`` with the crash-recovery subset, then re-executes
    ticks ``epoch_tick+1 .. upto_tick`` from the logged arrivals — first
    re-running any recorded *simulated* rank-crash recoveries scheduled at
    that tick, so cumulative counters reproduce the replay residue the
    original worker carried.  All emitted packets, epoch drains and order
    probes are discarded: the fabric already carried this work at the
    original barriers.  Returns ``(c0, c1, controls, replayed)`` for
    parent-side pricing (``c0`` taken *after* restore, so the delta is
    exactly the replayed compute).
    """
    cfg = engine.config
    owned = sorted(images)
    for r in owned:
        engine.mailboxes[r].network = stub
        rank_image.restore(engine, r, images[r])
        snaps[r] = rank_image.recovery_part(images[r])
    c0 = counter_snapshot(engine, owned)
    order = [r for r in engine._rank_order if r in images]
    recovered = 0

    def rerun_recoveries(t: int) -> None:
        # A recorded simulated recovery ran *before* its crash tick's work
        # (the transport detects the crash while delivering the tick's
        # arrivals); outputs are discarded, only the counter residue
        # matters.
        nonlocal recovered
        for r in order:
            for crash_tick, ep, lg in recoveries.get(r, ()):
                if crash_tick == t:
                    recovered += _worker_replay(engine, stub, snaps, r, ep, t, lg)[4]

    def discard(t: int) -> None:
        if cfg.queue_spill is not None:
            for r in order:
                if engine.spills[r] is not None:
                    engine.ranks[r].sync_spill(engine.spills[r], cfg.queue_spill)
        stub.take()

    controls, replayed = replay_ticks(
        engine, order, epoch_tick + 1, upto_tick,
        lambda r, t: logs.get(r, {}).get(t, ()),
        before=rerun_recoveries, after=discard,
    )
    for r in owned:
        # Throw the replay's epoch accumulators away in one drain — the
        # original barriers already charged these epochs, and draining
        # zeroes the same counters whether done per tick or at the end.
        if engine.caches[r] is not None:
            engine.caches[r].drain_epoch_us(concurrency=cfg.io_concurrency)
        if engine.spills[r] is not None:
            engine.spills[r].drain_epoch_us(concurrency=cfg.io_concurrency)
        if engine._record_digests and engine.ranks[r].order_probe is not None:
            engine.ranks[r].order_probe.clear()
    return c0, counter_snapshot(engine, owned), controls, replayed + recovered


def _worker_replay(
    engine: "SimulationEngine",
    stub: _StubNetwork,
    snaps: dict[int, dict],
    r: int,
    epoch_tick: int,
    crash_tick: int,
    log: dict[int, list[Packet]],
) -> tuple[list[list[Packet]], tuple, tuple, int, int]:
    """Crash recovery for owned rank ``r``: reinstall the epoch snapshot
    and re-execute the logged ticks, returning the per-tick emitted packet
    streams plus the counter deltas the parent prices replay compute from.
    Mirrors :meth:`RecoveryManager.restore_and_replay` rank-locally."""
    snap = snaps.get(r)
    if snap is None:
        raise TraversalError(
            f"rank {r} crashed at tick {crash_tick} with no worker-side "
            f"checkpoint to restore"
        )
    rank_image.restore(engine, r, snap)
    c0 = counter_snapshot(engine, (r,))
    per_tick_packets: list[list[Packet]] = []
    controls, replayed = replay_ticks(
        engine, (r,), epoch_tick + 1, crash_tick - 1,
        lambda _r, t: log.get(t, ()),
        after=lambda t: per_tick_packets.append(stub.take()),
    )
    return per_tick_packets, c0, counter_snapshot(engine, (r,)), controls, replayed


def _worker_durable(
    engine: "SimulationEngine", owned: list[int], snaps: dict[int, dict]
) -> dict[int, bytes]:
    """Pack the owned ranks' durable epoch sections (full-scope images,
    crossing the pipe — durable epochs must survive the death of every
    process).  Packed here, so the workers pickle their ranks in parallel
    and the parent stores bytes."""
    return {r: rank_image.pack(engine, r, snaps.get(r)) for r in owned}


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
    """Persistent forked worker pool for one :meth:`SimulationEngine.run`.

    Forked in the constructor — after the engine is fully built and after
    the array state blocks are rebound onto shared arenas — so
    every worker's engine copy is bit-identical to the parent's by
    construction.

    The pool is pure *transport*: fork, send, receive-with-deadline,
    kill, respawn, reap.  Failure classification happens here (every
    receive path raises a structured :class:`~repro.errors.WorkerCrash`);
    the recovery *policy* lives in :class:`WorkerSupervisor`.  Use as a
    context manager so no child processes outlive a parent-side error::

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

        #: Zero-pickle barrier transport (INTERNALS §14) when the
        #: algorithm's payload columns can be framed; object visitors stay
        #: on the pickled pipes.
        algo = engine.algorithm
        self.use_ring: bool = frameable(algo.payload_dtype, *algo.batch_extra_dtypes)
        self.rings_tx: list[SpscRing] = []  # worker -> parent
        self.rings_rx: list[SpscRing] = []  # parent -> worker
        self._links: list[_RingLinks | None] = []
        self._table_block: SharedArrayBlock | None = None
        self._table_i: np.ndarray | None = None
        self._table_f: np.ndarray | None = None
        if self.use_ring:
            self._table_block = SharedArrayBlock(
                [
                    ("i64", np.zeros((p, _TBL_I64_COLS), dtype=np.int64)),
                    ("f64", np.zeros((p, 2), dtype=np.float64)),
                ]
            )
            self._table_i = self._table_block.view("i64")
            self._table_f = self._table_block.view("f64")

        #: Host-side IPC telemetry (see :meth:`ipc_counters`).
        self.ipc_bytes_pickled = 0
        self.ipc_tick_bytes_pickled = 0
        self.ipc_frame_bytes = 0
        self.ipc_ring_spills = 0
        self.ipc_pipe_fallbacks = 0
        self.barrier_seconds = 0.0

        self._procs = []
        self._conns = []
        #: liveness according to the last observation (updated by
        #: :meth:`recv` / :meth:`kill` / :meth:`respawn`).
        self.alive: list[bool] = []
        for i in range(w):
            links = None
            if self.use_ring:
                tx = SpscRing(RING_BYTES)
                rx = SpscRing(RING_BYTES)
                self.rings_tx.append(tx)
                self.rings_rx.append(rx)
                links = _RingLinks(
                    tx=tx, rx=rx, table_i=self._table_i, table_f=self._table_f
                )
            self._links.append(links)
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(engine, self.owned[i], child_conn, seed_ranks, links),
                daemon=True,
            )
            proc.start()
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

    def send(self, i: int, message: tuple, *, tick: bool = False) -> None:
        """Send one pickled command to worker ``i`` (protocol 5, columns
        and images as out-of-band buffers); a dead pipe raises a
        structured :class:`~repro.errors.WorkerCrash` instead of leaking
        ``BrokenPipeError``.  ``tick`` marks barrier tick traffic for the
        zero-pickle telemetry."""
        n = self._send_raw(i, lambda conn: _send_obj(conn, message))
        self.ipc_bytes_pickled += n
        if tick:
            self.ipc_tick_bytes_pickled += n

    def send_tick(
        self,
        i: int,
        t: int,
        arrivals: dict[int, list[Packet]],
        directive: str | None,
    ) -> None:
        """Fan tick ``t`` out to worker ``i`` — the zero-pickle fast path
        when the ring transport is on: arrival packets go into the
        worker's rx ring as SoA frames (ascending rank, so the worker can
        key them without an index) and the command itself is one
        fixed-size token.  Unframeable arrivals or a full ring fall back
        to the pickled pipe command, which is always correct."""
        links = self._links[i]
        if links is not None:
            frames: list[tuple[int, bytes]] | None = []
            try:
                for r in sorted(arrivals):
                    frames.append(
                        (_frame_tag(_CH_ARRIVALS, r), encode_packets(arrivals[r]))
                    )
            except UnframeablePayload:
                frames = None
            if frames is not None:
                need = sum(SpscRing.frame_cost(len(p)) for _, p in frames)
                if need > links.rx.free():
                    frames = None
            if frames is not None:
                for tag, payload in frames:
                    links.rx.write(tag, payload)
                    self.ipc_frame_bytes += len(payload)
                token = _TICK_TOKEN.pack(
                    _TAG_TOKEN, _TOK_TICK, t, len(frames),
                    _DIRECTIVE_CODES[directive],
                )
                self._send_raw(i, lambda conn: conn.send_bytes(token))
                return
            self.ipc_ring_spills += 1
        self.send(i, ("tick", arrivals, directive), tick=True)

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

    def recv(self, i: int, deadline_s: float | None = None, *, tick: bool = False):
        """Receive one reply from worker ``i`` — a pickled envelope, or
        (ring transport) a fixed-size OK token whose payload is decoded
        from the worker's tx ring and the shared counters table.

        Raises :class:`~repro.errors.WorkerCrash` classified as:

        * ``kind="error"`` — the worker reported an exception (its
          traceback rides along in ``worker_traceback``), or its ring
          frames failed integrity validation (torn/stale frames);
        * ``kind="crash"`` — pipe EOF or process death (``exitcode`` set);
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
                _, op, n_frames, flags = _OK_TOKEN.unpack(data)
                if op != _TOK_OK:  # pragma: no cover - protocol guard
                    raise WorkerCrash(
                        f"{who} sent an unknown token op {op}",
                        worker=i, ranks=self.owned[i], kind="error",
                    )
                residue = None
                if flags & _OK_RESIDUE:
                    first = self._recv_bytes(i, deadline_s, start)
                    obj, n = _recv_obj_tail(self._conns[i], first)
                    self.ipc_bytes_pickled += n
                    self.ipc_tick_bytes_pickled += n
                    residue = obj[1]
                if residue is not None and "spill" in residue:
                    # Whole-tick ring spill: the residue is the exact
                    # pickled-pipe reply.
                    self.ipc_ring_spills += 1
                    return residue["spill"]
                faults = residue.get("faults") if residue is not None else None
                try:
                    return self._decode_tick_reply(i, n_frames, faults)
                except RingIntegrityError as exc:
                    raise WorkerCrash(
                        f"{who} shipped a corrupt ring frame: {exc}",
                        worker=i, ranks=self.owned[i], kind="error",
                    ) from exc
            msg, n = _recv_obj_tail(self._conns[i], data)
            self.ipc_bytes_pickled += n
            if tick:
                self.ipc_tick_bytes_pickled += n
            if msg[0] == "error":
                raise WorkerCrash(
                    f"{who} raised {msg[1]}\n--- worker traceback ---\n{msg[2]}",
                    worker=i, ranks=self.owned[i], kind="error",
                    worker_traceback=msg[2],
                )
            return msg[1]
        finally:
            self.barrier_seconds += time.monotonic() - start  # repro-lint: disable=RPR002 -- host-side telemetry, simulation-invisible

    def _decode_tick_reply(
        self, i: int, n_frames: int, faults: dict[int, tuple] | None
    ) -> tuple[dict[int, RankTickReport], list[Packet] | None]:
        """Rebuild worker ``i``'s barrier reply from its tx-ring frames
        and the shared counters table — the exact
        ``(reports, wave_packets)`` tuple the pickled pipe would carry,
        so the caller's deterministic merge is transport-blind."""
        links = self._links[i]
        packets_a: dict[int, list[Packet]] = {}
        packets_b: dict[int, list[Packet]] = {}
        probes: dict[int, tuple[int, ...]] = {}
        wave: list[Packet] | None = None
        for _ in range(n_frames):
            tag, payload = links.tx.read()
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
                raise RingIntegrityError(f"unknown frame channel {ch}")
        if faults is None:
            faults = {}
        reports: dict[int, RankTickReport] = {}
        for r in self.owned[i]:
            row = self._table_i[r].tolist()
            cache_us, spill_us = self._table_f[r].tolist()
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
        hotpath bench).  ``tick_bytes_pickled`` is the zero-pickle
        contract's observable: on the ring transport a steady-state batch
        tick exchanges no pickled bytes, so it stays 0 unless a tick
        spilled (``ring_spills``) or supervision replayed one."""
        frames = sum(r.frames_read for r in self.rings_tx)
        frames += sum(r.frames_written for r in self.rings_rx)
        return {
            "transport": "ring" if self.use_ring else "pipe",
            "workers": self.num_workers,
            "frames": frames,
            "frame_bytes": self.ipc_frame_bytes,
            "bytes_pickled": self.ipc_bytes_pickled,
            "tick_bytes_pickled": self.ipc_tick_bytes_pickled,
            "ring_spills": self.ipc_ring_spills,
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

    def respawn(self, i: int) -> None:
        """Fork a replacement for worker ``i``'s rank set.

        The child is forked from the parent *mid-run* with
        ``seed_ranks=False``: its inherited state is stale and must be
        overwritten by a ``restore`` command before it can serve barriers.
        Raises ``OSError`` if the fork itself fails (the supervisor's
        retry loop treats that as one consumed attempt).
        """
        self.kill(i)
        try:
            self._conns[i].close()
        except OSError:  # pragma: no cover - already closed
            pass
        links = self._links[i]
        if links is not None:
            # The dead producer may have left partial frames behind; wipe
            # both directions so the replacement (forked below, inheriting
            # the same arenas) starts against clean rings with a fresh
            # sequence space.  Safe: no producer is live on either ring.
            links.tx.reset()
            links.rx.reset()
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._engine, self.owned[i], child_conn, False, links),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[i] = proc
        self._conns[i] = parent_conn
        self.alive[i] = True

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
    """Self-healing barrier coordinator over a :class:`WorkerPool`.

    There is exactly one barrier code path whether supervision is active
    or not: every ``start``/``tick``/``checkpoint``/``replay``/``finalize``
    goes through the supervisor.  Inactive (the default: no restart
    budget, no fault plan), it adds no deadline and re-raises the first
    :class:`~repro.errors.WorkerCrash` — the PR-6 fail-fast contract.
    Active, a failed barrier runs the recovery ladder:

    1. classify (``error`` / ``crash`` / ``hang``, hung workers killed);
    2. up to ``worker_restarts`` times: seeded backoff, fork a
       replacement, restore it from the latest epoch images, replay the
       logged ticks (re-running recorded simulated recoveries), resend
       the failed command;
    3. on budget exhaustion or fork failure, absorb the orphaned ranks
       into the parent's own tick loop (graceful degradation) and serve
       the command in-process.

    All recovery work is host-side and priced into ``supervision_us``;
    the simulated clock, logical counters, packets and digests stay
    bit-identical to an unfailed ``workers=1`` run.
    """

    def __init__(self, engine: "SimulationEngine", pool: WorkerPool) -> None:
        self.engine = engine
        self.pool = pool
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
        self._attempts = [0] * pool.num_workers
        self._retired = [False] * pool.num_workers
        #: latest epoch images / simulated byte sizes, keyed by rank.
        self._images: dict[int, dict] = {}
        self._image_bytes: dict[int, int] = {}
        self._epoch_tick = -1
        #: per-rank arrival log since the epoch: {tick: (packets...)}.
        self._log: list[dict[int, tuple]] = [dict() for _ in range(p)]
        #: per-rank recorded *simulated* rank-crash recoveries since the
        #: epoch: (crash_tick, epoch_tick, arrival log) — re-run during
        #: restore so counter residue reproduces (see ``_adopt_images``).
        self._recoveries: list[list] = [[] for _ in range(p)]
        self._completed_tick = 0
        #: stub for parent-absorbed ranks (degraded mode).
        self._stub = _StubNetwork(engine.network)
        self._absorbed: list[int] = []
        self._parent_snaps: dict[int, dict] = {}
        # supervision stats, folded into TraversalStats at finalize
        self.worker_crashes = 0
        self.worker_hangs = 0
        self.worker_respawns = 0
        self.worker_replayed_ticks = 0
        self.supervision_us = 0.0

    @property
    def degraded_ranks(self) -> int:
        return len(self._absorbed)

    # -------------------------------------------------------------- #
    # Barrier commands
    # -------------------------------------------------------------- #
    def start(self) -> dict[int, list[Packet]]:
        """Collect the workers' ready messages; returns the seed-phase
        packets keyed by emitting rank.  Seed-phase failures fail fast —
        there are no images to restore from yet."""
        seed: dict[int, list[Packet]] = {}
        for i in range(self.pool.num_workers):
            seed.update(self.pool.recv(i, self.timeout))
        return seed

    def note_completed(self, t: int) -> None:
        """Advance the completed-tick watermark.  Must run *before* tick
        ``t``'s checkpoint: a failure during that checkpoint replays
        through ``t`` (its barrier already completed)."""
        self._completed_tick = t

    def maybe_checkpoint(self, t: int) -> None:
        """Supervision-only image cadence (recovery-manager-less runs)."""
        if (
            self.active
            and self.engine.recovery is None
            and t % SUPERVISION_EPOCH_TICKS == 0
        ):
            self.checkpoint(t)

    def tick(
        self, t: int, arrivals: list[list[Packet]]
    ) -> tuple[dict[int, RankTickReport], list[Packet]]:
        """Fan tick ``t`` out (each worker gets only its ranks' arrivals)
        and gather the merged per-rank reports plus the rank-0 wave
        packets, surviving worker failures when supervision is active."""
        pool = self.pool
        if self.active:
            for r, pkts in enumerate(arrivals):
                if pkts:
                    self._log[r][t] = tuple(pkts)
        directives = self._tick_directives(t)
        deadline = self._tick_deadline(arrivals)

        def owned_arrivals(ranks):
            return {r: arrivals[r] for r in ranks if arrivals[r]}

        def local(ranks):
            return _worker_tick(self.engine, self._stub, ranks, owned_arrivals(ranks))

        outs = []
        if self._absorbed:
            outs.append(local(self._absorbed))
        send_failures: dict[int, WorkerCrash] = {}
        for i in range(pool.num_workers):
            if self._retired[i]:
                continue
            try:
                pool.send_tick(i, t, owned_arrivals(pool.owned[i]), directives.get(i))
            except WorkerCrash as crash:
                send_failures[i] = crash
        for i in range(pool.num_workers):
            if self._retired[i]:
                continue
            crash = send_failures.get(i)
            if crash is None:
                try:
                    outs.append(pool.recv(i, deadline, tick=True))
                    continue
                except WorkerCrash as exc:
                    crash = exc
            # The retried command drops the directive: an injected fault
            # fires once.
            outs.append(self._handle_failure(
                i, crash, ("tick", owned_arrivals(pool.owned[i]), None), deadline,
                lambda i=i: local(pool.owned[i]),
            ))
        reports: dict[int, RankTickReport] = {}
        wave: list[Packet] = []
        for out_reports, wave_packets in outs:
            reports.update(out_reports)
            if wave_packets:
                wave = wave_packets
        return reports, wave

    def _gather(self, msg: tuple, local_fn) -> list:
        """Run one control command on every live worker and, through
        ``local_fn(ranks)``, on the parent's absorbed ranks; a failed
        worker is healed (or absorbed and served by ``local_fn``).
        Returns the replies."""
        pool = self.pool
        outs = []
        if self._absorbed:
            outs.append(local_fn(self._absorbed))
        for i in range(pool.num_workers):
            if self._retired[i]:
                continue
            try:
                pool.send(i, msg)
                out = pool.recv(i, self.timeout)
            except WorkerCrash as crash:
                out = self._handle_failure(
                    i, crash, msg, self.timeout,
                    lambda i=i: local_fn(pool.owned[i]),
                )
            outs.append(out)
        return outs

    def checkpoint(self, tick: int) -> dict[int, int]:
        """All live workers (and the parent, for absorbed ranks) snapshot
        their ranks; with supervision active the full images are shipped
        and become the new restore epoch.  Returns simulated bytes by
        rank."""
        ship = self.active
        merged: dict[int, int] = {}
        images: dict[int, dict] = {}
        outs = self._gather(
            ("checkpoint", ship),
            lambda ranks: _worker_checkpoint(
                self.engine, ranks, self._parent_snaps, ship=ship
            ),
        )
        for part, imgs in outs:
            merged.update(part)
            if imgs:
                images.update(imgs)
        if ship:
            self._images.update(images)
            self._image_bytes.update(merged)
            self._epoch_tick = tick
            for r in range(len(self._log)):
                self._log[r] = {u: v for u, v in self._log[r].items() if u > tick}
                self._recoveries[r] = [e for e in self._recoveries[r] if e[0] > tick]
        return merged

    def replay(
        self,
        r: int,
        epoch_tick: int,
        crash_tick: int,
        log: dict[int, list[Packet]],
    ) -> tuple[list[list[Packet]], tuple, tuple, int, int]:
        """Simulated rank-crash recovery: route the restore-and-replay of
        rank ``r`` to its owner (or run it in-process for absorbed ranks),
        recording the event so a later *worker* failure's restore can
        re-run it — see :func:`_adopt_images`."""
        if self.active:
            self._recoveries[r].append((crash_tick, epoch_tick, dict(log)))
        def local():
            return _worker_replay(
                self.engine, self._stub, self._parent_snaps,
                r, epoch_tick, crash_tick, log,
            )

        if r in self._absorbed:
            return local()
        i = self.pool.owner[r]
        msg = ("replay", r, epoch_tick, crash_tick, log)
        deadline = None
        if self.timeout is not None:
            deadline = self.timeout * max(1, crash_tick - epoch_tick)
        try:
            self.pool.send(i, msg)
            return self.pool.recv(i, deadline)
        except WorkerCrash as crash:
            return self._handle_failure(i, crash, msg, deadline, local)

    def finalize(self) -> tuple[dict, dict, int | None]:
        """Gather final counters (and unshared states) from all live
        workers plus the parent's absorbed ranks."""
        counters: dict[int, object] = {}
        states: dict[int, object] = {}
        waves: int | None = None
        ship = self.pool.ship_states
        outs = self._gather(
            ("finalize", ship), lambda ranks: finalize_ranks(self.engine, ranks, ship)
        )
        for part_c, part_s, part_w in outs:
            counters.update(part_c)
            states.update(part_s)
            if part_w is not None:
                waves = part_w
        return counters, states, waves

    def durable_capture(self) -> list[bytes]:
        """Gather every rank's packed durable epoch section from its owner (or
        the parent, for absorbed ranks) for
        :meth:`~repro.runtime.durability.DurabilityManager.write_epoch`.
        Runs at the same barrier position as the sequential collection —
        after the tick's flush/drain, before the stop checks — so the
        captured state is bit-identical to a ``workers=1`` epoch."""
        sections: dict[int, bytes] = {}
        outs = self._gather(
            ("durable",),
            lambda ranks: _worker_durable(self.engine, ranks, self._parent_snaps),
        )
        for out in outs:
            sections.update(out)
        return [sections[r] for r in range(self.engine.graph.num_partitions)]

    # -------------------------------------------------------------- #
    # Recovery ladder
    # -------------------------------------------------------------- #
    def _handle_failure(self, i, crash, retry_msg, deadline, parent_fn):
        """Generic per-command recovery driver: respawn-and-replay under
        the retry budget, then graceful degradation.  Returns the failed
        command's reply, produced by a replacement worker or the parent."""
        self._note(crash)
        if not self.active or not self._images:
            raise crash
        pool = self.pool
        while self._attempts[i] < self.restart_budget:
            self._attempts[i] += 1
            self._backoff(self._attempts[i])
            if self._forkfails_left > 0:
                # Injected fork failure: the attempt is consumed, no child.
                self._forkfails_left -= 1
                continue
            try:
                pool.respawn(i)
            except OSError:  # pragma: no cover - real fork failure
                continue
            try:
                pool.recv(i, self.timeout)  # bare ready
                self._restore_worker(i)
                pool.send(i, retry_msg)
                out = pool.recv(i, deadline)
            except WorkerCrash as again:
                self._note(again)
                pool.kill(i)
                continue
            self.worker_respawns += 1
            return out
        self._absorb(i)
        return parent_fn()

    def _restore_args(self, owned: list[int]) -> tuple:
        """``_adopt_images`` arguments for ``owned``: the epoch images,
        epoch and completed ticks, arrival logs and recorded recoveries."""
        return (
            {r: self._images[r] for r in owned},
            self._epoch_tick,
            self._completed_tick,
            {r: self._log[r] for r in owned},
            {r: list(self._recoveries[r]) for r in owned},
        )

    def _restore_worker(self, i: int) -> None:
        """Ship the epoch images + logs + recorded recoveries to the
        freshly respawned worker ``i`` and wait for its replay to the
        completed-tick watermark."""
        pool = self.pool
        owned = pool.owned[i]
        pool.send(i, ("restore", *self._restore_args(owned)))
        deadline = None
        if self.timeout is not None:
            deadline = self.timeout * max(1, self._completed_tick - self._epoch_tick)
        out = pool.recv(i, deadline)
        self._price_recovery(owned, *out)

    def _absorb(self, i: int) -> None:
        """Graceful degradation: retire worker ``i`` for good and adopt
        its ranks into the parent's own in-process tick loop."""
        pool = self.pool
        pool.kill(i)
        self._retired[i] = True
        owned = pool.owned[i]
        out = _adopt_images(
            self.engine, self._stub, *self._restore_args(owned),
            snaps=self._parent_snaps,
        )
        self._price_recovery(owned, *out)
        absorbed = frozenset(self._absorbed) | frozenset(owned)
        self._absorbed = [r for r in self.engine._rank_order if r in absorbed]

    # -------------------------------------------------------------- #
    # Bookkeeping
    # -------------------------------------------------------------- #
    def _note(self, crash: WorkerCrash) -> None:
        self.worker_crashes += 1
        if getattr(crash, "kind", None) == "hang":
            self.worker_hangs += 1

    def _backoff(self, attempt: int) -> None:
        """Seeded exponential backoff between respawn attempts (host-side
        pacing; the jitter stream is deterministic per fault seed)."""
        delay = min(_BACKOFF_BASE_S * (2 ** (attempt - 1)), _BACKOFF_CAP_S)
        time.sleep(delay * (0.5 + float(self._rng.random())))

    def _price_recovery(self, owned, c0, c1, controls, replayed) -> None:
        """Charge one restore-and-replay through the machine model into
        ``supervision_us`` (never ``time_us`` — the simulated cluster
        never failed, this is the host-failure what-if price tag)."""
        image_bytes = sum(self._image_bytes.get(r, 0) for r in owned)
        self.supervision_us += replay_price_us(
            self.engine.machine, c0, c1, controls, image_bytes
        )
        self.worker_replayed_ticks += replayed

    def _tick_directives(self, t: int) -> dict[int, str]:
        """Resolve this tick's injected fault directives to worker ids
        (one per worker per tick; events on absorbed ranks are moot)."""
        if self.plan is None:
            return {}
        out: dict[int, str] = {}
        for ev in self.plan.events_at(t):
            key = (ev.tick, ev.rank, ev.kind)
            if key in self._fired:
                continue
            self._fired.add(key)
            if ev.rank in self._absorbed:
                continue
            i = self.pool.owner[ev.rank]
            if self._retired[i]:
                continue
            out.setdefault(i, ev.kind)
        return out

    def _tick_deadline(self, arrivals: list[list[Packet]]) -> float | None:
        """Wall-clock barrier deadline for one tick, scaled by the tick's
        arrival volume so heavy ticks aren't misclassified as hangs."""
        if self.timeout is None:
            return None
        total = sum(pkt.count for a in arrivals for pkt in a)
        return self.timeout * max(1.0, total / _DEADLINE_PACKETS)


class ParallelRecoveryManager(RecoveryManager):
    """Checkpoint/restart coordinator for the parallel executor.

    Splits the sequential :class:`RecoveryManager` at the process
    boundary: rank-local snapshot images and replay execution live in the
    owning worker; the parent keeps exactly what it owns sequentially —
    transport channel snapshots, delivery logs, byte/cost accounting —
    and interleaves transport notes with the worker's replayed sends in
    per-tick order, so the transport observes the same operation sequence
    as a sequential replay.  Barrier traffic is routed through the
    :class:`WorkerSupervisor`, so simulated rank crashes and real worker
    failures compose (the supervisor records every simulated replay and
    re-runs it when restoring a respawned worker).
    """

    def __init__(self, engine: "SimulationEngine", supervisor: WorkerSupervisor) -> None:
        super().__init__(engine)
        self.supervisor = supervisor

    def _snapshot_ranks(self, tick: int) -> tuple[list[dict | None], list[int]]:
        """Rank images stay in the owning workers; the parent keeps only
        the transport snapshots (taken by the caller)."""
        sizes = self.supervisor.checkpoint(tick)
        p = self.engine.graph.num_partitions
        return [None] * p, [sizes[r] for r in range(p)]

    def _replay(self, r: int, crash_tick: int) -> tuple:
        """Replay in the owning worker; the parent restores the transport
        snapshot and interleaves, per replayed tick, the logged deliveries'
        transport notes with the worker's re-emitted sends."""
        eng = self.engine
        eng.network.restore_rank(r, self._transport[r])
        log = self._log[r]
        per_tick_packets, c0, c1, controls, replayed = self.supervisor.replay(
            r, self.epoch_tick, crash_tick,
            {t: v for t, v in log.items() if t > self.epoch_tick},
        )
        for i, t in enumerate(range(self.epoch_tick + 1, crash_tick)):
            for pkt in log.get(t, ()):
                eng.network.note_replayed_delivery(r, pkt)
            for pkt in per_tick_packets[i]:
                eng.network.send_packet(pkt)
        return c0, c1, controls, replayed


class PoolRanks:
    """The ``workers > 1`` rank executor of :meth:`SimulationEngine.run`.

    Runs each tick's rank work in the forked pool through a
    :class:`WorkerSupervisor` and replays the workers' packets into the
    real network in the sequential global send order — per-rank phase A
    in ``_rank_order``, the rank-0 wave, per-rank phase B in
    ``_rank_order`` — so the engine's one tick loop sees exactly what the
    in-process executor produces.  Every other answer is read from the
    tick's barrier reports.
    """

    def __init__(self, engine: "SimulationEngine", pool: WorkerPool, resume) -> None:
        self.engine = engine
        self.pool = pool
        self.supervisor = sup = WorkerSupervisor(engine, pool)
        #: the last completed barrier's reports, indexed by rank.
        self.reports: list[RankTickReport] | None = None
        # Seed-phase packets, replayed in natural rank order — exactly
        # where in-process seeding's eager flushes land.  A resumed pool
        # sends bare readies (the restored network already carries every
        # in-flight packet).
        seed_packets = sup.start()
        for r in range(engine.graph.num_partitions):
            for pkt in seed_packets.get(r, ()):
                engine.network.send_packet(pkt)
        if engine.recovery is not None:
            # Process-aware coordinator: snapshots and replay execute in
            # the owning worker, the parent keeps the transport snapshots,
            # logs and cost accounting.
            engine.recovery = ParallelRecoveryManager(engine, sup)
            engine.network.recovery = engine.recovery
        start_tick = 0 if resume is None else resume.loop["ticks"]
        sup.note_completed(start_tick)
        if sup.active and engine.recovery is None:
            # Supervision images at the start tick when no recovery manager
            # drives checkpoints (its own epochs ship them otherwise).  On
            # resume this is safe: there are no recorded simulated
            # recoveries to align with.  With a transplanted recovery
            # manager we must NOT re-image — images and worker recovery
            # snaps have to come from the same epoch — so worker
            # self-healing resumes at its next checkpoint instead.
            sup.checkpoint(start_tick)

    def tick(self, t: int, arrivals: list[list[Packet]]) -> list[int]:
        eng = self.engine
        sup = self.supervisor
        by_rank, wave_packets = sup.tick(t, arrivals)
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
        # Tick t's barrier is complete: a worker failure from here on
        # (including during this tick's checkpoints) replays *through* t.
        sup.note_completed(t)
        sup.maybe_checkpoint(t)
        return [rep.controls for rep in reports]

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
        return self.supervisor.durable_capture()

    def final(self) -> tuple[list, int | None, list]:
        """Final counters, wave count and states from the finalize
        barrier: array states are read zero-copy from the shared arenas,
        object states are pickled back once."""
        counters, states, waves = self.supervisor.finalize()
        eng = self.engine
        eng.ipc_counters = self.pool.ipc_counters()
        ranks = range(eng.graph.num_partitions)
        if not self.pool.ship_states:
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

    def fold_stats(self, stats: TraversalStats) -> None:
        """Surface the supervisor's own activity (excluded from the chaos
        bit-identity contract via ``SUPERVISION_STATS_FIELDS``)."""
        sup = self.supervisor
        stats.worker_crashes = sup.worker_crashes
        stats.worker_hangs = sup.worker_hangs
        stats.worker_respawns = sup.worker_respawns
        stats.worker_replayed_ticks = sup.worker_replayed_ticks
        stats.degraded_ranks = sup.degraded_ranks
        stats.supervision_us = sup.supervision_us
