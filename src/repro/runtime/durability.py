"""Durable on-disk checkpoint/resume with host-crash recovery (INTERNALS §13).

The in-memory recovery layers (:mod:`repro.runtime.recovery` for simulated
rank crashes, the supervision epochs in :mod:`repro.runtime.parallel` for
worker-process failures) both die with the host process.  The
:class:`DurabilityManager` closes that gap: on a configurable tick cadence
it serialises *everything* a restarted process needs — traversal state and
queues for every rank, both spill/pressure ledgers, the whole network
fabric (reliable-transport channels included), RNG stream positions,
per-tick order digests, the in-memory recovery epoch, and the run's
cumulative statistics — into an **epoch** on disk, written atomically.

One epoch is two files in the durable directory::

    epoch_00000032.bin    concatenated, independently pickled sections
    epoch_00000032.json   manifest: format, tick, config key, and one
                          {name, offset, length, blake2b} entry per section

Both are written via ``tmp + fsync + os.replace`` with a directory fsync,
data file first — the manifest rename is the commit point, so a host crash
at any instant leaves either the previous complete epoch or the new one,
never a torn hybrid.  Every section carries its own blake2b checksum;
validation at resume walks epochs newest-to-oldest and **falls back** past
any epoch whose manifest or payload fails verification (torn write, bit
rot, truncation, a vanished section), raising
:class:`~repro.errors.CheckpointCorruptionError` only when no valid epoch
remains.  Deliberate corruption for tests rides a seeded
:class:`DurableFaultPlan`.

Resume restores the engine *in place* before the tick loop (and, for
``workers > 1``, before the pool forks — workers inherit the restored
state copy-on-write), so the continued run re-executes the exact schedule
the uninterrupted run would have: results, logical counters, simulated
time and per-tick order digests land bit-identical.  Durable write costs
are simulated through ``MachineModel.checkpoint_byte_us`` on the epoch
tick, and the durable counters are folded into the stats *before* the
stats section is pickled, so a resumed run's totals equal an
uninterrupted run's.

The durable directory is single-writer: one live run per directory.
Interrupted atomic writes leave ``epoch_*.tmp*`` files behind; they are
swept at manager construction and at interpreter exit
(:func:`sweep_orphans`), so crashed runs never accumulate junk.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CheckpointCorruptionError, ConfigurationError
from repro.runtime import rank_image
from repro.utils.rng import resolve_rng
from repro.utils.spec import parse_spec, plus_ints

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import SimulationEngine
    from repro.runtime.trace import TraversalStats

#: On-disk epoch format version (bumped on incompatible layout changes;
#: 2: the ``ranks`` section holds one pickled blob per rank; 3: each blob
#: is a ``(full rank image, recovery part)`` pair, see
#: :func:`repro.runtime.rank_image.pack`; 4: every rank is the one rank
#: class — object-visitor queues hold five-field heap entries and an
#: ``arrays`` state block, ghosts a ``state`` block; 5: one k-core visitor
#: class carrying ``k`` in a slot).
FORMAT_VERSION = 5

#: Simulated bytes of one rank's durable section beyond its crash-recovery
#: image (manifest entry, section framing, pager/cache/ledger state).
DURABLE_SECTION_OVERHEAD_BYTES = 256

#: The sections of a valid epoch; an entry with another name is malformed.
REQUIRED_SECTIONS = frozenset(
    ("loop", "stats", "ranks", "network", "rng", "digests", "recovery")
)

#: Stats fields :meth:`DurabilityManager.write_epoch` folds after the stats
#: section is pickled (its disk bytes and read-back verdict).
_POST_PICKLE_FIELDS = ("durable_disk_bytes", "durable_corrupt_epochs")

_DATA_SUFFIX = ".bin"
_MANIFEST_SUFFIX = ".json"
_CHECKSUM_BYTES = 16

#: Tmp files this process currently has in flight (removed at exit so a
#: failed atomic write never leaves junk behind — see :func:`sweep_orphans`
#: for files left by *other* crashed processes).
_LIVE_TMP_FILES: set[str] = set()
_ATEXIT_REGISTERED = False


def _checksum(name: str, blob: bytes) -> str:
    """A section's blake2b, keyed by its name: a manifest whose entries
    swap names fails verification instead of unpickling the wrong
    section."""
    return hashlib.blake2b(
        blob, digest_size=_CHECKSUM_BYTES, key=name.encode()
    ).hexdigest()


def _well_formed(entry) -> bool:
    """Whether a manifest section entry has a known name, a string
    checksum and a non-negative int offset and length."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and entry["name"] in REQUIRED_SECTIONS
        and isinstance(entry.get("blake2b"), str)
        and all(type(entry.get(k)) is int and entry[k] >= 0
                for k in ("offset", "length"))
    )


def _cleanup_live_tmp() -> None:
    """Interpreter-exit sweep of this process's in-flight tmp files."""
    for path in sorted(_LIVE_TMP_FILES):
        try:
            os.unlink(path)
        except OSError:
            pass
    _LIVE_TMP_FILES.clear()


def sweep_orphans(durable_dir: str) -> int:
    """Remove ``epoch_*.tmp*`` leftovers from previously crashed runs.

    A SIGKILL (or power loss) mid-write strands the atomic-write tmp file;
    committed epochs are untouched, but without this sweep every crashed
    run would leak one junk file into the durable directory.  Returns the
    number of files removed.
    """
    try:
        names = os.listdir(durable_dir)
    except FileNotFoundError:
        return 0
    removed = 0
    for name in sorted(names):
        if name.startswith("epoch_") and ".tmp" in name:
            try:
                os.unlink(os.path.join(durable_dir, name))
                removed += 1
            except OSError:
                pass
    return removed


def _atomic_write(path: str, data: bytes) -> None:
    """Crash-safe file publish: tmp + flush + fsync + rename + dir fsync.

    The tmp name carries the pid so concurrent crash-harness restarts in
    the same directory can never collide, and any stranded tmp matches the
    ``epoch_*.tmp*`` sweep pattern.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    _LIVE_TMP_FILES.add(tmp)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        _LIVE_TMP_FILES.discard(tmp)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# ---------------------------------------------------------------------- #
# Fault injection
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DurableFaultPlan:
    """Seeded description of durable-storage corruption for tests.

    Each field lists the epoch *ticks* whose freshly committed epoch is
    corrupted (post-commit — modelling media corruption after a clean
    write): ``torn`` truncates the data file, ``bitflip`` flips one bit in
    it, ``manifest`` truncates the manifest JSON, and ``missing`` rewrites
    the manifest without one section entry.  Byte offsets and section
    picks are drawn from one seeded stream in a fixed per-epoch order, so
    the same plan always damages the same bytes.
    """

    seed: int = 0
    torn: tuple[int, ...] = ()
    bitflip: tuple[int, ...] = ()
    manifest: tuple[int, ...] = ()
    missing: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("torn", "bitflip", "manifest", "missing"):
            ticks = getattr(self, name)
            if not isinstance(ticks, tuple):
                object.__setattr__(self, name, tuple(ticks))
                ticks = getattr(self, name)
            if any(t < 1 for t in ticks):
                raise ConfigurationError(
                    f"durable fault ticks must be >= 1, got {name}={ticks!r}"
                )

    @property
    def any_faults(self) -> bool:
        """True when the plan can actually corrupt an epoch."""
        return bool(self.torn or self.bitflip or self.manifest or self.missing)

    @classmethod
    def from_spec(cls, spec: str) -> "DurableFaultPlan":
        """Parse the CLI durable-fault mini-language.

        ``SPEC`` is a comma-separated ``key=value`` list; the fault values
        are '+'-joined epoch ticks::

            seed=7,torn=32,bitflip=16+48,manifest=64,missing=80
        """
        fields = {mode: (mode, plus_ints)
                  for mode in ("torn", "bitflip", "manifest", "missing")}
        fields["seed"] = ("seed", int)
        return cls(**parse_spec(spec, "durable fault", fields))


# ---------------------------------------------------------------------- #
# Resume payload
# ---------------------------------------------------------------------- #
@dataclass
class ResumeState:
    """What :meth:`DurabilityManager.load_latest` hands back to the engine
    after restoring rank/network/RNG/digest/recovery state in place: the
    loop variables and the restored stats object."""

    tick: int
    loop: dict
    stats: "TraversalStats"


# ---------------------------------------------------------------------- #
# The manager
# ---------------------------------------------------------------------- #
class DurabilityManager:
    """Durable epoch writer/reader for one engine run."""

    def __init__(self, engine: "SimulationEngine") -> None:
        global _ATEXIT_REGISTERED
        cfg = engine.config
        self.engine = engine
        self.dir: str = cfg.durable_dir
        self.interval: int = cfg.durable_interval
        self.keep: int = cfg.durable_keep
        self.fault_plan: DurableFaultPlan | None = cfg.durable_faults
        os.makedirs(self.dir, exist_ok=True)
        #: leak sweep for previously crashed runs (satellite of the same
        #: contract: the durable dir never accumulates junk across kills).
        self.orphans_swept = sweep_orphans(self.dir)
        if not _ATEXIT_REGISTERED:
            atexit.register(_cleanup_live_tmp)
            _ATEXIT_REGISTERED = True
        self._rng = (
            resolve_rng(self.fault_plan.seed) if self.fault_plan is not None else None
        )
        #: ticks whose epoch passed this run's post-write read-back.
        self._valid_ticks: list[int] = []
        #: simulated per-rank byte sizes of the pending epoch (set by
        #: :meth:`epoch_costs` on the due tick, consumed by
        #: :meth:`write_epoch`'s write-time stat fold).
        self._last_sim_bytes: list[int] = []
        self._last_io_us: float = 0.0

    # -------------------------------------------------------------- #
    def due(self, tick: int) -> bool:
        """Whether logical tick ``tick`` ends a durable epoch."""
        return tick % self.interval == 0

    def epoch_costs(self, ckpt_bytes_by_rank: list[int]) -> np.ndarray:
        """Per-rank simulated cost of writing this tick's epoch.

        ``ckpt_bytes_by_rank`` is each rank's crash-recovery image size
        (:func:`~repro.runtime.recovery.estimate_checkpoint_bytes`),
        computed at the post-flush barrier — rank-locally in the owning
        worker under ``workers > 1``, so the charge is bit-identical to
        the sequential schedule.  Charged through
        ``MachineModel.checkpoint_byte_us`` into the tick's cost vector.
        """
        m = self.engine.machine
        nbytes = [b + DURABLE_SECTION_OVERHEAD_BYTES for b in ckpt_bytes_by_rank]
        costs = np.asarray(nbytes, dtype=np.float64) * m.checkpoint_byte_us
        self._last_sim_bytes = nbytes
        self._last_io_us = float(costs.sum())
        return costs

    # -------------------------------------------------------------- #
    def config_key(self) -> dict:
        """Schedule-affecting run identity embedded in every manifest.

        A resume whose key differs raises ``ConfigurationError`` (wrong
        run, not corruption).  ``workers`` and the supervision knobs are
        deliberately absent: per-rank sections let a run killed at
        ``--workers 4`` resume at ``--workers 1`` and vice versa — the
        logical schedule is worker-count-invariant by construction.
        """
        eng = self.engine
        cfg = eng.config
        g = eng.graph
        return {
            "algorithm": eng.algorithm.name,
            "batch": cfg.batch,
            "machine": eng.machine.name,
            "topology": eng.topology.name,
            "num_ranks": g.num_partitions,
            "num_vertices": int(g.num_vertices),
            "num_edges": int(g.num_edges),
            "visitor_budget": cfg.visitor_budget,
            "aggregation_size": cfg.aggregation_size,
            "detector": cfg.use_termination_detector,
            "locality_ordering": cfg.locality_ordering,
            "reliable": cfg.reliable_active,
            "checkpoint_every": cfg.checkpoint_every,
            "faults": repr(cfg.faults),
            "storage_faults": repr(cfg.storage_faults),
            "stragglers": repr(cfg.stragglers),
            "mailbox_cap_bytes": cfg.mailbox_cap_bytes,
            "queue_spill": cfg.queue_spill,
            "transport_window": cfg.transport_window,
            "spill_cache_pages": cfg.spill_cache_pages,
            "page_vertex_state": cfg.page_vertex_state,
            "record_digests": cfg.record_order_digests,
            "durable_interval": self.interval,
        }

    # -------------------------------------------------------------- #
    # Writing
    # -------------------------------------------------------------- #
    def _path(self, tick: int, suffix: str) -> str:
        return os.path.join(self.dir, f"epoch_{tick:08d}{suffix}")

    def write_epoch(
        self,
        tick: int,
        loop: dict,
        stats: "TraversalStats",
        rank_sections: list[bytes],
    ) -> list[tuple[str, bytes]]:
        """Atomically publish the epoch ending at ``tick``; returns its
        :func:`capture_epoch` sections, which worker supervision keeps as
        its in-memory epoch when one is due on the same tick.

        The durable counters are folded into ``stats`` *before* the stats
        section is pickled (write-time folding): a resumed run restores
        those totals and re-increments only for the epochs it writes
        itself, so final stats — including ``durable_io_us``, which rides
        the simulated clock — land identical to an uninterrupted run's.
        """
        stats.durable_checkpoints += 1
        stats.durable_bytes += int(sum(self._last_sim_bytes))
        stats.durable_io_us += self._last_io_us
        blobs = capture_epoch(self.engine, loop, stats, rank_sections)
        entries = []
        offset = 0
        for name, blob in blobs:
            entries.append({
                "name": name,
                "offset": offset,
                "length": len(blob),
                "blake2b": _checksum(name, blob),
            })
            offset += len(blob)
        manifest = {
            "format": FORMAT_VERSION,
            "tick": tick,
            "config": self.config_key(),
            "sections": entries,
        }
        data = b"".join(blob for _, blob in blobs)
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        bin_path = self._path(tick, _DATA_SUFFIX)
        man_path = self._path(tick, _MANIFEST_SUFFIX)
        _atomic_write(bin_path, data)
        _atomic_write(man_path, manifest_bytes)  # commit point
        stats.durable_disk_bytes += len(data) + len(manifest_bytes)
        self._apply_faults(tick, bin_path, man_path)
        # Post-write read-back: a corrupt epoch stays on disk (resume
        # exercises the fallback ladder) but never counts as a keeper.
        if self._validate_epoch(tick):
            self._valid_ticks.append(tick)
        else:
            stats.durable_corrupt_epochs += 1
        self._prune()
        return blobs

    def writer_state(self, stats: "TraversalStats") -> tuple:
        """What an in-memory rollback must rewind besides the epoch's
        sections, so a re-executed durable tick writes, damages and
        verifies as it did the first time: the fault plan's RNG position,
        the verified ticks, and the counters :meth:`write_epoch` folds
        after its stats section was pickled."""
        return (
            None if self._rng is None else self._rng.bit_generator.state,
            list(self._valid_ticks),
            {name: getattr(stats, name) for name in _POST_PICKLE_FIELDS},
        )

    def set_writer_state(self, state: tuple, stats: "TraversalStats") -> None:
        """Rewind to a :meth:`writer_state`, onto a rolled-back ``stats``."""
        rng_state, valid_ticks, folded = state
        if rng_state is not None:
            self._rng.bit_generator.state = rng_state
        self._valid_ticks = list(valid_ticks)
        for name, value in folded.items():
            setattr(stats, name, value)

    def _apply_faults(self, tick: int, bin_path: str, man_path: str) -> None:
        """Deliberately damage the just-committed epoch per the fault plan
        (fixed mode order so the RNG draws are reproducible)."""
        plan = self.fault_plan
        if plan is None:
            return
        if tick in plan.torn:
            size = os.path.getsize(bin_path)
            if size:
                cut = int(self._rng.integers(0, size))
                with open(bin_path, "r+b") as fh:
                    fh.truncate(cut)
        if tick in plan.bitflip:
            size = os.path.getsize(bin_path)
            if size:
                off = int(self._rng.integers(0, size))
                with open(bin_path, "r+b") as fh:
                    fh.seek(off)
                    byte = fh.read(1)[0]
                    fh.seek(off)
                    fh.write(bytes([byte ^ 0x40]))
        if tick in plan.manifest:
            size = os.path.getsize(man_path)
            with open(man_path, "r+b") as fh:
                fh.truncate(size // 2)
        if tick in plan.missing:
            with open(man_path, "rb") as fh:
                manifest = json.loads(fh.read().decode("utf-8"))
            idx = int(self._rng.integers(0, len(manifest["sections"])))
            del manifest["sections"][idx]
            _atomic_write(
                man_path, json.dumps(manifest, sort_keys=True).encode("utf-8")
            )

    def _prune(self) -> None:
        """Retire old epochs: keep the newest ``keep`` ticks, plus the
        newest write-verified epoch when every kept tick failed its
        read-back — the corruption-fallback ladder must always have a
        rung.  Data files whose manifest is gone (a crash between the two
        renames) are removed too."""
        ticks = self.epoch_ticks()
        kept = set(ticks[-self.keep:])
        valid_on_disk = [t for t in self._valid_ticks if t in set(ticks)]
        if valid_on_disk and not (kept & set(valid_on_disk)):
            kept.add(valid_on_disk[-1])
        for t in ticks:
            if t not in kept:
                for suffix in (_DATA_SUFFIX, _MANIFEST_SUFFIX):
                    try:
                        os.unlink(self._path(t, suffix))
                    except OSError:
                        pass
        tick_set = set(ticks)
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return
        for name in sorted(names):
            if (
                name.startswith("epoch_")
                and name.endswith(_DATA_SUFFIX)
                and ".tmp" not in name
            ):
                stem = name[len("epoch_"):-len(_DATA_SUFFIX)]
                if stem.isdigit() and int(stem) not in tick_set:
                    try:
                        os.unlink(os.path.join(self.dir, name))
                    except OSError:
                        pass

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #
    def epoch_ticks(self) -> list[int]:
        """Committed epoch ticks on disk (manifest present), ascending."""
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return []
        out = []
        for name in sorted(names):
            if (
                name.startswith("epoch_")
                and name.endswith(_MANIFEST_SUFFIX)
                and ".tmp" not in name
            ):
                stem = name[len("epoch_"):-len(_MANIFEST_SUFFIX)]
                if stem.isdigit():
                    out.append(int(stem))
        return sorted(out)

    def _validate_epoch(self, tick: int) -> bool:
        """Read-back verification without installing anything.

        Checks the manifest and every section's checksum against the bytes
        on disk, but unpickles nothing: a section whose bytes match the
        checksum taken over ``pickle.dumps``' own output loads by
        construction, and unpickling every epoch just written doubled the
        cost of each durable write (object-visitor heaps dominate).
        """
        try:
            return self._verified_blobs(tick) is not None
        except ConfigurationError:  # pragma: no cover - own write, own key
            return False

    def _try_load(self, tick: int) -> dict | None:
        """Load and fully verify one epoch; ``None`` on any corruption."""
        blobs = self._verified_blobs(tick)
        if blobs is None:
            return None
        try:
            return unpickle_epoch(blobs)
        except (KeyError, TypeError, ValueError, EOFError,
                pickle.UnpicklingError, AttributeError, IndexError):
            return None

    def _verified_blobs(self, tick: int) -> dict | None:
        """One epoch's section bytes by name, each checked against its
        manifest checksum; ``None`` on any corruption.

        A parseable manifest whose config key differs raises
        ``ConfigurationError`` instead — that epoch belongs to a different
        run, which fallback must not silently paper over.
        """
        try:
            with open(self._path(tick, _MANIFEST_SUFFIX), "rb") as fh:
                manifest = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError, RecursionError):
            return None
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_VERSION:
            return None
        entries = manifest.get("sections")
        if not isinstance(entries, list) or not all(map(_well_formed, entries)):
            return None
        if {e["name"] for e in entries} != REQUIRED_SECTIONS:
            return None
        config = manifest.get("config")
        if not isinstance(config, dict):
            return None
        if config != self.config_key():
            raise ConfigurationError(
                f"durable epoch {tick} in {self.dir!r} was written by a "
                f"different run configuration; refusing to resume from it "
                f"(point --durable at a fresh directory or rerun with the "
                f"original configuration)"
            )
        try:
            with open(self._path(tick, _DATA_SUFFIX), "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        blobs: dict = {}
        for entry in entries:
            off, length = entry["offset"], entry["length"]
            blob = data[off:off + length]
            if len(blob) != length or _checksum(entry["name"], blob) != entry["blake2b"]:
                return None
            blobs[entry["name"]] = blob
        return blobs

    def load_latest(self) -> ResumeState | None:
        """Resume path: restore the newest valid epoch in place.

        Walks epochs newest-to-oldest, skipping (and counting) every
        corrupt one — the fallback ladder.  Returns ``None`` when the
        directory holds no epochs at all (a fresh ``--resume`` run starts
        from scratch); raises
        :class:`~repro.errors.CheckpointCorruptionError` when epochs
        exist but none validates.  The restored stats object replaces the
        fresh run's wholesale (see :class:`ResumeState`).
        """
        ticks = self.epoch_ticks()
        if not ticks:
            return None
        skipped = 0
        for tick in reversed(ticks):
            payload = self._try_load(tick)
            if payload is None:
                skipped += 1
                continue
            return self._install(tick, payload, skipped)
        raise CheckpointCorruptionError(
            f"no valid durable epoch in {self.dir!r}: all {skipped} "
            f"on-disk epoch(s) failed verification (torn writes, bit rot "
            f"or truncation past the retention window)",
            examined=skipped,
        )

    def _install(self, tick: int, payload: dict, skipped: int) -> ResumeState:
        """Reinstall a verified epoch and fold the resume counters."""
        resume = install_epoch(self.engine, tick, payload)
        stats = resume.stats
        stats.durable_resumes += 1
        stats.durable_resume_tick = tick
        stats.durable_fallbacks += skipped
        stats.durable_corrupt_epochs += skipped
        return resume


# ---------------------------------------------------------------------- #
# One epoch: capture and install (durable epochs and supervision rollback)
# ---------------------------------------------------------------------- #
def capture_epoch(
    engine: "SimulationEngine",
    loop: dict,
    stats: "TraversalStats",
    rank_sections: list[bytes],
) -> list[tuple[str, bytes]]:
    """The seven pickled sections of the engine's epoch at a post-flush
    barrier: loop variables, stats, the ranks' packed sections
    (:func:`~repro.runtime.rank_image.pack`, from the rank executor),
    the whole network, RNG streams, order digests and the in-memory
    recovery epoch.  Durable epochs write them to disk; worker
    supervision keeps the newest in memory."""
    digests = None
    if engine._record_digests:
        digests = {
            "tick_digests": list(engine.tick_digests),
            "tick_rank_digests": list(engine.tick_rank_digests),
            "digest_prev": engine._digest_prev.copy(),
        }
    sections = [
        ("loop", loop),
        ("stats", stats),
        ("ranks", rank_sections),
        ("network", engine.network.snapshot_full()),
        ("rng", {
            "straggler": (
                engine.straggler.snapshot_state()
                if engine.straggler is not None
                else None
            ),
        }),
        ("digests", digests),
        ("recovery", (
            engine.recovery.snapshot_state()
            if engine.recovery is not None
            else None
        )),
    ]
    # Highest protocol (5): framed numpy buffers serialize without the
    # protocol-4 bytes-object copy.
    return [
        (name, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        for name, obj in sections
    ]


def unpickle_epoch(blobs: dict[str, bytes]) -> dict:
    """Section objects by name from :func:`capture_epoch`'s bytes."""
    payload = {name: pickle.loads(blob) for name, blob in blobs.items()}
    payload["ranks"] = [pickle.loads(blob) for blob in payload["ranks"]]
    return payload


def install_epoch(engine: "SimulationEngine", tick: int, payload: dict) -> ResumeState:
    """Reinstall an unpickled epoch into the live engine in place: every
    rank's full image and recovery image, the network, the recovery
    manager's epoch, RNG streams and digests — before any pool forks, so
    workers inherit it.  The loop variables and stats go back to the
    engine in the returned :class:`ResumeState`."""
    for r, (image, recovery_image) in enumerate(payload["ranks"]):
        rank_image.restore(engine, r, image)
        engine.recovery_images[r] = recovery_image
    engine.network.restore_full(payload["network"])
    if engine.recovery is not None and payload["recovery"] is not None:
        engine.recovery.restore_state(payload["recovery"])
    straggler_snap = payload["rng"]["straggler"]
    if straggler_snap is not None and engine.straggler is not None:
        engine.straggler.restore_state(straggler_snap)
    digests = payload["digests"]
    if digests is not None and engine._record_digests:
        engine.tick_digests = list(digests["tick_digests"])
        engine.tick_rank_digests = list(digests["tick_rank_digests"])
        engine._digest_prev = np.array(digests["digest_prev"], dtype=np.int64)
    return ResumeState(tick=tick, loop=payload["loop"], stats=payload["stats"])
