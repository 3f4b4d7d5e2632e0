"""One rank image: the restartable state of one rank (INTERNALS §8, §12, §13).

Crash-recovery epochs (:mod:`repro.runtime.recovery`) and the epoch
sections that durable epochs and worker supervision share
(:mod:`repro.runtime.durability`) all capture and reinstall a rank here,
so the key set and the restore order are written once.  Every function
runs in the process that runs the rank: in-process at ``workers=1``, in
the owning worker under a pool.  An image is a plain dict of per-class
``snapshot_state`` results, taken at a post-flush tick barrier, in one of
two scopes:

* **recovery** (``full=False``): queue, mailbox and, with a detector, its
  protocol state — what a simulated rank crash loses (page caches stay
  warm across one).  The last one is kept in
  ``SimulationEngine.recovery_images`` and rides the rank's durable
  section (:func:`pack`).
* **full** (``full=True``): those plus the queue's spill ledger, the CSR
  page cache, the spill pager and the storage-fault RNG stream —
  everything a process that lost the rank cannot reconstruct.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import SimulationEngine

def _storage_injector(engine: "SimulationEngine", r: int):
    """The rank's storage fault injector, if any.  The *same* object is
    shared by the rank's CSR cache and spill cache, so capture/restore
    must touch it exactly once per rank."""
    cache = engine.caches[r]
    if cache is not None and cache.fault_injector is not None:
        return cache.fault_injector
    spill = engine.spills[r]
    if spill is not None and spill.cache.fault_injector is not None:
        return spill.cache.fault_injector
    return None


def capture(engine: "SimulationEngine", r: int, *, full: bool) -> dict:
    """Rank ``r``'s image, recovery scope or (``full``) full scope."""
    image: dict = {
        "queue": engine.ranks[r].snapshot_state(),
        "mailbox": engine.mailboxes[r].snapshot_state(),
    }
    if engine.detectors is not None:
        image["detector"] = engine.detectors[r].snapshot_state()
    if not full:
        return image
    image["spilled_visitors"] = engine.ranks[r].spill_ledger
    if engine.caches[r] is not None:
        image["cache"] = engine.caches[r].snapshot_state()
    if engine.spills[r] is not None:
        image["spill"] = engine.spills[r].snapshot_state()
    injector = _storage_injector(engine, r)
    if injector is not None:
        image["storage_injector"] = injector.snapshot_state()
    return image


def restore(engine: "SimulationEngine", r: int, image: dict) -> None:
    """Reinstall ``image`` (either scope) into rank ``r`` in place.

    Order matters: the mailbox restore re-spills any beyond-cap buffer
    bytes into the pager (see :meth:`Mailbox.restore_state`), so the spill
    pager's recorded state is restored *after* it, overriding that
    re-spill's cursor and epoch-accumulator side effects.  At a post-flush
    barrier the re-spill writes nothing, so the order only matters for
    mid-buffer images.
    """
    engine.ranks[r].restore_state(image["queue"])
    if "spilled_visitors" in image:
        engine.ranks[r].spill_ledger = image["spilled_visitors"]
    engine.mailboxes[r].restore_state(image["mailbox"])
    if "detector" in image:
        engine.detectors[r].restore_state(image["detector"])
    if "cache" in image:
        engine.caches[r].restore_state(image["cache"])
    if "spill" in image:
        engine.spills[r].restore_state(image["spill"])
    if "storage_injector" in image:
        _storage_injector(engine, r).restore_state(image["storage_injector"])


def pack(engine: "SimulationEngine", r: int) -> bytes:
    """Rank ``r``'s durable section, pickled: its full image plus
    ``engine.recovery_images[r]``, the recovery-scope image of its last
    crash-recovery epoch (``None`` without one).  Packed by the process
    that runs the rank — under ``workers > 1`` each worker packs its own
    ranks, so a rank's state is pickled once, by its owner, and the parent
    keeps bytes."""
    return pickle.dumps(
        (capture(engine, r, full=True), engine.recovery_images[r]),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
