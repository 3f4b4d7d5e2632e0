"""The one rank image (INTERNALS §8, §12, §13).

Crash-recovery epochs, supervision images and durable sections all
capture and reinstall a rank through :mod:`repro.runtime.rank_image`.
These tests stop a run mid-traversal under each state-bearing feature —
the termination detector, NVRAM page caches, a bounded mailbox with an
external visitor queue, storage faults — and check that an image
survives a restore into a fresh engine unchanged, and that its recovery
part is exactly what a recovery-scope capture takes at the same barrier.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.bfs import BFSAlgorithm
from repro.bench.harness import build_rmat_graph, pick_bfs_source
from repro.errors import TraversalError
from repro.memory.faults import StorageFaultPlan
from repro.runtime import rank_image
from repro.runtime.costmodel import STORAGE_NVRAM, EngineConfig, hyperion_dit, laptop
from repro.runtime.engine import SimulationEngine

NVRAM = hyperion_dit(STORAGE_NVRAM, cache_bytes_per_rank=32 * 1024)
STOP_TICK = 3

#: name -> (machine, EngineConfig overrides, keys the full image must carry)
CASES = {
    "oracle": (laptop(), dict(use_termination_detector=False), set()),
    "detector": (laptop(), dict(), {"detector"}),
    "nvram-cache": (NVRAM, dict(), {"cache"}),
    "mailbox-cap-queue-spill": (
        laptop(), dict(mailbox_cap_bytes=40, queue_spill=2), {"spill"},
    ),
    "storage-faults": (
        NVRAM,
        dict(storage_faults=StorageFaultPlan(seed=5, read_error_rate=0.2,
                                             spike_rate=0.1, max_retries=8)),
        {"cache", "storage_injector"},
    ),
}


def _engine(machine, batch, **overrides):
    edges, graph = build_rmat_graph(7, num_partitions=4, num_ghosts=8, seed=5)
    cfg = EngineConfig(visitor_budget=8, batch=batch, max_ticks=STOP_TICK,
                       **overrides)
    algorithm = BFSAlgorithm(pick_bfs_source(edges, seed=5))
    return SimulationEngine(graph, algorithm, machine, config=cfg)


def _stopped(machine, batch, **overrides):
    """An engine stopped at the post-flush barrier of tick ``STOP_TICK``."""
    eng = _engine(machine, batch, **overrides)
    with pytest.raises(TraversalError, match="max_ticks"):
        eng.run()
    return eng


def _bytes(image: dict) -> bytes:
    return pickle.dumps(image, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_capture_restore_capture_is_identity(case, batch):
    machine, overrides, keys = CASES[case]
    eng = _stopped(machine, batch, **overrides)
    p = eng.graph.num_partitions
    images = [rank_image.capture(eng, r, full=True) for r in range(p)]
    assert keys <= set(images[0])
    assert any(eng.ranks[r].queue_length() for r in range(p)), "run already done"

    fresh = _engine(machine, batch, **overrides)
    for r, image in enumerate(images):
        rank_image.restore(fresh, r, image)
    for r, image in enumerate(images):
        assert _bytes(rank_image.capture(fresh, r, full=True)) == _bytes(image)


@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_recovery_part_is_the_recovery_capture(case, batch):
    machine, overrides, _ = CASES[case]
    eng = _stopped(machine, batch, **overrides)
    for r in range(eng.graph.num_partitions):
        full = rank_image.capture(eng, r, full=True)
        recovery = rank_image.capture(eng, r, full=False)
        scope = {k: full[k] for k in ("queue", "mailbox", "detector") if k in full}
        assert _bytes(scope) == _bytes(recovery)


def test_post_flush_images_hold_no_spilled_mailbox_bytes():
    """Images are taken at post-flush barriers, where the mailbox's
    restore-time re-spill writes nothing — so restoring the spill pager
    before or after the mailbox gives the same pager."""
    machine, overrides, _ = CASES["mailbox-cap-queue-spill"]
    eng = _stopped(machine, True, **overrides)
    p = eng.graph.num_partitions
    assert any(eng.mailboxes[r].bp_spilled_bytes for r in range(p))
    for r in range(p):
        image = rank_image.capture(eng, r, full=True)
        assert not any(image["mailbox"]["spill_bytes"].values())
