"""Spans around calls into each layer, recorded from benchmark code.

:class:`Tracer` wraps public functions and methods of ``repro`` modules in
place (module or class attributes) for the duration of a ``with`` block
and records one span per call: name, start, end, parent span and the
traversal id current at the time.  Spans live in flat in-memory arrays
and are written out once, at the end.  A span's *self time* is its
duration minus that of its direct children; one thread records the spans,
so children never overlap and the subtraction is exact.

Forked workers (``workers > 1``) inherit the wrappers but record into
their own copy of the tracer, which is discarded: on such runs only the
parent's spans are seen.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

#: (span name, module, attribute path) of every wrapped call.
TARGETS = (
    ("rmat_edges", "repro.generators.rmat", "rmat_edges"),
    ("EdgeList.permuted", "repro.graph.edge_list", "EdgeList.permuted"),
    ("EdgeList.simple_undirected", "repro.graph.edge_list",
     "EdgeList.simple_undirected"),
    ("DistributedGraph.build", "repro.graph.distributed", "DistributedGraph.build"),
    ("SimulationEngine.__init__", "repro.runtime.engine", "SimulationEngine.__init__"),
    ("SimulationEngine.run", "repro.runtime.engine", "SimulationEngine.run"),
    ("Network.advance", "repro.comm.network", "Network.advance"),
    ("BatchVisitorQueueRank.process", "repro.core.batch_queue",
     "BatchVisitorQueueRank.process"),
    ("BatchVisitorQueueRank.check_mailbox", "repro.core.batch_queue",
     "BatchVisitorQueueRank.check_mailbox"),
    ("Mailbox.send_stream", "repro.comm.mailbox", "Mailbox.send_stream"),
    ("Mailbox.flush", "repro.comm.mailbox", "Mailbox.flush"),
    ("Mailbox.receive", "repro.comm.mailbox", "Mailbox.receive"),
    ("PageCache.access_pages", "repro.memory.page_cache", "PageCache.access_pages"),
    ("PageCache.drain_epoch_us", "repro.memory.page_cache", "PageCache.drain_epoch_us"),
    ("DurabilityManager.write_epoch", "repro.runtime.durability",
     "DurabilityManager.write_epoch"),
    ("finalize_batch", "repro.algorithms.bfs", "BFSAlgorithm.finalize_batch"),
    ("finalize_batch", "repro.algorithms.kcore", "KCoreAlgorithm.finalize_batch"),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.traversal = array("i")
        self._stack: list[int] = []
        #: Id stamped on new spans; -1 outside any traversal (set-up).
        self.current_traversal = -1
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- #
    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, start, end = self.name_id, self.start, self.end
        parent, traversal = self.parent, self.traversal

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            traversal.append(self.current_traversal)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> Tracer:
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------------- #
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "traversal": np.frombuffer(self.traversal, dtype=np.int32).copy(),
        }

    def self_seconds(self) -> dict[tuple[str, int], float]:
        """Summed self time per (span name, traversal id)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        tids = a["traversal"] + 1  # -1 (set-up) becomes bucket 0
        width = int(tids.max()) + 1 if tids.size else 1
        keys = a["name_id"].astype(np.int64) * width + tids
        sums = np.bincount(keys, weights=dur - child)
        present = np.flatnonzero(np.bincount(keys))
        return {
            (self.names[k // width], k % width - 1): float(sums[k])
            for k in present.tolist()
        }

    def write(self, path: Path) -> None:
        """Write every span (columns plus the name table) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
