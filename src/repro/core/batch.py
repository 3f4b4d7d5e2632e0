"""Struct-of-arrays visitor batches: the rank's one visitor representation.

A :class:`VisitorBatch` carries N visitors as parallel numpy arrays —
``vertices`` / ``payloads`` / ``parents`` plus optional
algorithm-specific ``extras`` columns (triangle counting's ``third``
vertex) — in one Python object.  For algorithms whose per-vertex state is
flat and numeric, state lives in an array-backed block and the pre-visit
of N arrivals becomes one masked array update.  Object visitors ride the
same batches with an ``object`` payload column
(:mod:`repro.core.object_adapter`).

:class:`BatchStateArrays` is the monotonic improve-or-drop state block the
PR-1 traversals (BFS, SSSP, CC) share; counting/accumulating algorithms
(k-core, triangles, PageRank) ship their own state-array classes that
implement the same ``previsit_batch`` / ``snapshot`` / ``restore``
protocol with mutable counter semantics.

Equivalence contract
--------------------
Everything here is *sequentially equivalent* to one-visitor-at-a-time
execution: applying ``previsit_batch`` to a batch produces exactly the
mask and state mutations that N consecutive ``pre_visit`` calls would,
including the case where several visitors in one batch target the same
vertex (the within-batch order is the arrival order;
:func:`occurrence_counts` gives each position its per-vertex arrival
index so duplicate resolution is exact).  That is what lets the native
batch hooks promise bit-identical states and
:class:`~repro.runtime.trace.TraversalStats` to the algorithms' object
twins.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.types import VID_DTYPE


class VisitorBatch:
    """A frontier slice: N visitors as parallel arrays (one Python object).

    ``payloads`` is the primary per-visitor scalar; for the monotonic
    traversals it doubles as the heap priority (BFS length, SSSP distance,
    CC label), while algorithms with their own ordering supply
    ``batch_priorities``.  ``parents`` is optional auxiliary state
    (BFS/SSSP parent pointers).  ``extras`` is a tuple of additional
    per-visitor columns for multi-payload visitors (triangle counting
    carries ``second`` in ``payloads`` and ``third`` as an extra); every
    structural operation (take/slice/split/concat) keeps the columns
    aligned, so batch envelopes split at aggregation boundaries carry the
    full visitor record exactly like the object path's POD structs.
    """

    __slots__ = ("vertices", "payloads", "parents", "extras")

    def __init__(
        self,
        vertices: np.ndarray,
        payloads: np.ndarray,
        parents: np.ndarray | None = None,
        extras: tuple = (),
    ) -> None:
        self.vertices = vertices
        self.payloads = payloads
        self.parents = parents
        self.extras = extras

    def __len__(self) -> int:
        return int(self.vertices.size)

    # -------------------------------------------------------------- #
    def take(self, mask: np.ndarray) -> "VisitorBatch":
        """Sub-batch of the rows where ``mask`` is true (order preserved)."""
        return VisitorBatch(
            self.vertices[mask],
            self.payloads[mask],
            self.parents[mask] if self.parents is not None else None,
            tuple(e[mask] for e in self.extras),
        )

    def slice(self, lo: int, hi: int) -> "VisitorBatch":
        """Contiguous sub-batch ``[lo, hi)`` (views, no copies)."""
        return VisitorBatch(
            self.vertices[lo:hi],
            self.payloads[lo:hi],
            self.parents[lo:hi] if self.parents is not None else None,
            tuple(e[lo:hi] for e in self.extras) if self.extras else (),
        )

    def split(self, k: int) -> tuple["VisitorBatch", "VisitorBatch"]:
        """Split into the first ``k`` visitors and the rest (both views)."""
        return self.slice(0, k), self.slice(k, len(self))

    @classmethod
    def concat(cls, batches: list["VisitorBatch"]) -> "VisitorBatch":
        """Concatenate in order (visitor order == arrival order)."""
        if len(batches) == 1:
            return batches[0]
        parents = None
        if batches[0].parents is not None:
            parents = np.concatenate([b.parents for b in batches])
        extras = tuple(
            np.concatenate([b.extras[j] for b in batches])
            for j in range(len(batches[0].extras))
        )
        return cls(
            np.concatenate([b.vertices for b in batches]),
            np.concatenate([b.payloads for b in batches]),
            parents,
            extras,
        )


class BatchStateArrays:
    """Array-backed per-vertex state for one rank (or one ghost table).

    ``values`` is the monotonic compare key (BFS length, SSSP distance, CC
    label); ``parents`` the optional tree pointer.  Row ``i`` holds the
    state of the ``i``-th vertex of the block this object was built for —
    callers translate vertex ids to row indices.

    State-array protocol
    --------------------
    Any per-rank state block (this class or an algorithm-specific one such
    as k-core's) exposes ``previsit_batch(idx, batch) -> mask``, the exact
    sequential equivalent of N ``pre_visit`` calls in batch order;
    ``snapshot()`` / ``restore(snap)`` for crash-recovery checkpoints; and
    ``__len__``.
    """

    __slots__ = ("values", "parents")

    def __init__(self, values: np.ndarray, parents: np.ndarray | None = None) -> None:
        self.values = values
        self.parents = parents

    def __len__(self) -> int:
        return int(self.values.size)

    def previsit_batch(self, idx: np.ndarray, batch: VisitorBatch) -> np.ndarray:
        """State-array protocol entry point (monotonic improve-or-drop)."""
        return self.previsit(idx, batch.payloads, batch.parents)

    def snapshot(self) -> dict:
        """Checkpointable copy of the mutable state arrays."""
        return {
            "values": self.values.copy(),
            "parents": self.parents.copy() if self.parents is not None else None,
        }

    def restore(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot` checkpoint in place."""
        self.values[:] = snap["values"]
        if self.parents is not None and snap["parents"] is not None:
            self.parents[:] = snap["parents"]

    # -------------------------------------------------------------- #
    def previsit(
        self,
        idx: np.ndarray,
        payloads: np.ndarray,
        parents: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sequentially-equivalent batched strict improve-or-drop.

        For each position ``i`` in order: pass iff ``payloads[i]`` is
        strictly below the current value of row ``idx[i]``; a pass writes
        the payload (and parent) back before the next position is
        evaluated.  Returns the pass mask.

        The all-distinct case (no vertex appears twice in the batch) is
        fully vectorized; positions belonging to repeated vertices fall
        back to an exact scalar walk so within-batch races resolve exactly
        as the object path would.
        """
        n = idx.size
        values = self.values
        if n == 0:
            return np.zeros(0, dtype=bool)
        if n == 1:
            i = idx[0]
            ok = bool(payloads[0] < values[i])
            if ok:
                values[i] = payloads[0]
                if parents is not None and self.parents is not None:
                    self.parents[i] = parents[0]
            return np.array([ok])
        # Strict test against the pre-batch state.  Values only decrease,
        # so a position failing here fails sequentially too — this mask is
        # exact everywhere except where a vertex repeats among the
        # survivors (an earlier in-batch improvement may kill a later
        # arrival that beat the pre-batch value).
        mask = payloads < values[idx]
        if not mask.any():
            return mask
        viable = np.flatnonzero(mask)
        vidx = idx[viable]
        _, inverse, counts = np.unique(vidx, return_inverse=True, return_counts=True)
        dup = counts[inverse] > 1
        if not dup.any():
            values[vidx] = payloads[viable]
            if parents is not None and self.parents is not None:
                self.parents[vidx] = parents[viable]
            return mask
        uni_pos = viable[~dup]
        values[idx[uni_pos]] = payloads[uni_pos]
        if parents is not None and self.parents is not None:
            self.parents[idx[uni_pos]] = parents[uni_pos]
        # Exact sequential resolution for the surviving repeats, walked in
        # plain Python (python scalars beat numpy scalar indexing ~10x);
        # Python int/float comparisons are exact, so semantics are
        # unchanged.  Repeated and unique survivor vertices are disjoint
        # sets, so the vectorized update above cannot race with this walk.
        dpos = viable[dup]
        dvert = idx[dpos].tolist()
        dpay = payloads[dpos].tolist()
        dval = values[idx[dpos]].tolist()
        dpar = parents[dpos].tolist() if parents is not None else None
        cur: dict = {}
        cur_par: dict = {}
        out = []
        for k, j in enumerate(dvert):
            c = cur.get(j)
            if c is None:
                c = dval[k]
            p = dpay[k]
            if p < c:
                out.append(True)
                cur[j] = p
                if dpar is not None:
                    cur_par[j] = dpar[k]
            else:
                out.append(False)
                if j not in cur:
                    cur[j] = c
        mask[dpos] = out
        if cur:
            keys = np.fromiter(cur.keys(), dtype=np.int64, count=len(cur))
            values[keys] = np.fromiter(cur.values(), dtype=values.dtype, count=len(cur))
        if cur_par and self.parents is not None:
            keys = np.fromiter(cur_par.keys(), dtype=np.int64, count=len(cur_par))
            self.parents[keys] = np.fromiter(
                cur_par.values(), dtype=self.parents.dtype, count=len(cur_par)
            )
        return mask


class GhostArrayTable:
    """Per-partition ghost filter (Sections III-A2 and IV-B): local, never
    globally synchronised.

    ``state`` is any state block (the state-array protocol's ``previsit``
    / ``snapshot`` / ``restore``) built with ``ROLE_GHOST`` for the
    ghosted ``vertices``, which must be ascending — row ``i`` is the ghost
    of ``vertices[i]``, and lookup is a binary search.
    """

    __slots__ = ("vertices", "state", "filter_hits", "filter_passes")

    def __init__(self, vertices: np.ndarray, state) -> None:
        vertices = np.ascontiguousarray(vertices, dtype=VID_DTYPE)
        if vertices.size > 1 and (vertices[1:] <= vertices[:-1]).any():
            raise ValueError("ghost vertices must be strictly ascending")
        self.vertices = vertices
        self.state = state
        #: visitors killed by a ghost pre_visit (saved messages).
        self.filter_hits = 0
        #: visitors that passed a ghost pre_visit (forwarded to the master).
        self.filter_passes = 0

    def __len__(self) -> int:
        return int(self.vertices.size)

    def filter(
        self, targets: np.ndarray, payloads: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """Ghost pre-visit over a push batch, in order.

        Returns ``(keep_mask, previsits, filtered)``: non-ghosted targets
        are always kept; ghosted targets are kept iff their sequentially-
        equivalent ghost pre_visit passes (which also updates ghost state).
        """
        pos = np.searchsorted(self.vertices, targets)
        pos_c = np.minimum(pos, self.vertices.size - 1)
        ghosted = self.vertices[pos_c] == targets
        n_ghosted = int(np.count_nonzero(ghosted))
        if n_ghosted == 0:
            return np.ones(targets.size, dtype=bool), 0, 0
        gmask = self.state.previsit(pos_c[ghosted], payloads[ghosted])
        keep = np.ones(targets.size, dtype=bool)
        keep[np.flatnonzero(ghosted)[~gmask]] = False
        passed = int(np.count_nonzero(gmask))
        self.filter_hits += n_ghosted - passed
        self.filter_passes += passed
        return keep, n_ghosted, n_ghosted - passed

    # -------------------------------------------------------------- #
    def snapshot_state(self) -> dict:
        """Checkpointable ghost state (the block's ``snapshot``)."""
        return {
            "state": self.state.snapshot(),
            "filter_hits": self.filter_hits,
            "filter_passes": self.filter_passes,
        }

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` checkpoint."""
        self.state.restore(snap["state"])
        self.filter_hits = snap["filter_hits"]
        self.filter_passes = snap["filter_passes"]


def arrival_groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal values of a non-empty array by one stable sort.

    Returns ``(order, starts, group)``: ``order`` is the stable argsort of
    ``values``, ``starts`` the sorted positions where each run of equal
    values begins, and ``group[j]`` the run of sorted position ``j``.  The
    sort keeps arrival order inside a run, so ``order[starts]`` are the
    runs' first arrivals and ``j - starts[group[j]]`` is the arrival index
    of sorted position ``j`` within its run.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    new = np.empty(values.size, dtype=bool)
    new[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=new[1:])
    return order, np.flatnonzero(new), np.cumsum(new) - 1


def occurrence_counts(values: np.ndarray) -> np.ndarray:
    """Per-position within-batch arrival index: ``occ[i]`` is the number of
    earlier positions ``j < i`` with ``values[j] == values[i]``.

    This is what lets counting pre-visits (k-core decrements, PageRank
    drain dedup) resolve within-batch duplicates exactly as the object
    path's one-at-a-time arrival order would, without a Python loop: a
    stable sort groups equal values while preserving arrival order inside
    each group, so the within-group offset *is* the arrival index.
    """
    n = values.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order, starts, group = arrival_groups(values)
    occ = np.empty(n, dtype=np.int64)
    occ[order] = np.arange(n, dtype=np.int64) - starts[group]
    return occ


class SharedArrayBlock:
    """A shared-memory arena backing a set of named numpy arrays.

    The parallel executor (:mod:`repro.runtime.parallel`) rebinds each
    rank's SoA state arrays onto one of these arenas *before* forking its
    worker pool: the backing store is an anonymous ``MAP_SHARED`` mapping,
    so forked workers mutate the very pages the parent reads — final batch
    states come back zero-copy, with no per-tick serialization and no named
    segments to unlink.  Layout is a 64-byte-aligned offset per array.
    """

    ALIGN = 64

    __slots__ = ("_mmap", "layout", "nbytes")

    def __init__(self, arrays: list[tuple[str, np.ndarray]]) -> None:
        offset = 0
        layout: dict[str, tuple[int, np.dtype, tuple[int, ...]]] = {}
        for name, arr in arrays:
            layout[name] = (offset, arr.dtype, arr.shape)
            offset += -(-arr.nbytes // self.ALIGN) * self.ALIGN
        self.layout = layout
        self.nbytes = offset
        self._mmap = mmap.mmap(-1, max(offset, mmap.PAGESIZE))
        for name, arr in arrays:
            np.copyto(self.view(name), arr)

    def view(self, name: str) -> np.ndarray:
        """Writable array view over this arena (valid in parent and in any
        process forked after construction)."""
        offset, dtype, shape = self.layout[name]
        count = int(np.prod(shape)) if shape else 1
        return np.frombuffer(
            self._mmap, dtype=dtype, count=count, offset=offset
        ).reshape(shape)

    def close(self) -> None:
        """Release the mapping.  Callers must drop every view first —
        ``mmap`` refuses to close while exported buffers exist."""
        self._mmap.close()


def _state_array_attrs(state) -> list[str]:
    """Names of the ndarray attributes of a state-array block, in slot
    declaration order (the state-array protocol classes are all
    ``__slots__``-based)."""
    names: list[str] = []
    for klass in type(state).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name not in names and isinstance(
                getattr(state, name, None), np.ndarray
            ):
                names.append(name)
    return names


def share_state_arrays(state) -> SharedArrayBlock | None:
    """Move a state-array block's ndarray attributes into a
    :class:`SharedArrayBlock` and rebind them as views (zero-copy attach
    for processes forked afterwards).  Returns the arena, or None when the
    block holds no arrays.  All state-array classes mutate and ``restore``
    in place, so rebinding is behaviour-preserving."""
    names = _state_array_attrs(state)
    if not names:
        return None
    block = SharedArrayBlock([(n, getattr(state, n)) for n in names])
    for n in names:
        setattr(state, n, block.view(n))
    return block


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``
    without the Python loop (the classic repeat/cumsum expansion)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_ends = np.cumsum(lengths)
    out = np.repeat(np.asarray(starts, dtype=np.int64), lengths)
    out += np.arange(total, dtype=np.int64) - np.repeat(seg_ends - lengths, lengths)
    return out
