"""The canonical edge-list container.

An :class:`EdgeList` is a pair of ``int64`` NumPy arrays plus a vertex
count.  It is immutable by convention: every transformation
(:meth:`EdgeList.sorted_by_source`, :meth:`EdgeList.symmetrized`, ...)
returns a new instance, so partitioners can rely on the input never
changing under them.

The paper's pipeline is::

    generator -> permute labels -> symmetrize (undirected algorithms)
              -> sort by source -> edge list partitioning

"Requiring the edge list to be globally sorted is an additional step that is
not needed by 1D or 2D graph partitioning.  This is not an onerous
requirement, because there are numerous distributed memory and external
memory sorting algorithms" — here a NumPy stable argsort stands in for the
distributed sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphConstructionError
from repro.types import VID_DTYPE
from repro.utils.rng import resolve_rng


@dataclass(frozen=True)
class EdgeList:
    """A directed edge list over vertices ``0 .. num_vertices - 1``."""

    src: np.ndarray
    dst: np.ndarray
    num_vertices: int
    #: True when the instance is known to be sorted by source (stable).
    sorted_by_src: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=VID_DTYPE)
        dst = np.ascontiguousarray(self.dst, dtype=VID_DTYPE)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphConstructionError(
                f"src/dst must be 1-D arrays of equal length, got {src.shape} vs {dst.shape}"
            )
        if self.num_vertices < 0:
            raise GraphConstructionError(f"num_vertices must be >= 0, got {self.num_vertices}")
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise GraphConstructionError(
                    f"edge endpoints [{lo}, {hi}] out of range for {self.num_vertices} vertices"
                )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls, src: np.ndarray, dst: np.ndarray, num_vertices: int | None = None
    ) -> EdgeList:
        """Build from raw arrays; infers ``num_vertices`` when omitted."""
        src = np.asarray(src, dtype=VID_DTYPE)
        dst = np.asarray(dst, dtype=VID_DTYPE)
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        return cls(src=src, dst=dst, num_vertices=num_vertices)

    @classmethod
    def from_pairs(cls, pairs, num_vertices: int | None = None) -> EdgeList:
        """Build from an iterable of ``(u, v)`` pairs (tests, examples)."""
        pairs = list(pairs)
        if not pairs:
            empty = np.empty(0, dtype=VID_DTYPE)
            return cls(src=empty, dst=empty.copy(), num_vertices=num_vertices or 0)
        arr = np.asarray(pairs, dtype=VID_DTYPE)
        return cls.from_arrays(arr[:, 0], arr[:, 1], num_vertices)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.size)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.bincount(self.src, minlength=self.num_vertices).astype(VID_DTYPE)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.bincount(self.dst, minlength=self.num_vertices).astype(VID_DTYPE)

    def degrees(self) -> np.ndarray:
        """Total degree (in + out); equals undirected degree on a
        symmetrized list."""
        return self.out_degrees() + self.in_degrees()

    # ------------------------------------------------------------------ #
    # Transformations (all return new instances)
    # ------------------------------------------------------------------ #
    def sorted_by_source(self) -> EdgeList:
        """Stable sort by source vertex — the precondition of edge list
        partitioning (Section III-A1)."""
        if self.sorted_by_src:
            return self
        order = np.argsort(self.src, kind="stable")
        return EdgeList(
            src=self.src[order],
            dst=self.dst[order],
            num_vertices=self.num_vertices,
            sorted_by_src=True,
        )

    def symmetrized(self) -> EdgeList:
        """Append the reverse of every edge (undirected view).

        Self loops are not duplicated.  The result is *not* deduplicated;
        chain with :meth:`deduplicated` when a simple graph is required.
        """
        loops = self.src == self.dst
        rev_src = self.dst[~loops]
        rev_dst = self.src[~loops]
        return EdgeList(
            src=np.concatenate([self.src, rev_src]),
            dst=np.concatenate([self.dst, rev_dst]),
            num_vertices=self.num_vertices,
        )

    def without_self_loops(self) -> EdgeList:
        """Drop edges ``(v, v)``."""
        keep = self.src != self.dst
        return EdgeList(
            src=self.src[keep],
            dst=self.dst[keep],
            num_vertices=self.num_vertices,
            sorted_by_src=self.sorted_by_src,
        )

    def deduplicated(self) -> EdgeList:
        """Keep one copy of each distinct ``(src, dst)`` pair.

        The result is sorted by source (a by-product of the dedup sort).
        """
        if self.num_edges == 0:
            return EdgeList(
                src=self.src, dst=self.dst, num_vertices=self.num_vertices, sorted_by_src=True
            )
        # Pack pairs into single keys for a one-pass unique.  num_vertices
        # fits in int64 so src * n + dst cannot collide (guard overflow).
        n = max(self.num_vertices, 1)
        if n < (1 << 31):
            # sort + adjacent diff: same result as np.unique, far cheaper
            keys = self.src * n + self.dst
            keys.sort()
            first = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            uniq = keys[first]
            return EdgeList(
                src=(uniq // n), dst=(uniq % n), num_vertices=self.num_vertices, sorted_by_src=True
            )
        order = np.lexsort((self.dst, self.src))
        s, t = self.src[order], self.dst[order]
        keep = np.ones(s.size, dtype=bool)
        keep[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
        return EdgeList(src=s[keep], dst=t[keep], num_vertices=self.num_vertices, sorted_by_src=True)

    def permuted(self, seed: int | np.random.Generator | None = None) -> EdgeList:
        """Uniformly permute vertex labels (destroys generator locality)."""
        rng = resolve_rng(seed)
        perm = rng.permutation(self.num_vertices).astype(VID_DTYPE)
        return EdgeList(src=perm[self.src], dst=perm[self.dst], num_vertices=self.num_vertices)

    def simple_undirected(self) -> EdgeList:
        """Convenience pipeline: drop self loops, symmetrize, dedup.

        This is the canonical input for the undirected algorithms (k-core,
        triangle counting) and for undirected BFS.
        """
        return self.without_self_loops().symmetrized().deduplicated()
