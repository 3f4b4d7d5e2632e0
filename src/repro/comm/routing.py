"""Synthetic routing topologies (Section III-B, Figure 4).

"For dense communication patterns, where every process needs to send
messages to all p other processes, we route the messages through a topology
that partitions the communication. ... Figure 4 illustrates a 2D routing
topology that reduces the number of communicating channels a process
requires to O(sqrt(p)). ... Our experiments on BG/P use a 3D routing
topology ... designed to mirror the BG/P 3D torus interconnect topology."

The Figure 4 example is encoded in the tests: on 16 ranks (4x4), a message
from rank 11 to rank 5 is first aggregated and routed through rank 9 —
i.e. the first hop stays in the *sender's row* and moves to the
*destination's column*, the second hop moves within the column.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import RoutingError


class Topology(ABC):
    """Routing policy: which rank a message heads to next."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise RoutingError(f"need at least 1 rank, got {num_ranks}")
        self.num_ranks = num_ranks

    #: Short identifier used in reports ("direct", "2d", "3d").
    name: str = "abstract"

    @abstractmethod
    def next_hop(self, current: int, dest: int) -> int:
        """The next rank on the route from ``current`` toward ``dest``."""

    def next_hops(self, rank: int) -> np.ndarray:
        """Row ``rank`` of the next-hop table: entry ``d`` is
        ``next_hop(rank, d)``, and ``rank`` itself at ``d == rank``."""
        self._check(rank)
        return np.array([self.next_hop(rank, d) if d != rank else rank
                         for d in range(self.num_ranks)], dtype=np.int64)

    def route(self, src: int, dest: int) -> list[int]:
        """The full hop sequence from ``src`` to ``dest`` (excludes ``src``)."""
        self._check(src)
        self._check(dest)
        hops = []
        cur = src
        while cur != dest:
            nxt = self.next_hop(cur, dest)
            if nxt == cur or len(hops) >= self.num_ranks:
                raise RoutingError(
                    f"routing loop from {src} to {dest} via {hops}"
                )  # pragma: no cover - defensive
            hops.append(nxt)
            cur = nxt
        return hops

    def num_hops(self, src: int, dest: int) -> int:
        """Number of network hops between two ranks (0 when equal)."""
        return len(self.route(src, dest))

    def channels(self, rank: int) -> set[int]:
        """All ranks this rank ever sends a packet directly to.

        The size of this set is the "number of communicating channels" the
        paper's topologies are designed to bound.  A hop depends only on
        the current rank and the destination, so transit traffic leaves
        over the same channels as originated traffic: row ``rank`` of the
        next-hop table.
        """
        return set(self.next_hops(rank).tolist()) - {rank}

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise RoutingError(f"rank {rank} out of range [0, {self.num_ranks})")


class DirectTopology(Topology):
    """All-to-all: every pair of ranks is a channel (the dense baseline)."""

    name = "direct"

    def next_hop(self, current: int, dest: int) -> int:
        self._check(current)
        self._check(dest)
        return dest

    def next_hops(self, rank: int) -> np.ndarray:
        self._check(rank)
        return np.arange(self.num_ranks, dtype=np.int64)


def _balanced_factors(p: int, ndim: int) -> tuple[int, ...]:
    """Factor ``p`` into ``ndim`` near-equal factors (largest last)."""
    dims = []
    remaining = p
    for i in range(ndim, 1, -1):
        target = round(remaining ** (1.0 / i))
        f = max(1, target)
        # search outward for a divisor
        best = 1
        for delta in range(remaining):
            for cand in (f - delta, f + delta):
                if 1 <= cand <= remaining and remaining % cand == 0:
                    best = cand
                    break
            else:
                continue
            break
        dims.append(best)
        remaining //= best
    dims.append(remaining)
    return tuple(sorted(dims))


class Grid2DTopology(Topology):
    """Two-hop row/column routing over an ``r x c`` grid of ranks.

    Rank ``k`` sits at ``(k // c, k % c)``.  A message travels first within
    the sender's row to the destination's column, then within that column —
    so each rank keeps ``(c - 1) + (r - 1) = O(sqrt(p))`` channels and
    row-hop packets aggregate traffic for ``r`` final destinations.
    """

    name = "2d"

    def __init__(self, num_ranks: int, shape: tuple[int, int] | None = None) -> None:
        super().__init__(num_ranks)
        if shape is None:
            shape = _balanced_factors(num_ranks, 2)
        r, c = shape
        if r * c != num_ranks:
            raise RoutingError(f"grid {r}x{c} does not cover {num_ranks} ranks")
        self.rows, self.cols = int(r), int(c)

    def next_hop(self, current: int, dest: int) -> int:
        self._check(current)
        self._check(dest)
        if current == dest:
            return dest
        row_cur, col_cur = current // self.cols, current % self.cols
        col_dst = dest % self.cols
        if col_cur != col_dst:
            return row_cur * self.cols + col_dst  # row move to dest's column
        return dest  # column move

    def next_hops(self, rank: int) -> np.ndarray:
        self._check(rank)
        dest = np.arange(self.num_ranks, dtype=np.int64)
        col_dst = dest % self.cols
        row_move = (rank // self.cols) * self.cols + col_dst
        return np.where(col_dst != rank % self.cols, row_move, dest)


class Grid3DTopology(Topology):
    """Three-hop routing over an ``x * y * z`` grid, mirroring BG/P's torus.

    Rank ``k`` sits at ``(k // (ny*nz), (k // nz) % ny, k % nz)``.  Routing
    corrects the z coordinate first, then y, then x, so each rank keeps
    ``(nz - 1) + (ny - 1) + (nx - 1) = O(p^(1/3))`` channels.
    """

    name = "3d"

    def __init__(self, num_ranks: int, shape: tuple[int, int, int] | None = None) -> None:
        super().__init__(num_ranks)
        if shape is None:
            shape = _balanced_factors(num_ranks, 3)
        nx, ny, nz = shape
        if nx * ny * nz != num_ranks:
            raise RoutingError(f"grid {nx}x{ny}x{nz} does not cover {num_ranks} ranks")
        self.nx, self.ny, self.nz = int(nx), int(ny), int(nz)

    def coords(self, rank: int) -> tuple[int, int, int]:
        """``(x, y, z)`` of a rank."""
        self._check(rank)
        return rank // (self.ny * self.nz), (rank // self.nz) % self.ny, rank % self.nz

    def _rank(self, x: int, y: int, z: int) -> int:
        return (x * self.ny + y) * self.nz + z

    def next_hop(self, current: int, dest: int) -> int:
        self._check(current)
        self._check(dest)
        if current == dest:
            return dest
        cx, cy, cz = self.coords(current)
        dx, dy, dz = self.coords(dest)
        if cz != dz:
            return self._rank(cx, cy, dz)
        if cy != dy:
            return self._rank(cx, dy, cz)
        return dest

    def next_hops(self, rank: int) -> np.ndarray:
        cx, cy, cz = self.coords(rank)
        dest = np.arange(self.num_ranks, dtype=np.int64)
        dy, dz = (dest // self.nz) % self.ny, dest % self.nz
        return np.where(dz != cz, self._rank(cx, cy, dz),
                        np.where(dy != cy, self._rank(cx, dy, cz), dest))


class HypercubeTopology(Topology):
    """Dimension-ordered hypercube routing (the Active Pebbles comparison).

    Section VIII-A's related work (Willcock et al.) routes active messages
    "through a synthetic *hypercube* network".  Each rank keeps one channel
    per address bit (``log2 p`` channels); a message corrects differing
    address bits from least to most significant, taking up to ``log2 p``
    hops.  The rank count must be a power of two.
    """

    name = "hypercube"

    def __init__(self, num_ranks: int) -> None:
        super().__init__(num_ranks)
        if num_ranks & (num_ranks - 1):
            raise RoutingError(
                f"hypercube routing needs a power-of-two rank count, got {num_ranks}"
            )
        self.dimensions = num_ranks.bit_length() - 1

    def next_hop(self, current: int, dest: int) -> int:
        self._check(current)
        self._check(dest)
        diff = current ^ dest
        if diff == 0:
            return dest
        lowest = diff & -diff  # lowest differing bit
        return current ^ lowest

    def next_hops(self, rank: int) -> np.ndarray:
        self._check(rank)
        diff = rank ^ np.arange(self.num_ranks, dtype=np.int64)
        return rank ^ (diff & -diff)


def make_topology(name: str, num_ranks: int) -> Topology:
    """Factory: ``"direct"``, ``"2d"``, ``"3d"`` or ``"hypercube"``."""
    if name == "direct":
        return DirectTopology(num_ranks)
    if name == "2d":
        return Grid2DTopology(num_ranks)
    if name == "3d":
        return Grid3DTopology(num_ranks)
    if name == "hypercube":
        return HypercubeTopology(num_ranks)
    raise RoutingError(f"unknown topology {name!r}")


def max_channels(topology: Topology) -> int:
    """Largest per-rank channel count — the scaling quantity the routed
    mailbox is designed to bound."""
    return max(len(topology.channels(r)) for r in range(topology.num_ranks))


def mean_hops(topology: Topology) -> float:
    """Average route length over all ordered rank pairs."""
    p = topology.num_ranks
    if p == 1:
        return 0.0
    total = sum(
        topology.num_hops(s, d) for s in range(p) for d in range(p) if s != d
    )
    return total / (p * (p - 1))
