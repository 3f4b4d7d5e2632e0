"""Unit tests for the PR-5 batch kernels: the bulk CSR membership /
suffix-expansion primitives, within-batch arrival indexing, multi-payload
``VisitorBatch`` columns, and the counting state-array blocks' sequential
equivalence to the object path's one-at-a-time ``pre_visit``."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.algorithms.kcore import KCoreState, KCoreStateArrays, KCoreVisitor
from repro.algorithms.pagerank import PageRankStateArrays
from repro.core.batch import VisitorBatch, occurrence_counts
from repro.graph.csr import CSR

edge_lists = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=0, max_size=60
)


def _csr(pairs, num_rows=13):
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return CSR.from_edges(src, dst, num_rows=num_rows)


class TestBulkCSRKernels:
    @given(edge_lists, st.lists(st.tuples(st.integers(0, 12), st.integers(0, 14)),
                                min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_has_edges_matches_membership(self, pairs, queries):
        csr = _csr(pairs)
        edge_set = set(pairs)
        sources = np.array([q[0] for q in queries], dtype=np.int64)
        targets = np.array([q[1] for q in queries], dtype=np.int64)
        got = csr.has_edges(sources, targets)
        expect = [(s, t) in edge_set for s, t in queries]
        assert got.tolist() == expect

    @given(edge_lists, st.lists(st.tuples(st.integers(0, 12), st.integers(-1, 14)),
                                min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_row_suffix_above_matches_scan(self, pairs, queries):
        csr = _csr(pairs)
        sources = np.array([q[0] for q in queries], dtype=np.int64)
        bounds = np.array([q[1] for q in queries], dtype=np.int64)
        starts, lens = csr.row_suffix_above(sources, bounds)
        for (s, b), start, length in zip(queries, starts, lens, strict=False):
            expect = [w for w in csr.neighbors(s).tolist() if w > b]
            got = csr.cols[start:start + length].tolist()
            assert got == expect

    def test_has_edges_empty_rows(self):
        csr = _csr([(0, 1)])
        got = csr.has_edges(np.array([5, 0]), np.array([1, 1]))
        assert got.tolist() == [False, True]

    def test_scalar_has_edge_delegates_to_bulk(self):
        # The object path's closing-edge check rides the same kernel.
        csr = _csr([(0, 3), (0, 7)])
        assert csr.has_edge(0, 3) and not csr.has_edge(0, 5)


class TestOccurrenceCounts:
    @given(st.lists(st.integers(0, 5), min_size=0, max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive(self, values):
        arr = np.asarray(values, dtype=np.int64)
        got = occurrence_counts(arr)
        expect = [values[:i].count(v) for i, v in enumerate(values)]
        assert got.tolist() == expect


class TestVisitorBatchExtras:
    def _batch(self):
        return VisitorBatch(
            np.arange(7), np.arange(7) * 2, None,
            (np.arange(7) + 100, np.arange(7) - 50),
        )

    def test_take_slice_split_concat_keep_columns_aligned(self):
        b = self._batch()
        sub = b.take(np.array([True, False, True, True, False, True, True]))
        assert sub.extras[0].tolist() == [100, 102, 103, 105, 106]
        assert sub.extras[1].tolist() == [-50, -48, -47, -45, -44]
        head, tail = b.split(4)
        back = VisitorBatch.concat([head, tail])
        for j in range(2):
            assert np.array_equal(back.extras[j], b.extras[j])
        assert back.parents is None
        window = b.slice(2, 5)
        assert window.extras[0].tolist() == [102, 103, 104]


def _kcore_sequential(k, kcores, idx):
    """Reference: the object path's counting pre_visit, one arrival at a
    time, against scalar KCoreState blocks."""
    states = [KCoreState(c) for c in kcores]
    visitor = KCoreVisitor(0, k)
    return [visitor.pre_visit(states[i]) for i in idx], states


class TestKCoreStateArrays:
    @given(st.integers(1, 4),
           st.lists(st.integers(0, 3), min_size=1, max_size=30),
           st.lists(st.integers(1, 6), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_previsit(self, k, idx, degrees):
        kcores = [max(d, k) for d in degrees]  # live invariant: kcore >= k
        expect_mask, states = _kcore_sequential(k, kcores, idx)
        arrays = KCoreStateArrays(k, np.asarray(kcores, dtype=np.int64))
        batch = VisitorBatch(np.asarray(idx), np.zeros(len(idx), dtype=np.int64))
        got = arrays.previsit_batch(np.asarray(idx, dtype=np.int64), batch)
        assert got.tolist() == expect_mask
        assert arrays.alive.tolist() == [s.alive for s in states]
        assert arrays.kcore.tolist() == [s.kcore for s in states]

    @given(st.integers(1, 4),
           st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=20),
                    min_size=2, max_size=6),
           st.lists(st.integers(1, 8), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_batch_sequence_matches_sequential_previsit(self, k, batches, degrees):
        """Later batches meet dead vertices and counters earlier batches
        already decremented; each batch's mask and the final arrays must
        match one-at-a-time pre-visits over the concatenated arrivals."""
        kcores = [max(d, k) for d in degrees]
        flat = [i for b in batches for i in b]
        expect_mask, states = _kcore_sequential(k, kcores, flat)
        arrays = KCoreStateArrays(k, np.asarray(kcores, dtype=np.int64))
        got = []
        for b in batches:
            idx = np.asarray(b, dtype=np.int64)
            batch = VisitorBatch(idx, np.zeros(idx.size, dtype=np.int64))
            got.extend(arrays.previsit_batch(idx, batch).tolist())
        assert got == expect_mask
        assert arrays.alive.tolist() == [s.alive for s in states]
        assert arrays.kcore.tolist() == [s.kcore for s in states]

    def test_snapshot_restore_roundtrip(self):
        arrays = KCoreStateArrays(2, np.array([3, 2, 5], dtype=np.int64))
        snap = arrays.snapshot()
        batch = VisitorBatch(np.array([1, 1]), np.zeros(2, dtype=np.int64))
        arrays.previsit_batch(np.array([1, 1]), batch)
        assert not arrays.alive[1]
        arrays.restore(snap)
        assert arrays.alive.tolist() == [True, True, True]
        assert arrays.kcore.tolist() == [3, 2, 5]


class TestPageRankStateArrays:
    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 2.0, width=32)),
                    min_size=1, max_size=30),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_previsit(self, arrivals, gated):
        threshold = 0.5
        idx = np.array([a[0] for a in arrivals], dtype=np.int64)
        amounts = np.array([a[1] for a in arrivals], dtype=np.float64)
        # Reference: accumulate one arrival at a time with Python floats
        # (IEEE doubles, so bit-identical to the object path).
        residual = [0.0] * 4
        expect = []
        for i, a in zip(idx.tolist(), amounts.tolist(), strict=False):
            residual[i] += a
            expect.append((not gated) or residual[i] >= threshold)
        arrays = PageRankStateArrays(np.full(4, gated), threshold)
        batch = VisitorBatch(idx, amounts)
        got = arrays.previsit_batch(idx, batch)
        assert got.tolist() == expect
        assert arrays.residual.tolist() == residual  # exact float equality

    def test_snapshot_restore_roundtrip(self):
        arrays = PageRankStateArrays(np.array([False, True]), 0.5)
        snap = arrays.snapshot()
        batch = VisitorBatch(np.array([0]), np.array([1.0]))
        arrays.previsit_batch(np.array([0]), batch)
        assert arrays.residual[0] == 1.0
        arrays.restore(snap)
        assert arrays.residual.tolist() == [0.0, 0.0]
