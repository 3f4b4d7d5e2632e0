"""Tests for ghost-vertex selection.  The ghost filter itself is
``GhostArrayTable`` (tests/core/test_batch.py, tests/core/test_object_adapter.py)."""

import numpy as np
import pytest

from repro.graph.ghosts import select_ghost_candidates


def _owners(n, value=99):
    """min_owners array where nothing is locally mastered by rank 0."""
    return np.full(n, value, dtype=np.int64)


class TestSelection:
    def test_top_k_by_local_indegree(self):
        targets = np.array([5, 5, 5, 3, 3, 7])
        got = select_ghost_candidates(
            targets, num_ghosts=2, rank=0, min_owners=_owners(8)
        )
        assert list(got) == [5, 3]  # 7 appears once -> ineligible

    def test_min_local_indegree_filter(self):
        targets = np.array([1, 2, 3])  # all singletons
        got = select_ghost_candidates(
            targets, num_ghosts=3, rank=0, min_owners=_owners(4)
        )
        assert got.size == 0

    def test_local_masters_excluded(self):
        targets = np.array([4, 4, 4, 6, 6])
        owners = _owners(8)
        owners[4] = 0  # rank 0 masters vertex 4 -> no ghost needed
        got = select_ghost_candidates(targets, num_ghosts=4, rank=0, min_owners=owners)
        assert list(got) == [6]

    def test_budget_respected(self):
        targets = np.repeat(np.arange(10), 3)
        got = select_ghost_candidates(
            targets, num_ghosts=4, rank=0, min_owners=_owners(10)
        )
        assert got.size == 4

    def test_deterministic_tie_break(self):
        targets = np.array([2, 2, 9, 9, 5, 5])
        got = select_ghost_candidates(
            targets, num_ghosts=2, rank=0, min_owners=_owners(10)
        )
        assert list(got) == [2, 5]  # equal counts -> ascending vertex id

    def test_zero_budget(self):
        got = select_ghost_candidates(
            np.array([1, 1]), num_ghosts=0, rank=0, min_owners=_owners(2)
        )
        assert got.size == 0

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            select_ghost_candidates(
                np.array([1]), num_ghosts=-1, rank=0, min_owners=_owners(2)
            )

    def test_empty_targets(self):
        got = select_ghost_candidates(
            np.array([], dtype=np.int64), num_ghosts=5, rank=0, min_owners=_owners(2)
        )
        assert got.size == 0
