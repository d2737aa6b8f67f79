from __future__ import annotations

import itertools

import numpy as np
import pytest

from cfcoherency import CoherencyDistanceMatrix, upgma_tree


def matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or [f"d{i}" for i in range(values.shape[0])]
    return CoherencyDistanceMatrix(values, labels)


def block_matrix():
    # two tight groups with within-distance 0.01 and cross-distance 1.0
    d = np.full((5, 5), 1.0)
    for i, j in itertools.product(range(3), range(3)):
        d[i, j] = 0.0 if i == j else 0.01
    for i, j in itertools.product(range(3, 5), range(3, 5)):
        d[i, j] = 0.0 if i == j else 0.01
    np.fill_diagonal(d, 0.0)
    return matrix(d, ["a", "b", "c", "x", "y"])


class TestUpgma:
    def test_singletons_cut(self):
        m = block_matrix()
        groups = upgma_tree(m).cut(5)
        assert sorted(map(tuple, map(sorted, groups))) == [("a",), ("b",), ("c",), ("x",), ("y",)]

    def test_single_group_cut(self):
        groups = upgma_tree(block_matrix()).cut(1)
        assert groups[0] == {"a", "b", "c", "x", "y"}

    def test_two_blocks(self):
        groups = upgma_tree(block_matrix()).cut(2)
        assert groups == [{"a", "b", "c"}, {"x", "y"}]

    def test_heights_nondecreasing(self):
        base = np.array(
            [
                [0.0, 0.3, 0.8, 0.9, 0.2],
                [0.3, 0.0, 0.7, 0.85, 0.4],
                [0.8, 0.7, 0.0, 0.1, 0.75],
                [0.9, 0.85, 0.1, 0.0, 0.95],
                [0.2, 0.4, 0.75, 0.95, 0.0],
            ]
        )
        tree = upgma_tree(matrix(base))
        heights = [height for _, _, height in tree.merges]
        assert all(h1 <= h2 + 1e-15 for h1, h2 in zip(heights, heights[1:]))

    def test_average_linkage_height_is_mean_pairwise(self):
        d = np.array(
            [
                [0.0, 0.1, 1.0, 1.2],
                [0.1, 0.0, 0.9, 1.1],
                [1.0, 0.9, 0.0, 0.2],
                [1.2, 1.1, 0.2, 0.0],
            ]
        )
        tree = upgma_tree(matrix(d))
        # final merge joins {0,1} with {2,3}: height is the mean of the four
        # cross distances
        assert tree.merges[-1][2] == pytest.approx((1.0 + 1.2 + 0.9 + 1.1) / 4)

    def test_deterministic_tie_break(self):
        # all distances equal: merges must proceed by lowest cluster ids
        d = np.ones((4, 4)) - np.eye(4)
        tree = upgma_tree(matrix(d))
        assert tree.merges[0][:2] == (0, 1)
        assert tree.merges[1][:2] == (2, 3)

    def test_label_permutation_invariance(self):
        m = block_matrix()
        groups = {frozenset(g) for g in upgma_tree(m).cut(2)}
        perm = [4, 2, 0, 3, 1]
        permuted = matrix(m.values[np.ix_(perm, perm)], [m.labels[i] for i in perm])
        groups_p = {frozenset(g) for g in upgma_tree(permuted).cut(2)}
        assert groups == groups_p

    def test_cut_bounds(self):
        tree = upgma_tree(block_matrix())
        with pytest.raises(ValueError):
            tree.cut(0)
        with pytest.raises(ValueError):
            tree.cut(6)
