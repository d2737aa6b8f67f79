from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from cfcoherency import CfSeries, CoherencyDistanceMatrix, distance_matrix, upgma_tree


def matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or [f"d{i}" for i in range(values.shape[0])]
    return CoherencyDistanceMatrix(values, labels)


def mean_linkage_merges(d0):
    """Reference UPGMA: every merge takes the mean over the leaf pairs of
    every cluster pair, scanned in id order, so ties go to the smallest pair
    of cluster ids."""
    n = d0.shape[0]
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        ids = sorted(clusters)
        for ii, ca in enumerate(ids):
            for cb in ids[ii + 1 :]:
                dist = float(d0[np.ix_(clusters[ca], clusters[cb])].mean())
                if best is None or dist < best[0]:
                    best = (dist, ca, cb)
        dist, ca, cb = best
        clusters[next_id] = clusters.pop(ca) + clusters.pop(cb)
        merges.append((ca, cb, dist))
        next_id += 1
    return merges


def random_matrix(rng, n):
    x = rng.standard_normal((n, 3))
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))


def integer_ultrametric(rng, n):
    """Distances set by random merges at integer levels with repeats: every
    cluster mean is an exact integer and most pairs tie."""
    d = np.zeros((n, n))
    members = [[i] for i in rng.permutation(n)]
    level = 0
    while len(members) > 1:
        level += int(rng.integers(0, 2))  # levels repeat about half the time
        a, b = sorted(rng.choice(len(members), 2, replace=False))
        left, right = members[a], members.pop(b)
        d[np.ix_(left, right)] = d[np.ix_(right, left)] = level + 1
        left += right
    return d


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


class TestAgainstReferences:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_matrices_match_mean_linkage(self, seed):
        rng = np.random.default_rng(seed)
        d = random_matrix(rng, int(rng.integers(2, 41)))
        got = upgma_tree(matrix(d)).merges
        want = mean_linkage_merges(d)
        assert [m[:2] for m in got] == [m[:2] for m in want]
        heights = np.array([[g[2], w[2]] for g, w in zip(got, want)])
        assert np.all(np.abs(heights[:, 0] - heights[:, 1]) <= 1e-12 * heights[:, 1])

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_ties_break_like_mean_linkage(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = integer_ultrametric(rng, int(rng.integers(4, 31)))
        assert upgma_tree(matrix(d)).merges == mean_linkage_merges(d)

    @pytest.mark.parametrize("n", [2, 17, 120, 300])
    def test_heights_match_scipy_average_linkage(self, n):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        from scipy.spatial.distance import squareform

        d = random_matrix(np.random.default_rng(n), n)
        want = np.sort(hierarchy.linkage(squareform(d, checks=False), method="average")[:, 2])
        got = np.sort([h for _, _, h in upgma_tree(matrix(d)).merges])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestScaling:
    def test_thousand_series_recover_planted_groups(self):
        # 1000 CF series of 200 samples in 8 planted groups, like a fleet of
        # devices each following its group's damped mode with its own scale
        # and noise, listed in shuffled order
        rng = np.random.default_rng(11)
        t = np.arange(200) * 1e-3
        sizes = (250, 200, 150, 120, 100, 80, 60, 40)
        rows = []
        for g, size in enumerate(sizes):
            decay = rng.uniform(2.0, 10.0)
            freq = 2.0 * np.pi * (5.0 + 4.0 * g + rng.uniform(0.0, 2.0))
            phase = rng.uniform(0.0, 2.0 * np.pi, 2)
            mode = 1e-2 * np.exp(-decay * t) * (
                np.cos(freq * t + phase[0]) + 1j * np.sin(freq * t + phase[1])
            )
            for m, scale in enumerate(rng.uniform(0.95, 1.05, size)):
                noise = 1e-5 * (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
                rows.append((f"S{g}_{m}", 1j + scale * mode + noise))
        cfs = {name: CfSeries(t, values) for name, values in
               (rows[i] for i in rng.permutation(len(rows)))}

        start = time.perf_counter()
        groups = upgma_tree(distance_matrix(cfs, (0.0, t[-1]))).cut(len(sizes))
        elapsed = time.perf_counter() - start
        planted = {frozenset(n for n in cfs if n.startswith(f"S{g}_")) for g in range(len(sizes))}
        assert {frozenset(g) for g in groups} == planted
        assert elapsed < 30.0, f"{elapsed:.1f} s for 1000 series"
