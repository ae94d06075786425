"""k-means (with spread seeding) and complete-linkage agglomeration."""

import itertools

import numpy as np
import pytest

from gssf import cluster
from gssf.cluster import (Assignment, complete_linkage,
                          euclidean_distance_matrix, gssf_distance_matrix, kmeans,
                          kmeans_pp_init, kmeans_single)
from gssf.sbr import build_sbr_matrix
from gssf.similarity import SimilarityKind


def partition_key(labels):
    """Order-free canonical form of a clustering, for label-free comparison."""
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def naive_complete_linkage(dist, k):
    """Independent oracle: recompute every cluster-pair maximum from scratch."""
    clusters = [[i] for i in range(len(dist))]
    while len(clusters) > k:
        best = None
        for a, b in itertools.combinations(range(len(clusters)), 2):
            d = max(dist[i][j] for i in clusters[a] for j in clusters[b])
            key = (d, min(clusters[a]), min(clusters[b]))
            if best is None or key < best[0]:
                best = (key, a, b)
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    labels = [0] * len(dist)
    for lab, members in enumerate(sorted(clusters, key=min)):
        for i in members:
            labels[i] = lab
    return labels


def loop_complete_linkage(d, k):
    """Oracle: the pairwise-scan linkage that ran before the masked argmin."""
    n = len(d)
    cur = d.copy()
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    alive = sorted(members)
    for _ in range(n - k):
        best = (np.inf, -1, -1)
        for ai in range(len(alive)):
            i = alive[ai]
            for j in alive[ai + 1 :]:
                cand = (cur[i, j], i, j)
                if cand < best:
                    best = cand
        _, i, j = best
        members[i].extend(members[j])
        del members[j]
        alive.remove(j)
        for m in alive:
            if m != i:
                merged = max(cur[i, m], cur[j, m])
                cur[i, m] = cur[m, i] = merged
    labels = [0] * n
    for cluster_label, root in enumerate(sorted(members)):
        for point in members[root]:
            labels[point] = cluster_label
    return labels


def loop_euclidean_values(rows):
    """Oracle: the pairwise double loop that filled the Euclidean matrix."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.sqrt(((rows[i] - rows[j]) ** 2).sum()))
            values[i, j] = values[j, i] = dist
    return values


def broadcast_squared_distances(rows, centroids):
    """Oracle: the one-shot form k-means used, with an (N, k, D) temporary."""
    return ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def random_distances(rng, n, ties):
    """Symmetric zero-diagonal distances; ``ties`` draws from {0, 1, 2, 3}."""
    raw = rng.integers(0, 4, (n, n)).astype(float) if ties else rng.uniform(0, 1, (n, n))
    d = np.triu(raw, 1)
    return d + d.T


def brute_force_kmeans_objective(rows, k):
    """Exhaustive minimum over every k-partition (tiny inputs only)."""
    n = len(rows)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        cost = 0.0
        for c in range(k):
            members = rows[[i for i in range(n) if labels[i] == c]]
            centroid = members.mean(axis=0)
            cost += ((members - centroid) ** 2).sum()
        best = min(best, cost)
    return best


FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


class TestKmeansPlusPlusInit:
    def test_k1_returns_an_input_row(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        c = kmeans_pp_init(rows, 1, np.random.default_rng(0))
        assert any(np.array_equal(c[0], r) for r in rows)

    def test_identical_rows_fallback(self):
        rows = np.ones((4, 2))
        c = kmeans_pp_init(rows, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(c[0], [1.0, 1.0])
        np.testing.assert_array_equal(c[1], [1.0, 1.0])

    def test_squared_distance_seeding_frequencies(self):
        # rows {0, 1, 10}: conditioned on first pick 0, the second pick must
        # follow d^2 weights 1:100
        rows = np.array([[0.0], [1.0], [10.0]])
        picks = {1.0: 0, 10.0: 0}
        conditioned = 0
        for seed in range(10000):
            c = kmeans_pp_init(rows, 2, np.random.default_rng(seed))
            if c[0, 0] == 0.0:
                conditioned += 1
                picks[float(c[1, 0])] += 1
        assert conditioned > 2000
        assert picks[1.0] / conditioned == pytest.approx(1 / 101, abs=0.02)
        assert picks[10.0] / conditioned == pytest.approx(100 / 101, abs=0.02)


class TestKmeans:
    def test_four_point_fixture_matches_brute_force(self):
        a = kmeans(FOUR_POINTS, 2, seed=0)
        assert a.objective == pytest.approx(brute_force_kmeans_objective(FOUR_POINTS, 2))
        assert a.objective == pytest.approx(1.0)
        assert partition_key(a.labels) == partition_key([0, 0, 1, 1])

    def test_k_equals_n(self):
        a = kmeans(FOUR_POINTS, 4, seed=0)
        assert sorted(a.labels) == [0, 1, 2, 3]
        assert a.objective == 0.0

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(0, 1, (40, 3))
        for seed in range(5):
            _, objectives = kmeans_single(rows, 5, np.random.default_rng(seed))
            assert all(a >= b - 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(0, 1, (30, 4))
        a = kmeans(rows, 4, seed=3, restarts=5)
        b = kmeans(rows, 4, seed=3, restarts=5)
        assert a.labels == b.labels and a.objective == b.objective

    def test_empty_cluster_repair_keeps_k(self):
        # one far outlier and many coincident points force empty clusters
        rows = np.vstack([np.zeros((6, 2)), [[100.0, 0.0]]])
        a = kmeans(rows, 3, seed=0)
        assert a.k == 3
        assert max(a.labels) <= 2

    def test_two_empty_clusters_in_one_iteration(self, monkeypatch):
        # Two seeds far from every row leave clusters 2 and 3 empty in the
        # first iteration; they seize rows 7 and 8, the two farthest from
        # their centroids, in that order. The expected labels and objective
        # log are those of the per-cluster rescan this repair replaced.
        rows = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0], [4.0, 4.0], [5.0, 3.5],
                         [9.0, 1.0], [8.5, 0.0], [3.0, 7.0], [2.5, 6.0]])
        seeds = np.array([rows[0], rows[5], [50.0, 50.0], [-40.0, 60.0]])
        monkeypatch.setattr("gssf.cluster.kmeans_pp_init", lambda r, k, rng: seeds.copy())
        a, objectives = kmeans_single(rows, 4, np.random.default_rng(0))
        assert a.labels == [0, 0, 0, 3, 3, 1, 1, 2, 2]
        assert objectives == [161.25, 46.61805555555556, 31.965, 16.546875, 4.541666666666666]


class TestSquaredDistances:
    @pytest.mark.parametrize("case", ["random", "duplicates", "k_equals_n"])
    def test_bit_equal_to_broadcast_oracle(self, case, monkeypatch):
        """The per-centroid distances equal the broadcast form bit for bit, so
        k-means runs the same Lloyd iterations with either."""
        rng = np.random.default_rng(12)
        rows = rng.normal(0, 1, (121, 38))
        k = 7
        if case == "duplicates":
            rows = rows[rng.integers(0, 5, len(rows))]
        elif case == "k_equals_n":
            rows, k = rows[:30], 30
        centroids = rows[rng.choice(len(rows), k, replace=False)] + rng.normal(0, 0.1, (k, 38))
        assert np.array_equal(cluster._squared_distances(rows, centroids),
                              broadcast_squared_distances(rows, centroids))
        got = kmeans_single(rows, k, np.random.default_rng(3))
        monkeypatch.setattr(cluster, "_squared_distances", broadcast_squared_distances)
        want = kmeans_single(rows, k, np.random.default_rng(3))
        assert got[0] == want[0] and got[1] == want[1]


class TestCompleteLinkage:
    def test_two_group_fixture(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        a = complete_linkage(np.abs(pts - pts.T), 2)
        assert partition_key(a.labels) == partition_key([0, 0, 1, 1])

    def test_k_equals_n_singletons(self):
        d = np.abs(np.arange(5.0)[:, None] - np.arange(5.0)[None, :])
        a = complete_linkage(d, 5)
        assert a.labels == [0, 1, 2, 3, 4]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0, 1, (10, 2))
        d = euclidean_distance_matrix(pts)
        base = complete_linkage(d, 3)
        scaled = complete_linkage(d * 17.0, 3)
        assert base.labels == scaled.labels

    def test_matches_naive_oracle_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            raw = rng.uniform(0, 1, (n, n))
            d = np.triu(raw, 1)
            d = d + d.T
            k = int(rng.integers(1, n + 1))
            ours = complete_linkage(d, k)
            theirs = naive_complete_linkage(d.tolist(), k)
            assert partition_key(ours.labels) == partition_key(theirs)


class TestLinkageAgainstLoopOracle:
    @pytest.mark.parametrize("ties", [False, True], ids=["tie-free", "integer"])
    def test_labels_equal_randomized(self, ties):
        rng = np.random.default_rng(11 if ties else 10)
        for _ in range(60):
            n = int(rng.integers(2, 61))
            d = random_distances(rng, n, ties)
            for k in sorted({1, int(rng.integers(1, n + 1)), n}):
                assert complete_linkage(d, k).labels == loop_complete_linkage(d, k)

    def test_all_equal_distances_merge_in_index_order(self):
        d = 1.0 - np.eye(6)
        assert complete_linkage(d, 3).labels == loop_complete_linkage(d, 3) == [0, 0, 0, 0, 1, 2]

    def test_labels_equal_at_300(self):
        d = random_distances(np.random.default_rng(12), 300, ties=True)
        assert complete_linkage(d, 7).labels == loop_complete_linkage(d, 7)

    def test_partition_matches_scipy_at_1000(self):
        pytest.importorskip("scipy")
        from scipy.cluster.hierarchy import cut_tree, linkage
        from scipy.spatial.distance import squareform

        d = random_distances(np.random.default_rng(13), 1000, ties=False)
        ours = complete_linkage(d, 9).labels
        theirs = cut_tree(linkage(squareform(d), "complete"), n_clusters=9)[:, 0]
        assert partition_key(ours) == partition_key(theirs.tolist())


def assert_distance_matrix(d, n):
    """What complete linkage needs of its input: square, finite, non-negative,
    a zero diagonal and bit-exact symmetry."""
    assert d.shape == (n, n)
    assert np.isfinite(d).all() and (d >= 0.0).all()
    np.testing.assert_array_equal(np.diag(d), np.zeros(n))
    assert np.array_equal(d, d.T)


class TestDistanceMatrices:
    def test_gssf_distance_absolute_value(self):
        d = gssf_distance_matrix(np.array([[0.0, -3.0], [-3.0, 0.0]]))
        np.testing.assert_array_equal(d, [[0.0, 3.0], [3.0, 0.0]])

    @pytest.mark.parametrize("kind", [SimilarityKind.GSSF, SimilarityKind.MIN,
                                      SimilarityKind.MAX])
    def test_gssf_distances_of_pinned_set(self, trained, benchmark_answers,
                                          benchmark_f_matrix, kind):
        params, _ = trained
        raw = build_sbr_matrix(benchmark_answers, kind, params, f=benchmark_f_matrix)
        assert_distance_matrix(gssf_distance_matrix(raw.values), len(benchmark_answers))

    @pytest.mark.parametrize("n,width", [(1, 3), (2, 1), (7, 1), (40, 5), (60, 1000)])
    def test_euclidean_matrix_bit_equal_to_loop(self, n, width):
        rows = np.random.default_rng(n * width).normal(0, 1, (n, width))
        assert np.array_equal(euclidean_distance_matrix(rows), loop_euclidean_values(rows))

    def test_euclidean_matrix_symmetric_zero_diag(self):
        rng = np.random.default_rng(9)
        for n, width in [(1, 4), (6, 3), (100, 100)]:
            rows = rng.uniform(0.0, 1.0, (n, width))
            assert_distance_matrix(euclidean_distance_matrix(rows), n)
