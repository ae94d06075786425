"""Clustering backends: seeded k-means over representation rows and
complete-linkage agglomeration over a distance matrix."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_LLOYD_ITERATIONS = 300


@dataclass
class Assignment:
    """Cluster index per answer. ``objective`` is the k-means within-cluster
    sum of squared distances; linkage assignments carry 0.0."""

    labels: list[int]
    k: int
    objective: float


def kmeans_pp_init(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out seeding: first centroid uniform, then proportional to the
    squared distance to the nearest chosen centroid. When every remaining
    distance is zero, pick uniformly among unchosen rows. Needs float64
    ``rows`` and 1 <= k <= len(rows)."""
    n = rows.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((rows - rows[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total == 0.0:
            candidates = [i for i in range(n) if i not in chosen]
            pick = candidates[int(rng.integers(len(candidates)))]
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, ((rows - rows[pick]) ** 2).sum(axis=1))
    return rows[chosen].copy()


def _squared_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(N, k) squared Euclidean distances of every row to every centroid, one
    centroid at a time, so no (N, k, D) temporary is made."""
    d2 = np.empty((len(rows), len(centroids)))
    for c, centroid in enumerate(centroids):
        d2[:, c] = ((rows - centroid) ** 2).sum(axis=1)
    return d2


def kmeans_single(rows: np.ndarray, k: int, rng: np.random.Generator):
    """One seeded Lloyd run. Returns the assignment and the per-iteration
    objective log (non-increasing by construction)."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    centroids = kmeans_pp_init(rows, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    objectives: list[float] = []
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = _squared_distances(rows, centroids)
        new_labels = d2.argmin(axis=1)
        point_cost = d2[np.arange(n), new_labels]
        objectives.append(float(point_cost.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = rows[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        # Empty clusters, in ascending order, seize the points currently
        # farthest from their centroids.
        empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if len(empty):
            order = np.argsort(-point_cost, kind="stable")
            centroids[empty] = rows[order[:len(empty)]]
    return Assignment(labels=[int(x) for x in labels], k=k, objective=objectives[-1]), objectives


def kmeans(rows: np.ndarray, k: int, seed: int, restarts: int = 10) -> Assignment:
    """Best-of-``restarts`` seeded k-means; restart r uses generator seed+r,
    and ties on the objective keep the earlier restart. Needs
    1 <= k <= len(rows) and restarts >= 1."""
    best: Assignment | None = None
    for r in range(restarts):
        assignment, _ = kmeans_single(rows, k, np.random.default_rng(seed + r))
        if best is None or assignment.objective < best.objective:
            best = assignment
    return best


def complete_linkage(d: np.ndarray, k: int) -> Assignment:
    """Agglomerate singletons by repeatedly merging the two clusters with the
    smallest maximum pairwise member distance; distance ties break on the
    lexicographically smallest pair of cluster indices (a cluster's index is
    its smallest member). Stops at k clusters, 1 <= k <= len(d). ``d`` is a
    symmetric distance matrix with a zero diagonal."""
    n = len(d)
    cur = np.array(d, dtype=np.float64)
    np.fill_diagonal(cur, np.inf)
    root = np.arange(n)
    for _ in range(n - k):
        # The matrix is symmetric, so the first minimum in row-major order is
        # the lexicographically smallest pair (i, j), and it has i < j.
        i, j = divmod(int(cur.argmin()), n)
        cur[i] = cur[:, i] = np.maximum(cur[i], cur[j])
        cur[j] = cur[:, j] = np.inf
        root[root == j] = i
    labels = np.unique(root, return_inverse=True)[1].tolist()
    return Assignment(labels=labels, k=k, objective=0.0)


def euclidean_distance_matrix(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    values = np.zeros((n, n))
    for i in range(n - 1):
        values[i, i + 1:] = np.sqrt(((rows[i + 1:] - rows[i]) ** 2).sum(axis=1))
    return values + values.T


def save_assignment_csv(path: str | Path, assignment: Assignment, ids: list[str],
                        categories: list[str | None]) -> None:
    lines = ["id,cluster_label,category"]
    for sample_id, label, category in zip(ids, assignment.labels, categories):
        lines.append(f"{sample_id},{label},{category if category is not None else ''}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
