"""Clustering-based marking metrics: purity and normalized marking cost.

Purity is the fraction of samples that fall in their cluster's majority
category. The marking cost models a human marker verifying every answer in
each cluster and then marking the majority set once plus each minority
answer individually; normalized by the cost of marking every answer twice,
it reduces to K/(2H) + 1 - purity/2 when verification and marking take the
same time. Every function takes equally long, non-empty ``labels`` and
``categories``.
"""

from __future__ import annotations

from collections import Counter


def _cluster_majorities(labels, categories) -> dict[object, tuple[int, int, str]]:
    """Per cluster: (size, majority count, majority category id).

    Majority-count ties resolve to the lexicographically smallest category;
    the tie only affects which category is reported, never any cost."""
    counts: dict[object, Counter] = {}
    for label, cat in zip(labels, categories):
        counts.setdefault(label, Counter())[cat] += 1
    out = {}
    for label, counter in counts.items():
        best_cat = min(counter, key=lambda c: (-counter[c], str(c)))
        out[label] = (sum(counter.values()), counter[best_cat], str(best_cat))
    return out


def _purity(majorities, h: int) -> float:
    return sum(m for _, m, _ in majorities.values()) / h


def _marking_cost(majorities, h: int) -> float:
    return len(majorities) / (2 * h) + (1.0 - _purity(majorities, h) / 2.0)


def purity(labels, categories) -> float:
    """Sum over clusters of the majority-category overlap, divided by the
    sample count."""
    return _purity(_cluster_majorities(labels, categories), len(labels))


def marking_cost_raw(labels, categories, time_unit: float = 1.0, alpha: float = 1.0) -> float:
    """Total marking time: verifying every answer (alpha * T each) plus
    marking each cluster's majority set once and every minority answer;
    0 < alpha <= 1."""
    total = 0.0
    for size, majority, _ in _cluster_majorities(labels, categories).values():
        total += size * alpha * time_unit + (1 + size - majority) * time_unit
    return total


def marking_cost(labels, categories) -> float:
    """Normalized marking cost in (0, 1]: K/(2H) + 1 - purity/2."""
    return _marking_cost(_cluster_majorities(labels, categories), len(labels))


def evaluate(labels, categories) -> dict:
    """The evaluation block of ``report.json``: purity, marking cost, the
    category count ``j`` and the per-cluster breakdown, ordered by cluster label."""
    majorities = _cluster_majorities(labels, categories)
    return {
        "purity": _purity(majorities, len(labels)),
        "mc": _marking_cost(majorities, len(labels)),
        "j": len(set(categories)),
        "per_cluster": [
            {"size": size, "majority_category": cat, "majority_size": majority}
            for _, (size, majority, cat) in sorted(majorities.items())
        ],
    }
