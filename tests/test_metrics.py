"""Purity and marking cost, including the closed-form/raw-cost identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gssf.metrics import evaluate, marking_cost, marking_cost_raw, purity

HAND_LABELS = [0, 0, 0, 1, 1, 1]
HAND_CATS = ["a", "a", "b", "b", "b", "b"]

labelings = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 7), min_size=n, max_size=n),
        st.lists(st.sampled_from(["u", "v", "w", "x"]), min_size=n, max_size=n),
    )
)


class TestPurity:
    def test_hand_fixture(self):
        assert purity(HAND_LABELS, HAND_CATS) == pytest.approx(5 / 6, abs=1e-15)

    def test_pure_clusters(self):
        assert purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0

    def test_singletons_are_pure(self):
        cats = ["a", "b", "a", "c", "b"]
        assert purity(list(range(5)), cats) == 1.0

    @given(labelings)
    @settings(max_examples=80, deadline=None)
    def test_range_and_pure_iff_single_category(self, lc):
        labels, cats = lc
        p = purity(labels, cats)
        assert 0.0 < p <= 1.0
        single = all(
            len({c for l2, c in zip(labels, cats) if l2 == lab}) == 1
            for lab in set(labels)
        )
        assert (p == 1.0) == single


class TestMarkingCost:
    def test_hand_fixture_both_forms(self):
        assert marking_cost_raw(HAND_LABELS, HAND_CATS, time_unit=1.0, alpha=1.0) == 9.0
        assert marking_cost(HAND_LABELS, HAND_CATS) == pytest.approx(0.75, abs=1e-12)

    def test_pure_cluster_raw_cost(self):
        # one pure cluster of size n costs n*alpha*T + T
        assert marking_cost_raw([0] * 7, ["a"] * 7, time_unit=2.0, alpha=0.5) == 7 * 0.5 * 2 + 2

    def test_worst_case_every_answer_alone(self):
        n = 23
        labels = list(range(n))
        cats = ["a"] * n
        assert marking_cost_raw(labels, cats) == 2 * n
        assert marking_cost(labels, cats) == 1.0

    def test_single_cluster_single_category(self):
        n = 10
        assert marking_cost([0] * n, ["a"] * n) == pytest.approx(1 / (2 * n) + 0.5, abs=1e-15)

    @given(labelings)
    @settings(max_examples=120, deadline=None)
    def test_closed_form_equals_normalized_raw(self, lc):
        labels, cats = lc
        h = len(labels)
        closed = marking_cost(labels, cats)
        raw = marking_cost_raw(labels, cats, time_unit=1.0, alpha=1.0)
        assert closed == pytest.approx(raw / (2 * h), abs=1e-12)
        assert 0.0 < closed <= 1.0

    def test_mc_decreases_as_purity_increases(self):
        # same K and H, better majority overlap
        low = marking_cost([0, 0, 1, 1], ["a", "b", "a", "b"])
        high = marking_cost([0, 0, 1, 1], ["a", "a", "b", "b"])
        assert high < low


class TestRenamingInvariance:
    @given(labelings)
    @settings(max_examples=60, deadline=None)
    def test_bijective_renaming(self, lc):
        labels, cats = lc
        relabel = {lab: 100 - lab for lab in set(labels)}
        recat = {c: c * 2 for c in set(cats)}
        labels2 = [relabel[x] for x in labels]
        cats2 = [recat[c] for c in cats]
        assert purity(labels, cats) == purity(labels2, cats2)
        assert marking_cost(labels, cats) == marking_cost(labels2, cats2)


@st.composite
def relabelled(draw):
    """A labelling, a permutation of its answers and an injective renaming
    of its cluster labels."""
    labels, cats = draw(labelings)
    order = draw(st.permutations(range(len(labels))))
    names = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8,
                          unique=True))
    return labels, cats, order, names


@st.composite
def pure_labelings(draw):
    """Labels that never mix categories: each category's answers split over
    clusters of their own."""
    cats = draw(st.lists(st.sampled_from(["u", "v", "w", "x"]), min_size=1, max_size=60))
    parts = draw(st.lists(st.integers(0, 2), min_size=len(cats), max_size=len(cats)))
    return [3 * "uvwx".index(c) + part for c, part in zip(cats, parts)], cats


class TestIdentities:
    @given(relabelled())
    @settings(max_examples=100, deadline=None)
    def test_invariant_to_renaming_and_order(self, case):
        labels, cats, order, names = case
        renamed = [names[x] for x in labels]
        shuffled = ([labels[i] for i in order], [cats[i] for i in order])
        ev = evaluate(labels, cats)
        assert evaluate(*shuffled) == ev
        assert purity(*shuffled) == purity(labels, cats)
        assert marking_cost(*shuffled) == marking_cost(labels, cats)
        ev_renamed = evaluate(renamed, cats)
        assert purity(renamed, cats) == purity(labels, cats) == ev_renamed["purity"]
        assert marking_cost(renamed, cats) == marking_cost(labels, cats) == ev_renamed["mc"]
        assert ev_renamed["j"] == ev["j"]
        by_label = dict(zip(sorted(set(labels)), ev["per_cluster"]))
        assert ev_renamed["per_cluster"] == [by_label[lab] for lab in
                                             sorted(set(labels), key=names.__getitem__)]

    @given(labelings)
    @settings(max_examples=100, deadline=None)
    def test_mc_closed_form(self, lc):
        labels, cats = lc
        k, h = len(set(labels)), len(labels)
        assert marking_cost(labels, cats) == pytest.approx(
            k / (2 * h) + 1 - purity(labels, cats) / 2, abs=1e-15)

    @given(pure_labelings())
    @settings(max_examples=100, deadline=None)
    def test_pure_clusters_have_purity_one(self, lc):
        labels, cats = lc
        ev = evaluate(labels, cats)
        assert purity(labels, cats) == ev["purity"] == 1.0
        assert all(c["majority_size"] == c["size"] for c in ev["per_cluster"])


class TestEvaluate:
    def test_per_cluster_breakdown(self):
        ev = evaluate(HAND_LABELS, HAND_CATS)
        assert set(ev) == {"purity", "mc", "j", "per_cluster"}
        assert ev["j"] == 2 and len(ev["per_cluster"]) == 2
        assert ev["per_cluster"] == [
            {"size": 3, "majority_category": "a", "majority_size": 2},
            {"size": 3, "majority_category": "b", "majority_size": 3}]
        assert ev["purity"] == pytest.approx(5 / 6)
        assert ev["mc"] == pytest.approx(0.75, abs=1e-12)

    def test_majority_tie_reports_lexicographically_smallest(self):
        ev = evaluate([0, 0], ["b", "a"])
        assert ev["per_cluster"][0]["majority_category"] == "a"
        assert ev["per_cluster"][0]["majority_size"] == 1

    def test_per_cluster_ordered_by_integer_label(self):
        """Cluster 10 comes after cluster 9, not after cluster 1."""
        labels = [label for label in range(12) for _ in range(label + 1)]
        ev = evaluate(labels, [f"c{label}" for label in labels])
        assert [c["majority_category"] for c in ev["per_cluster"]] == [
            f"c{label}" for label in range(12)]
        assert [c["size"] for c in ev["per_cluster"]] == list(range(1, 13))

    def test_invariant_sizes_sum_to_h(self):
        ev = evaluate([0, 1, 1, 2, 2, 2], list("abcabc"))
        assert sum(r["size"] for r in ev["per_cluster"]) == 6
        assert all(r["majority_size"] <= r["size"] for r in ev["per_cluster"])

