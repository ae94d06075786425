"""Cross-conditioned similarity scores, variants, and the edit-distance baseline."""

import functools
import itertools
import math

import numpy as np
import pytest

import gssf.similarity as similarity
from gssf.seq2seq import Annotations, ScoredDecode
from gssf.similarity import (COMBINE, DISTANCE_KINDS, GSSF_FAMILY, AnswerScoring,
                             SimilarityKind, UnscorableAnswer, conditional_score,
                             cross_score_matrix, edit_distance, gssf_score, variant_score)

#: Kinds for which score(a, b) == score(b, a).
SYMMETRIC_KINDS = frozenset(SimilarityKind) - {SimilarityKind.ASYMMETRIC}


def recursive_edit_distance(s, t):
    """Independent oracle: the textbook recurrence, memoized."""

    @functools.cache
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(rec(i - 1, j) + 1,
                   rec(i, j - 1) + 1,
                   rec(i - 1, j - 1) + (s[i - 1] != t[j - 1]))

    return rec(len(s), len(t))


class TestEditDistance:
    def test_identity(self):
        assert edit_distance(list("abc"), list("abc")) == 0

    def test_kitten_sitting(self):
        assert edit_distance(list("kitten"), list("sitting")) == 3

    def test_empty_vs_any(self):
        assert edit_distance([], list("xyz")) == 3
        assert edit_distance(list("xyz"), []) == 3
        assert edit_distance([], []) == 0

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(0)
        alphabet = list("abc")
        for _ in range(300):
            s = [alphabet[i] for i in rng.integers(0, 3, rng.integers(0, 7))]
            t = [alphabet[i] for i in rng.integers(0, 3, rng.integers(0, 7))]
            assert edit_distance(s, t) == recursive_edit_distance(tuple(s), tuple(t))

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        alphabet = list("ab")
        seqs = [tuple(alphabet[i] for i in rng.integers(0, 2, rng.integers(0, 6)))
                for _ in range(12)]
        for s, t in itertools.product(seqs, repeat=2):
            d = edit_distance(list(s), list(t))
            assert d >= 0
            assert (d == 0) == (s == t)
            assert d == edit_distance(list(t), list(s))
        for s, t, u in itertools.product(seqs[:6], repeat=3):
            assert (edit_distance(list(s), list(u))
                    <= edit_distance(list(s), list(t)) + edit_distance(list(t), list(u)))


def fake_scoring(sample_id, self_logprobs, tokens=None):
    tokens = tokens if tokens is not None else list(range(2, 2 + len(self_logprobs)))
    return AnswerScoring(
        id=sample_id,
        annotations=Annotations(vectors=np.zeros((1, 2))),
        decode=ScoredDecode(tokens=tokens, self_logprobs=np.asarray(self_logprobs, dtype=float)),
    )


class TestConditionalScoreHandFixture:
    def test_two_step_hand_arithmetic(self, monkeypatch):
        # a's decode scores 0.9 then 0.8 under its own encoder and
        # 0.5 then 0.25 under b's: F(a|b) = ln(0.125 / 0.72)
        a = fake_scoring("a", [math.log(0.9), math.log(0.8)])
        b = fake_scoring("b", [math.log(0.7)])
        cross = {("b", (2, 3)): [math.log(0.5), math.log(0.25)]}

        def fake_tf(params, annotations, tokens):
            return np.asarray(cross[(annotations_owner[id(annotations)], tuple(tokens))])

        annotations_owner = {id(a.annotations): "a", id(b.annotations): "b"}
        monkeypatch.setattr(similarity.seq2seq, "teacher_forced_logprobs", fake_tf)
        got = conditional_score(a, b, params=None)
        assert got == pytest.approx(math.log(0.125 / 0.72), abs=1e-9)

    def test_identical_probabilities_give_zero(self, monkeypatch):
        lps = [math.log(0.4), math.log(0.6)]
        a = fake_scoring("a", lps)
        b = fake_scoring("b", [math.log(0.5)])
        monkeypatch.setattr(similarity.seq2seq, "teacher_forced_logprobs",
                            lambda params, ann, tokens: np.asarray(lps))
        assert conditional_score(a, b, params=None) == 0.0


class TestScoreIdentities:
    def test_self_score_exactly_zero(self, tiny_scored):
        params, _, answers = tiny_scored
        for a in answers:
            assert conditional_score(a, a, params) == 0.0
            assert gssf_score(a, a, params) == 0.0
            for kind in GSSF_FAMILY:
                assert variant_score(kind, a, a, params) == 0.0
            assert variant_score(SimilarityKind.NEG_EDIT_DISTANCE, a, a, params) == 0.0

    def test_symmetry_bit_exact(self, tiny_scored):
        params, _, answers = tiny_scored
        for a, b in itertools.combinations(answers, 2):
            assert gssf_score(a, b, params) == gssf_score(b, a, params)
            for kind in SYMMETRIC_KINDS:
                assert variant_score(kind, a, b, params) == variant_score(kind, b, a, params)

    def test_variant_ordering(self, tiny_scored):
        params, _, answers = tiny_scored
        for a, b in itertools.combinations(answers, 2):
            lo = variant_score(SimilarityKind.MIN, a, b, params)
            mid = variant_score(SimilarityKind.GSSF, a, b, params)
            hi = variant_score(SimilarityKind.MAX, a, b, params)
            assert lo <= mid <= hi

    def test_asymmetric_pair_sums_to_twice_average(self, tiny_scored):
        params, _, answers = tiny_scored
        a, b = answers[0], answers[1]
        fab = variant_score(SimilarityKind.ASYMMETRIC, a, b, params)
        fba = variant_score(SimilarityKind.ASYMMETRIC, b, a, params)
        assert fab + fba == 2.0 * gssf_score(a, b, params)

    def test_unscorable_raises(self, tiny_scored):
        params, _, answers = tiny_scored
        # a real encoding whose greedy decode came out empty
        empty = AnswerScoring(id="empty", annotations=answers[1].annotations,
                              decode=ScoredDecode(tokens=[], self_logprobs=np.zeros(0)))
        with pytest.raises(UnscorableAnswer):
            conditional_score(empty, answers[0], params)
        with pytest.raises(UnscorableAnswer):
            variant_score(SimilarityKind.MIN, answers[0], empty, params)
        # the edit baseline copes with empty decodes
        d = variant_score(SimilarityKind.NEG_EDIT_DISTANCE, answers[0], empty, params)
        assert d == -float(len(answers[0].decode.tokens))


class TestCombineTable:
    def test_kind_sets_derive_from_the_table(self):
        assert GSSF_FAMILY == frozenset(SimilarityKind) - {SimilarityKind.NEG_EDIT_DISTANCE}
        assert DISTANCE_KINDS == GSSF_FAMILY & SYMMETRIC_KINDS

    @pytest.mark.parametrize("kind", list(COMBINE), ids=lambda kind: kind.value)
    def test_rule_returns_a_new_array(self, kind):
        """``compare`` shares one F between kinds and the SbR build writes into
        the result, so no rule may hand back F or a view of it."""
        f = np.arange(9.0).reshape(3, 3)
        out = COMBINE[kind](f, f.T)
        assert not np.shares_memory(out, f)


class TestCrossScoreMatrix:
    def test_diagonal_zero_and_matches_pairwise(self, tiny_scored):
        params, _, answers = tiny_scored
        f = cross_score_matrix(answers, params)
        n = len(answers)
        np.testing.assert_array_equal(np.diag(f), np.zeros(n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert f[i, j] == pytest.approx(
                        conditional_score(answers[i], answers[j], params), abs=1e-9)

    def test_unscorable_rows_are_nan(self, tiny_scored):
        params, _, answers = tiny_scored
        # Cross-scoring teacher-forces every decode against every answer's
        # annotations, the unscorable answer's included, so they have the
        # recognizer's width.
        empty = AnswerScoring(
            id="empty", annotations=Annotations(np.zeros((1, params.arch.annotation_dim))),
            decode=ScoredDecode(tokens=[], self_logprobs=np.array([])))
        mixed = answers[:2] + [empty]
        f = cross_score_matrix(mixed, params)
        assert np.isnan(f[2, 0]) and np.isnan(f[0, 2]) and np.isnan(f[2, 2])
        assert np.isfinite(f[0, 1]) and np.isfinite(f[1, 0])


class TestScoreAnswers:
    def test_decode_cached_against_own_encoder(self, tiny_scored):
        params, _, answers = tiny_scored
        from gssf.seq2seq import teacher_forced_logprobs

        for a in answers[:2]:
            lp = teacher_forced_logprobs(params, a.annotations, a.decode.tokens)
            np.testing.assert_allclose(lp, a.decode.self_logprobs, atol=1e-9)
