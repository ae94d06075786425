"""Batched inference against the per-answer code it replaced.

The oracle scores one answer at a time through the B = 1 ``encode`` and
``greedy_decode`` wrappers, and builds the cross-score matrix from pairwise
``conditional_score`` calls. The batched path must give identical decodes
and ``truncated`` flags, and values within 1e-9.
"""

from dataclasses import replace

import numpy as np
import pytest

from gssf.ink import extract_features, resample_and_normalize
from gssf.seq2seq import (ArchConfig, Annotations, ScoredDecode, encode, encode_batch,
                          greedy_decode, greedy_decode_batch, init_params)
from gssf.seq2seq.vocab import build_vocabulary
from gssf.similarity import (AnswerScoring, conditional_score, cross_score_matrix,
                             distinct_index)

TOL = 1e-9

RANDOM_ARCH = ArchConfig(enc_hidden=6, dec_hidden=8, embed_dim=6, att_dim=6,
                         cov_channels=3, cov_kernel=3, max_decode_len=12)


def per_answer_scoring(params, inks):
    """Oracle: preprocess, encode and greedy-decode each answer on its own."""
    out = []
    for ink in inks:
        feats = extract_features(resample_and_normalize(ink, params.arch.resample_spacing))
        ann = encode(params, feats)
        out.append(AnswerScoring(id=ink.id, annotations=ann,
                                 decode=greedy_decode(params, ann, params.arch.max_decode_len)))
    return out


def pairwise_cross_scores(answers, params):
    """Oracle: F[i, j] from one ``conditional_score`` call per ordered pair."""
    n = len(answers)
    f = np.full((n, n), np.nan)
    for i, a in enumerate(answers):
        for j, b in enumerate(answers):
            if a.scorable and b.scorable:
                f[i, j] = 0.0 if i == j else conditional_score(a, b, params)
    return f


def assert_same_scoring(batched, oracle):
    assert [a.id for a in batched] == [a.id for a in oracle]
    for x, y in zip(batched, oracle):
        assert x.decode.tokens == y.decode.tokens, x.id
        assert x.decode.truncated == y.decode.truncated, x.id
        assert x.annotations.source_len == y.annotations.source_len
        assert x.annotations.vectors.shape == y.annotations.vectors.shape
        np.testing.assert_allclose(x.annotations.vectors, y.annotations.vectors, rtol=0, atol=TOL)
        np.testing.assert_allclose(x.decode.self_logprobs, y.decode.self_logprobs,
                                   rtol=0, atol=TOL)


def random_model_answers(model_seed, feats_seed, count, max_len, max_decode_len):
    """Answers scored in one batch by a random-init model from random features."""
    arch = replace(RANDOM_ARCH, max_decode_len=max_decode_len)
    params = init_params(arch, build_vocabulary([list("abcdef")]), seed=model_seed)
    rng = np.random.default_rng(feats_seed)
    feats = [rng.normal(0, 1, (int(n), arch.input_dim)) for n in rng.integers(1, max_len, count)]
    anns = encode_batch(params, feats)
    decodes = greedy_decode_batch(params, anns)
    answers = [AnswerScoring(id=f"r{i}", annotations=a, decode=d)
               for i, (a, d) in enumerate(zip(anns, decodes))]
    return params, feats, answers


class TestScoreAnswers:
    def test_tiny_set_matches_per_answer(self, tiny_scored):
        params, inks, answers = tiny_scored
        assert_same_scoring(answers, per_answer_scoring(params, inks))

    def test_benchmark_set_matches_per_answer(self, trained, benchmark_inks,
                                              benchmark_answers):
        params, _ = trained
        assert_same_scoring(benchmark_answers, per_answer_scoring(params, benchmark_inks))

    def test_mixed_lengths_mostly_truncated(self):
        params, feats, answers = random_model_answers(1, 1, 40, 60, 12)
        truncated = sum(a.decode.truncated for a in answers)
        assert truncated > len(answers) // 2, "fixture must mostly hit max_len"
        assert truncated < len(answers), "fixture must also finish some decodes"
        for x, f in zip(answers, feats):
            ann = encode(params, f)
            dec = greedy_decode(params, ann)
            assert x.decode.tokens == dec.tokens
            assert x.decode.truncated == dec.truncated
            assert len(dec.tokens) == params.arch.max_decode_len or not dec.truncated
            np.testing.assert_allclose(x.annotations.vectors, ann.vectors, rtol=0, atol=TOL)
            np.testing.assert_allclose(x.decode.self_logprobs, dec.self_logprobs,
                                       rtol=0, atol=TOL)

    def test_empty_batch(self, tiny_scored):
        params, _, _ = tiny_scored
        assert encode_batch(params, []) == []
        assert greedy_decode_batch(params, []) == []


class TestDeduplicatedCrossScores:
    def test_matches_pairwise_with_repeats_truncation_and_unscorable(self):
        params, _, answers = random_model_answers(7, 107, 12, 40, 6)
        decodes = [tuple(a.decode.tokens) for a in answers if a.scorable]
        assert len(set(decodes)) < len(decodes), "fixture must repeat a decode"
        assert any(a.decode.truncated for a in answers)
        assert not all(a.scorable for a in answers)
        f = cross_score_matrix(answers, params)
        oracle = pairwise_cross_scores(answers, params)
        np.testing.assert_array_equal(np.isnan(f), np.isnan(oracle))
        np.testing.assert_allclose(f, oracle, rtol=0, atol=TOL)
        scorable = [i for i, a in enumerate(answers) if a.scorable]
        np.testing.assert_array_equal(f[scorable, scorable], np.zeros(len(scorable)))

    def test_benchmark_matrix_matches_pairwise_sample(self, trained, benchmark_answers,
                                                      benchmark_f_matrix):
        params, _ = trained
        # One answer per category against all others keeps the oracle cheap.
        picks = list(range(0, len(benchmark_answers), 20))
        for i in picks:
            for j in range(len(benchmark_answers)):
                if i != j:
                    want = conditional_score(benchmark_answers[i], benchmark_answers[j], params)
                    assert abs(benchmark_f_matrix[i, j] - want) <= TOL
                    want = conditional_score(benchmark_answers[j], benchmark_answers[i], params)
                    assert abs(benchmark_f_matrix[j, i] - want) <= TOL
        np.testing.assert_array_equal(np.diag(benchmark_f_matrix),
                                      np.zeros(len(benchmark_answers)))

    def test_all_unscorable_gives_all_nan(self):
        empty = [AnswerScoring(id=f"e{i}",
                               annotations=Annotations(vectors=np.zeros((1, 12)), source_len=1),
                               decode=ScoredDecode(tokens=[], self_logprobs=np.array([])))
                 for i in range(3)]
        assert np.isnan(cross_score_matrix(empty, params=None)).all()


def test_distinct_index_first_seen_order():
    seqs, which = distinct_index([[3, 4], [5], [3, 4], [], [5]])
    assert seqs == [[3, 4], [5], []]
    assert which.tolist() == [0, 1, 0, 2, 1]


@pytest.mark.parametrize("model_seed", [0, 3])
def test_batch_composition_does_not_change_decodes(model_seed):
    """Decoding a subset gives the same tokens as decoding the whole set."""
    params, _, answers = random_model_answers(model_seed, 50 + model_seed, 16, 50, 12)
    subset = answers[::3]
    again = greedy_decode_batch(params, [a.annotations for a in subset])
    for a, dec in zip(subset, again):
        assert a.decode.tokens == dec.tokens and a.decode.truncated == dec.truncated
        np.testing.assert_allclose(a.decode.self_logprobs, dec.self_logprobs, rtol=0, atol=TOL)
