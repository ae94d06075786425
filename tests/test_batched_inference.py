"""Batched inference against the per-answer code it replaced.

The oracle scores one answer at a time through B = 1 calls of
``encode_and_decode``, and builds the cross-score matrix from pairwise
``conditional_score`` calls. The batched path must give identical decodes
and ``truncated`` flags, and values within 1e-9. F's earlier build, from
the scorable answers alone with the greedy decode's self term, is kept as
an oracle: where every answer is scorable, F must equal it bit for bit.
Greedy decoding on the encoder's own padded chunks must equal, bit for
bit, decoding the same annotations zero-padded. ``cross_logprob_sums`` must also equal, bit for
bit, the layout it replaced: every chunk teacher-forced against one decode
at a time.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gssf.ink import extract_features, resample_and_normalize
from gssf.sbr import build_sbr_matrix
from gssf.seq2seq import (ArchConfig, Annotations, ScoredDecode,
                          cross_logprob_sums, encode_and_decode, init_params, model,
                          teacher_forced_logprobs)
from gssf.seq2seq.vocab import build_vocabulary
import gssf.similarity as similarity
from gssf.similarity import (AnswerScoring, SimilarityKind, UnscorableAnswer,
                             conditional_score, cross_score_matrix, distinct_index)

TOL = 1e-9

RANDOM_ARCH = ArchConfig(enc_hidden=6, dec_hidden=8, embed_dim=6, att_dim=6,
                         cov_channels=3, cov_kernel=3, max_decode_len=12)


def encode_one(params, feats):
    """B = 1 encode and greedy decode, the per-answer oracle call."""
    return encode_and_decode(params, [feats])[0]


def per_answer_scoring(params, inks):
    """Oracle: preprocess, encode and greedy-decode each answer on its own."""
    out = []
    for ink in inks:
        feats = extract_features(resample_and_normalize(ink, params.arch.resample_spacing))
        ann, dec = encode_one(params, feats)
        out.append(AnswerScoring(id=ink.id, annotations=ann, decode=dec))
    return out


def batch_annotations(params, feats):
    """The annotation sets of one batched ``encode_and_decode`` call."""
    return [ann for ann, _ in encode_and_decode(params, feats)]


def zero_padded_decodes(params, anns):
    """Oracle: each chunk of ``INFER_CHUNK`` annotation sets zero-padded
    afresh, then greedy-decoded, as before decoding ran on the encoder's
    own padded chunks."""
    out = []
    for start in range(0, len(anns), model.INFER_CHUNK):
        padded, klens = model._pad([a.vectors for a in anns[start:start + model.INFER_CHUNK]],
                                   params.arch.annotation_dim)
        out.extend(model._greedy_decode(params.tensors, params.arch.max_decode_len, padded,
                                        klens))
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
        assert x.annotations.vectors.shape == y.annotations.vectors.shape
        np.testing.assert_allclose(x.annotations.vectors, y.annotations.vectors, rtol=0, atol=TOL)
        np.testing.assert_allclose(x.decode.self_logprobs, y.decode.self_logprobs,
                                   rtol=0, atol=TOL)


def random_feats(rng, lengths):
    return [rng.normal(0, 1, (int(n), RANDOM_ARCH.input_dim)) for n in lengths]


def random_model_answers(model_seed, feats_seed, count, max_len, max_decode_len):
    """Answers scored in one batch by a random-init model from random features."""
    arch = replace(RANDOM_ARCH, max_decode_len=max_decode_len)
    params = init_params(arch, build_vocabulary([list("abcdef")]), seed=model_seed)
    rng = np.random.default_rng(feats_seed)
    feats = random_feats(rng, rng.integers(1, max_len, count))
    answers = [AnswerScoring(id=f"r{i}", annotations=a, decode=d)
               for i, (a, d) in enumerate(encode_and_decode(params, feats))]
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
            ann, dec = encode_one(params, f)
            assert x.decode.tokens == dec.tokens
            assert x.decode.truncated == dec.truncated
            assert len(dec.tokens) == params.arch.max_decode_len or not dec.truncated
            np.testing.assert_allclose(x.annotations.vectors, ann.vectors, rtol=0, atol=TOL)
            np.testing.assert_allclose(x.decode.self_logprobs, dec.self_logprobs,
                                       rtol=0, atol=TOL)

    def test_decode_chunk_seam(self):
        params = init_params(RANDOM_ARCH, build_vocabulary([list("abcdef")]), seed=2)
        rng = np.random.default_rng(9)
        feats = random_feats(rng, rng.integers(1, 30, 37))
        assert model.INFER_CHUNK < len(feats) < 2 * model.INFER_CHUNK
        for (ann, got), f in zip(encode_and_decode(params, feats), feats):
            want_ann, want = encode_one(params, f)
            assert got.tokens == want.tokens and got.truncated == want.truncated
            np.testing.assert_allclose(got.self_logprobs, want.self_logprobs, rtol=0, atol=TOL)
            np.testing.assert_allclose(ann.vectors, want_ann.vectors, rtol=0, atol=TOL)

    def test_empty_batch(self, tiny_scored):
        params, _, _ = tiny_scored
        assert encode_and_decode(params, []) == []


class TestDecodeOnEncoderPadding:
    """A chunk's padded rows hold the encoder's carried state, yet greedy
    decoding matches the same annotations zero-padded, bit for bit: the
    attention bias and the mean weights zero those rows."""

    def setup_method(self):
        self.params = init_params(RANDOM_ARCH, build_vocabulary([list("abcdef")]), seed=4)
        self.rng = np.random.default_rng(21)

    def assert_same_decodes(self, got, want):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.tokens == y.tokens and x.truncated == y.truncated
            assert x.self_logprobs.tobytes() == y.self_logprobs.tobytes()

    @pytest.mark.parametrize("lengths", [[1, 9, 4, 23, 2, 15], [1, 30], [17, 1, 1]],
                             ids=["mixed", "length_one_beside_long", "two_length_one"])
    def test_chunk_decodes_as_zero_padded(self, lengths):
        p, arch = self.params.tensors, self.params.arch
        ann, klens, _ = model._encode_steps(
            p, arch, *model._pad(random_feats(self.rng, lengths), arch.input_dim), keep=False)
        assert any(ann[i, k:].any() for i, k in enumerate(klens)), "padding must hold state"
        zeroed, _ = model._pad([ann[i, :k] for i, k in enumerate(klens)], arch.annotation_dim)
        assert zeroed.shape == ann.shape
        self.assert_same_decodes(model._greedy_decode(p, arch.max_decode_len, ann, klens),
                                 model._greedy_decode(p, arch.max_decode_len, zeroed, klens))

    def test_partial_last_chunk(self):
        lengths = [1, *self.rng.integers(1, 40, model.INFER_CHUNK + 4)]
        pairs = encode_and_decode(self.params, random_feats(self.rng, lengths))
        assert len(pairs) % model.INFER_CHUNK == 5
        decodes = [dec for _, dec in pairs]
        assert any(d.truncated for d in decodes) and not all(d.truncated for d in decodes)
        self.assert_same_decodes(decodes, zero_padded_decodes(self.params,
                                                              [ann for ann, _ in pairs]))

    def test_benchmark_set(self, trained, benchmark_answers):
        params, _ = trained
        assert len(benchmark_answers) % model.INFER_CHUNK > 0
        self.assert_same_decodes(
            [a.decode for a in benchmark_answers],
            zero_padded_decodes(params, [a.annotations for a in benchmark_answers]))


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

    def test_all_unscorable_raises(self):
        empty = [AnswerScoring(id=f"e{i}",
                               annotations=Annotations(vectors=np.zeros((1, 12))),
                               decode=ScoredDecode(tokens=[], self_logprobs=np.array([])))
                 for i in range(3)]
        with pytest.raises(UnscorableAnswer, match="all answers are unscorable"):
            cross_score_matrix(empty, params=None)


def pairwise_logprob_sums(params, anns, seqs):
    """Oracle: one B = 1 ``teacher_forced_logprobs`` call per (annotation set, sequence)."""
    return np.array([[teacher_forced_logprobs(params, ann, seq).sum() for seq in seqs]
                     for ann in anns])


def per_decode_logprob_sums(params, anns, seqs):
    """Oracle: each chunk of ``INFER_CHUNK`` annotation sets teacher-forced
    against one sequence at a time, from the start token."""
    sums = np.zeros((len(anns), len(seqs)))
    for start in range(0, len(anns), model.INFER_CHUNK):
        ann, klens = model._pad([a.vectors for a in anns[start:start + model.INFER_CHUNK]],
                                params.arch.annotation_dim)
        for q, tokens in enumerate(seqs):
            feed = np.broadcast_to([model.SOS_INDEX, *tokens[:-1]], (len(klens), len(tokens)))
            targets = np.broadcast_to(tokens, feed.shape)
            lp = model._teacher_forced_steps(params.tensors, ann, klens, feed, targets,
                                             keep=False)[0]
            sums[start:start + len(klens), q] = lp.sum(axis=1)
    return sums


class TestCrossLogprobSums:
    """The chunked all-pairs path against pairwise teacher forcing and, bit for
    bit, against the per-decode layout."""

    def setup_method(self):
        self.params = init_params(replace(RANDOM_ARCH, max_decode_len=30),
                                  build_vocabulary([list("abcdef")]), seed=5)
        self.rng = np.random.default_rng(8)

    def check(self, anns, seqs):
        got = cross_logprob_sums(self.params, anns, seqs)
        assert got.shape == (len(anns), len(seqs))
        np.testing.assert_allclose(got, pairwise_logprob_sums(self.params, anns, seqs),
                                   rtol=0, atol=TOL)

    def check_exact(self, anns, seqs):
        """The prefix walk gives the per-decode layout's sums bit for bit."""
        got = cross_logprob_sums(self.params, anns, seqs)
        assert np.array_equal(got, per_decode_logprob_sums(self.params, anns, seqs))

    def test_exact_on_nested_and_branching_prefixes(self):
        anns = batch_annotations(self.params, random_feats(self.rng, self.rng.integers(1, 20, 9)))
        # [7, 6, 5] is a prefix of [7, 6, 5, 4]; the [2, ...] decodes share only their
        # first token; [7, 6] comes after its extensions in input order.
        self.check_exact(anns, [[7, 6, 5, 4], [2, 3, 4], [7, 6, 5], [2, 5], [2, 6, 6],
                                [7, 6], [4]])

    def test_exact_with_long_decode_beside_short_ones(self):
        anns = batch_annotations(self.params, random_feats(self.rng, self.rng.integers(1, 12, 12)))
        long_seq = [int(t) for t in self.rng.integers(2, self.params.vocab.size, 30)]
        # Rows of 8 or more log-probs sum pairwise, so a running total would differ.
        self.check_exact(anns, [[2, 3], long_seq, long_seq[:9], [4], long_seq[:3] + [5]])

    def test_exact_on_a_single_decode(self):
        anns = batch_annotations(self.params, random_feats(self.rng, [7, 4, 11]))
        self.check_exact(anns, [[2, 5, 3]])
        self.check_exact(anns[:1], [[4]])

    def test_exact_across_the_chunk_seam(self):
        columns = model.INFER_CHUNK + 8
        anns = batch_annotations(self.params,
                                 random_feats(self.rng, self.rng.integers(1, 15, columns)))
        self.check_exact(anns, [[3, 4, 5], [2], [3, 4], [6, 6], [3, 2, 5, 5]])

    def test_mixed_annotation_lengths_in_one_chunk(self):
        anns = batch_annotations(self.params, random_feats(self.rng, [1, 3, 9, 17, 2, 30]))
        assert len({len(a.vectors) for a in anns}) > 3
        self.check(anns, [[2, 3], [4], [5, 6, 7, 2]])

    def test_decode_rows_span_two_chunks(self):
        columns = model.INFER_CHUNK + 8  # every decode runs on both sides of the chunk seam
        anns = batch_annotations(self.params,
                                 random_feats(self.rng, self.rng.integers(1, 15, columns)))
        self.check(anns, [[3, 4, 5], [2], [6, 6]])

    def test_one_sequence_and_one_column(self):
        anns = batch_annotations(self.params, random_feats(self.rng, [7, 4]))
        self.check(anns, [[2, 5, 3]])
        self.check(anns[:1], [[2, 5, 3], [7]])
        self.check(anns[:1], [[4]])

    def test_long_sequence_beside_short_ones(self):
        anns = batch_annotations(self.params, random_feats(self.rng, self.rng.integers(1, 12, 30)))
        long_seq = [int(t) for t in self.rng.integers(2, self.params.vocab.size, 30)]
        self.check(anns, [[2, 3], long_seq, [4], [5, 6]])

    def test_empty_inputs(self):
        anns = batch_annotations(self.params, random_feats(self.rng, [3]))
        assert cross_logprob_sums(self.params, anns, []).shape == (1, 0)
        assert cross_logprob_sums(self.params, [], [[2]]).shape == (0, 1)


class TestChunkedCrossScoreMatrix:
    """``cross_score_matrix`` with short decodes, one 30-token truncated decode
    and an unscorable answer, against pairwise ``conditional_score``."""

    @pytest.fixture
    def answers(self):
        params, _, answers = random_model_answers(7, 104, 40, 40, 6)
        assert not all(a.scorable for a in answers)
        assert max(len(a.decode.tokens) for a in answers) <= 6
        long_tokens = [int(t) for t in np.random.default_rng(2).integers(
            2, params.vocab.size, 30)]
        params = replace(params, arch=replace(params.arch, max_decode_len=30))
        target = next(a for a in answers if a.scorable)
        target.decode = ScoredDecode(
            tokens=long_tokens, truncated=True,
            self_logprobs=teacher_forced_logprobs(params, target.annotations, long_tokens))
        return params, answers

    def test_matches_pairwise(self, answers):
        params, answers = answers
        f = cross_score_matrix(answers, params)
        oracle = pairwise_cross_scores(answers, params)
        np.testing.assert_array_equal(np.isnan(f), np.isnan(oracle))
        np.testing.assert_allclose(f, oracle, rtol=0, atol=TOL)
        scorable = [i for i, a in enumerate(answers) if a.scorable]
        unscorable = [i for i, a in enumerate(answers) if not a.scorable]
        np.testing.assert_array_equal(f[scorable, scorable], np.zeros(len(scorable)))
        assert np.isnan(f[unscorable]).all() and np.isnan(f[:, unscorable]).all()
        values = build_sbr_matrix(answers, SimilarityKind.GSSF, params, f=f).values
        assert values.tobytes() == values.T.tobytes()

    def test_single_scorable_column(self, answers):
        params, answers = answers
        one = [a for a in answers if a.scorable][:1] + [a for a in answers if not a.scorable]
        f = cross_score_matrix(one, params)
        assert f[0, 0] == 0.0
        assert np.isnan(f[1:]).all() and np.isnan(f[:, 1:]).all()

    def test_one_start_per_chunk_and_one_step_per_extended_prefix(self, answers, monkeypatch):
        params, answers = answers
        calls = []
        real_start, real_step = model._decoder_start, model._decode_step

        def start_spy(p, ann, klens):
            calls.append(("start", ann.shape[0]))
            return real_start(p, ann, klens)

        def step_spy(p, ann, *args):
            calls.append(("step", ann.shape[0]))
            return real_step(p, ann, *args)

        monkeypatch.setattr(model, "_decoder_start", start_spy)
        monkeypatch.setattr(model, "_decode_step", step_spy)
        cross_score_matrix(answers, params)
        n = len(answers)
        assert n > model.INFER_CHUNK, "fixture must span two chunks"
        seqs, _ = distinct_index([a.decode.tokens for a in answers])
        # Step t of a decode depends on its first t tokens only, so one step
        # serves every decode that extends the same prefix, the empty one included.
        # An unscorable answer's empty decode extends no prefix, so it costs no step.
        prefixes = {tuple(seq[:t]) for seq in seqs for t in range(len(seq))}
        assert len(prefixes) < sum(map(len, seqs)), "fixture must share a prefix"
        starts = [i for i, (kind, _) in enumerate(calls) if kind == "start"]
        # Every answer is scored in the encoder's chunks, the unscorable ones included.
        chunk_rows = [min(model.INFER_CHUNK, n - start)
                      for start in range(0, n, model.INFER_CHUNK)]
        assert chunk_rows == [32, 8]
        assert [calls[i][1] for i in starts] == chunk_rows
        for i, end, rows in zip(starts, [*starts[1:], len(calls)], chunk_rows):
            assert calls[i + 1:end] == [("step", rows)] * len(prefixes)


def scorable_rows_cross_score_matrix(answers, params):
    """Oracle: F as built before every answer joined cross-scoring. Only the
    scorable answers are teacher-forced, in chunks of their own, the self
    term is the greedy decode's log-probability, and the result is scattered
    into a NaN-filled matrix."""
    n = len(answers)
    rows = np.array([i for i, a in enumerate(answers) if a.scorable], dtype=np.int64)
    f = np.full((n, n), np.nan)
    seqs, which = distinct_index([answers[i].decode.tokens for i in rows])
    self_sums = np.array([np.sum(answers[i].decode.self_logprobs) for i in rows])
    sums = cross_logprob_sums(params, [answers[j].annotations for j in rows], seqs)
    cross = sums[:, which].T
    cross -= self_sums[:, None]
    f[np.ix_(rows, rows)] = cross
    f[rows, rows] = 0.0
    return f


class TestOnePassCrossScores:
    """F from one teacher-forcing pass over every answer, self terms
    included, against the scorable-rows oracle."""

    @pytest.fixture(params=["tiny", "benchmark", "random_truncated"])
    def scorable_set(self, request):
        """(params, answers) of a set in which every answer is scorable."""
        if request.param == "tiny":
            params, _, answers = request.getfixturevalue("tiny_scored")
        elif request.param == "benchmark":
            params = request.getfixturevalue("trained")[0]
            answers = request.getfixturevalue("benchmark_answers")
        else:
            params, _, answers = random_model_answers(1, 1, 40, 60, 12)
            assert len(answers) > model.INFER_CHUNK
            assert min(len(a.decode.tokens) for a in answers if a.decode.truncated) >= 8
        assert all(a.scorable for a in answers)
        return params, answers

    def test_all_scorable_bit_equal_to_oracle(self, scorable_set):
        params, answers = scorable_set
        f = cross_score_matrix(answers, params)
        assert f.flags.c_contiguous
        assert f.tobytes() == scorable_rows_cross_score_matrix(answers, params).tobytes()

    def test_greedy_self_sums_equal_teacher_forced_sums(self, scorable_set):
        """Each answer's greedy log-probabilities sum, bit for bit, to its own
        decode's teacher-forced sum in its encoder chunk: F's self term."""
        params, answers = scorable_set
        seqs, which = distinct_index([a.decode.tokens for a in answers])
        sums = cross_logprob_sums(params, [a.annotations for a in answers], seqs)
        got = sums[np.arange(len(answers)), which]
        want = np.array([np.sum(a.decode.self_logprobs) for a in answers])
        assert got.tobytes() == want.tobytes()

    def test_unscorable_across_the_chunk_seam(self):
        params, _, answers = random_model_answers(2, 9, 37, 30, 12)
        unscorable = [i for i, a in enumerate(answers) if not a.scorable]
        assert min(unscorable) < model.INFER_CHUNK <= max(unscorable)
        f = cross_score_matrix(answers, params)
        assert f.flags.c_contiguous
        oracle = scorable_rows_cross_score_matrix(answers, params)
        np.testing.assert_array_equal(np.isnan(f), np.isnan(oracle))
        np.testing.assert_allclose(f, oracle, rtol=0, atol=TOL)


def stub_answers(tokens):
    ann = Annotations(vectors=np.zeros((1, 1)))
    return [AnswerScoring(id=f"s{i}", annotations=ann,
                          decode=ScoredDecode(tokens=seq, self_logprobs=np.zeros(len(seq))))
            for i, seq in enumerate(tokens)]


def stub_sums(monkeypatch, sums):
    """Make ``cross_score_matrix`` read ``sums``, a (rows, sequences) view of
    it with no copy, in place of teacher forcing."""
    monkeypatch.setattr(similarity.seq2seq, "cross_logprob_sums",
                        lambda params, anns, seqs: sums[:len(anns), :len(seqs)])


class TestCrossScoreMatrixFromGivenSums:
    def test_traced_peak_is_one_n_by_n_array(self, monkeypatch):
        n = 2000
        tokens = [[] if i % 101 == 7 else [2 + i % 5, i // 5] for i in range(n)]
        seqs, which = distinct_index(tokens)
        sums = np.random.default_rng(3).normal(-20, 5, (n, len(seqs)))
        stub_sums(monkeypatch, sums)
        answers = stub_answers(tokens)
        tracemalloc.start()
        try:
            f = cross_score_matrix(answers, params=None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8, f"peak {peak / (n * n):.1f} bytes per entry"
        scorable = np.array([bool(seq) for seq in tokens])
        for i in (0, 7, 1234, n - 1):
            want = sums[:, which[i]] - sums[i, which[i]] if scorable[i] else np.full(n, np.nan)
            want[~scorable] = np.nan
            np.testing.assert_array_equal(f[i], want)

    def test_only_scorable_pairs_must_be_finite(self, monkeypatch):
        tokens = [[2], [], [3, 2], [2]]
        seqs, _ = distinct_index(tokens)
        sums = np.full((4, len(seqs)), -1.0)
        sums[1] = np.inf  # the unscorable answer's annotations overflow,
        sums[1, 1] = 0.0  # but its own empty decode sums to 0
        stub_sums(monkeypatch, sums)
        f = cross_score_matrix(stub_answers(tokens), params=None)
        assert np.isnan(f[1]).all() and np.isnan(f[:, 1]).all()
        assert np.isfinite(np.delete(np.delete(f, 1, 0), 1, 1)).all()
        sums[3, 2] = -np.inf  # F(answer 2 | answer 3), a scorable pair
        with pytest.raises(UnscorableAnswer, match="not finite"):
            cross_score_matrix(stub_answers(tokens), params=None)


def test_distinct_index_first_seen_order():
    seqs, which = distinct_index([[3, 4], [5], [3, 4], [], [5]])
    assert seqs == [[3, 4], [5], []]
    assert which.tolist() == [0, 1, 0, 2, 1]


@pytest.mark.parametrize("model_seed", [0, 3])
def test_batch_composition_does_not_change_decodes(model_seed):
    """Decoding a subset gives the same tokens as decoding the whole set."""
    params, feats, answers = random_model_answers(model_seed, 50 + model_seed, 16, 50, 12)
    subset = answers[::3]
    again = encode_and_decode(params, feats[::3])
    for a, (_, dec) in zip(subset, again):
        assert a.decode.tokens == dec.tokens and a.decode.truncated == dec.truncated
        np.testing.assert_allclose(a.decode.self_logprobs, dec.self_logprobs, rtol=0, atol=TOL)
