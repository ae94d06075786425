"""Similarity-based representation matrix: build, normalize, export."""

import numpy as np
import pytest

from conftest import read_matrix_csv
from gssf.seq2seq import Annotations, ScoredDecode
from gssf.sbr import (SbRMatrix, build_sbr_matrix, normalize_unit_interval, save_csv,
                      save_pgm, to_pgm)
from gssf.similarity import AnswerScoring, SimilarityKind, UnscorableAnswer, edit_distance


def loop_sbr_values(answers, kind, f):
    """Oracle: the pairwise double loop that filled the matrix before it was vectorized."""
    n = len(answers)
    values = np.zeros((n, n))
    if kind == SimilarityKind.NEG_EDIT_DISTANCE:
        for i in range(n):
            for j in range(i + 1, n):
                d = -float(edit_distance(answers[i].decode.tokens, answers[j].decode.tokens))
                values[i, j] = values[j, i] = d
        return values
    if kind == SimilarityKind.ASYMMETRIC:
        values = f.copy()
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if kind == SimilarityKind.GSSF:
                    v = (f[i, j] + f[j, i]) / 2.0
                elif kind == SimilarityKind.MIN:
                    v = min(f[i, j], f[j, i])
                else:
                    v = max(f[i, j], f[j, i])
                values[i, j] = values[j, i] = v
    np.fill_diagonal(values, 0.0)
    bad = [i for i, a in enumerate(answers) if not a.scorable]
    if bad:
        fill = np.nanmin(np.where(np.isfinite(values), values, np.nan))
        for i in bad:
            values[i, :] = fill
            values[:, i] = fill
            values[i, i] = 0.0
    return values


def to_csv(m):
    """Oracle: the whole CSV text, joined in memory, as ``save_csv`` wrote it
    before it streamed one row at a time."""
    lines = ["id," + ",".join(m.ids)]
    for sample_id, row in zip(m.ids, m.values):
        lines.append(sample_id + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def decoded(sample_id, tokens):
    return AnswerScoring(id=sample_id,
                         annotations=Annotations(vectors=np.zeros((1, 2))),
                         decode=ScoredDecode(tokens=list(tokens),
                                             self_logprobs=np.full(len(tokens), -0.5)))


def assert_bit_equal(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def matrix(values):
    values = np.asarray(values, dtype=float)
    return SbRMatrix(values=values, ids=[f"s{i}" for i in range(values.shape[0])])


class TestNormalize:
    def test_hand_min_max(self):
        out = normalize_unit_interval(matrix([[0.0, -2.0], [-2.0, 0.0]]))
        np.testing.assert_array_equal(out.values, [[1.0, 0.0], [0.0, 1.0]])
        assert not out.degenerate

    def test_constant_matrix_degenerate(self):
        out = normalize_unit_interval(matrix([[3.0, 3.0], [3.0, 3.0]]))
        np.testing.assert_array_equal(out.values, np.zeros((2, 2)))
        assert out.degenerate

    def test_attained_unit_range_unchanged(self):
        vals = np.array([[0.0, 0.25], [0.75, 1.0]])
        out = normalize_unit_interval(matrix(vals))
        np.testing.assert_array_equal(out.values, vals)

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(0, 5, (6, 6))
        out = normalize_unit_interval(matrix(vals))
        flat_in, flat_out = vals.ravel(), out.values.ravel()
        order_in = np.argsort(flat_in, kind="stable")
        order_out = np.argsort(flat_out, kind="stable")
        np.testing.assert_array_equal(order_in, order_out)
        assert out.values.min() == 0.0 and out.values.max() == 1.0

    def test_diagonal_is_maximum_when_off_diagonals_negative(self):
        vals = np.array([[0.0, -1.0, -3.0], [-1.0, 0.0, -2.0], [-3.0, -2.0, 0.0]])
        out = normalize_unit_interval(matrix(vals))
        np.testing.assert_array_equal(np.diag(out.values), np.ones(3))
        assert out.values.max() == 1.0


class TestBuild:
    def test_gssf_diagonal_zero_and_symmetric(self, tiny_scored):
        params, _, answers = tiny_scored
        m = build_sbr_matrix(answers, SimilarityKind.GSSF, params)
        np.testing.assert_array_equal(np.diag(m.values), np.zeros(len(answers)))
        np.testing.assert_array_equal(m.values, m.values.T)

    def test_asymmetric_equals_f_and_averages_to_gssf(self, tiny_scored):
        params, _, answers = tiny_scored
        from gssf.similarity import conditional_score

        asym = build_sbr_matrix(answers, SimilarityKind.ASYMMETRIC, params)
        gssf_m = build_sbr_matrix(answers, SimilarityKind.GSSF, params)
        n = len(answers)
        pairwise = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                pairwise[i, j] = conditional_score(answers[i], answers[j], params)
        np.testing.assert_allclose(asym.values, pairwise, atol=1e-9)
        np.testing.assert_allclose((asym.values + asym.values.T) / 2.0, gssf_m.values,
                                   atol=1e-12)

    def test_min_max_bound_gssf(self, tiny_scored):
        params, _, answers = tiny_scored
        lo = build_sbr_matrix(answers, SimilarityKind.MIN, params).values
        mid = build_sbr_matrix(answers, SimilarityKind.GSSF, params).values
        hi = build_sbr_matrix(answers, SimilarityKind.MAX, params).values
        assert np.all(lo <= mid + 1e-12) and np.all(mid <= hi + 1e-12)

    def test_edit_kind_symmetric_integer_valued(self, tiny_scored):
        params, _, answers = tiny_scored
        m = build_sbr_matrix(answers, SimilarityKind.NEG_EDIT_DISTANCE, params)
        np.testing.assert_array_equal(m.values, m.values.T)
        assert np.all(m.values <= 0)
        assert np.all(m.values == np.round(m.values))

    def test_unscorable_sentinel_fill(self, tiny_scored):
        params, _, answers = tiny_scored
        empty = AnswerScoring(
            id="empty",
            annotations=Annotations(vectors=np.zeros((1, params.arch.annotation_dim))),
            decode=ScoredDecode(tokens=[], self_logprobs=np.array([])),
        )
        mixed = list(answers[:3]) + [empty]
        m = build_sbr_matrix(mixed, SimilarityKind.GSSF, params)
        finite_min = m.values[:3, :3].min()
        assert m.values[3, 3] == 0.0
        np.testing.assert_array_equal(m.values[3, :3], np.full(3, finite_min))
        np.testing.assert_array_equal(m.values[:3, 3], np.full(3, finite_min))

    def test_all_unscorable_raises(self, tiny_scored):
        params, _, _ = tiny_scored
        empties = [
            AnswerScoring(id=f"e{i}",
                          annotations=Annotations(np.zeros((1, params.arch.annotation_dim))),
                          decode=ScoredDecode(tokens=[], self_logprobs=np.array([])))
            for i in range(2)
        ]
        with pytest.raises(UnscorableAnswer):
            build_sbr_matrix(empties, SimilarityKind.GSSF, params)


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("kind", [SimilarityKind.GSSF, SimilarityKind.MIN,
                                      SimilarityKind.MAX, SimilarityKind.ASYMMETRIC])
    def test_f_family_bit_equal_with_unscorable(self, kind):
        rng = np.random.default_rng(4)
        answers = [decoded(f"a{i}", [2, 3][: 1 + i % 2]) for i in range(7)]
        answers[4] = decoded("empty", [])
        f = rng.normal(-3.0, 2.0, (7, 7))
        np.fill_diagonal(f, 0.0)
        f[4, :] = np.nan
        f[:, 4] = np.nan
        got = build_sbr_matrix(answers, kind, params=None, f=f).values
        assert_bit_equal(got, loop_sbr_values(answers, kind, f))
        if kind != SimilarityKind.ASYMMETRIC:
            assert_bit_equal(got, got.T)

    def test_two_unscorable_bit_equal(self):
        answers = [decoded(f"a{i}", [] if i in (1, 5) else [2, 3]) for i in range(7)]
        f = np.random.default_rng(5).normal(-3.0, 2.0, (7, 7))
        np.fill_diagonal(f, 0.0)
        f[[1, 5], :] = np.nan
        f[:, [1, 5]] = np.nan
        got = build_sbr_matrix(answers, SimilarityKind.GSSF, params=None, f=f).values
        assert_bit_equal(got, loop_sbr_values(answers, SimilarityKind.GSSF, f))
        assert got[1, 1] == got[5, 5] == 0.0 and got[1, 5] == got[5, 1] == got[0, 1]

    @pytest.mark.parametrize("kind", [SimilarityKind.GSSF, SimilarityKind.MIN,
                                      SimilarityKind.MAX])
    def test_f_family_bit_equal_on_tiny_set(self, tiny_scored, kind):
        params, _, answers = tiny_scored
        from gssf.similarity import cross_score_matrix

        f = cross_score_matrix(answers, params)
        got = build_sbr_matrix(answers, kind, params, f=f).values
        assert_bit_equal(got, loop_sbr_values(answers, kind, f))

    def test_edit_distance_equals_loop_on_tiny_set(self, tiny_scored):
        params, _, answers = tiny_scored
        got = build_sbr_matrix(answers, SimilarityKind.NEG_EDIT_DISTANCE, params).values
        assert_bit_equal(got, loop_sbr_values(answers, SimilarityKind.NEG_EDIT_DISTANCE, None))

    def test_edit_distance_equals_loop_with_repeated_decodes(self):
        seqs = [[2, 3, 4], [2, 3], [2, 3, 4], [], [5, 2, 3], [2, 3], [], [2, 3, 4], [6]]
        answers = [decoded(f"a{i}", s) for i, s in enumerate(seqs)]
        got = build_sbr_matrix(answers, SimilarityKind.NEG_EDIT_DISTANCE, None).values
        assert_bit_equal(got, loop_sbr_values(answers, SimilarityKind.NEG_EDIT_DISTANCE, None))
        assert got[0, 2] == 0.0 and got[0, 1] == -1.0 and got[3, 6] == 0.0


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        m = matrix(np.array([[0.0, -1.5], [-1.5, 0.0]]))
        path = tmp_path / "m.csv"
        save_csv(path, m)
        ids, values = read_matrix_csv(path)
        assert ids == m.ids
        np.testing.assert_array_equal(values, m.values)

    @pytest.mark.parametrize("sample_id", ["a\u2028b", "a\x85b", "a\vb", "a\x1cb"],
                             ids=["U+2028", "U+0085", "VT", "0x1C"])
    def test_csv_round_trip_keeps_ids_splitlines_would_break(self, tmp_path, sample_id):
        assert len(sample_id.splitlines()) == 2
        m = SbRMatrix(values=np.array([[0.0, -1.5], [-1.5, 0.0]]), ids=[sample_id, "c"])
        path = tmp_path / "m.csv"
        save_csv(path, m)
        ids, values = read_matrix_csv(path)
        assert ids == m.ids
        np.testing.assert_array_equal(values, m.values)

    def test_streamed_csv_equals_joined_text_on_pinned_matrix(
            self, tmp_path, trained, benchmark_answers, benchmark_f_matrix):
        params, _ = trained
        m = build_sbr_matrix(benchmark_answers, SimilarityKind.GSSF, params, f=benchmark_f_matrix)
        assert len(m.ids) == 100
        save_csv(tmp_path / "m.csv", m)
        assert (tmp_path / "m.csv").read_bytes() == to_csv(m).encode("utf-8")

    def test_streamed_csv_equals_joined_text_on_extreme_floats(self, tmp_path):
        values = np.array([[0.0, -0.0, 5e-324],
                           [-5e-324, 0.0, 1.7976931348623157e308],
                           [-1.7976931348623157e308, 1e-300, 0.0]])
        m = SbRMatrix(values=values, ids=["\u00e9l\u00e8ve", "\u7b54\u6848", "\U0001d465"])
        save_csv(tmp_path / "m.csv", m)
        text = to_csv(m)
        assert "-0.0" in text and "5e-324" in text and "1.7976931348623157e+308" in text
        assert (tmp_path / "m.csv").read_bytes() == text.encode("utf-8")

    def test_pgm_format(self, tmp_path):
        norm = normalize_unit_interval(matrix([[0.0, -2.0], [-4.0, 0.0]]))
        blob = to_pgm(norm)
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n255\n"):], dtype=np.uint8).reshape(2, 2)
        np.testing.assert_array_equal(pixels, np.rint(255 * norm.values).astype(np.uint8))
        path = tmp_path / "m.pgm"
        save_pgm(path, norm)
        assert path.read_bytes() == blob
