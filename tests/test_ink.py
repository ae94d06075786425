"""Trajectory preprocessing and point-feature extraction."""

import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gssf.ink import (MAX_ASPECT, MAX_LINE_CHARS, MAX_POINTS, InkError, RawInk, _resample,
                      extract_features, load_jsonl, resample_and_normalize, save_jsonl)


def _resample_stroke(pts, step):
    """The whole-answer resampler run on one stroke."""
    return _resample(pts, np.array([0]), step)[0]


def vertical_two_point():
    return RawInk(strokes=[np.array([[0.0, 0.0], [0.0, 10.0]])], id="v")


class TestResampleAndNormalize:
    def test_vertical_stroke_hand_oracle(self):
        # arc-length resampling of (0,0)-(0,10) at spacing 0.25 of unit height
        out = resample_and_normalize(vertical_two_point(), spacing=0.25)
        expected = np.array([[0.0, y] for y in (0.0, 0.25, 0.5, 0.75, 1.0)])
        np.testing.assert_allclose(out.strokes[0], expected, atol=1e-12)

    def test_idempotent(self):
        once = resample_and_normalize(vertical_two_point(), spacing=0.25)
        twice = resample_and_normalize(once, spacing=0.25)
        for a, b in zip(once.strokes, twice.strokes):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_idempotent_on_curvy_ink(self):
        rng = np.random.default_rng(3)
        ink = RawInk(strokes=[np.cumsum(rng.normal(0, 1, (30, 2)), axis=0)], id="c")
        once = resample_and_normalize(ink, spacing=0.05)
        twice = resample_and_normalize(once, spacing=0.05)
        for a, b in zip(once.strokes, twice.strokes):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_single_dot_stroke_survives(self):
        ink = RawInk(strokes=[np.array([[5.0, 5.0]]),
                              np.array([[0.0, 0.0], [0.0, 10.0]])], id="d")
        out = resample_and_normalize(ink, spacing=0.25)
        assert len(out.strokes) == 2
        assert out.strokes[0].shape == (1, 2)
        np.testing.assert_allclose(out.strokes[0][0], [0.5, 0.5])

    def test_stroke_count_unchanged(self):
        ink = RawInk(strokes=[np.array([[0.0, 0.0], [1.0, 1.0]]),
                              np.array([[2.0, 0.0], [3.0, 1.0]])], id="s")
        out = resample_and_normalize(ink, spacing=0.1)
        assert len(out.strokes) == 2

    def test_y_extent_unit_and_origin(self):
        rng = np.random.default_rng(0)
        ink = RawInk(strokes=[rng.uniform(3, 9, (12, 2)), rng.uniform(3, 9, (7, 2))], id="r")
        out = resample_and_normalize(ink, spacing=0.1)
        pts = np.concatenate(out.strokes)
        assert pts.min(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert pts[:, 1].max() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_extent_raises(self):
        ink = RawInk(strokes=[np.array([[1.0, 1.0], [1.0, 1.0]])], id="z")
        with pytest.raises(InkError, match="degenerate extent"):
            resample_and_normalize(ink, 0.05)

    def test_horizontal_line_falls_back_to_width(self):
        ink = RawInk(strokes=[np.array([[0.0, 2.0], [10.0, 2.0]])], id="h")
        out = resample_and_normalize(ink, spacing=0.5)
        pts = np.concatenate(out.strokes)
        assert len(pts) == 21  # width MAX_ASPECT at step 0.5
        assert pts[:, 0].max() == pytest.approx(MAX_ASPECT)
        assert np.all(pts[:, 1] == 0.0)

    def test_flat_answer_resamples_like_its_width(self):
        # 1 wide and 0.0015 high: height scaling made 8,335 points of it.
        ink = RawInk(strokes=[np.array([[0.0, 0.0], [0.5, 0.0015], [1.0, 0.0]])], id="f")
        out = resample_and_normalize(ink, spacing=0.08)
        assert len(out.strokes[0]) == 127

    def test_points_merged_by_scaling_collapse(self):
        # Distinct vertices 8.2e-194 apart are one point after scaling.
        ink = RawInk(strokes=[np.array([[-1.0, 0.0], [0.0, 0.0], [8.2e-194, 0.0]])], id="m")
        once = resample_and_normalize(ink, spacing=0.5)
        twice = resample_and_normalize(once, spacing=0.5)
        assert len(once.strokes[0]) == len(twice.strokes[0]) == 21


def loop_resample_stroke(pts, step):
    """Oracle: the per-point loop that ``_resample_stroke`` replaced."""
    seg = np.diff(pts, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    if len(pts) == 1 or float(seglen.sum()) == 0.0:
        return pts[:1].copy()
    out = [pts[0]]
    for a, b, length in zip(pts[:-1], pts[1:], seglen):
        if length == 0.0:
            continue
        pieces = max(1, int(round(length / step)))
        for j in range(1, pieces):
            out.append(a + (b - a) * (j / pieces))
        out.append(b)
    return np.asarray(out)


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Grid points repeat often, so zero-length segments are common.
grid_points = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda p: (p[0] * 0.25, p[1] * 0.25))
free_points = st.tuples(st.floats(-10, 10), st.floats(-10, 10))
polylines = st.lists(st.one_of(grid_points, free_points), min_size=1, max_size=12)


class TestResampleStrokeOracle:
    @given(polylines, st.floats(0.01, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_bit_for_bit(self, points, step):
        pts = np.array(points, dtype=np.float64)
        assert_bit_equal(_resample_stroke(pts, step), loop_resample_stroke(pts, step))

    def test_seeded_polylines_with_repeats_and_dots(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pts = rng.normal(0, 1, (int(rng.integers(1, 20)), 2))
            dup = rng.random(len(pts)) < 0.3
            dup[0] = False
            pts[dup] = pts[np.flatnonzero(dup) - 1]  # repeat the previous vertex
            step = float(rng.choice([0.01, 0.05, 0.08, 0.3]))
            assert_bit_equal(_resample_stroke(pts, step), loop_resample_stroke(pts, step))

    def test_half_integer_piece_counts_round_to_even(self):
        pts = np.array([[0.0, 0.0], [2.5, 0.0], [2.5, 3.5]])
        got = _resample_stroke(pts, 1.0)
        assert len(got) == 1 + 2 + 4
        assert_bit_equal(got, loop_resample_stroke(pts, 1.0))

    @pytest.mark.parametrize("spacing", [0.01, 0.05, 0.08, 0.3])
    def test_benchmark_strokes(self, benchmark_inks, spacing):
        for ink in benchmark_inks:
            pts = np.concatenate(ink.strokes)
            extent = pts.max(axis=0) - pts.min(axis=0)
            step = spacing * max(extent[1], extent[0] / MAX_ASPECT)
            for stroke in ink.strokes:
                assert_bit_equal(_resample_stroke(stroke, step),
                                 loop_resample_stroke(stroke, step))


def loop_resample_answer(strokes, step):
    """Oracle: ``loop_resample_stroke`` per stroke, concatenated, with each
    stroke's start in the result."""
    parts = [loop_resample_stroke(s, step) for s in strokes]
    lens = [len(p) for p in parts]
    return np.concatenate(parts), np.cumsum(lens) - lens


def assert_answer_matches_loop(strokes, step):
    lens = [len(s) for s in strokes]
    got, starts = _resample(np.concatenate(strokes), np.cumsum(lens) - lens, step)
    want, want_starts = loop_resample_answer(strokes, step)
    assert_bit_equal(got, want)
    np.testing.assert_array_equal(starts, want_starts)


class TestWholeAnswerResample:
    @given(st.lists(st.tuples(polylines, st.booleans()), min_size=1, max_size=5),
           st.floats(0.05, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_stroke_loop(self, strokes, step):
        # A true flag starts the stroke where the previous one ended.
        arrays = []
        for points, joined in strokes:
            pts = np.array(points, dtype=np.float64)
            if joined and arrays:
                pts[0] = arrays[-1][-1]
            arrays.append(pts)
        assert_answer_matches_loop(arrays, step)

    def test_seeded_answers_with_dots_and_zero_length_strokes(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            strokes = []
            for _ in range(int(rng.integers(1, 6))):
                kind = rng.random()
                if kind < 0.15:  # a dot
                    pts = rng.normal(0, 1, (1, 2))
                elif kind < 0.3:  # a zero-length stroke: one vertex repeated
                    pts = np.repeat(rng.normal(0, 1, (1, 2)), int(rng.integers(2, 5)), axis=0)
                else:
                    pts = rng.normal(0, 1, (int(rng.integers(2, 15)), 2))
                    dup = rng.random(len(pts)) < 0.3
                    dup[0] = False
                    pts[dup] = pts[np.flatnonzero(dup) - 1]
                if strokes and rng.random() < 0.3:  # start where the last stroke ended
                    pts[0] = strokes[-1][-1]
                strokes.append(pts)
            step = float(rng.choice([0.01, 0.05, 0.08, 0.3]))
            assert_answer_matches_loop(strokes, step)

    def test_half_integer_piece_counts_round_to_even(self):
        strokes = [np.array([[0.0, 0.0], [2.5, 0.0]]), np.array([[2.5, 0.0], [2.5, 3.5]]),
                   np.array([[0.0, 1.0], [0.5, 1.0]])]
        got, starts = _resample(np.concatenate(strokes), np.array([0, 2, 4]), 1.0)
        np.testing.assert_array_equal(starts, [0, 3, 8])
        assert len(got) == (1 + 2) + (1 + 4) + (1 + 1)
        assert_answer_matches_loop(strokes, 1.0)

    @pytest.mark.parametrize("spacing", [0.01, 0.05, 0.08, 0.3])
    def test_benchmark_answers(self, benchmark_inks, spacing):
        for ink in benchmark_inks:
            pts = np.concatenate(ink.strokes)
            extent = pts.max(axis=0) - pts.min(axis=0)
            step = spacing * max(extent[1], extent[0] / MAX_ASPECT)
            assert_answer_matches_loop(ink.strokes, step)

    def test_points_stroke_ids(self):
        strokes = [np.zeros((3, 2)), np.ones((1, 2)), np.zeros((2, 2))]
        _, sidx = RawInk(strokes=strokes, id="i").points()
        np.testing.assert_array_equal(sidx, [0, 0, 0, 1, 2, 2])
        assert sidx.dtype == np.int64


class TestBoundedResampling:
    @pytest.mark.parametrize("height", [1e-6, 1e-300])
    def test_thin_stroke_resampled_by_its_width(self, height):
        ink = RawInk(strokes=[np.array([[0.0, 0.0], [1.0, height]])], id="thin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflowing cast on the way
            out = resample_and_normalize(ink, 0.05)
        # Size 1 / MAX_ASPECT at spacing 0.05: 200 chords.
        assert len(out.strokes[0]) == 201
        assert out.strokes[0][:, 0].max() == pytest.approx(MAX_ASPECT)

    def test_long_zigzag_rejected_fast(self):
        # 2,000 unit-high zig-zag segments at step 0.05 make 40,000 points.
        zigzag = np.column_stack([np.linspace(0.0, 1.0, 2001), np.arange(2001) % 2])
        ink = RawInk(strokes=[zigzag], id="zigzag")
        start = time.perf_counter()
        with pytest.raises(InkError, match="'zigzag'.*cap"):
            resample_and_normalize(ink, 0.05)
        assert time.perf_counter() - start < 1.0

    def test_cap_boundary(self):
        # (0, 0)-(0, 1) at spacing 1/n resamples to n + 1 points.
        n = MAX_POINTS - 1
        out = resample_and_normalize(vertical_two_point(), spacing=1.0 / n)
        assert len(out.strokes[0]) == MAX_POINTS
        with pytest.raises(InkError, match="cap"):
            resample_and_normalize(vertical_two_point(), spacing=1.0 / MAX_POINTS)

    def test_overflowing_coordinate_range_rejected(self):
        ink = RawInk(strokes=[np.array([[-1e308, 0.0], [1e308, 1.0]])], id="wide")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InkError, match="overflows"):
                resample_and_normalize(ink, 0.05)


class TestExtractFeatures:
    def fixture_ink(self):
        return RawInk(strokes=[np.array([[0.0, 0.0], [1.0, 0.0]]),
                               np.array([[3.0, 1.0]])], id="f")

    def test_hand_rows(self):
        feats = extract_features(self.fixture_ink())
        np.testing.assert_array_equal(feats[0], [0, 0, 1, 0, 3, 1, 1, 0])
        np.testing.assert_array_equal(feats[2], [3, 1, 0, 0, 0, 0, 0, 1])

    def test_stroke_boundary_row(self):
        feats = extract_features(self.fixture_ink())
        # last point of the first stroke is pen-up
        np.testing.assert_array_equal(feats[1], [1, 0, 2, 1, 2, 1, 0, 1])

    def test_pen_flags_one_hot(self):
        rng = np.random.default_rng(1)
        ink = RawInk(strokes=[rng.normal(0, 1, (9, 2)), rng.normal(0, 1, (4, 2))], id="p")
        feats = extract_features(ink)
        np.testing.assert_array_equal(feats[:, 6] + feats[:, 7], np.ones(len(feats)))

    def test_row_count_and_transition_positions(self):
        rng = np.random.default_rng(2)
        strokes = [rng.normal(0, 1, (n, 2)) for n in (5, 1, 7)]
        ink = RawInk(strokes=strokes, id="t")
        feats = extract_features(ink)
        assert len(feats) == 13
        up_positions = np.flatnonzero(feats[:, 7] == 1.0)
        np.testing.assert_array_equal(up_positions, [4, 5, 12])


class TestNormalizationInvariance:
    def test_translate_scale_invariant(self):
        rng = np.random.default_rng(7)
        strokes = [np.cumsum(rng.normal(0, 1, (20, 2)), axis=0) for _ in range(2)]
        base = RawInk(strokes=strokes, id="a")
        moved = RawInk(strokes=[s * 3.7 + np.array([11.0, -4.0]) for s in strokes], id="b")
        fa = extract_features(resample_and_normalize(base, 0.05))
        fb = extract_features(resample_and_normalize(moved, 0.05))
        np.testing.assert_allclose(fa, fb, atol=1e-9)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        inks = [
            RawInk(strokes=[rng.normal(0, 1, (5, 2))], id="a", category="c0",
                   label=["1", "+", "2"]),
            RawInk(strokes=[rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (2, 2))], id="b"),
        ]
        path = tmp_path / "set.jsonl"
        save_jsonl(path, inks)
        back = load_jsonl(path)
        assert [i.id for i in back] == ["a", "b"]
        assert back[0].category == "c0" and back[0].label == ["1", "+", "2"]
        assert back[1].category is None and back[1].label is None
        for orig, rt in zip(inks, back):
            for s1, s2 in zip(orig.strokes, rt.strokes):
                np.testing.assert_array_equal(s1, s2)  # shortest-repr floats round-trip

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"id": "x", "category": None, "label": None,
                           "strokes": [[[0.0, 0.0], [1.0, 1.0]]]})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(InkError, match="duplicate"):
            load_jsonl(path)

    @pytest.mark.parametrize("field,value", [
        ("label", "12"), ("label", [1, "+", 2]), ("label", {"a": 1}), ("label", 7),
        ("category", ["c"]), ("category", 5), ("category", {"c": 1}),
    ])
    def test_label_and_category_types_checked(self, tmp_path, field, value):
        sample = {"id": "x", "category": None, "label": None,
                  "strokes": [[[0.0, 0.0], [1.0, 1.0]]], field: value}
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(sample) + "\n")
        with pytest.raises(InkError, match=f"{field} must be"):
            load_jsonl(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(InkError, match="invalid JSON"):
            load_jsonl(path)

    def test_line_cap(self, tmp_path, monkeypatch):
        """A line of ``MAX_LINE_CHARS`` characters, its newline not counted,
        is read; one character more stops the reader before it parses that line."""
        import gssf.ink as ink_mod

        line = json.dumps({"id": "x", "strokes": [[[0.0, 0.0], [1.0, 1.0]]]})
        path = tmp_path / "long.jsonl"
        path.write_text(line + " " * (MAX_LINE_CHARS - len(line)) + "\n")
        assert len(load_jsonl(path)) == 1
        parsed, parse = [], ink_mod._parse_sample
        monkeypatch.setattr(ink_mod, "_parse_sample",
                            lambda path, lineno, line: parsed.append(lineno) or parse(
                                path, lineno, line))
        path.write_text(line + "\n" + line + " " * (MAX_LINE_CHARS + 1 - len(line)) + "\n")
        with pytest.raises(InkError, match=f":2: line over {MAX_LINE_CHARS} characters"):
            load_jsonl(path)
        assert parsed == [1]

    @pytest.mark.parametrize("strokes", [
        [[[0, 0]]] * (MAX_POINTS + 1),
        [[]] * (MAX_POINTS + 1),
        [[[0, 0], [1, 1]]] * (MAX_POINTS // 2) + [[[2, 2]]],
        [[[5, 5]] * (MAX_POINTS + 1)],
    ], ids=["one_point_strokes", "empty_strokes", "points", "repeated_point"])
    def test_stroke_and_point_cap(self, tmp_path, monkeypatch, strokes):
        """At most ``MAX_POINTS`` strokes and raw points per answer, checked
        before any array is made. Raw points bound the resampled count up to
        consecutive repeats, which resampling collapses: a stroke of
        ``MAX_POINTS + 1`` copies of one point resamples to one point, but is
        rejected here."""
        import gssf.ink as ink_mod

        monkeypatch.setattr(ink_mod, "RawInk", lambda **kw: pytest.fail("converted"))
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps({"id": "x", "strokes": strokes}) + "\n")
        with pytest.raises(InkError, match=f"more than {MAX_POINTS} strokes or points"):
            load_jsonl(path)

    def test_stroke_and_point_cap_boundary(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        for strokes in ([[[i, 0]] for i in range(MAX_POINTS)],
                        [[[i, i % 2] for i in range(MAX_POINTS)]]):
            path.write_text(json.dumps({"id": "x", "strokes": strokes}) + "\n")
            [ink] = load_jsonl(path)
            assert sum(len(s) for s in ink.strokes) == MAX_POINTS

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(InkError, match="empty"):
            load_jsonl(path)


# Random answers, some squashed nearly (or wholly) flat or upright.
squash = st.sampled_from([1.0, 1.0, 0.05, 1e-3, 1e-9, 0.0])
answers = st.tuples(
    st.lists(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=8),
             min_size=1, max_size=4),
    squash, squash)


class TestPreprocessingProperties:
    @given(answers, st.floats(0.02, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_origin_unit_size_and_idempotence(self, answer, spacing):
        strokes, sx, sy = answer
        arrays = [np.array(s, dtype=np.float64) * [sx, sy] for s in strokes]
        pts = np.concatenate(arrays)
        assume(np.ptp(pts, axis=0).any())
        once = resample_and_normalize(RawInk(strokes=arrays, id="p"), spacing)
        out = np.concatenate(once.strokes)
        assert out.min(axis=0).tolist() == [0.0, 0.0]
        extent = out.max(axis=0)
        assert max(extent[1], extent[0] / MAX_ASPECT) == pytest.approx(1.0, abs=1e-12)
        twice = resample_and_normalize(once, spacing)
        assert [len(s) for s in twice.strokes] == [len(s) for s in once.strokes]
        assert np.abs(np.concatenate(twice.strokes) - out).max() <= 1e-9
