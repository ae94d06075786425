"""Deterministic synthetic answer-set generation."""

import math
import sys

import numpy as np
import pytest

from gssf.ink import load_jsonl, resample_and_normalize, save_jsonl
from gssf.synthgen import (TEMPLATES, AnswerSetSpec, CategorySpec, JitterParams,
                           SynthesisError, generate_answer_set, load_spec, render_expression)


TWO_CATEGORIES = '[{"label": ["1"], "count": 1}, {"label": ["2"], "count": 1}]'


def small_spec(**overrides):
    base = dict(
        categories=(CategorySpec(label=("1", "+", "2"), count=3),
                    CategorySpec(label=("x", "=", "7"), count=3)),
        jitter=JitterParams(sigma=0.02, scale=0.05, rotation_deg=5.0),
        spacing=0.1,
        seed=21,
    )
    base.update(overrides)
    return AnswerSetSpec(**base)


class TestTemplates:
    def test_expected_symbol_inventory(self):
        assert set("0123456789") <= set(TEMPLATES)
        assert {"+", "-", "=", "x", "y", "(", ")", "frac"} <= set(TEMPLATES)

    def test_strokes_inside_unit_box(self):
        for strokes, advance in TEMPLATES.values():
            assert strokes and advance > 0.0
            for stroke in strokes:
                assert stroke.dtype == np.float64 and stroke.ndim == 2
                assert stroke.shape[1] == 2 and len(stroke) >= 2
                assert stroke.min() >= 0.0 and stroke.max() <= 1.0

    def test_shared_table_is_read_only_and_unchanged(self):
        """Every render reads the one module-level table: generating the
        pinned set leaves it as it was, and no array of it can be written."""
        from conftest import benchmark_spec

        before = {sym: ([s.copy() for s in strokes], advance)
                  for sym, (strokes, advance) in TEMPLATES.items()}
        generate_answer_set(benchmark_spec())
        assert TEMPLATES.keys() == before.keys()
        for sym, (strokes, advance) in TEMPLATES.items():
            assert isinstance(strokes, tuple) and advance == before[sym][1]
            assert len(strokes) == len(before[sym][0])
            for stroke, copy in zip(strokes, before[sym][0]):
                np.testing.assert_array_equal(stroke, copy)
                assert not stroke.flags.writeable
        with pytest.raises(TypeError):
            TEMPLATES["z"] = TEMPLATES["x"]


class TestRenderExpression:
    def test_zero_jitter_bit_identical(self):
        a = render_expression(["1", "+", "2"], JitterParams(), np.random.default_rng(0))
        b = render_expression(["1", "+", "2"], JitterParams(), np.random.default_rng(0))
        for s1, s2 in zip(a.strokes, b.strokes):
            np.testing.assert_array_equal(s1, s2)

    def test_single_token_stroke_count(self):
        for tok in ("4", "+", "=", "x", "1"):
            ink = render_expression([tok], JitterParams(), np.random.default_rng(1))
            assert len(ink.strokes) == len(TEMPLATES[tok][0])

    def test_layout_left_to_right(self):
        ink = render_expression(["1", "+", "2"], JitterParams(), np.random.default_rng(2))
        glyph_strokes = [1, 2, 1]  # strokes per glyph for 1, +, 2
        centroids = []
        pos = 0
        for count in glyph_strokes:
            pts = np.concatenate(ink.strokes[pos:pos + count])
            centroids.append(pts[:, 0].mean())
            pos += count
        assert centroids[0] < centroids[1] < centroids[2]


class TestGenerateAnswerSet:
    def test_counts_and_labels(self):
        spec = small_spec()
        inks = generate_answer_set(spec)
        assert len(inks) == 6
        by_cat = {}
        for ink in inks:
            by_cat.setdefault(ink.category, []).append(ink)
        assert {c: len(v) for c, v in by_cat.items()} == {"c00": 3, "c01": 3}
        for ink in inks:
            expected = ("1", "+", "2") if ink.category == "c00" else ("x", "=", "7")
            assert tuple(ink.label) == expected

    def test_deterministic(self):
        a = generate_answer_set(small_spec())
        b = generate_answer_set(small_spec())
        assert [i.id for i in a] == [i.id for i in b]
        for x, y in zip(a, b):
            for s1, s2 in zip(x.strokes, y.strokes):
                np.testing.assert_array_equal(s1, s2)

    def test_zero_jitter_identical_within_category(self):
        spec = small_spec(jitter=JitterParams())
        inks = sorted(generate_answer_set(spec), key=lambda i: i.id)
        first = [i for i in inks if i.category == "c00"]
        for other in first[1:]:
            for s1, s2 in zip(first[0].strokes, other.strokes):
                np.testing.assert_array_equal(s1, s2)

    def test_output_already_resampled(self):
        spec = small_spec()
        for ink in generate_answer_set(spec):
            again = resample_and_normalize(ink, spec.spacing)
            for s1, s2 in zip(ink.strokes, again.strokes):
                np.testing.assert_array_equal(s1, s2)

    def test_jsonl_round_trip_lossless(self, tmp_path):
        inks = generate_answer_set(small_spec())
        path = tmp_path / "set.jsonl"
        save_jsonl(path, inks)
        back = load_jsonl(path)
        for x, y in zip(inks, back):
            assert (x.id, x.category, x.label) == (y.id, y.category, y.label)
            for s1, s2 in zip(x.strokes, y.strokes):
                np.testing.assert_array_equal(s1, s2)

    def test_missing_template(self, tmp_path):
        """A glyph without a template is a spec error, found when the spec is
        read; the message names the first unknown token in category order."""
        spec = small_spec(categories=(CategorySpec(("1", "@"), 1), CategorySpec(("#", "%"), 1)))
        with pytest.raises(SynthesisError, match="no template for token '@'"):
            spec.validate()
        path = tmp_path / "spec.json"
        path.write_text('{"categories": [{"label": ["1"], "count": 1}, '
                        '{"label": ["2", "z"], "count": 1}]}')
        with pytest.raises(SynthesisError, match="no template for token 'z'"):
            load_spec(path)

    def test_spec_validation(self):
        with pytest.raises(SynthesisError):
            AnswerSetSpec(categories=(CategorySpec(("1",), 1),)).validate()
        with pytest.raises(SynthesisError):
            small_spec(categories=(CategorySpec(("1",), 0), CategorySpec(("2",), 1))).validate()
        with pytest.raises(SynthesisError):
            small_spec(jitter=JitterParams(sigma=-0.1)).validate()
        with pytest.raises(SynthesisError):
            small_spec(spacing=0.0).validate()

    @pytest.mark.parametrize("name", ["scale", "rotation_deg", "shear"])
    def test_jitter_range_bound(self, name):
        """rng.uniform(-r, r) overflows once 2r does: r may be at most half the
        largest float64, and a spec at that bound renders."""
        bound = sys.float_info.max / 2
        spec = small_spec(jitter=JitterParams(**{name: bound}))
        assert len(generate_answer_set(spec)) == 6
        with pytest.raises(SynthesisError, match="at most half the largest float64"):
            small_spec(jitter=JitterParams(**{name: math.nextafter(bound, math.inf)})).validate()

    def test_spec_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        import json

        path.write_text(json.dumps({
            "seed": 21, "spacing": 0.1,
            "jitter": {"sigma": 0.02, "scale": 0.05, "rotation_deg": 5.0},
            "categories": [{"label": ["1", "+", "2"], "count": 3},
                           {"label": ["x", "=", "7"], "count": 3}],
        }))
        assert load_spec(path) == spec

    def test_spec_defaults_come_from_the_dataclass(self):
        categories = [{"label": ["1"], "count": 1}, {"label": ["2"], "count": 1}]
        spec = AnswerSetSpec.from_dict({"categories": categories})
        assert spec == AnswerSetSpec(categories=(CategorySpec(("1",), 1),
                                                 CategorySpec(("2",), 1)))

    def test_malformed_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(SynthesisError):
            load_spec(path)

    @pytest.mark.parametrize("text", [
        '"spec"', "[1]",
        '{"categories": %s, "jitter": {"sigma": "a"}}' % TWO_CATEGORIES,
        '{"categories": %s, "jitter": {"scale": NaN}}' % TWO_CATEGORIES,
        '{"categories": %s, "seed": 2.5}' % TWO_CATEGORIES,
        '{"categories": %s, "spacing": true}' % TWO_CATEGORIES,
        '{"categories": [{"label": ["1"], "count": 2.7}, {"label": ["2"], "count": 1}]}',
        '{"categories": [{"label": ["1"], "count": true}, {"label": ["2"], "count": 1}]}',
        '{"categories": [{"label": "12", "count": 1}, {"label": ["2"], "count": 1}]}',
        '{"categories": [{"label": [1], "count": 1}, {"label": ["2"], "count": 1}]}',
        '{"categories": [{"label": [], "count": 1}, {"label": ["2"], "count": 1}]}',
        '{"categories": %s, "jitter": {"scale": 1e308}}' % TWO_CATEGORIES,
        '{"categories": %s, "jitter": {"rotation_deg": 9e307}}' % TWO_CATEGORIES,
        '{"categories": %s, "jitter": {"shear": 9e307}}' % TWO_CATEGORIES,
    ], ids=["text", "list", "text_sigma", "nan_scale", "float_seed", "bool_spacing",
            "float_count", "bool_count", "text_label", "int_token", "empty_label",
            "huge_scale", "huge_rotation", "huge_shear"])
    def test_malformed_spec_values(self, tmp_path, text):
        """Nothing in a spec is truncated or converted to fit: a float count
        or seed, a string or empty label, a non-numeric jitter range all fail."""
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SynthesisError):
            load_spec(path)


class TestSeparability:
    def test_intra_variation_below_inter_variation(self):
        """Mean point-wise trajectory distance must separate categories at the
        pinned jitter level; this underpins the end-to-end acceptance run."""
        from conftest import benchmark_spec

        inks = generate_answer_set(benchmark_spec())

        def signature(ink, points=64):
            pts = np.concatenate(ink.strokes)
            arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
            targets = np.linspace(0.0, arc[-1], points)
            return np.column_stack([np.interp(targets, arc, pts[:, 0]),
                                    np.interp(targets, arc, pts[:, 1])])

        sigs = [signature(i) for i in inks]
        cats = [i.category for i in inks]
        intra, inter = [], []
        rng = np.random.default_rng(0)
        idx = rng.choice(len(inks), size=(400, 2))
        for i, j in idx:
            if i == j:
                continue
            d = float(np.linalg.norm(sigs[i] - sigs[j], axis=1).mean())
            (intra if cats[i] == cats[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)
