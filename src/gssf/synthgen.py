"""Deterministic synthetic answer-set generator.

Expressions are laid out glyph by glyph from a small hand-authored template
set (digits, operators, variables, parentheses, fraction bar). Each glyph
gets an independent random affine wobble (scale/rotation/shear) and
per-point Gaussian noise, all drawn from per-sample generators derived from
(seed, sample index) so output is independent of generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import InputError, read_json_object
from .ink import FIELD_SEPARATORS, RawInk, _is_int, _is_real, resample_and_normalize

GLYPH_GAP = 0.15
MAX_SPEC_ANSWERS = 12_000  # 10x the largest committed spec, data/hard_sets/corpus.json
MAX_LABEL_TOKENS = 30  # the default ArchConfig.max_decode_len; committed labels reach 7
# At most one category per answer, each with a label of at most 30 tokens of at most
# 8 bytes ('"frac", ') and 256 bytes for its count, id and layout: 5,952,000 bytes.
MAX_SPEC_BYTES = MAX_SPEC_ANSWERS * (8 * MAX_LABEL_TOKENS + 256)
SHUFFLE_STREAM = 999983  # sub-stream tag for the final sample shuffle


class SynthesisError(InputError):
    pass


def _glyph(strokes: list, advance: float) -> tuple[tuple[np.ndarray, ...], float]:
    arrays = tuple(np.array(s, dtype=np.float64) for s in strokes)
    for a in arrays:  # the table is shared by every render
        a.flags.writeable = False
    return arrays, advance


#: Glyph prototypes: symbol -> (polyline strokes inside the unit box, advance).
TEMPLATES = MappingProxyType({
    "0": _glyph([[(0.5, 0.95), (0.2, 0.8), (0.1, 0.5), (0.2, 0.2), (0.5, 0.05),
                  (0.8, 0.2), (0.9, 0.5), (0.8, 0.8), (0.5, 0.95)]], 0.75),
    "1": _glyph([[(0.25, 0.75), (0.5, 0.95), (0.5, 0.05)]], 0.5),
    "2": _glyph([[(0.15, 0.75), (0.3, 0.95), (0.65, 0.95), (0.8, 0.75), (0.8, 0.55),
                  (0.15, 0.1), (0.15, 0.05), (0.85, 0.05)]], 0.75),
    "3": _glyph([[(0.15, 0.85), (0.4, 0.95), (0.7, 0.85), (0.7, 0.6), (0.45, 0.5),
                  (0.7, 0.4), (0.7, 0.15), (0.4, 0.05), (0.15, 0.15)]], 0.7),
    "4": _glyph([[(0.65, 0.95), (0.15, 0.35), (0.85, 0.35)],
                 [(0.65, 0.7), (0.65, 0.05)]], 0.8),
    "5": _glyph([[(0.8, 0.95), (0.2, 0.95), (0.2, 0.55), (0.55, 0.6), (0.8, 0.45),
                  (0.8, 0.2), (0.55, 0.05), (0.2, 0.1)]], 0.7),
    "6": _glyph([[(0.75, 0.9), (0.4, 0.7), (0.2, 0.4), (0.25, 0.15), (0.5, 0.05),
                  (0.75, 0.15), (0.8, 0.35), (0.6, 0.5), (0.3, 0.45)]], 0.7),
    "7": _glyph([[(0.15, 0.95), (0.85, 0.95), (0.4, 0.05)]], 0.7),
    "8": _glyph([[(0.5, 0.95), (0.25, 0.8), (0.4, 0.55), (0.7, 0.4), (0.75, 0.2),
                  (0.5, 0.05), (0.25, 0.2), (0.3, 0.4), (0.6, 0.55), (0.75, 0.8),
                  (0.5, 0.95)]], 0.75),
    "9": _glyph([[(0.75, 0.65), (0.5, 0.55), (0.25, 0.65), (0.2, 0.85), (0.45, 0.95),
                  (0.7, 0.9), (0.75, 0.65), (0.7, 0.3), (0.4, 0.05)]], 0.7),
    "+": _glyph([[(0.5, 0.8), (0.5, 0.2)], [(0.15, 0.5), (0.85, 0.5)]], 0.7),
    "-": _glyph([[(0.15, 0.5), (0.85, 0.5)]], 0.7),
    "=": _glyph([[(0.15, 0.62), (0.85, 0.62)], [(0.15, 0.38), (0.85, 0.38)]], 0.7),
    "x": _glyph([[(0.15, 0.85), (0.85, 0.15)], [(0.85, 0.85), (0.15, 0.15)]], 0.7),
    "y": _glyph([[(0.15, 0.9), (0.5, 0.45)], [(0.85, 0.9), (0.45, 0.4), (0.2, 0.05)]], 0.7),
    "(": _glyph([[(0.65, 0.95), (0.45, 0.7), (0.38, 0.5), (0.45, 0.3), (0.65, 0.05)]], 0.45),
    ")": _glyph([[(0.35, 0.95), (0.55, 0.7), (0.62, 0.5), (0.55, 0.3), (0.35, 0.05)]], 0.45),
    "frac": _glyph([[(0.05, 0.5), (0.95, 0.5)]], 1.1),
})


@dataclass(frozen=True)
class JitterParams:
    sigma: float = 0.0          # per-point noise, fraction of glyph height
    scale: float = 0.0          # per-glyph scale range 1 +- scale
    rotation_deg: float = 0.0   # per-glyph rotation range in degrees
    shear: float = 0.0          # per-glyph horizontal shear range

    def validate(self) -> None:
        if not all(_is_real(v) and v >= 0 for v in vars(self).values()):
            raise SynthesisError("jitter ranges must be non-negative numbers")
        # rng.uniform(-r, r) needs the width 2r to be finite.
        if not math.isfinite(2.0 * max(self.scale, self.rotation_deg, self.shear)):
            raise SynthesisError("jitter scale, rotation_deg and shear may be at most half "
                                 "the largest float64")


@dataclass(frozen=True)
class CategorySpec:
    label: tuple[str, ...]
    count: int
    id: str = ""


@dataclass(frozen=True)
class AnswerSetSpec:
    categories: tuple[CategorySpec, ...]
    jitter: JitterParams = field(default_factory=JitterParams)
    spacing: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if len(self.categories) < 2:
            raise SynthesisError("need at least two categories")
        if not all(_is_int(c.count) and c.count >= 1 for c in self.categories):
            raise SynthesisError("category counts must be integers of at least 1")
        if sum(c.count for c in self.categories) > MAX_SPEC_ANSWERS:
            raise SynthesisError(f"a spec may ask for at most {MAX_SPEC_ANSWERS} answers")
        if not all(isinstance(c.label, tuple) and 0 < len(c.label) <= MAX_LABEL_TOKENS
                   and all(isinstance(t, str) for t in c.label) for c in self.categories):
            raise SynthesisError(f"labels must be 1 to {MAX_LABEL_TOKENS} token strings")
        unknown = [t for c in self.categories for t in c.label if t not in TEMPLATES]
        if unknown:
            raise SynthesisError(f"no template for token {unknown[0]!r}")
        ids = [c.id for c in self.categories if c.id]
        if len(ids) != len(set(ids)):
            raise SynthesisError("category ids must be distinct")
        if any(ch in i for i in ids for ch in FIELD_SEPARATORS):  # ids become sample ids
            raise SynthesisError("category ids may not contain ',', CR or LF")
        if not _is_real(self.spacing) or not self.spacing > 0:
            raise SynthesisError("spacing must be a positive number")
        if not _is_int(self.seed) or self.seed < 0:
            raise SynthesisError("seed must be a non-negative integer")
        self.jitter.validate()

    @staticmethod
    def from_dict(obj: dict) -> "AnswerSetSpec":
        try:
            jitter = JitterParams(**obj.get("jitter", {}))
            categories = tuple(  # a label that is not a list fails validation as None
                CategorySpec(label=tuple(c["label"]) if isinstance(c["label"], list) else None,
                             count=c["count"], id=str(c.get("id", "")))
                for c in obj["categories"]
            )
            spec = AnswerSetSpec(categories=categories, jitter=jitter,
                                 **{key: obj[key] for key in ("spacing", "seed") if key in obj})
        except (KeyError, TypeError, ValueError) as exc:
            raise SynthesisError(f"malformed answer-set spec: {exc}") from exc
        spec.validate()
        return spec


def load_spec(path: str | Path) -> AnswerSetSpec:
    return AnswerSetSpec.from_dict(read_json_object(path, MAX_SPEC_BYTES, "spec", SynthesisError))


def render_expression(tokens: list[str], jitter: JitterParams,
                      rng: np.random.Generator) -> RawInk:
    """Lay ``TEMPLATES`` glyphs left to right and apply the per-glyph jitter model.

    Needs a non-empty ``tokens`` of ``TEMPLATES`` keys and a valid ``jitter``."""
    strokes: list[np.ndarray] = []
    cursor = 0.0
    for tok in tokens:
        glyph, advance = TEMPLATES[tok]
        scale = 1.0 + rng.uniform(-jitter.scale, jitter.scale)
        theta = math.radians(rng.uniform(-jitter.rotation_deg, jitter.rotation_deg))
        shear = rng.uniform(-jitter.shear, jitter.shear)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        # rotation @ shear @ isotropic scale, applied about the glyph centre
        mat = np.array([[cos_t, -sin_t], [sin_t, cos_t]]) @ np.array([[1.0, shear], [0.0, 1.0]])
        mat *= scale
        centre = np.array([advance / 2.0, 0.5])
        offset = np.array([cursor, 0.0])
        for proto in glyph:
            pts = (proto - centre) @ mat.T + centre + offset
            pts = pts + rng.normal(0.0, 1.0, size=pts.shape) * jitter.sigma
            strokes.append(pts)
        cursor += advance + GLYPH_GAP
    return RawInk(strokes=strokes)


def generate_answer_set(spec: AnswerSetSpec) -> list[RawInk]:
    """Render every category's samples, resample, label and shuffle them.

    Deterministic for a fixed spec: sample i draws from a generator seeded by
    (spec.seed, i), so parallel or partial generation cannot change output.
    Needs a ``spec`` that passed ``validate``.
    """
    samples: list[RawInk] = []
    index = 0
    for ci, cat in enumerate(spec.categories):
        cat_id = cat.id or f"c{ci:02d}"
        for si in range(cat.count):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
            ink = render_expression(list(cat.label), spec.jitter, rng)
            ink = resample_and_normalize(ink, spec.spacing)
            samples.append(RawInk(strokes=ink.strokes, id=f"{cat_id}_{si:03d}",
                                  category=cat_id, label=list(cat.label)))
            index += 1
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, SHUFFLE_STREAM]))
    return [samples[i] for i in shuffle_rng.permutation(len(samples))]
