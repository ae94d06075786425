"""Pen-trajectory data model, preprocessing and per-point feature extraction.

An answer is an ordered list of strokes, each an ordered polyline of (x, y)
pen positions. Preprocessing scales the whole trajectory to unit height (a
tenth of its width for flat ink) and resamples every stroke to a uniform
arc-length step, after which each point is expanded into an 8-dimensional
feature row consumed by the recognizer.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import InputError

MAX_POINTS = 32_768  # resampled points per answer; ~300x a typical answer, bounds encoder cost
FEATURE_DIM = 8  # columns of extract_features' per-point rows, the recognizer's input width
FIELD_SEPARATORS = ",\r\n"  # ids and categories are written as unquoted CSV fields
MAX_ASPECT = 10  # ink scales by max(height, width / MAX_ASPECT), so flat ink stays short


class InkError(InputError):
    """Raised for structurally invalid or degenerate ink."""


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A finite real number that fits a float64 (not a bool, NaN or infinity)."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


@dataclass
class RawInk:
    """One handwritten answer: strokes in writing order plus metadata.

    ``strokes`` is a list of (P, 2) float arrays. ``category`` is the
    ground-truth answer class (if known) and ``label`` the ground-truth
    token sequence (if known).
    """

    strokes: list[np.ndarray]
    id: str = ""
    category: str | None = None
    label: list[str] | None = None

    def __post_init__(self):
        self.strokes = [np.asarray(s, dtype=np.float64) for s in self.strokes]

    def validate(self) -> None:
        if not self.strokes:
            raise InkError(f"ink {self.id!r}: no strokes")
        for i, s in enumerate(self.strokes):
            if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 1:
                raise InkError(f"ink {self.id!r}: stroke {i} is not a (P, 2) polyline")
            if not np.isfinite(s).all():
                raise InkError(f"ink {self.id!r}: stroke {i} has non-finite coordinates")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (L, 2) points and their (L,) stroke indices, writing order;
        the ink must pass ``validate``."""
        pts = np.concatenate(self.strokes, axis=0)
        sidx = np.repeat(np.arange(len(self.strokes)), [len(s) for s in self.strokes])
        return pts, sidx


def _resample(pts: np.ndarray, starts: np.ndarray, step: float):
    """Split every polyline segment into equal chords of roughly ``step``.

    ``pts`` holds all strokes' vertices in writing order and ``starts`` the
    index of each stroke's first vertex; no segment joins two strokes. Each
    stroke keeps its first vertex and every other original vertex (corners are
    never cut), so the output traces the same curves; consecutive duplicate
    points collapse, and a zero-length stroke keeps only its first point. A
    second pass at the same step subdivides nothing, which makes resampling
    idempotent. Returns the resampled points and each stroke's start in them.
    """
    seg = np.diff(pts, axis=0, prepend=pts[:1])  # seg[v] is the segment into vertex v
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    keep = seglen > 0.0
    # counts[v] is the number of output points vertex v ends: 1 for a stroke
    # start (whose incoming segment, joining two strokes, is dropped), else the
    # pieces of the segment into v (0 if it has zero length).
    counts = np.zeros(len(pts))
    counts[keep] = np.maximum(1.0, np.rint(seglen[keep] / step))
    counts[starts] = 1.0
    total = counts.sum()
    if not total <= MAX_POINTS:
        raise InkError(f"resamples to {total:.3g} points, over the {MAX_POINTS} cap")
    counts = counts.astype(np.int64)
    ends = np.cumsum(counts)
    vert = np.repeat(np.arange(len(pts)), counts)  # the vertex each output point ends
    # The segment into vertex v yields pts[v-1] + seg[v] * (j / counts[v]) for
    # j = 1..counts[v]; its last piece, and each stroke start, is pts[v].
    j = np.arange(1, len(vert) + 1) - (ends - counts)[vert]
    out = pts[vert - 1] + seg[vert] * (j / counts[vert])[:, None]
    ended = counts > 0
    out[ends[ended] - 1] = pts[ended]
    return out, (ends - counts)[starts]


def resample_and_normalize(ink: RawInk, spacing: float) -> RawInk:
    """Resample strokes at uniform arc length, then scale to unit size.

    The size is max(height, width / ``MAX_ASPECT``). Strokes are resampled
    first (step = ``spacing`` times the raw size) so that the subsequent
    normalization, which translates the min corner of the resampled points to
    the origin and scales both axes uniformly (aspect preserved), leaves the
    output's y-extent exactly [0, 1], or, for ink flatter than 1 :
    ``MAX_ASPECT``, its x-extent [0, ``MAX_ASPECT``] up to round-off. Within
    each stroke the output points are approximately ``spacing`` apart;
    single-point (or zero-length) strokes survive as one point. Idempotent up
    to float round-off. Needs ``spacing`` > 0 and strokes that are (P, 2)
    polylines; a non-finite coordinate fails the range check.
    """
    pts = np.concatenate(ink.strokes, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        extent = pts.max(axis=0) - pts.min(axis=0)
    if extent[0] == 0.0 and extent[1] == 0.0:
        raise InkError(f"ink {ink.id!r}: degenerate extent")
    if not np.isfinite(extent).all():
        raise InkError(f"ink {ink.id!r}: coordinates not finite or their range overflows")
    ref = max(extent[1], extent[0] / MAX_ASPECT)
    lens = [len(s) for s in ink.strokes]
    try:
        rpts, starts = _resample(pts, np.cumsum(lens) - lens, spacing * ref)
    except InkError as exc:
        raise InkError(f"ink {ink.id!r}: {exc}") from None
    mins = rpts.min(axis=0)
    # Every original vertex survives resampling, so rext >= extent and is not zero.
    rext = rpts.max(axis=0) - mins
    # True division keeps the attained extremes exactly at 0 and, for height-scaled ink, 1.
    denom = max(rext[1], rext[0] / MAX_ASPECT)
    out = (rpts - mins) / denom
    # Distinct points closer than round-off at the new scale merge; collapse them too.
    keep = np.ones(len(out), dtype=bool)
    keep[1:] = (out[1:] != out[:-1]).any(axis=1)
    keep[starts] = True
    strokes = np.split(out[keep], (np.cumsum(keep) - 1)[starts[1:]])
    return RawInk(strokes=strokes, id=ink.id, category=ink.category, label=ink.label)


def extract_features(ink: RawInk) -> np.ndarray:
    """Per-point (L, FEATURE_DIM) features: position, first/second forward offsets, pen state.

    Row i is [x, y, x(i+1)-x, y(i+1)-y, x(i+2)-x, y(i+2)-y, down, up] where
    missing forward neighbours are clamped to the final point (so the offsets
    vanish) and ``down``/``up`` one-hot encode whether the next point belongs
    to the same stroke. The final point is always flagged pen-up.
    """
    pts, sidx = ink.points()
    n = len(pts)
    ext = np.vstack([pts, pts[-1:], pts[-1:]])
    d1 = ext[1 : n + 1] - pts
    d2 = ext[2 : n + 2] - pts
    down = np.zeros(n)
    down[:-1] = (sidx[:-1] == sidx[1:]).astype(np.float64)
    feats = np.column_stack([pts[:, 0], pts[:, 1], d1[:, 0], d1[:, 1], d2[:, 0], d2[:, 1], down, 1.0 - down])
    return np.ascontiguousarray(feats, dtype=np.float64)


def _parse_sample(path: str | Path, lineno: int, line: str) -> RawInk:
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InkError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
    try:
        ink = RawInk(
            strokes=obj["strokes"],
            id=str(obj["id"]),
            category=obj.get("category"),
            label=obj.get("label"),
        )
        if not (ink.label is None or isinstance(ink.label, list)
                and all(isinstance(t, str) for t in ink.label)):
            raise ValueError("label must be null or a list of strings")
        if not (ink.category is None or isinstance(ink.category, str)):
            raise ValueError("category must be null or a string")
        if any(c in f for f in (ink.id, ink.category or "") for c in FIELD_SEPARATORS):
            raise ValueError("id and category may not contain ',', CR or LF")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # Overflow: an int past float64
        raise InkError(f"{path}:{lineno}: malformed sample ({exc})") from exc
    ink.validate()
    return ink


def load_jsonl(path: str | Path, max_answers: int | None = None) -> list[RawInk]:
    """Read an answer set from JSON Lines (one sample object per line),
    stopping with ``InkError`` at answer ``max_answers + 1`` when given."""
    inks = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if len(inks) == max_answers:
                    raise InkError(f"{path}:{lineno}: at most {max_answers} answers per file")
                inks.append(_parse_sample(path, lineno, line))
    except UnicodeDecodeError as exc:
        raise InkError(f"{path}: not UTF-8 text ({exc})") from None
    if not inks:
        raise InkError(f"{path}: empty answer set")
    ids = [ink.id for ink in inks]
    if len(set(ids)) != len(ids):
        raise InkError(f"{path}: duplicate sample ids")
    return inks


def save_jsonl(path: str | Path, inks: list[RawInk]) -> None:
    """Write an answer set as JSON Lines; floats keep shortest round-trip form."""
    with open(path, "w", encoding="utf-8") as fh:
        for ink in inks:
            obj = {
                "id": ink.id,
                "category": ink.category,
                "label": ink.label,
                "strokes": [s.tolist() for s in ink.strokes],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
