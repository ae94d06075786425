"""Similarity-based representation: the N x N pairwise score matrix.

Row i is answer i's similarity vector against the whole answer set. One
global min-max, which preserves symmetry, normalizes the matrix into [0, 1]
before clustering consumes it. Matrices export to CSV and to 8-bit binary
PGM heatmaps for visual inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .seq2seq import ModelParams, ScoredDecode
from .similarity import (COMBINE, AnswerScoring, SimilarityKind, cross_score_matrix,
                         distinct_index, edit_distance)


@dataclass
class SbRMatrix:
    values: np.ndarray
    ids: list[str]
    degenerate: bool = False


def build_sbr_matrix(answers: list[AnswerScoring], kind: SimilarityKind,
                     params: ModelParams, f: np.ndarray | None = None) -> SbRMatrix:
    """Pairwise similarity matrix (unnormalized) under the given kind.

    For the F-family kinds, any answer with an empty decode gets its row and
    column (diagonal excluded) filled with the minimum computed score. Pass
    ``f``, a precomputed ``cross_score_matrix`` (finite but for the NaN rows and
    columns of unscorable answers), to share one F pass; edit ignores it.
    """
    if f is None and kind in COMBINE:
        f = cross_score_matrix(answers, params)
    return _sbr_matrix([a.id for a in answers], [a.decode for a in answers], kind, f)


def _sbr_matrix(ids: list[str], decodes: list[ScoredDecode], kind: SimilarityKind,
                f: np.ndarray | None) -> SbRMatrix:
    """``build_sbr_matrix`` from what it reads of the answers, so that the
    recognizer and the annotations can be freed once ``f`` is known."""
    if kind == SimilarityKind.NEG_EDIT_DISTANCE:
        # Answers with equal decodes share a row of distances: compute each
        # distinct pair once, then scatter.
        seqs, which = distinct_index([d.tokens for d in decodes])
        dist = np.zeros((len(seqs), len(seqs)))
        for p in range(len(seqs)):
            for q in range(p + 1, len(seqs)):
                dist[p, q] = dist[q, p] = edit_distance(seqs[p], seqs[q])
        values = -dist[np.ix_(which, which)]
        np.fill_diagonal(values, 0.0)
        return SbRMatrix(values=values, ids=ids)

    values = COMBINE[kind](f, f.T)
    bad = [i for i, d in enumerate(decodes) if not d.tokens]
    if bad:
        fill = np.nanmin(values)
        values[bad, :] = fill
        values[:, bad] = fill
        values[bad, bad] = 0.0
    return SbRMatrix(values=values, ids=ids)


def normalize_unit_interval(m: SbRMatrix) -> SbRMatrix:
    """Min-max normalize all entries into [0, 1] with one min/max over the
    whole matrix, which preserves symmetry. A constant matrix normalizes to
    zeros and sets the ``degenerate`` flag.
    """
    vmin, vmax = float(m.values.min()), float(m.values.max())
    if vmax == vmin:
        return replace(m, values=np.zeros_like(m.values), degenerate=True)
    return replace(m, values=(m.values - vmin) / (vmax - vmin))


def save_csv(path: str | Path, m: SbRMatrix) -> None:
    """Write the matrix as CSV, one row at a time; its ids hold none of
    ``ink.FIELD_SEPARATORS``."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id," + ",".join(m.ids) + "\n")
        for sample_id, row in zip(m.ids, m.values):
            out.write(sample_id + "," + ",".join(map(repr, row.tolist())) + "\n")


def to_pgm(m: SbRMatrix) -> bytes:
    """8-bit binary PGM heatmap of a matrix normalized into [0, 1]."""
    n = len(m.ids)
    pixels = np.rint(255.0 * m.values).astype(np.uint8)
    return f"P5\n{n} {n}\n255\n".encode("ascii") + pixels.tobytes()


def save_pgm(path: str | Path, m: SbRMatrix) -> None:
    Path(path).write_bytes(to_pgm(m))
