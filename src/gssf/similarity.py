"""Pairwise similarity between answers, built on the trained recognizer.

For answers a and b, the one-directional score is the total log-probability
of a's decoded tokens when teacher-forced through the decoder conditioned on
b's encoding, minus the total log-probability the decoder assigned to those
same tokens under a's own encoding. The symmetric score averages the two
directions; min/max/one-directional variants and a negated token edit
distance baseline share the same "larger means more similar" convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import RunFailure, seq2seq
from .ink import RawInk, extract_features, resample_and_normalize
from .seq2seq import Annotations, ModelParams, ScoredDecode


class SimilarityKind(str, Enum):
    GSSF = "gssf"
    ASYMMETRIC = "asymmetric"
    MIN = "min"
    MAX = "max"
    NEG_EDIT_DISTANCE = "neg_edit_distance"


#: Kinds derived from the cross-conditioned score F (everything but the edit baseline).
GSSF_FAMILY = frozenset(
    {SimilarityKind.GSSF, SimilarityKind.ASYMMETRIC, SimilarityKind.MIN, SimilarityKind.MAX}
)
#: Kinds for which score(a, b) == score(b, a).
SYMMETRIC_KINDS = frozenset(
    {SimilarityKind.GSSF, SimilarityKind.MIN, SimilarityKind.MAX,
     SimilarityKind.NEG_EDIT_DISTANCE}
)
#: Kinds whose absolute unnormalized scores form a distance matrix (method m3).
DISTANCE_KINDS = GSSF_FAMILY & SYMMETRIC_KINDS


class UnscorableAnswer(RunFailure):
    """An answer whose greedy decode is empty cannot be scored by the F family."""


@dataclass
class AnswerScoring:
    """Per-answer cache: encoder annotations plus the greedy decode."""

    id: str
    annotations: Annotations
    decode: ScoredDecode

    @property
    def scorable(self) -> bool:
        return len(self.decode.tokens) > 0


def score_answers(params: ModelParams, inks: list[RawInk]) -> list[AnswerScoring]:
    """Preprocess every answer, then encode and greedy-decode them in padded batches."""
    feats = [extract_features(resample_and_normalize(ink, params.arch.resample_spacing))
             for ink in inks]
    anns = seq2seq.encode_batch(params, feats)
    decodes = seq2seq.greedy_decode_batch(params, anns)
    return [AnswerScoring(id=ink.id, annotations=ann, decode=decode)
            for ink, ann, decode in zip(inks, anns, decodes)]


def conditional_score(a: AnswerScoring, b: AnswerScoring, params: ModelParams) -> float:
    """One-directional score F(a|b): how plausible a's decode is under b's encoding.

    Zero when a and b are the same answer (both terms cancel); always finite.
    """
    if not a.scorable:
        raise UnscorableAnswer(f"unscorable answer {a.id!r}")
    if a is b or a.id == b.id:
        return 0.0
    cross = seq2seq.teacher_forced_logprobs(params, b.annotations, a.decode.tokens)
    return float(np.sum(cross) - np.sum(a.decode.self_logprobs))


def gssf_score(a: AnswerScoring, b: AnswerScoring, params: ModelParams) -> float:
    """Symmetric similarity: the average of F(a|b) and F(b|a)."""
    return (conditional_score(a, b, params) + conditional_score(b, a, params)) / 2.0


def variant_score(kind: SimilarityKind, a: AnswerScoring, b: AnswerScoring,
                  params: ModelParams) -> float:
    """Similarity under any supported kind (larger = more similar)."""
    kind = SimilarityKind(kind)
    if kind == SimilarityKind.NEG_EDIT_DISTANCE:
        return -float(edit_distance(a.decode.tokens, b.decode.tokens))
    if not b.scorable:
        raise UnscorableAnswer(f"unscorable answer {b.id!r}")
    if kind == SimilarityKind.ASYMMETRIC:
        return conditional_score(a, b, params)
    fab = conditional_score(a, b, params)
    fba = conditional_score(b, a, params)
    if kind == SimilarityKind.MIN:
        return min(fab, fba)
    if kind == SimilarityKind.MAX:
        return max(fab, fba)
    return (fab + fba) / 2.0


def distinct_index(seqs: list[list[int]]) -> tuple[list[list[int]], np.ndarray]:
    """The distinct sequences in first-seen order, and each input's index among them."""
    first: dict[tuple[int, ...], int] = {}
    index = np.array([first.setdefault(tuple(seq), len(first)) for seq in seqs], dtype=np.int64)
    return [list(seq) for seq in first], index


def cross_score_matrix(answers: list[AnswerScoring], params: ModelParams) -> np.ndarray:
    """F[i, j] = F(answer_i | answer_j) over all scorable pairs, NaN elsewhere.

    F(a|b) depends on a only through a's decoded tokens, so each distinct
    decode is teacher-forced once against every scorable answer's encoding,
    in one ``cross_logprob_sums`` call, and the sums are scattered to every
    answer with that decode. Diagonal entries are exactly zero.
    """
    n = len(answers)
    rows = np.array([i for i, a in enumerate(answers) if a.scorable], dtype=np.int64)
    f = np.full((n, n), np.nan)
    if not len(rows):
        return f
    seqs, which = distinct_index([answers[i].decode.tokens for i in rows])
    self_sums = np.array([np.sum(answers[i].decode.self_logprobs) for i in rows])
    sums = seq2seq.cross_logprob_sums(params, [answers[j].annotations for j in rows], seqs)
    cross = sums[:, which].T
    cross -= self_sums[:, None]
    f[np.ix_(rows, rows)] = cross
    f[rows, rows] = 0.0
    return f


def edit_distance(source: list, target: list) -> int:
    """Levenshtein distance over token symbols (unit-cost insert/delete/substitute)."""
    if len(source) < len(target):
        source, target = target, source
    prev = list(range(len(target) + 1))
    for i, s_tok in enumerate(source, start=1):
        cur = [i] + [0] * len(target)
        for j, t_tok in enumerate(target, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (s_tok != t_tok))
        prev = cur
    return prev[-1]
