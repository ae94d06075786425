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
from types import MappingProxyType

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


#: How each kind built on the cross-conditioned score F combines F(a|b) and
#: F(b|a), scalars or whole matrices, into a new score(a, b). Float addition,
#: min and max commute, so all but the asymmetric kind are bit-exactly symmetric.
COMBINE = MappingProxyType({
    SimilarityKind.GSSF: lambda fab, fba: (fab + fba) / 2.0,
    SimilarityKind.ASYMMETRIC: lambda fab, fba: np.copy(fab),
    SimilarityKind.MIN: np.minimum,
    SimilarityKind.MAX: np.maximum,
})
#: Kinds derived from F (everything but the edit baseline).
GSSF_FAMILY = frozenset(COMBINE)
#: Kinds whose absolute unnormalized scores form a distance matrix (method m3).
DISTANCE_KINDS = GSSF_FAMILY - {SimilarityKind.ASYMMETRIC}


class UnscorableAnswer(RunFailure):
    """The F family cannot score an answer whose greedy decode is empty, nor
    pairs whose cross scores are not finite."""


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
    return [AnswerScoring(id=ink.id, annotations=ann, decode=decode)
            for ink, (ann, decode) in zip(inks, seq2seq.encode_and_decode(params, feats))]


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
    return variant_score(SimilarityKind.GSSF, a, b, params)


def variant_score(kind: SimilarityKind, a: AnswerScoring, b: AnswerScoring,
                  params: ModelParams) -> float:
    """Similarity under any supported kind (larger = more similar)."""
    kind = SimilarityKind(kind)
    if kind == SimilarityKind.NEG_EDIT_DISTANCE:
        return -float(edit_distance(a.decode.tokens, b.decode.tokens))
    fab, fba = conditional_score(a, b, params), conditional_score(b, a, params)
    return float(COMBINE[kind](fab, fba))


def distinct_index(seqs: list[list[int]]) -> tuple[list[list[int]], np.ndarray]:
    """The distinct sequences in first-seen order, and each input's index among them."""
    first: dict[tuple[int, ...], int] = {}
    index = np.array([first.setdefault(tuple(seq), len(first)) for seq in seqs], dtype=np.int64)
    return [list(seq) for seq in first], index


def cross_score_matrix(answers: list[AnswerScoring], params: ModelParams) -> np.ndarray:
    """F[i, j] = F(answer_i | answer_j) over all scorable pairs, NaN elsewhere.

    F(a|b) depends on a only through a's decoded tokens, so each distinct
    decode, the empty one included, is teacher-forced once against every
    answer's encoding, in one ``cross_logprob_sums`` call on the encoder's
    chunks. Both terms, log P(dec_i | answer_j) and log P(dec_i | answer_i),
    come from those sums, so diagonal entries are exactly zero. Raises
    ``UnscorableAnswer`` when no answer is scorable, or when a scorable
    pair's score is not finite, as with a checkpoint whose finite weights
    overflow.
    """
    scorable = np.array([a.scorable for a in answers])
    if not scorable.any():
        raise UnscorableAnswer("all answers are unscorable")
    seqs, which = distinct_index([a.decode.tokens for a in answers])
    f = seq2seq.cross_logprob_sums(params, [a.annotations for a in answers], seqs).T[which]
    f -= np.diag(f).copy()[:, None]  # a copy: an in-place view would buffer an N x N temporary
    f[~scorable] = f[:, ~scorable] = np.nan
    if np.count_nonzero(np.isfinite(f)) != np.count_nonzero(scorable) ** 2:
        raise UnscorableAnswer("the recognizer's cross scores are not finite")
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
