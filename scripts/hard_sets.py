"""Write the answer-set specs of the broad training corpus, the ten hard
questions and the fifteen long-tail questions.

The corpus has 200 distinct labels of 1-7 glyphs, 6 answers each. Each hard
question q has one correct label of 3-6 glyphs, which no earlier set uses,
and four one-edit variants of it, all new; they are drawn 100/40/30/20/10
times. Each long-tail question has a correct label drawn the same way and
37 new variants: 38 categories of 40, 15, 10, 6, 5, 4, 3, 3, 2 (x5) and
1 (x25) answers, 121 in all. Its variants 1-12 are one edit of the correct
label, later ones chain one or two edits. Every draw comes from
``random.Random`` over the glyphs of ``synthgen.TEMPLATES`` in table order,
so the specs are a pure function of this script. Render a spec with
``gssf synth --spec <file> --out <jsonl>``.

Usage: python scripts/hard_sets.py [--out DIR]   (default: data/hard_sets)
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from gssf.synthgen import TEMPLATES

GLYPHS = list(TEMPLATES)
SPACING = 0.08
CORPUS_SEED, CORPUS_LABELS, CORPUS_COUNT = 77, 200, 6
CORPUS_JITTER = {"sigma": 0.03, "scale": 0.10, "rotation_deg": 8.0, "shear": 0.10}
HARD_SEED, QUESTIONS, HARD_COUNTS = 600, 10, (100, 40, 30, 20, 10)
HARD_JITTER = {"sigma": 0.05, "scale": 0.15, "rotation_deg": 12.0, "shear": 0.15}
TAIL_SEED, TAIL_QUESTIONS = 700, 15
TAIL_COUNTS = (40, 15, 10, 6, 5, 4, 3, 3) + (2,) * 5 + (1,) * 25
TAIL_ONE_EDIT = 12  # long-tail variants 1-12 are one edit of the correct label


def label(r: random.Random, lo: int, hi: int) -> tuple[str, ...]:
    return tuple(r.choice(GLYPHS) for _ in range(r.randint(lo, hi)))


def edit(lab: tuple[str, ...], r: random.Random) -> tuple[str, ...]:
    """One substitution, insertion or deletion, or a leading minus toggled."""
    op = r.choice(["sub", "ins", "del", "minus"])
    if op == "sub":
        i = r.randrange(len(lab))
        return lab[:i] + (r.choice([g for g in GLYPHS if g != lab[i]]),) + lab[i + 1:]
    if op == "ins":
        i = r.randrange(len(lab) + 1)
        return lab[:i] + (r.choice(GLYPHS),) + lab[i:]
    if op == "del" and len(lab) > 1:
        i = r.randrange(len(lab))
        return lab[:i] + lab[i + 1:]
    return lab[1:] if lab[0] == "-" and len(lab) > 1 else ("-",) + lab


def corpus_labels() -> list[tuple[str, ...]]:
    r = random.Random(5)
    labels: dict[tuple[str, ...], None] = {}
    while len(labels) < CORPUS_LABELS:
        labels.setdefault(label(r, 1, 7))
    return list(labels)


def question_labels(r: random.Random, used: set[tuple[str, ...]], questions: int,
                    size: int, one_edit: int) -> list[list[tuple[str, ...]]]:
    """Per question: a correct label of 3-6 glyphs that ``used`` lacks, then
    ``size - 1`` variants of it that are new and distinct. Variants 1 to
    ``one_edit`` are one edit; each later one chains ``r.randint(1, 2)``
    edits. A variant that is not new is drawn again. Every label of a
    question joins ``used``."""
    out = []
    for _ in range(questions):
        correct = label(r, 3, 6)
        while correct in used:
            correct = label(r, 3, 6)
        labels = [correct]
        while len(labels) < size:
            variant = correct
            for _ in range(1 if len(labels) <= one_edit else r.randint(1, 2)):
                variant = edit(variant, r)
            if variant not in used and variant not in labels:
                labels.append(variant)
        used.update(labels)
        out.append(labels)
    return out


def spec_text(seed: int, jitter: dict, categories: list[dict]) -> str:
    """The spec as JSON, one category per line."""
    head = [f' "seed": {seed},', f' "spacing": {SPACING},',
            f' "jitter": {json.dumps(jitter)},', ' "categories": [']
    cats = ",\n".join(f"  {json.dumps(c)}" for c in categories)
    return "\n".join(["{", *head, cats, " ]", "}"]) + "\n"


def specs() -> dict[str, str]:
    """File name -> spec text for the corpus, each hard and each long-tail question."""
    corpus = corpus_labels()
    out = {"corpus.json": spec_text(CORPUS_SEED, CORPUS_JITTER, [
        {"label": list(lab), "count": CORPUS_COUNT} for lab in corpus])}
    used = set(corpus)
    hard = question_labels(random.Random(3), used, QUESTIONS, len(HARD_COUNTS),
                           one_edit=len(HARD_COUNTS) - 1)
    for q, labels in enumerate(hard):
        out[f"hard_q{q}.json"] = spec_text(HARD_SEED + q, HARD_JITTER, [
            {"id": f"q{q}v{j}", "label": list(lab), "count": count}
            for j, (lab, count) in enumerate(zip(labels, HARD_COUNTS))])
    tail = question_labels(random.Random(8), used, TAIL_QUESTIONS, len(TAIL_COUNTS),
                           one_edit=TAIL_ONE_EDIT)
    for q, labels in enumerate(tail):
        out[f"tail_q{q}.json"] = spec_text(TAIL_SEED + q, HARD_JITTER, [
            {"id": f"t{q}v{j:02d}", "label": list(lab), "count": count}
            for j, (lab, count) in enumerate(zip(labels, TAIL_COUNTS))])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1]
                                             / "data" / "hard_sets"))
    out = Path(parser.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in specs().items():
        (out / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
