"""Shared fixtures: the pinned synthetic benchmark and the model trained on it.

Training runs once per session (about a minute of CPU); everything that
needs a competent recognizer shares that snapshot. The benchmark parameters
are frozen here on purpose: changing them invalidates the calibrated
acceptance thresholds.

The ``hypothesis`` property tests run under the ``tier1`` profile: examples
derive from each test's name, not from a random seed or a saved example
database, so every run draws the same examples. ``HYPOTHESIS_PROFILE=random``
selects the ``random`` profile, which searches afresh on each run. Both keep
each test's own ``max_examples`` and ``deadline``.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gssf.ink import save_jsonl
from gssf.seq2seq import ArchConfig, TrainConfig, save_checkpoint, train
from gssf.similarity import cross_score_matrix, score_answers
from gssf.synthgen import AnswerSetSpec, CategorySpec, JitterParams, generate_answer_set

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

BENCHMARK_SEED = 11
BENCHMARK_TRAIN_SEED = 0
BENCHMARK_SPACING = 0.08
BENCHMARK_CATEGORIES = (
    CategorySpec(label=("x", "=", "2"), count=20),
    CategorySpec(label=("x", "=", "-", "2"), count=20),
    CategorySpec(label=("x", "=", "1", "2"), count=20),
    CategorySpec(label=("y", "=", "2", "x"), count=20),
    CategorySpec(label=("(", "x", "+", "1", ")"), count=20),
)


def read_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """(ids, values) of a matrix CSV as ``sbr.save_csv`` writes it. Lines end at
    LF only, so an id holding U+2028, VT or the like reads back whole."""
    lines = Path(path).read_text(encoding="utf-8").removesuffix("\n").split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == lines[0].split(",")[1:]
    return [row[0] for row in rows], np.array([[float(v) for v in row[1:]] for row in rows])


def with_duplicate_record(data):
    """Checkpoint bytes ``data`` with the last tensor record, ``out_b``,
    appended again and the tensor count raised by one."""
    count_at = data.index(struct.pack("<I", 3) + b"emb") - 4
    (count,) = struct.unpack_from("<I", data, count_at)
    record = data[data.rindex(struct.pack("<I", 5) + b"out_b"):]
    return (data[:count_at] + struct.pack("<I", count + 1) + data[count_at + 4:]
            + record)


def benchmark_spec() -> AnswerSetSpec:
    return AnswerSetSpec(
        categories=BENCHMARK_CATEGORIES,
        jitter=JitterParams(sigma=0.02, scale=0.05, rotation_deg=5.0, shear=0.0),
        spacing=BENCHMARK_SPACING,
        seed=BENCHMARK_SEED,
    )


def benchmark_train_config() -> TrainConfig:
    return TrainConfig(arch=ArchConfig(resample_spacing=BENCHMARK_SPACING))


@pytest.fixture(scope="session")
def benchmark_inks():
    return generate_answer_set(benchmark_spec())


@pytest.fixture(scope="session")
def trained(benchmark_inks):
    """(params, per-epoch history) for the pinned benchmark model."""
    history = []
    params = train([(ink, list(ink.label)) for ink in benchmark_inks],
                   benchmark_train_config(), BENCHMARK_TRAIN_SEED,
                   on_epoch=history.append)
    return params, history


@pytest.fixture(scope="session")
def benchmark_answers(trained, benchmark_inks):
    params, _ = trained
    return score_answers(params, benchmark_inks)


@pytest.fixture(scope="session")
def benchmark_f_matrix(trained, benchmark_answers):
    params, _ = trained
    return cross_score_matrix(benchmark_answers, params)


@pytest.fixture(scope="session")
def benchmark_files(tmp_path_factory, benchmark_inks, trained):
    """Benchmark dataset and checkpoint on disk, for CLI-level tests."""
    params, _ = trained
    root = tmp_path_factory.mktemp("benchmark")
    dataset = root / "answers.jsonl"
    ckpt = root / "model.ckpt"
    save_jsonl(dataset, benchmark_inks)
    save_checkpoint(ckpt, params)
    return {"dataset": dataset, "checkpoint": ckpt}


# -- small untrained model shared by similarity/sbr unit tests --------------

TINY_ARCH = ArchConfig(enc_hidden=6, dec_hidden=8, embed_dim=6, att_dim=6,
                       cov_channels=3, cov_kernel=3, resample_spacing=0.1,
                       max_decode_len=8)


@pytest.fixture(scope="session")
def tiny_scored():
    """A few answers scored by an untrained (random) model; decodes are
    meaningless but deterministic and non-empty for this pinned seed."""
    from gssf.seq2seq import init_params
    from gssf.seq2seq.vocab import build_vocabulary

    spec = AnswerSetSpec(
        categories=(CategorySpec(label=("1", "+", "2"), count=2),
                    CategorySpec(label=("x", "=", "7"), count=2),
                    CategorySpec(label=("3",), count=1)),
        jitter=JitterParams(sigma=0.01), spacing=0.1, seed=5)
    inks = generate_answer_set(spec)
    vocab = build_vocabulary([list(ink.label) for ink in inks])
    params = init_params(TINY_ARCH, vocab, seed=12)
    answers = score_answers(params, inks)
    assert all(a.scorable for a in answers), "pinned seed must give non-empty decodes"
    return params, inks, answers
