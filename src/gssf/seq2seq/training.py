"""Teacher-forced training with adaptive-moment updates and early stopping."""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .. import RunFailure
from ..ink import RawInk, _is_int, _is_real, extract_features, resample_and_normalize
from .model import (ArchConfig, ModelError, ModelParams, init_params, loss_and_gradients,
                    teacher_forced_accuracy)
from .vocab import build_vocabulary


class TrainingError(RunFailure):
    pass


@dataclass(frozen=True)
class TrainConfig:
    arch: ArchConfig = field(default_factory=ArchConfig)
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 20
    val_fraction: float = 0.2

    def validate(self) -> None:
        self.arch.validate()
        counts = (self.batch_size, self.max_epochs, self.patience)
        if not all(_is_int(n) for n in counts) or self.batch_size < 1 or min(counts) < 0:
            raise ModelError("need integers batch_size >= 1, max_epochs >= 0 and patience >= 0")
        lr, clip, val = self.learning_rate, self.clip_norm, self.val_fraction
        if not all(_is_real(x) for x in (lr, clip, val)):
            raise ModelError("learning_rate, clip_norm and val_fraction must be finite numbers")
        if not (lr > 0 and clip >= 0 and 0 <= val <= 1):
            raise ModelError("need learning_rate > 0, clip_norm >= 0 and val_fraction in [0, 1]")


class _Adam:
    """Adaptive moment estimation over the named parameter tensors."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, tensors: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.t = 0

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name in tensors:
            g = grads[name]
            self.m[name] = self.BETA1 * self.m[name] + (1.0 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1.0 - self.BETA2) * g * g
            tensors[name] -= self.lr * (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + self.EPS)


def _clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> float:
    """Scale ``grads`` in place to a global norm of at most ``clip_norm``;
    returns the norm before clipping."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if clip_norm > 0 and total > clip_norm:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale
    return total


@contextmanager
def _one_blas_thread():
    """Run the block with the OpenBLAS that numpy loaded on one thread, then
    restore its thread count; does nothing when that library or its symbols
    are missing. Split over threads, a product over many rows sums them in
    another order, so the checkpoint bytes would depend on the thread count."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get, pin = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):  # nothing to pin
        get = pin = lambda *count: None
    else:
        get.argtypes, get.restype = [], ctypes.c_int
        pin.argtypes, pin.restype = [ctypes.c_int], None
    saved = get()
    pin(1)
    try:
        yield
    finally:
        pin(saved)


def _stratified_split(label_keys: list[tuple], val_fraction: float,
                      rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Per-label shuffle split; every label keeps at least one training sample.

    Degenerate corpora where no validation sample can be held out fall back
    to validating on the training set itself (memorization fixtures)."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(label_keys):
        groups.setdefault(key, []).append(i)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for key in sorted(groups):
        members = groups[key]
        perm = rng.permutation(len(members))
        n_val = min(int(round(val_fraction * len(members))), len(members) - 1)
        chosen = {members[perm[j]] for j in range(n_val)}
        for i in members:
            (val_idx if i in chosen else train_idx).append(i)
    if not val_idx:
        val_idx = list(train_idx)
    return sorted(train_idx), sorted(val_idx)


@_one_blas_thread()
def train(dataset: list[tuple[RawInk, list[str]]], config: TrainConfig, seed: int,
          on_epoch: Callable[[dict], None] | None = None) -> ModelParams:
    """Train a recognizer on labelled ink; deterministic for a fixed seed.

    Needs a ``config`` that passed ``validate``. Runs BLAS on one thread, so
    the result does not depend on the thread count. Returns the epoch snapshot
    with the best held-out token accuracy (accuracy ties resolved toward the
    lower training loss). Raises ``TrainingError`` on divergence (a batch loss
    or a held-out log-probability that is not finite), ``ModelError`` for a
    sample without ink or label or a parameter count over ``MAX_PARAMS``, and
    ``VocabularyError`` for an empty dataset. ``on_epoch``
    receives one record per epoch: the token-weighted training loss, the
    held-out token accuracy, the mean pre-clip global gradient norm over its
    batches and its wall time.
    """
    if any(label is None or ink is None for ink, label in dataset):
        raise ModelError("every sample needs ink and a label")
    vocab = build_vocabulary([list(label) for _, label in dataset])
    arch = config.arch
    params = init_params(arch, vocab, seed)  # checks the parameter count first
    samples = []
    for ink, label in dataset:
        feats = extract_features(resample_and_normalize(ink, arch.resample_spacing))
        samples.append((feats, vocab.encode(list(label))))
    label_keys = [tuple(label) for _, label in dataset]
    split_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    train_idx, val_idx = _stratified_split(label_keys, config.val_fraction, split_rng)
    val_batch = [samples[i] for i in val_idx]

    opt = _Adam(params.tensors, config.learning_rate)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    best_key = (-1.0, -math.inf)
    best_tensors = {k: v.copy() for k, v in params.tensors.items()}
    best_acc_epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(len(train_idx))
        epoch_tokens = 0
        epoch_ce = 0.0
        norms = []
        for start in range(0, len(order), config.batch_size):
            chunk = [samples[train_idx[j]] for j in order[start : start + config.batch_size]]
            loss, grads = loss_and_gradients(params, chunk)
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged at epoch {epoch}: loss {loss!r}")
            norms.append(_clip_gradients(grads, config.clip_norm))
            opt.step(params.tensors, grads)
            n_tok = sum(len(t) + 1 for _, t in chunk)
            epoch_tokens += n_tok
            epoch_ce += loss * n_tok
        epoch_loss = epoch_ce / epoch_tokens
        val_acc = teacher_forced_accuracy(params, val_batch)
        if not math.isfinite(val_acc):
            raise TrainingError(f"training diverged at epoch {epoch}: "
                                "held-out log-probabilities are not finite")
        if on_epoch is not None:
            on_epoch({"epoch": epoch, "loss": epoch_loss, "val_token_acc": val_acc,
                      "grad_norm": sum(norms) / len(norms),
                      "epoch_s": time.perf_counter() - started})
        if val_acc > best_key[0]:
            best_acc_epoch = epoch
        if (val_acc, -epoch_loss) > best_key:
            best_key = (val_acc, -epoch_loss)
            best_tensors = {k: v.copy() for k, v in params.tensors.items()}
        if epoch - best_acc_epoch >= config.patience:
            break
    return ModelParams(arch, vocab, best_tensors)
