"""Trainable sequence recognizer: vocabulary, model, training, checkpoints.

``train``, ``TrainConfig`` and ``TrainingError`` load the training module on
first use, so that scoring never imports it.
"""

from .checkpoint import CheckpointError, checkpoint_bytes, load_checkpoint, save_checkpoint
from .model import (Annotations, ArchConfig, ModelError, ModelParams, ScoredDecode,
                    cross_logprob_sums, encode, encode_and_decode, init_params,
                    loss_and_gradients, param_shapes, teacher_forced_accuracy,
                    teacher_forced_logprobs, zero_params)
from .vocab import EOS_INDEX, SOS_INDEX, Vocabulary, VocabularyError, build_vocabulary

__all__ = [
    "Annotations", "ArchConfig", "CheckpointError", "EOS_INDEX", "ModelError",
    "ModelParams", "SOS_INDEX", "ScoredDecode", "TrainConfig", "TrainingError",
    "Vocabulary", "VocabularyError", "build_vocabulary", "checkpoint_bytes",
    "cross_logprob_sums", "encode", "encode_and_decode", "init_params",
    "load_checkpoint", "loss_and_gradients", "param_shapes", "save_checkpoint",
    "teacher_forced_accuracy", "teacher_forced_logprobs", "train", "zero_params",
]


def __getattr__(name: str):
    if name in ("TrainConfig", "TrainingError", "train"):
        from . import training
        return getattr(training, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
