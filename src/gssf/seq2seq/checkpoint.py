"""Binary checkpoint format: bit-exact round trip of vocabulary, config, tensors.

Layout (all integers little-endian):
  magic "GSSF" | u32 version
  u32 token count, then per token: u32 byte length + UTF-8 bytes
  u32 config length + UTF-8 JSON of the architecture config
  u32 tensor count, then per tensor:
    u32 name length + UTF-8 name | u32 rank | rank x u64 dims |
    row-major float64 data
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .. import InputError
from .model import ArchConfig, ModelParams, param_shapes
from .vocab import Vocabulary

MAGIC = b"GSSF"
VERSION = 1


class CheckpointError(InputError):
    pass


def checkpoint_bytes(params: ModelParams) -> bytes:
    """Serialize ``params``; needs finite tensors of the shapes ``param_shapes`` gives."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += struct.pack("<I", len(params.vocab.tokens))
    for token in params.vocab.tokens:
        raw = token.encode("utf-8")
        buf += struct.pack("<I", len(raw)) + raw
    cfg = json.dumps(asdict(params.arch), sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(cfg)) + cfg
    buf += struct.pack("<I", len(params.tensors))
    for name, arr in params.tensors.items():
        raw = name.encode("utf-8")
        buf += struct.pack("<I", len(raw)) + raw
        buf += struct.pack("<I", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return bytes(buf)


def save_checkpoint(path: str | Path, params: ModelParams) -> None:
    Path(path).write_bytes(checkpoint_bytes(params))


class _Reader:
    def __init__(self, data: bytes, source: str):
        self.data = data
        self.pos = 0
        self.source = source

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"{self.source}: truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.source}: bad UTF-8 text ({exc})") from exc


def load_checkpoint(path: str | Path) -> ModelParams:
    reader = _Reader(Path(path).read_bytes(), str(path))
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a recognizer checkpoint")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    tokens = tuple(reader.text() for _ in range(reader.u32()))
    try:
        vocab = Vocabulary(tokens=tokens)
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad vocabulary block ({exc})") from exc
    try:
        arch = ArchConfig(**json.loads(reader.text()))
        arch.validate()
        shapes = param_shapes(arch, vocab.size)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad config block ({exc})") from exc
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.text()
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}Q", reader.take(8 * rank))
        if shapes.get(name) != dims:  # checked before numpy sees a rank or a size
            raise CheckpointError(f"{path}: tensor {name!r}: name or shape does not match "
                                  "the config block")
        arr = np.frombuffer(reader.take(8 * math.prod(dims)), dtype="<f8").reshape(dims)
        tensors[name] = arr.astype(np.float64, copy=True)
    if reader.pos != len(reader.data):
        raise CheckpointError(f"{path}: trailing bytes after tensor block")
    if tensors.keys() != shapes.keys():
        raise CheckpointError(f"{path}: tensor names do not match the config block")
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name}: non-finite values")
    return ModelParams(arch=arch, vocab=vocab, tensors=tensors)
