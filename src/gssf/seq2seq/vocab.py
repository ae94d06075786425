"""Symbol vocabulary with reserved start/end markers at fixed indices."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import InputError

SOS = "<sos>"
EOS = "<eos>"
SOS_INDEX = 0
EOS_INDEX = 1


class VocabularyError(InputError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token/index mapping; index 0 is start, index 1 is end."""

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tokens) < 2 or self.tokens[0] != SOS or self.tokens[1] != EOS:
            raise VocabularyError("vocabulary must start with the reserved start/end tokens")
        index = {t: i for i, t in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise VocabularyError("vocabulary tokens must be distinct")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise VocabularyError(f"unknown token {token!r}") from None

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.index(t) for t in tokens]


def build_vocabulary(label_sequences: list[list[str]]) -> Vocabulary:
    """Deterministic vocabulary over a label corpus: reserved markers, then sorted symbols."""
    if not label_sequences:
        raise VocabularyError("empty label corpus")
    symbols = {tok for seq in label_sequences for tok in seq}
    if SOS in symbols or EOS in symbols:
        raise VocabularyError(f"corpus uses reserved tokens {SOS!r}/{EOS!r}")
    return Vocabulary(tokens=(SOS, EOS, *sorted(symbols)))
