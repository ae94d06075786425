"""Clustering of online handwritten answers via generative sequence similarity.

Pipeline: pen trajectories are preprocessed into point features (`ink`),
a small trainable recognizer decodes them (`seq2seq`), cross-conditioned
teacher-forced scores give pairwise similarities (`similarity`), which form
a similarity-based representation matrix (`sbr`) clustered by k-means or
complete linkage (`cluster`) and evaluated by purity and marking cost
(`metrics`). `synthgen` provides deterministic synthetic answer sets and
`cli` ties everything into a command-line pipeline.
"""

import json
import os

__version__ = "0.1.0"


class InputError(ValueError):
    """Input the user can correct: a bad file, spec, config or flag. The CLI exits 2."""


class RunFailure(RuntimeError):
    """Valid input on which a run cannot finish: training diverged, no answer
    can be scored, or the scores are not finite. The CLI exits 3."""


def read_bounded(path, max_bytes: int, what: str, error: type[InputError]) -> bytes:
    """The bytes of file ``path``, or ``error`` past ``max_bytes``: a regular
    file is rejected by its size before any read, and any other file (a
    device, a pipe) after at most ``max_bytes + 1`` bytes."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size <= max_bytes:
            data = fh.read(max_bytes + 1)
            if len(data) <= max_bytes:
                return data
    raise error(f"{path}: {what} over {max_bytes} bytes")


def read_json_object(path, max_bytes: int, what: str, error: type[InputError]) -> dict:
    """The JSON object that file ``path`` holds as at most ``max_bytes`` bytes
    of UTF-8 text; anything else raises ``error``, naming ``what``."""
    data = read_bounded(path, max_bytes, what, error)
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise error(f"{path}: cannot read {what} ({exc})") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: {what} is not a JSON object")
    return obj
