"""Benchmark inputs: answer-set specs derived from a seed.

The benchmark never hands the program anything but files: these specs are
rendered by the program's own ``gssf synth``, so the same seed always gives
byte-identical answer sets.
"""

from __future__ import annotations

import json
from pathlib import Path

JITTER = {"sigma": 0.02, "scale": 0.05, "rotation_deg": 5.0, "shear": 0.0}
SPACING = 0.08
#: The pinned 5 x 20 set of tests/conftest.py.
PINNED_SEED = 11
PINNED_LABELS = (
    ("x", "=", "2"),
    ("x", "=", "-", "2"),
    ("x", "=", "1", "2"),
    ("y", "=", "2", "x"),
    ("(", "x", "+", "1", ")"),
)
PINNED_COUNT = 20


def _spec(seed: int, labels, count: int) -> dict:
    return {
        "seed": seed,
        "spacing": SPACING,
        "jitter": dict(JITTER),
        "categories": [{"label": list(label), "count": count} for label in labels],
    }


def pinned_spec(seed: int, count: int = PINNED_COUNT) -> dict:
    """The pinned five categories, rendered with the given synthgen seed."""
    return _spec(seed, PINNED_LABELS, count)


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")
