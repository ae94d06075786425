"""Recipe for the benchmark's fixed checkpoint.

    python3 perfbench/make_models.py        # from the repository root

Trains, through the ``gssf`` CLI, ``pinned.ckpt``: the test suite's recipe
on the pinned 5 x 20 set (synthgen seed 11, train seed 0, default early
stopping), used by ``mark-shared``.

It records the file's SHA-256 in ``models/manifest.json``. The benchmark
loads only a checkpoint whose hash matches, so later training changes cannot
change the inference workload's input. Run it again only to re-pin it on
purpose: that resets the ``mark-shared`` baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
MODELS = HERE / "models"

RECIPES = {
    "pinned": {
        "spec": inputs.pinned_spec(inputs.PINNED_SEED),
        "config": {"arch": {"resample_spacing": inputs.SPACING}},
        "train_seed": 0,
    },
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    gssf = [sys.executable, "-m", "gssf.cli"]
    MODELS.mkdir(exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, recipe in RECIPES.items():
            spec, config = Path(tmp, f"{name}.spec.json"), Path(tmp, f"{name}.config.json")
            data, ckpt = Path(tmp, f"{name}.jsonl"), MODELS / f"{name}.ckpt"
            inputs.write_json(spec, recipe["spec"])
            inputs.write_json(config, recipe["config"])
            t0 = time.perf_counter()
            subprocess.run(gssf + ["synth", "--spec", str(spec), "--out", str(data)],
                           env=env, check=True)
            log = subprocess.run(
                gssf + ["train", "--data", str(data), "--config", str(config),
                        "--seed", str(recipe["train_seed"]), "--out", str(ckpt)],
                env=env, check=True, capture_output=True, text=True).stdout
            epochs = [json.loads(line) for line in log.splitlines() if line.startswith("{")]
            manifest[name] = {
                "file": ckpt.name,
                "sha256": sha256(ckpt),
                "train_seed": recipe["train_seed"],
                "config": recipe["config"],
                "spec": recipe["spec"],
                "epochs": len(epochs),
                "best_val_token_acc": max(e["val_token_acc"] for e in epochs),
            }
            print(f"{name}: {len(epochs)} epochs in {time.perf_counter() - t0:.1f} s, "
                  f"sha256 {manifest[name]['sha256']}", flush=True)
    inputs.write_json(MODELS / "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
