"""The committed corpus, hard- and long-tail-question specs are what
scripts/hard_sets.py writes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from gssf.cli import main
from gssf.synthgen import load_spec

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "data" / "hard_sets"
#: Leading hex digits of the rendered corpus's SHA-256, as ROADMAP item 1 records it.
CORPUS_SHA256_PREFIX = "9eb4cec45009820c"


def test_script_rewrites_the_committed_specs(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "hard_sets.py"), "--out",
                    str(tmp_path)], check=True, env=env)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(["corpus.json"] + [f"hard_q{q}.json" for q in range(10)]
                             + [f"tail_q{q}.json" for q in range(15)])
    assert written == sorted(p.name for p in SPECS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (SPECS / name).read_bytes(), name


def test_corpus_renders_to_the_recorded_dataset(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert main(["synth", "--spec", str(SPECS / "corpus.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest().startswith(CORPUS_SHA256_PREFIX)


def test_tail_questions_have_the_long_tail_shape():
    """Each long-tail question has J = 38 categories and H = 121 answers, and
    no label of any committed spec appears twice."""
    labels = []
    for path in sorted(SPECS.iterdir()):
        spec = load_spec(path)
        labels += [c.label for c in spec.categories]
        if path.name.startswith("tail_"):
            assert len(spec.categories) == 38, path.name
            assert sum(c.count for c in spec.categories) == 121, path.name
    assert len(labels) == len(set(labels)) == 200 + 10 * 5 + 15 * 38
