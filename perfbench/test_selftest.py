"""Tiny-scale self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_selftest.py     # from the repository root

Runs every workload at ``--tiny`` scale, untraced and traced, and checks that
the last stdout line is well-formed JSON carrying every declared metric with
its declared unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_declared_names_are_unique_and_bounded():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            dst = tmp_path / path.relative_to(ROOT)
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_reports_missing_targets_and_counts_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    from gssf import metrics
    original = metrics.evaluate
    t = tracer.Tracer()
    try:
        missing = t.install([("metrics.evaluate", "gssf.metrics", "evaluate", None),
                             ("gone", "gssf.metrics", "no_such_function", None),
                             ("gone", "gssf.no_such_module", "f", None)])
        assert missing == ["gssf.metrics.no_such_function", "gssf.no_such_module.f"]
        metrics.evaluate([0, 0, 1], ["a", "a", "b"])
    finally:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("gssf"):
                for attr, value in list(vars(module).items()):
                    if getattr(value, "__wrapped__", None) is original:
                        setattr(module, attr, original)
    spans = t.aggregate(missing, 0.0)["spans"]
    assert spans["metrics.evaluate"]["calls"] == 1
    assert spans["metrics.evaluate"]["busy_s"] >= spans["metrics.evaluate"]["self_s"] >= 0
