"""Command-line pipeline: exit codes, artifacts, determinism."""

import collections
import gzip
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gssf
import gssf.cli
from conftest import read_matrix_csv, with_duplicate_record
from gssf.cli import UsageError, main
from gssf.ink import RawInk, save_jsonl
from gssf.seq2seq import checkpoint_bytes, load_checkpoint


def exit_code_cases() -> list[tuple[type, int | None]]:
    """Every gssf ``InputError`` (exit 2) and ``RunFailure`` (exit 3), bases
    included, found after importing every gssf module; then ``OSError``
    (exit 2) and the built-in bases, which are faults and propagate."""
    for info in pkgutil.walk_packages(gssf.__path__, "gssf."):
        importlib.import_module(info.name)

    def family(cls: type) -> list[type]:
        return [cls] + [c for sub in cls.__subclasses__() for c in family(sub)]

    cases = [(cls, code) for base, code in ((gssf.InputError, 2), (gssf.RunFailure, 3))
             for cls in family(base) if cls.__module__.startswith("gssf")]
    return sorted(cases, key=lambda case: case[0].__name__) + [
        (OSError, 2), (ValueError, None), (RuntimeError, None)]


def test_every_error_class_is_raised():
    """Each gssf ``InputError`` and ``RunFailure`` subclass but the two bases
    has a ``raise`` somewhere in the gssf sources, so no class outlives the
    last check that raised it."""
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in Path(gssf.__file__).parent.rglob("*.py"))
    bases = (gssf.InputError, gssf.RunFailure)
    unraised = [cls.__name__ for cls, _ in exit_code_cases()
                if cls.__module__.startswith("gssf") and cls not in bases
                and f"raise {cls.__name__}(" not in source]
    assert unraised == []


TINY_CONFIG = {
    "arch": {
        "enc_hidden": 8, "dec_hidden": 10, "embed_dim": 6, "att_dim": 6,
        "cov_channels": 3, "cov_kernel": 3, "resample_spacing": 0.12,
        "max_decode_len": 8,
    },
    "train": {
        "learning_rate": 5e-3, "batch_size": 8, "max_epochs": 60, "patience": 60,
    },
}

README = Path(__file__).resolve().parents[1] / "README.md"


def exit_code(argv: list[str]) -> int:
    """``main``'s exit code, also when argparse rejects the flags and exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def no_call(what: str):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran on input that should have been rejected")
    return fail


def readme_config() -> str:
    """The JSON example under README's "Configuration" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def one_stroke_answers(count: int) -> str:
    """JSON Lines text of ``count`` one-stroke answers in one category."""
    return "".join(json.dumps({"id": f"a{i}", "category": "c", "strokes": [[[0, 0], [1, 1]]]})
                   + "\n" for i in range(count))


TINY_SPEC = {
    "seed": 13,
    "spacing": 0.12,
    "jitter": {"sigma": 0.01, "scale": 0.03, "rotation_deg": 3.0, "shear": 0.0},
    "categories": [
        {"label": ["1", "+", "2"], "count": 4},
        {"label": ["x", "=", "7"], "count": 4},
        {"label": ["9"], "count": 4},
    ],
}


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """synth + train once; reused by every cluster/compare test below."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    config = root / "config.json"
    dataset = root / "answers.jsonl"
    ckpt = root / "model.ckpt"
    spec.write_text(json.dumps(TINY_SPEC))
    config.write_text(json.dumps(TINY_CONFIG))
    assert main(["synth", "--spec", str(spec), "--out", str(dataset)]) == 0
    assert main(["train", "--data", str(dataset), "--out", str(ckpt),
                 "--config", str(config), "--seed", "0"]) == 0
    return {"root": root, "spec": spec, "config": config, "dataset": dataset,
            "ckpt": ckpt}


class TestSynth:
    def test_sample_count(self, tiny_pipeline, tmp_path):
        out = tmp_path / "set.jsonl"
        assert main(["synth", "--spec", str(tiny_pipeline["spec"]), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 12

    def test_byte_identical_repeat(self, tmp_path):
        """The spec's seed is the only seed: a repeat writes the same bytes,
        and another seed in the spec writes another answer set."""
        spec, outs = tmp_path / "spec.json", []
        for seed in (5, 5, 6):
            spec.write_text(json.dumps({**TINY_SPEC, "seed": seed}))
            out = tmp_path / f"{len(outs)}.jsonl"
            assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] != outs[2]

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[1]", json.dumps({**TINY_SPEC, "jitter": {"sigma": "a"}}),
        json.dumps({**TINY_SPEC, "seed": 2.5}), json.dumps({**TINY_SPEC, "seed": -1}),
        json.dumps({**TINY_SPEC, "spacing": "0.1"}),
        json.dumps({**TINY_SPEC, "categories": [{"label": ["1"], "count": 2.7},
                                                {"label": ["2"], "count": 3}]}),
        json.dumps({**TINY_SPEC, "categories": [{"label": "12", "count": 3},
                                                {"label": ["2"], "count": 3}]}),
        json.dumps({**TINY_SPEC, "categories": [{"label": ["1"], "count": 2, "id": "a,b"},
                                                {"label": ["2"], "count": 3}]}),
        json.dumps({**TINY_SPEC, "categories": [{"label": ["1", "@"], "count": 2},
                                                {"label": ["2"], "count": 3}]}),
    ], ids=["list", "text_sigma", "float_seed", "negative_seed", "text_spacing", "float_count",
            "text_label", "comma_id", "unknown_glyph"])
    def test_malformed_spec_contents_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o.jsonl"
        assert main(["synth", "--spec", str(bad), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("category,message", [
        ({"label": ["1"], "count": 10 ** 12}, "at most 12000 answers"),
        ({"label": ["1"] * 10 ** 6, "count": 1}, "labels must be 1 to 30 token strings"),
    ], ids=["answers", "label_tokens"])
    def test_oversized_spec_exit_2_before_rendering(self, tmp_path, capsys, monkeypatch,
                                                    category, message):
        """10^12 answers or a 10^6-token label is rejected where the spec is
        read, in under a second and before anything is rendered."""
        monkeypatch.setattr("gssf.synthgen.generate_answer_set", no_call("generate_answer_set"))
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"categories": [category, {"label": ["2"], "count": 1}]}))
        out = tmp_path / "o.jsonl"
        start = time.perf_counter()
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_exit_2(self, tiny_pipeline, tmp_path, capsys):
        """The seed comes from the spec only; ``synth`` has no ``--seed``."""
        out = tmp_path / "o.jsonl"
        assert exit_code(["synth", "--spec", str(tiny_pipeline["spec"]), "--out", str(out),
                          "--seed", "5"]) == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_reports_epochs_as_json_lines(self, tiny_pipeline, tmp_path, capsys):
        runs = []
        for name in ("a", "b"):
            code = main(["train", "--data", str(tiny_pipeline["dataset"]),
                         "--out", str(tmp_path / f"{name}.ckpt"),
                         "--config", str(tiny_pipeline["config"]), "--seed", "1"])
            assert code == 0
            runs.append([json.loads(l) for l in capsys.readouterr().out.splitlines()])
        lines = runs[0]
        keys = {"epoch", "loss", "val_token_acc", "grad_norm", "epoch_s"}
        assert all(keys <= set(r) for r in lines)
        assert lines[-1]["epoch"] == len(lines)
        assert all(math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0 for r in lines)
        assert all(r["epoch_s"] >= 0 for r in lines)
        assert [r["grad_norm"] for r in lines] == [r["grad_norm"] for r in runs[1]]

    def test_fixed_seed_identical_checkpoint(self, tiny_pipeline, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert main(["train", "--data", str(tiny_pipeline["dataset"]), "--out", str(out),
                         "--config", str(tiny_pipeline["config"]), "--seed", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert checkpoint_bytes(load_checkpoint(a)) == a.read_bytes()

    def test_checkpoint_independent_of_blas_threads(self, benchmark_inks, tmp_path):
        """Two epochs on the pinned set write the same bytes whether OpenBLAS
        is started with one thread or two."""
        data, config = tmp_path / "pinned.jsonl", tmp_path / "config.json"
        save_jsonl(data, benchmark_inks)
        config.write_text(json.dumps({"arch": {"resample_spacing": 0.08},
                                      "train": {"max_epochs": 2, "patience": 2}}))
        src = str(Path(gssf.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "gssf.cli", "train", "--data", str(data), "--config",
                 str(config), "--seed", "0", "--out", str(tmp_path / f"{threads}.ckpt")],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "1.ckpt").read_bytes() == (tmp_path / "2.ckpt").read_bytes()

    def test_memorization_final_loss(self, tmp_path, capsys):
        stroke = np.array([[0.0, 0.0], [0.4, 1.0], [0.8, 0.2], [1.2, 0.9]])
        data = tmp_path / "one.jsonl"
        save_jsonl(data, [RawInk(strokes=[stroke], id="only", category="c0",
                                 label=["3", "+", "4"])])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "arch": TINY_CONFIG["arch"],
            "train": {"learning_rate": 5e-3, "batch_size": 4,
                      "max_epochs": 250, "patience": 250},
        }))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(config), "--seed", "0"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[-1]["loss"] < 0.01

    def test_overflowing_weights_exit_3_without_checkpoint(self, tiny_pipeline, tmp_path,
                                                          capsys):
        """One step at learning rate 1e300 leaves finite weights whose held-out
        log-probabilities overflow; training stops there instead of saving them."""
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"arch": TINY_CONFIG["arch"], "train": {
            "max_epochs": 1, "batch_size": 1000, "learning_rate": 1e300}}))
        ckpt = tmp_path / "m.ckpt"
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(tiny_pipeline["dataset"]), "--out", str(ckpt),
                         "--config", str(config), "--seed", "0"])
        assert code == 3
        assert "held-out log-probabilities are not finite" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_too_many_answers_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        """A file one answer over ``synthgen.MAX_SPEC_ANSWERS``, the largest
        set ``synth`` renders, exits 2 where it is read, before training."""
        from gssf.synthgen import MAX_SPEC_ANSWERS

        monkeypatch.setattr("gssf.seq2seq.train", no_call("train"))
        data = tmp_path / "many.jsonl"
        data.write_text(one_stroke_answers(MAX_SPEC_ANSWERS + 1), encoding="utf-8")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data), "--out", str(ckpt)]) == 2
        assert (f"{data}:{MAX_SPEC_ANSWERS + 1}: at most {MAX_SPEC_ANSWERS}"
                in capsys.readouterr().err)
        assert not ckpt.exists()

    def test_missing_labels_exit_2(self, tmp_path):
        stroke = np.array([[0.0, 0.0], [1.0, 1.0]])
        data = tmp_path / "nolabel.jsonl"
        save_jsonl(data, [RawInk(strokes=[stroke], id="a"),
                          RawInk(strokes=[stroke * 2], id="b")])
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")]) == 2


class TestCluster:
    def run(self, tiny_pipeline, out, extra=()):
        return main(["cluster", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out), *extra])

    def test_artifacts_and_report_schema(self, tiny_pipeline, tmp_path):
        out = tmp_path / "run"
        assert self.run(tiny_pipeline, out, ("--seed", "0")) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "k", "h", "objective", "similarity_kind", "method", "seeds", "num_unscorable",
            "num_unique_decodes", "num_truncated_decodes", "degenerate_matrix", "purity", "mc",
            "j", "per_cluster"}
        assert report["h"] == 12 and report["k"] == 3
        assert report["similarity_kind"] == "gssf" and report["method"] == "m5"
        assert 0.0 < report["purity"] <= 1.0
        assert 0.0 < report["mc"] <= 1.0
        assert sum(c["size"] for c in report["per_cluster"]) == 12
        rows = (out / "assignment.csv").read_text().splitlines()
        assert rows[0] == "id,cluster_label,category" and len(rows) == 1 + 12
        ids, values = read_matrix_csv(out / "sbr.csv")
        assert len(ids) == 12
        np.testing.assert_array_equal(np.diag(values), np.zeros(12))
        pgm = (out / "sbr.pgm").read_bytes()
        header = b"P5\n12 12\n255\n"
        assert pgm.startswith(header) and len(pgm) == len(header) + 144
        assert (out / "timings.json").exists()

    def test_timings_give_cross_scoring_its_own_key(self, tiny_pipeline, tmp_path, monkeypatch):
        """A slowed cross-scoring pass shows in ``cross_s`` and not in ``sbr_s``."""
        import gssf.similarity as similarity

        cross = similarity.cross_score_matrix
        monkeypatch.setattr(similarity, "cross_score_matrix",
                            lambda *a: time.sleep(0.3) or cross(*a))
        assert self.run(tiny_pipeline, tmp_path) == 0
        times = json.loads((tmp_path / "timings.json").read_text())
        assert set(times) == {"score_s", "cross_s", "sbr_s", "cluster_s"}
        assert times["cross_s"] >= 0.3 > times["sbr_s"]

    @pytest.mark.parametrize("kind,method", [("gssf", "m5"), ("asym", "m5"), ("edit", "m4")])
    def test_heatmap_renders_the_written_matrix(self, tiny_pipeline, tmp_path, kind, method):
        """``sbr.pgm`` is the normalized ``sbr.csv``, so the CSV alone redraws it."""
        from gssf.sbr import SbRMatrix, normalize_unit_interval, to_pgm

        out = tmp_path / "run"
        assert self.run(tiny_pipeline, out, ("--kind", kind, "--method", method)) == 0
        ids, values = read_matrix_csv(out / "sbr.csv")
        norm = normalize_unit_interval(SbRMatrix(values=values, ids=ids))
        assert (out / "sbr.pgm").read_bytes() == to_pgm(norm)

    @pytest.mark.parametrize("field,value", [
        ("category", "x,y"), ("category", "z\nw"), ("id", "a\rb"), ("id", "a,b"),
    ])
    def test_field_separator_in_dataset_exit_2(self, tiny_pipeline, tmp_path, capsys,
                                               monkeypatch, field, value):
        """Ids and categories are unquoted CSV fields, so the reader rejects
        separators in them before any answer is scored."""

        monkeypatch.setattr("gssf.similarity.score_answers", no_call("score_answers"))
        lines = tiny_pipeline["dataset"].read_text().splitlines()
        first = json.loads(lines[0])
        first[field] = value
        data = tmp_path / "answers.jsonl"
        data.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        out = tmp_path / "run"
        assert main(["cluster", "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(out)]) == 2
        assert "may not contain" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    def test_bad_k_exit_2_before_scoring(self, tiny_pipeline, tmp_path, capsys, monkeypatch,
                                         command):
        """k and the categories are checked where the answers are read, before
        the checkpoint is loaded: k = 13 of 12 answers for ``cluster``, and
        for ``compare`` an explicit k on answers without categories."""
        import gssf.ink as ink_mod

        monkeypatch.setattr("gssf.seq2seq.load_checkpoint", no_call("load_checkpoint"))
        monkeypatch.setattr("gssf.similarity.score_answers", no_call("score_answers"))
        data, k = tiny_pipeline["dataset"], "13"
        if command == "compare":
            inks = ink_mod.load_jsonl(data)
            for ink in inks:
                ink.category = None
            data, k = tmp_path / "uncat.jsonl", "3"
            ink_mod.save_jsonl(data, inks)
        out = tmp_path / "o"
        assert main([command, "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(out), "--k", k]) == 2
        assert ("out of range" if command == "cluster" else "category") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    def test_one_answer_exit_2_before_checkpoint(self, tiny_pipeline, tmp_path, capsys,
                                                 monkeypatch, command):
        """N >= 2 is checked where the answers are read: a one-answer file,
        whose one category makes k = 1, never loads the checkpoint."""
        import gssf.ink as ink_mod
        import gssf.seq2seq

        loads, load = [], gssf.seq2seq.load_checkpoint
        monkeypatch.setattr("gssf.seq2seq.load_checkpoint",
                            lambda path: loads.append(path) or load(path))
        data = tmp_path / "one.jsonl"
        ink_mod.save_jsonl(data, ink_mod.load_jsonl(tiny_pipeline["dataset"])[:1])
        out = tmp_path / "o"
        assert main([command, "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(out)]) == 2
        assert "at least two answers" in capsys.readouterr().err
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    def test_too_many_answers_exit_2_before_checkpoint(self, tiny_pipeline, tmp_path, capsys,
                                                       monkeypatch, command):
        """A file of ``MAX_ANSWERS + 1`` one-stroke answers is rejected where it
        is read, before the checkpoint is loaded or any answer is encoded."""
        import gssf.cli as cli

        monkeypatch.setattr("gssf.seq2seq.load_checkpoint", no_call("load_checkpoint"))
        data = tmp_path / "many.jsonl"
        data.write_text(one_stroke_answers(cli.MAX_ANSWERS + 1), encoding="utf-8")
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main([command, "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(out), "--k", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"at most {cli.MAX_ANSWERS}" in capsys.readouterr().err
        assert not out.exists()

    def test_answer_cap_stops_the_read(self, tiny_pipeline, tmp_path, capsys, monkeypatch):
        """The reader stops at answer ``MAX_ANSWERS + 1``: a file of 100,000
        answers exits 2 in under a second, having parsed no more."""
        import gssf.cli as cli
        import gssf.ink as ink_mod

        parsed, parse = [], ink_mod._parse_sample

        def counted(path, lineno, line):
            parsed.append(lineno)
            return parse(path, lineno, line)

        monkeypatch.setattr(ink_mod, "_parse_sample", counted)
        data = tmp_path / "many.jsonl"
        data.write_text(one_stroke_answers(100_000), encoding="utf-8")
        start = time.perf_counter()
        assert main(["cluster", "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"{data}:{cli.MAX_ANSWERS + 1}: at most" in capsys.readouterr().err
        assert len(parsed) == cli.MAX_ANSWERS

    @pytest.mark.parametrize("strokes", [
        json.dumps([[[0.5, 0.5]]] * 300_000),
        "[[" + ", ".join(["[0.25, 0.5]"] * 2_000_000) + "]]",
    ], ids=["300k_one_point_strokes", "2m_point_stroke"])
    def test_hostile_answer_exit_2_before_checkpoint(self, tiny_pipeline, tmp_path, capsys,
                                                     monkeypatch, strokes):
        """A second answer of 300,000 one-point strokes (4.2 MB) or of one
        2,000,000-point stroke (24 MB) is rejected by the reader in under a
        second, before the checkpoint is loaded."""
        monkeypatch.setattr("gssf.seq2seq.load_checkpoint", no_call("load_checkpoint"))
        data = tmp_path / "hostile.jsonl"
        data.write_text(one_stroke_answers(1) + '{"id": "b", "strokes": ' + strokes + "}\n",
                        encoding="utf-8")
        start = time.perf_counter()
        assert main(["cluster", "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(tmp_path / "o"), "--k", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"{data}:2: line over" in capsys.readouterr().err

    def test_incompatible_method_kind_exit_2(self, tiny_pipeline, tmp_path):
        code = self.run(tiny_pipeline, tmp_path / "x",
                        ("--kind", "asym", "--method", "m3"))
        assert code == 2
        code = self.run(tiny_pipeline, tmp_path / "y",
                        ("--kind", "edit", "--method", "m3"))
        assert code == 2

    def test_k_too_large_exit_2(self, tiny_pipeline, tmp_path):
        assert self.run(tiny_pipeline, tmp_path / "x", ("--k", "13")) == 2

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    @pytest.mark.parametrize("k", [2.5, True, 3.0, [3], "three"])
    def test_non_integer_config_k_exit_2(self, tiny_pipeline, tmp_path, capsys, monkeypatch,
                                         command, k):
        """``--k`` is the only source of k: text that is not an integer, such
        as these values written out, exits 2 before the checkpoint is read."""
        monkeypatch.setattr("gssf.seq2seq.load_checkpoint", no_call("load_checkpoint"))
        assert main([command, "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(tmp_path / "o"),
                     "--k", str(k)]) == 2
        assert "k must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,want", [("2", 2), (" 2 ", 2), ("categories", 3), (None, 3)])
    def test_k_policies(self, tiny_pipeline, tmp_path, flag, want):
        """Integer text and the 'categories' policy, which is the default."""
        out = tmp_path / "run"
        extra = ("--k", flag) if flag is not None else ()
        assert self.run(tiny_pipeline, out, extra) == 0
        assert json.loads((out / "report.json").read_text())["k"] == want

    def test_k_equals_n_perfect_purity_and_unit_cost(self, tiny_pipeline, tmp_path):
        out = tmp_path / "kn"
        assert self.run(tiny_pipeline, out, ("--k", "12")) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["purity"] == 1.0 and report["mc"] == 1.0

    @pytest.mark.parametrize("kind,method", [
        ("gssf", "m3"), ("gssf", "m4"), ("min", "m3"), ("max", "m5"),
        ("asym", "m5"), ("edit", "m5"), ("edit", "m4"),
    ])
    def test_every_supported_cell_runs(self, tiny_pipeline, tmp_path, kind, method):
        out = tmp_path / f"{kind}_{method}"
        assert self.run(tiny_pipeline, out, ("--kind", kind, "--method", method,
                                             "--seed", "1")) == 0

    def test_deterministic_across_threads(self, tiny_pipeline, tmp_path):
        outs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            assert self.run(tiny_pipeline, out, ("--seed", "3", "--threads", threads)) == 0
            outs.append(out)
        for artifact in ("report.json", "assignment.csv", "sbr.pgm", "sbr.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_threads_accepted_validated_and_ignored(self, tiny_pipeline, tmp_path, capsys):
        """The ``--threads`` flag is still accepted, checked and ignored, and
        saying so is the one line the run writes on stderr."""
        assert self.run(tiny_pipeline, tmp_path / "t2", ("--threads", "2")) == 0
        assert capsys.readouterr().err == "warning: --threads is deprecated and ignored\n"
        assert "threads" not in json.loads((tmp_path / "t2" / "timings.json").read_text())
        assert self.run(tiny_pipeline, tmp_path / "t0", ("--threads", "0")) == 2
        assert "warning" not in capsys.readouterr().err

    def test_report_decode_diagnostics(self, tiny_pipeline, tmp_path):
        from gssf.ink import load_jsonl
        from gssf.seq2seq import load_checkpoint
        from gssf.similarity import score_answers

        out = tmp_path / "diag"
        assert self.run(tiny_pipeline, out) == 0
        report = json.loads((out / "report.json").read_text())
        answers = score_answers(load_checkpoint(tiny_pipeline["ckpt"]),
                                load_jsonl(tiny_pipeline["dataset"]))
        assert report["num_unique_decodes"] == len({tuple(a.decode.tokens) for a in answers})
        assert report["num_truncated_decodes"] == sum(a.decode.truncated for a in answers)
        assert 1 <= report["num_unique_decodes"] <= 12

    def test_readme_config_example(self, tmp_path):
        """README's ``train --config`` example spells out every default."""
        from gssf.seq2seq import TrainConfig

        path = tmp_path / "readme.json"
        path.write_text(readme_config())
        assert gssf.cli._train_config(str(path)) == TrainConfig()

    def test_no_categories_explicit_k_skips_evaluation(self, tiny_pipeline, tmp_path):
        import gssf.ink as ink_mod

        inks = ink_mod.load_jsonl(tiny_pipeline["dataset"])
        for ink in inks:
            ink.category = None
        data = tmp_path / "uncat.jsonl"
        ink_mod.save_jsonl(data, inks)
        out = tmp_path / "run"
        assert main(["cluster", "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(out), "--k", "3"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["purity"] is None and report["mc"] is None
        # the 'categories' k policy, however, needs categories
        assert main(["cluster", "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(tmp_path / "x")]) == 2

    def test_all_unscorable_exit_3(self, tiny_pipeline, tmp_path, capsys):
        # a rigged checkpoint whose decoder emits the end token immediately
        from gssf.seq2seq import EOS_INDEX, load_checkpoint, save_checkpoint, zero_params

        base = load_checkpoint(tiny_pipeline["ckpt"])
        rigged = zero_params(base.arch, base.vocab)
        rigged.tensors["out_b"][EOS_INDEX] = 10.0
        ckpt = tmp_path / "rigged.ckpt"
        save_checkpoint(ckpt, rigged)
        code = main(["cluster", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "unscorable" in capsys.readouterr().err

    @pytest.mark.parametrize("command,method", [("cluster", "m3"), ("cluster", "m4"),
                                                ("cluster", "m5"), ("compare", "m5")])
    def test_non_finite_scores_exit_3(self, tiny_pipeline, tmp_path, capsys, command, method):
        """Finite weights can still overflow: scaled by 1e300, every cross score is NaN."""
        from gssf.seq2seq import save_checkpoint

        params = load_checkpoint(tiny_pipeline["ckpt"])
        for name in params.tensors:
            params.tensors[name] = params.tensors[name] * 1e300
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, params)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main([command, "--data", str(tiny_pipeline["dataset"]), "--ckpt", str(ckpt),
                         "--out", str(out),
                         "--method" if command == "cluster" else "--methods", method])
        assert code == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_row_counts_and_csv(self, tiny_pipeline, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out),
                     "--num-seeds", "2", "--seed", "0"])
        assert code == 0
        table = json.loads((out / "compare.json").read_text())
        assert len(table["rows"]) == 5 * 2
        assert len(table["summary"]) == 5
        for row in table["rows"]:
            assert 0.0 < row["purity"] <= 1.0 and 0.0 < row["mc"] <= 1.0
        csv_lines = (out / "compare.csv").read_text().splitlines()
        assert csv_lines[0] == "kind,method,seed,purity,mc"
        assert len(csv_lines) == 11

    def test_m3_cells_skip_incompatible_kinds(self, tiny_pipeline, tmp_path):
        out = tmp_path / "cmp3"
        code = main(["compare", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out),
                     "--methods", "m3", "--num-seeds", "1"])
        assert code == 0
        table = json.loads((out / "compare.json").read_text())
        kinds = {r["kind"] for r in table["rows"]}
        assert kinds == {"gssf", "min", "max"}

    def test_repeated_kinds_and_methods_are_one_cell(self, tiny_pipeline, tmp_path):
        """Repeats name one cell each, in first-seen order."""
        out = tmp_path / "cmp"
        assert main(["compare", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out),
                     "--kinds", "gssf,gssf", "--methods", "m5,m5", "--num-seeds", "2"]) == 0
        table = json.loads((out / "compare.json").read_text())
        assert [(s["kind"], s["method"]) for s in table["summary"]] == [("gssf", "m5")]
        assert [(r["kind"], r["seed"]) for r in table["rows"]] == [("gssf", 0), ("gssf", 10)]

    def test_outputs_name_kinds_as_their_flags(self, tiny_pipeline, tmp_path):
        """``compare.json`` and ``compare.csv`` name each kind by its flag
        value, so a kind copied from ``compare.csv`` works as ``--kind``."""
        common = ["--data", str(tiny_pipeline["dataset"]), "--ckpt", str(tiny_pipeline["ckpt"])]
        out = tmp_path / "cmp"
        assert main(["compare", *common, "--out", str(out), "--kinds", "asym,edit",
                     "--num-seeds", "1"]) == 0
        table = json.loads((out / "compare.json").read_text())
        assert [s["kind"] for s in table["summary"]] == ["asym", "edit"]
        assert [r["kind"] for r in table["rows"]] == ["asym", "edit"]
        rows = (out / "compare.csv").read_text().splitlines()[1:]
        kinds = [row.split(",")[0] for row in rows]
        assert kinds == ["asym", "edit"]
        for kind in kinds:
            run = tmp_path / kind
            assert main(["cluster", *common, "--out", str(run), "--kind", kind]) == 0
            assert json.loads((run / "report.json").read_text())["similarity_kind"] == kind

    @pytest.mark.parametrize("kind,method", [("gssf", "m5"), ("edit", "m4"), ("min", "m3")])
    def test_cluster_is_one_compare_cell(self, tiny_pipeline, tmp_path, kind, method):
        """``cluster --seed s`` reports the purity and cost of ``compare``'s row
        for the same kind, method and seed; s is compare's second seed, base
        seed + restarts."""
        common = ["--data", str(tiny_pipeline["dataset"]), "--ckpt", str(tiny_pipeline["ckpt"])]
        assert main(["compare", *common, "--out", str(tmp_path / "cmp"), "--kinds", kind,
                     "--methods", method, "--num-seeds", "2", "--seed", "6"]) == 0
        assert main(["cluster", *common, "--out", str(tmp_path / "run"), "--kind", kind,
                     "--method", method, "--seed", "16"]) == 0
        [row] = [r for r in json.loads((tmp_path / "cmp" / "compare.json").read_text())["rows"]
                 if r["seed"] == 16]
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert (report["purity"], report["mc"]) == (row["purity"], row["mc"])

    def test_seeds_use_each_generator_once(self, tiny_pipeline, tmp_path, monkeypatch):
        """k-means restart r of seed s draws generator s + r, so compare's
        seeds, base + i x restarts, share no generator."""
        import gssf.cluster

        generators, single = [], gssf.cluster.kmeans_single

        def spy(rows, k, rng):
            generators.append(rng.bit_generator.seed_seq.entropy)
            return single(rows, k, rng)

        monkeypatch.setattr(gssf.cluster, "kmeans_single", spy)
        out = tmp_path / "cmp"
        assert main(["compare", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out), "--kinds", "gssf",
                     "--num-seeds", "3", "--restarts", "2", "--seed", "5"]) == 0
        assert generators == [5, 6, 7, 8, 9, 10]
        rows = json.loads((out / "compare.json").read_text())["rows"]
        assert [r["seed"] for r in rows] == [5, 7, 9]

    def test_linkage_cells_clustered_once(self, tiny_pipeline, tmp_path, monkeypatch):
        import gssf.cli

        calls = []
        cluster_once = gssf.cli._cluster_once

        def counting(method, *args):
            calls.append(method)
            return cluster_once(method, *args)

        monkeypatch.setattr(gssf.cli, "_cluster_once", counting)
        out = tmp_path / "cmp_all"
        code = main(["compare", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out),
                     "--methods", "m3,m4,m5", "--num-seeds", "3", "--seed", "4"])
        assert code == 0
        # 13 cells (m3 needs a symmetric F kind): 5 k-means cells x 3 seeds + 8 linkage.
        assert sorted(calls) == ["m3"] * 3 + ["m4"] * 5 + ["m5"] * 15
        table = json.loads((out / "compare.json").read_text())
        assert len(table["rows"]) == 39
        for start in range(0, 39, 3):
            cell = table["rows"][start:start + 3]
            assert [r["seed"] for r in cell] == [4, 14, 24]
            if cell[0]["method"] != "m5":
                assert len({(r["purity"], r["mc"]) for r in cell}) == 1


def test_each_rule_checked_once(tiny_pipeline, tmp_path, monkeypatch):
    """Each spec, architecture and parameter-count rule runs once per command,
    where its input enters gssf, so a second copy of a check fails here."""
    from gssf.seq2seq import ArchConfig, param_shapes
    from gssf.synthgen import AnswerSetSpec

    calls = collections.Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(AnswerSetSpec, "validate", spy("spec", AnswerSetSpec.validate))
    monkeypatch.setattr(ArchConfig, "validate", spy("arch", ArchConfig.validate))
    for module in [m for name, m in sys.modules.items() if name.startswith("gssf")]:
        if getattr(module, "param_shapes", None) is param_shapes:
            monkeypatch.setattr(module, "param_shapes", spy("shapes", param_shapes))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"arch": TINY_CONFIG["arch"],
                                  "train": {"max_epochs": 1, "patience": 1}}))
    data = ["--data", str(tiny_pipeline["dataset"])]
    commands = {
        "synth": ["synth", "--spec", str(tiny_pipeline["spec"]),
                  "--out", str(tmp_path / "a.jsonl")],
        "train": ["train", *data, "--config", str(config), "--out", str(tmp_path / "m.ckpt")],
        "cluster": ["cluster", *data, "--ckpt", str(tiny_pipeline["ckpt"]),
                    "--out", str(tmp_path / "o")],
    }
    for command, argv in commands.items():
        calls.clear()
        assert main(argv) == 0
        want = {"spec": 1} if command == "synth" else {"arch": 1, "shapes": 1}
        assert calls == want, command


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        for command in ("frobnicate", "heatmap"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == 2

    def test_missing_checkpoint_exit_2(self, tiny_pipeline, tmp_path):
        assert main(["cluster", "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tmp_path / "none.ckpt"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("corrupt", ["config", "tensor", "duplicate"])
    def test_bad_checkpoint_exit_2(self, tiny_pipeline, tmp_path, capsys, corrupt):
        """The loader checks the config block and every tensor against it."""
        if corrupt == "duplicate":
            data = with_duplicate_record(tiny_pipeline["ckpt"].read_bytes())
        elif corrupt == "config":
            data = tiny_pipeline["ckpt"].read_bytes()
            assert data.count(b'"max_decode_len": 8') == 1
            data = data.replace(b'"max_decode_len": 8', b'"max_decode_len": 0')
        else:
            params = load_checkpoint(tiny_pipeline["ckpt"])
            params.tensors["dec_wh"][1, 2] = math.nan
            data = checkpoint_bytes(params)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(data)
        out = tmp_path / "o"
        assert main(["cluster", "--data", str(tiny_pipeline["dataset"]), "--ckpt", str(ckpt),
                     "--out", str(out)]) == 2
        assert {"config": "bad config block", "tensor": "non-finite",
                "duplicate": "duplicate tensor name"}[corrupt] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,values", [
        ("train", {"weird": 1}), ("train", {"arch": {}}),
        ("train", {"batch_size": -1}), ("train", {"batch_size": 2.5}),
        ("train", {"learning_rate": "x"}), ("train", {"clip_norm": "a"}),
        ("arch", {"enc_layers": 2.5}), ("arch", {"max_decode_len": 2.5}),
        ("arch", {"max_decode_len": 10 ** 12}), ("arch", {"input_dim": 5}),
    ])
    def test_bad_training_config_exit_2(self, tiny_pipeline, tmp_path, capsys, monkeypatch,
                                        section, values):
        """The config is checked before the answer file is read."""
        monkeypatch.setattr("gssf.ink.load_jsonl", no_call("load_jsonl"))
        config = {"arch": dict(TINY_CONFIG["arch"]),
                  "train": {"max_epochs": 1, "patience": 1}}
        config[section].update(values)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(tiny_pipeline["dataset"]), "--out", str(ckpt),
                     "--config", str(path)]) == 2
        assert "config" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("height", [1e-6, 1e-300])
    def test_thin_ink_scored_fast(self, tiny_pipeline, tmp_path, height):
        """A thin stroke scales by a tenth of its width, not by its height."""
        data = tmp_path / "thin.jsonl"
        save_jsonl(data, [RawInk(strokes=[np.array([[0.0, 0.0], [1.0, height]])], id="thin"),
                          RawInk(strokes=[np.array([[0.0, 0.0], [1.0, 1.0]])], id="ok")])
        start = time.perf_counter()
        assert main(["cluster", "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(tmp_path / "o"), "--k", "2"]) == 0
        assert time.perf_counter() - start < 1.0

    def test_oversampled_zigzag_exit_2(self, tiny_pipeline, tmp_path, capsys):
        # 5,000 unit-high zig-zag segments, 8 chords each at the tiny spacing 0.12.
        zigzag = np.column_stack([np.linspace(0.0, 1.0, 5001), np.arange(5001) % 2])
        data = tmp_path / "zigzag.jsonl"
        save_jsonl(data, [RawInk(strokes=[zigzag], id="zigzag"),
                          RawInk(strokes=[np.array([[0.0, 0.0], [1.0, 1.0]])], id="ok")])
        start = time.perf_counter()
        assert main(["cluster", "--data", str(data), "--ckpt", str(tiny_pipeline["ckpt"]),
                     "--out", str(tmp_path / "o"), "--k", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "'zigzag'" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tiny_pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("gssf.ink.load_jsonl", no_call("load_jsonl"))
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"weird": 1}))
        assert main(["train", "--data", str(tiny_pipeline["dataset"]),
                     "--out", str(tmp_path / "m.ckpt"), "--config", str(config)]) == 2
        assert "unknown keys ['weird']" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("kind", "gssf"), ("method", "m5"), ("k", "categories"), ("seed", 0),
        ("restarts", 10), ("num_seeds", 3), ("threads", 1),
    ])
    def test_train_config_holds_no_flag_setting(self, tiny_pipeline, tmp_path, capsys,
                                                monkeypatch, key, value):
        """A config holds ``arch`` and ``train`` only, so even a flag's default
        value under its own name exits 2, before the answers are read."""
        monkeypatch.setattr("gssf.ink.load_jsonl", no_call("load_jsonl"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"arch": TINY_CONFIG["arch"], key: value}))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(tiny_pipeline["dataset"]), "--out", str(ckpt),
                     "--config", str(path)]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("cluster", "threads", 0), ("cluster", "seed", -1), ("cluster", "seed", 1.5),
        ("cluster", "restarts", 0), ("cluster", "restarts", True),
        ("cluster", "threads", "x"), ("compare", "num_seeds", 2.0),
        ("compare", "seed", None), ("train", "seed", [1]), ("compare", "num_seeds", 0),
        ("train", "seed", -1),
    ])
    def test_bad_integer_setting_exit_2(self, tiny_pipeline, tmp_path, capsys, monkeypatch,
                                        command, key, value):
        """An integer flag below its minimum, or not an integer, exits 2
        before the answers or the checkpoint are read."""
        monkeypatch.setattr("gssf.ink.load_jsonl", no_call("load_jsonl"))
        monkeypatch.setattr("gssf.seq2seq.load_checkpoint", no_call("load_checkpoint"))
        flag = "--" + key.replace("_", "-")
        args = ["--data", str(tiny_pipeline["dataset"]), flag, str(value)]
        if command == "train":
            args += ["--out", str(tmp_path / "m.ckpt")]
        else:
            args += ["--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(tmp_path / "o")]
        assert exit_code([command, *args]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    @pytest.mark.parametrize("mode", ["bogus", 1, None])
    def test_bad_config_normalization_exit_2_before_scoring(self, tiny_pipeline, tmp_path,
                                                            capsys, monkeypatch, command,
                                                            mode):
        """``cluster`` and ``compare`` take no config file: one holding any
        setting, here a normalization mode, exits 2 before any answer is scored."""
        monkeypatch.setattr("gssf.similarity.score_answers", no_call("score_answers"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"normalization": mode}))
        out = tmp_path / "o"
        assert exit_code([command, "--data", str(tiny_pipeline["dataset"]),
                          "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out),
                          "--config", str(path)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_architecture_exit_2_fast(self, tiny_pipeline, tmp_path, capsys):
        """405M parameters: every size is within its cap, the count is not."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"arch": {"enc_hidden": 4096}}))
        ckpt = tmp_path / "m.ckpt"
        start = time.perf_counter()
        assert main(["train", "--data", str(tiny_pipeline["dataset"]), "--out", str(ckpt),
                     "--config", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "parameters" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_internal_value_error_is_not_a_usage_error(self, tiny_pipeline, tmp_path,
                                                       monkeypatch):
        import gssf.similarity

        def broken(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(gssf.similarity, "score_answers", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["cluster", "--data", str(tiny_pipeline["dataset"]),
                  "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("error,code", exit_code_cases())
    def test_exit_code_table(self, monkeypatch, capsys, tmp_path, error, code):
        """Input errors exit 2 and run failures 3; anything else is a fault
        and propagates as a traceback."""

        def handler(args):
            raise error("raised by the handler")

        monkeypatch.setattr(gssf.cli, "cmd_synth", handler)
        argv = ["synth", "--spec", str(tmp_path / "s.json"), "--out", str(tmp_path / "o.jsonl")]
        if code is None:
            with pytest.raises(error, match="raised by the handler"):
                main(argv)
        else:
            assert main(argv) == code
            assert capsys.readouterr().err == "error: raised by the handler\n"

    @pytest.mark.parametrize("command,flag", [
        (["train", "--out", "{tmp}/m.ckpt"], "--data"),
        (["synth", "--out", "{tmp}/o.jsonl"], "--spec"),
        (["train", "--data", "{tmp}/none.jsonl", "--out", "{tmp}/m.ckpt"], "--config"),
    ], ids=["data", "spec", "config"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"\xff{}\n")
        argv = [arg.format(tmp=tmp_path) for arg in command] + [flag, str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert not any(tmp_path.glob("[mo].*"))

    @pytest.mark.parametrize("command", ["train", "cluster"])
    def test_integer_coordinate_past_float64_exit_2(self, tiny_pipeline, tmp_path, capsys,
                                                    command):
        """JSON keeps 10**400 exact; converting it to float64 overflows."""
        data = tmp_path / "huge.jsonl"
        data.write_text('{"id": "ok", "label": ["1"], "strokes": [[[0, 0], [1, 1]]]}\n'
                        '{"id": "big", "label": ["1"], "strokes": [[[0, 0], [1%s, 1]]]}\n'
                        % ("0" * 400))
        argv = [command, "--data", str(data), "--out", str(tmp_path / "o")]
        if command == "cluster":
            argv += ["--ckpt", str(tiny_pipeline["ckpt"]), "--k", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{data}:2:" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flag", [
        (["synth", "--out", "{tmp}/o.jsonl"], "--spec"),
        (["train", "--out", "{tmp}/m.ckpt"], "--data"),
        (["train", "--data", "{tmp}/none.jsonl", "--out", "{tmp}/m.ckpt"], "--config"),
    ], ids=["spec", "data", "config"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, command, flag):
        """json.loads raises RecursionError, not ValueError, on deep nesting."""
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        argv = [arg.format(tmp=tmp_path) for arg in command] + [flag, str(bad)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        if flag == "--data":
            assert f"{bad}:1:" in err
        assert not any(tmp_path.glob("[mo].*"))


class TestKindNames:
    @pytest.mark.parametrize("command,flag,value", [
        ("cluster", "--kind", "asymmetric"), ("cluster", "--kind", "GSSF"),
        ("cluster", "--kind", " edit"), ("compare", "--kinds", ""),
        ("compare", "--kinds", "gssf,neg_edit_distance"),
    ], ids=["long_name", "upper_case", "space", "empty_list", "long_name_in_list"])
    def test_other_spellings_exit_2(self, tiny_pipeline, tmp_path, capsys, monkeypatch,
                                    command, flag, value):
        """A kind has one spelling, as a method does: no long name, case or
        whitespace variant, and an empty ``--kinds`` names no kind. Each exits
        2 before the answers are read, and the error lists the five names."""
        monkeypatch.setattr("gssf.ink.load_jsonl", no_call("load_jsonl"))
        out = tmp_path / "o"
        assert main([command, "--data", str(tiny_pipeline["dataset"]),
                     "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown similarity kind")
        assert "(choose from ('gssf', 'asym', 'min', 'max', 'edit'))" in err
        assert not out.exists()

    def test_kind_values_are_the_flag_names(self):
        from gssf.similarity import SimilarityKind

        assert [kind.value for kind in SimilarityKind] == ["gssf", "asym", "min", "max", "edit"]


def sparse_file(path: Path, size: int) -> Path:
    """A file of ``size`` zero bytes that takes no disk blocks."""
    path.touch()
    os.truncate(path, size)
    return path


class TestReadCaps:
    """A checkpoint, a spec and a config are each read as at most a cap of
    bytes: a regular file over it by its size, before any read, and any
    other file, such as a device, by a read of at most cap + 1 bytes."""

    def test_caps(self):
        from dataclasses import fields

        from gssf.seq2seq import ArchConfig, TrainConfig
        from gssf.seq2seq.checkpoint import MAX_CHECKPOINT_BYTES
        from gssf.seq2seq.model import MAX_PARAMS
        from gssf.synthgen import MAX_LABEL_TOKENS, MAX_SPEC_ANSWERS, MAX_SPEC_BYTES

        assert MAX_CHECKPOINT_BYTES == 8 * MAX_PARAMS + 2 ** 20 == 135_266_304
        assert MAX_SPEC_BYTES == MAX_SPEC_ANSWERS * (8 * MAX_LABEL_TOKENS + 256) == 5_952_000
        keys = len(fields(ArchConfig)) + len(fields(TrainConfig)) - 1  # arch is a section
        assert gssf.cli.MAX_CONFIG_BYTES == 256 * keys == 4_352

    @pytest.mark.parametrize("flag", ["--ckpt", "--spec", "--config"])
    def test_over_cap_file_exit_2_unread(self, tiny_pipeline, tmp_path, capsys, monkeypatch,
                                         flag):
        """A sparse file one byte over the cap, so the test writes nothing."""
        from gssf.seq2seq.checkpoint import MAX_CHECKPOINT_BYTES
        from gssf.synthgen import MAX_SPEC_BYTES

        cap, what = {"--ckpt": (MAX_CHECKPOINT_BYTES, "checkpoint"),
                     "--spec": (MAX_SPEC_BYTES, "spec"),
                     "--config": (gssf.cli.MAX_CONFIG_BYTES, "config")}[flag]
        monkeypatch.setattr("gssf.similarity.score_answers", no_call("score_answers"))
        monkeypatch.setattr("gssf.seq2seq.train", no_call("train"))
        monkeypatch.setattr("gssf.synthgen.generate_answer_set", no_call("generate_answer_set"))
        big = sparse_file(tmp_path / "big", cap + 1)
        argv = {"--ckpt": ["cluster", "--data", str(tiny_pipeline["dataset"]), "--ckpt"],
                "--spec": ["synth", "--spec"],
                "--config": ["train", "--data", str(tiny_pipeline["dataset"]), "--config"]}[flag]
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main([*argv, str(big), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: {big}: {what} over {cap} bytes\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--spec", "--config"])
    def test_device_read_stops_at_the_cap(self, tiny_pipeline, tmp_path, capsys, flag):
        """An endless device has no size to check: the read stops one byte
        past the cap."""
        argv = {"--spec": ["synth", "--spec"],
                "--config": ["train", "--data", str(tiny_pipeline["dataset"]), "--config"]}[flag]
        out = tmp_path / "o"
        assert main([*argv, "/dev/zero", "--out", str(out)]) == 2
        assert f"/dev/zero: {flag[2:]} over" in capsys.readouterr().err
        assert not out.exists()

    def test_read_bounded_boundary(self, tmp_path):
        from gssf import InputError, read_bounded

        at_cap = tmp_path / "at_cap"
        at_cap.write_bytes(b"x" * 100)
        assert read_bounded(at_cap, 100, "file", InputError) == b"x" * 100
        for path in (sparse_file(tmp_path / "over", 101), Path("/dev/zero")):
            with pytest.raises(InputError, match=f"{path}: file over 100 bytes"):
                read_bounded(path, 100, "file", InputError)

    def test_committed_inputs_load_under_the_caps(self):
        """The benchmark's checkpoint (only read here), every committed spec
        and README's config example."""
        from gssf.synthgen import load_spec

        root = Path(__file__).resolve().parents[1]
        load_checkpoint(root / "perfbench" / "models" / "pinned.ckpt")
        specs = sorted((root / "data" / "hard_sets").glob("*.json"))
        assert len(specs) == 26
        for spec in specs:
            load_spec(spec)
        assert len(readme_config().encode("utf-8")) <= gssf.cli.MAX_CONFIG_BYTES

    def test_spec_at_both_caps_fits(self, tmp_path):
        """``MAX_SPEC_ANSWERS`` one-answer categories with ``MAX_LABEL_TOKENS``
        tokens each, in the layout of the committed specs, with ids."""
        from gssf.synthgen import MAX_LABEL_TOKENS, MAX_SPEC_ANSWERS, MAX_SPEC_BYTES, load_spec

        category = {"label": ["frac"] * MAX_LABEL_TOKENS, "count": 1}
        lines = [json.dumps({**category, "id": f"question_7_variant_{i:05d}"})
                 for i in range(MAX_SPEC_ANSWERS)]
        path = tmp_path / "spec.json"
        path.write_text('{\n "seed": 0,\n "categories": [\n  ' + ",\n  ".join(lines)
                        + "\n ]\n}\n")
        assert path.stat().st_size <= MAX_SPEC_BYTES
        assert len(load_spec(path).categories) == MAX_SPEC_ANSWERS


#: Runs ``gssf.cli.main`` on its arguments, then prints the exit code and the
#: gssf modules the process loaded.
IMPORT_PROBE = """
import json, sys
from gssf.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "gssf")]))
"""


class TestImports:
    """Each command loads only the gssf modules it runs."""

    def loaded(self, *args: str) -> set[str]:
        src = str(Path(gssf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        return set(modules)

    def test_synth(self, tiny_pipeline, tmp_path):
        modules = self.loaded("synth", "--spec", str(tiny_pipeline["spec"]),
                              "--out", str(tmp_path / "a.jsonl"))
        assert "gssf.synthgen" in modules
        assert not {m for m in modules if m.startswith("gssf.seq2seq")}
        assert not modules & {"gssf.similarity", "gssf.cluster", "gssf.metrics"}

    def test_train(self, tiny_pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"arch": TINY_CONFIG["arch"],
                                      "train": {"max_epochs": 1, "patience": 1}}))
        modules = self.loaded("train", "--data", str(tiny_pipeline["dataset"]),
                              "--config", str(config), "--out", str(tmp_path / "m.ckpt"))
        assert {"gssf.seq2seq.training", "gssf.synthgen"} <= modules  # synthgen for the cap
        assert not modules & {"gssf.similarity", "gssf.cluster", "gssf.metrics"}

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    def test_cluster_and_compare(self, tiny_pipeline, tmp_path, command):
        modules = self.loaded(command, "--data", str(tiny_pipeline["dataset"]),
                              "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(tmp_path))
        assert {"gssf.similarity", "gssf.cluster"} <= modules
        assert not modules & {"gssf.synthgen", "gssf.seq2seq.training"}


def partly_unscorable(ckpt: Path, inks: list[RawInk], out: Path) -> int:
    """Save ``ckpt`` to ``out`` with its end-token bias raised until some, but
    not all, of ``inks`` decode to nothing; returns how many do."""
    from gssf.seq2seq import EOS_INDEX, save_checkpoint
    from gssf.similarity import score_answers

    params = load_checkpoint(ckpt)
    base = params.tensors["out_b"][EOS_INDEX]
    for lift in np.arange(0.0, 40.0, 0.25):
        params.tensors["out_b"][EOS_INDEX] = base + lift
        empty = sum(not a.decode.tokens for a in score_answers(params, inks))
        if 0 < empty < len(inks):
            save_checkpoint(out, params)
            return empty
    raise AssertionError("no end-token bias leaves only some answers unscorable")


class TestDiagnostics:
    """Each condition that a finished run must report writes one ``warning:``
    line on stderr, in a fresh process whose environment sets nothing for
    gssf; the pinned runs write nothing there."""

    def gssf(self, *args: str) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items() if k != "GSSF_LOG"}
        env.update(PYTHONPATH=str(Path(gssf.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-m", "gssf.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def warnings(self, *args: str) -> list[str]:
        proc = self.gssf(*args)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert all(line.startswith("warning: ") for line in lines), proc.stderr
        return lines

    def test_threads(self, tiny_pipeline, tmp_path):
        assert self.warnings("cluster", "--data", str(tiny_pipeline["dataset"]),
                             "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(tmp_path),
                             "--threads", "2") == [
            "warning: --threads is deprecated and ignored"]

    def test_skipped_cell(self, tiny_pipeline, tmp_path):
        [line] = self.warnings("compare", "--data", str(tiny_pipeline["dataset"]),
                               "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(tmp_path),
                               "--kinds", "gssf,asym", "--methods", "m3,m5",
                               "--num-seeds", "1")
        assert line.startswith("warning: skipping asym/m3:")
        summary = json.loads((tmp_path / "compare.json").read_text())["summary"]
        assert [(c["kind"], c["method"]) for c in summary] == [
            ("gssf", "m3"), ("gssf", "m5"), ("asym", "m5")]

    def test_incompatible_cell_is_one_error(self, tiny_pipeline, tmp_path):
        """``cluster`` on a cell that m3 cannot take fails without a warning."""
        proc = self.gssf("cluster", "--data", str(tiny_pipeline["dataset"]),
                         "--ckpt", str(tiny_pipeline["ckpt"]), "--out", str(tmp_path / "o"),
                         "--kind", "asym", "--method", "m3")
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: method m3")

    def test_unscorable_sentinel(self, tiny_pipeline, tmp_path):
        """An empty decode's sentinel score is reported once per F kind: once
        by ``cluster``, and by ``compare`` for each F kind but not for edit."""
        from gssf.ink import load_jsonl

        ckpt = tmp_path / "eos.ckpt"
        empty = partly_unscorable(tiny_pipeline["ckpt"], load_jsonl(tiny_pipeline["dataset"]),
                                  ckpt)
        common = ("--data", str(tiny_pipeline["dataset"]), "--ckpt", str(ckpt))
        [line] = self.warnings("cluster", *common, "--out", str(tmp_path / "run"))
        assert line.startswith(f"warning: gssf: {empty} unscorable answer(s)")
        assert json.loads((tmp_path / "run" / "report.json").read_text())[
            "num_unscorable"] == empty
        lines = self.warnings("compare", *common, "--out", str(tmp_path / "cmp"),
                              "--num-seeds", "1")
        assert [line.split(":")[1].strip() for line in lines] == [
            "gssf", "asym", "min", "max"]
        assert all("unscorable" in line for line in lines)

    def test_degenerate_matrix(self, tiny_pipeline, tmp_path):
        """A recognizer with all-zero weights scores every answer alike, F = 0."""
        from gssf.seq2seq import save_checkpoint, zero_params

        base = load_checkpoint(tiny_pipeline["ckpt"])
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(ckpt, zero_params(base.arch, base.vocab))
        out = tmp_path / "run"
        [line] = self.warnings("cluster", "--data", str(tiny_pipeline["dataset"]),
                               "--ckpt", str(ckpt), "--out", str(out))
        assert line.startswith("warning: gssf: degenerate similarity matrix")
        assert json.loads((out / "report.json").read_text())["degenerate_matrix"] is True

    def test_pinned_runs_write_nothing_to_stderr(self, benchmark_inks, tmp_path):
        """The benchmark's ``cluster`` on its pinned checkpoint, and its
        ``train`` (two epochs here), both on the pinned set."""
        data, config = tmp_path / "answers.jsonl", tmp_path / "config.json"
        save_jsonl(data, benchmark_inks)
        config.write_text(json.dumps({"arch": {"resample_spacing": 0.08},
                                      "train": {"max_epochs": 2, "patience": 2}}))
        ckpt = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "pinned.ckpt"
        assert self.warnings("cluster", "--data", str(data), "--ckpt", str(ckpt),
                             "--out", str(tmp_path / "run"), "--kind", "gssf",
                             "--method", "m5", "--k", "categories") == []
        assert self.warnings("train", "--data", str(data), "--config", str(config),
                             "--seed", "0", "--out", str(tmp_path / "m.ckpt")) == []


class TestReference:
    def test_pinned_checkpoint_reproduces_benchmark_reference(self, benchmark_inks, tmp_path):
        """``gssf cluster --kind gssf --method m5`` with the benchmark's pinned
        checkpoint on the pinned set (the benchmark's default seed) writes the
        benchmark's reference assignment, its SbR matrix within 1e-9, and the
        golden ``report.json`` byte for byte."""
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        data, out = tmp_path / "answers.jsonl", tmp_path / "run"
        save_jsonl(data, benchmark_inks)
        assert main(["cluster", "--data", str(data),
                     "--ckpt", str(perfbench / "models" / "pinned.ckpt"), "--out", str(out),
                     "--kind", "gssf", "--method", "m5", "--k", "categories"]) == 0
        reference = perfbench / "reference"
        assert ((out / "assignment.csv").read_bytes()
                == (reference / "mark-shared.assignment.csv").read_bytes())
        ref_sbr = tmp_path / "reference.sbr.csv"
        ref_sbr.write_bytes(gzip.decompress((reference / "mark-shared.sbr.csv.gz").read_bytes()))
        ids, values = read_matrix_csv(out / "sbr.csv")
        ref_ids, ref_values = read_matrix_csv(ref_sbr)
        assert ids == ref_ids
        np.testing.assert_allclose(values, ref_values, rtol=0.0, atol=1e-9)
        golden = Path(__file__).resolve().parent / "golden" / "pinned-gssf-m5.report.json"
        assert (out / "report.json").read_bytes() == golden.read_bytes()
