"""Stage lifetimes of ``cluster`` and ``compare``: the recognizer and every
answer's encoder annotations are freed before clustering starts, and
``compare`` holds one kind's SbR matrices at a time.

The spies keep weak references only, and nothing calls ``gc.collect``: an
object counts as freed only once reference counting has released it, which
is when its memory goes back to the allocator.
"""

import weakref

import pytest

import gssf.cluster
import gssf.sbr
import gssf.seq2seq
import gssf.similarity
from gssf.cli import main


@pytest.fixture
def spies(monkeypatch):
    """Weak references to every checkpoint tensor and annotation chunk
    (``scoring``) and to each kind's raw and normalized values, in build
    order (``kinds``). ``seen`` gets one record per normalization and per
    clustering call: the call, how many scoring objects are still alive, and
    how many values of the kinds built before the current one."""
    scoring, kinds, seen = [], [], []
    load_checkpoint = gssf.seq2seq.load_checkpoint
    score_answers = gssf.similarity.score_answers
    normalize = gssf.sbr.normalize_unit_interval

    def alive(refs):
        return sum(r() is not None for r in refs)

    def loading(path):
        params = load_checkpoint(path)
        scoring.extend(weakref.ref(t) for t in params.tensors.values())
        return params

    def scoring_answers(params, inks):
        answers = score_answers(params, inks)
        bases = {id(a.annotations.vectors.base): a.annotations.vectors.base for a in answers}
        scoring.extend(weakref.ref(c) for c in bases.values())
        return answers

    def normalizing(m):
        seen.append(("normalize", alive(scoring), alive(r for pair in kinds for r in pair)))
        norm = normalize(m)
        kinds.append((weakref.ref(m.values), weakref.ref(norm.values)))
        return norm

    def spy(name, fn):
        def clustering(*args, **kwargs):
            seen.append((name, alive(scoring), alive(r for pair in kinds[:-1] for r in pair)))
            return fn(*args, **kwargs)
        return clustering

    monkeypatch.setattr(gssf.seq2seq, "load_checkpoint", loading)
    monkeypatch.setattr(gssf.similarity, "score_answers", scoring_answers)
    monkeypatch.setattr(gssf.sbr, "normalize_unit_interval", normalizing)
    for name in ("kmeans", "complete_linkage"):
        monkeypatch.setattr(gssf.cluster, name, spy(name, getattr(gssf.cluster, name)))
    return scoring, kinds, seen


def run(command, benchmark_files, out, *flags):
    return main([command, "--data", str(benchmark_files["dataset"]),
                 "--ckpt", str(benchmark_files["checkpoint"]), "--out", str(out), *flags])


@pytest.mark.parametrize("method", ["m3", "m4", "m5"])
def test_cluster_frees_recognizer_and_annotations_before_clustering(
        benchmark_files, tmp_path, spies, method):
    scoring, kinds, seen = spies
    assert run("cluster", benchmark_files, tmp_path, "--kind", "gssf", "--method", method) == 0
    call = "kmeans" if method == "m5" else "complete_linkage"
    assert len(scoring) > 1 and len(kinds) == 1
    assert seen == [("normalize", 0, 0), (call, 0, 0)]


def test_compare_holds_one_kind_at_a_time(benchmark_files, tmp_path, spies):
    scoring, kinds, seen = spies
    assert run("compare", benchmark_files, tmp_path, "--methods", "m3,m4,m5") == 0
    assert len(scoring) > 1 and len(kinds) == 5
    # Per kind: one normalization, then m3 (the symmetric F kinds), m4 and
    # m5 over three seeds; 5 normalizations and 23 clustering calls in all.
    assert [name for name, _, _ in seen].count("normalize") == 5
    assert len(seen) == 28
    assert [(scoring_alive, kinds_alive) for _, scoring_alive, kinds_alive in seen] == [(0, 0)] * 28
