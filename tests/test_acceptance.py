"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criteria
share the session-trained model on the pinned synthetic benchmark defined in
conftest.py; every tolerance is fixed here and must not be loosened.
"""

import functools
import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

import gssf.similarity as similarity_mod
from gssf.cli import main
from gssf.cluster import complete_linkage, kmeans, kmeans_single
from gssf.metrics import marking_cost, marking_cost_raw, purity
from gssf.seq2seq import (Annotations, ArchConfig, ScoredDecode, build_vocabulary,
                          encode, init_params, loss_and_gradients,
                          teacher_forced_logprobs, zero_params)
from gssf.similarity import (AnswerScoring, SimilarityKind, conditional_score,
                             edit_distance, gssf_score, variant_score)
from gssf.sbr import build_sbr_matrix, normalize_unit_interval


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {title}")
        raise
    print(f"[criterion {num:02d}] PASS  {title}")


def test_criterion_01_gssf_identities(trained, benchmark_answers):
    params, _ = trained
    with criterion(1, "gssf symmetry/self-zero/ordering over 1000 random pairs"):
        rng = np.random.default_rng(1)
        n = len(benchmark_answers)
        for a in benchmark_answers:
            assert gssf_score(a, a, params) == 0.0
            assert conditional_score(a, a, params) == 0.0
        pairs = set()
        while len(pairs) < 1000:
            i, j = rng.integers(0, n, 2)
            if i != j:
                pairs.add((int(i), int(j)))
        for i, j in pairs:
            a, b = benchmark_answers[i], benchmark_answers[j]
            ab = gssf_score(a, b, params)
            ba = gssf_score(b, a, params)
            assert ab == ba  # bit-exact
            lo = variant_score(SimilarityKind.MIN, a, b, params)
            hi = variant_score(SimilarityKind.MAX, a, b, params)
            assert lo <= ab <= hi


def test_criterion_02_hand_oracle_conditional_score(monkeypatch):
    with criterion(2, "two-step hand fixture equals ln(0.125/0.72) within 1e-9"):
        a = AnswerScoring(
            id="a",
            annotations=Annotations(vectors=np.zeros((1, 2))),
            decode=ScoredDecode(tokens=[2, 3],
                                self_logprobs=np.array([math.log(0.9), math.log(0.8)])),
        )
        b = AnswerScoring(
            id="b",
            annotations=Annotations(vectors=np.zeros((1, 2))),
            decode=ScoredDecode(tokens=[4], self_logprobs=np.array([math.log(0.5)])),
        )
        monkeypatch.setattr(
            similarity_mod.seq2seq, "teacher_forced_logprobs",
            lambda params, ann, tokens: np.array([math.log(0.5), math.log(0.25)]))
        got = conditional_score(a, b, params=None)
        assert abs(got - math.log(0.125 / 0.72)) < 1e-9


def test_criterion_03_gradient_check():
    with criterion(3, "analytic gradients match central differences, every tensor"):
        vocab = build_vocabulary([["a", "b"], ["b"]])
        assert vocab.size == 4
        arch = ArchConfig(enc_hidden=3, dec_hidden=3, embed_dim=3, att_dim=3,
                          cov_channels=2, cov_kernel=3)
        params = init_params(arch, vocab, seed=1)
        rng = np.random.default_rng(0)
        for name in params.tensors:  # nonzero biases exercise every path
            if name.endswith("_b"):
                params.tensors[name] = rng.normal(0, 0.3, params.tensors[name].shape)
        batch = [
            (rng.normal(0, 1, (5, 8)), vocab.encode(["a", "b"])),
            (rng.normal(0, 1, (3, 8)), vocab.encode(["b"])),
        ]
        _, grads = loss_and_gradients(params, batch)
        h = 1e-4
        for name, arr in params.tensors.items():
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = loss_and_gradients(params, batch)
                arr[idx] = orig - h
                lm, _ = loss_and_gradients(params, batch)
                arr[idx] = orig
                fd[idx] = (lp - lm) / (2 * h)
            # relative error with a small floor so near-zero entries compare absolutely
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-3)
            rel = np.abs(fd - grads[name]) / denom
            assert rel.max() < 1e-4, f"tensor {name}: max rel err {rel.max():.3e}"


def test_criterion_04_uniform_model_law():
    with criterion(4, "all-zero parameters: log-probs exactly -ln V, loss exactly ln V"):
        vocab = build_vocabulary([["a", "b", "c"]])
        arch = ArchConfig(enc_hidden=4, dec_hidden=4, embed_dim=3, att_dim=3,
                          cov_channels=2, cov_kernel=3)
        params = zero_params(arch, vocab)
        feats = np.random.default_rng(0).normal(0, 1, (6, 8))
        ann = encode(params, feats)
        lp = teacher_forced_logprobs(params, ann, [2, 3, 4, 2])
        assert np.all(lp == -math.log(vocab.size))
        loss, _ = loss_and_gradients(params, [(feats, [2])])
        assert loss == math.log(vocab.size)


def test_criterion_05_edit_distance_oracle():
    with criterion(5, "edit distance equals the recursive oracle on 500 pairs + axioms"):

        @functools.cache
        def oracle(s, t):
            if not s:
                return len(t)
            if not t:
                return len(s)
            return min(oracle(s[1:], t) + 1, oracle(s, t[1:]) + 1,
                       oracle(s[1:], t[1:]) + (s[0] != t[0]))

        rng = np.random.default_rng(5)
        alphabet = "abcd"
        samples = []
        for _ in range(500):
            s = tuple(alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 7)))
            t = tuple(alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 7)))
            samples.append((s, t))
            assert edit_distance(list(s), list(t)) == oracle(s, t)
        # metric axioms on a pool of short sequences
        pool = [s for s, _ in samples[:15]]
        for s, t in itertools.product(pool, repeat=2):
            d = edit_distance(list(s), list(t))
            assert d >= 0
            assert (d == 0) == (s == t)
            assert d == edit_distance(list(t), list(s))
        for s, t, u in itertools.product(pool[:8], repeat=3):
            assert (edit_distance(list(s), list(u))
                    <= edit_distance(list(s), list(t)) + edit_distance(list(t), list(u)))


def test_criterion_06_metrics_identities():
    with criterion(6, "closed-form cost equals normalized raw cost; worst case is 1"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            h = int(rng.integers(1, 40))
            labels = rng.integers(0, 6, h).tolist()
            cats = [str(c) for c in rng.integers(0, 4, h)]
            closed = marking_cost(labels, cats)
            raw = marking_cost_raw(labels, cats, time_unit=1.0, alpha=1.0)
            assert abs(closed - raw / (2 * h)) < 1e-12
        n = 17
        assert marking_cost(list(range(n)), ["a"] * n) == 1.0
        labels = [0, 0, 0, 1, 1, 1]
        cats = ["a", "a", "b", "b", "b", "b"]
        assert purity(labels, cats) == pytest.approx(5 / 6, abs=1e-12)
        assert abs(marking_cost(labels, cats) - 0.75) < 1e-12


def test_criterion_07_clustering_oracles():
    with criterion(7, "k-means brute-force fixture, Lloyd monotonicity, linkage oracle"):
        rows = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        assignment = kmeans(rows, 2, seed=0)
        assert assignment.objective == pytest.approx(1.0, abs=1e-12)
        groups = {tuple(sorted(i for i, l2 in enumerate(assignment.labels) if l2 == lab))
                  for lab in set(assignment.labels)}
        assert groups == {(0, 1), (2, 3)}

        rng = np.random.default_rng(7)
        for _ in range(10):
            data = rng.normal(0, 1, (30, 3))
            _, objectives = kmeans_single(data, 4, np.random.default_rng(int(rng.integers(1e6))))
            assert all(a >= b - 1e-9 for a, b in zip(objectives, objectives[1:]))

        def naive_cl(dist, k):
            clusters = [[i] for i in range(len(dist))]
            while len(clusters) > k:
                best = None
                for a, b in itertools.combinations(range(len(clusters)), 2):
                    d = max(dist[i][j] for i in clusters[a] for j in clusters[b])
                    key = (d, min(clusters[a]), min(clusters[b]))
                    if best is None or key < best[0]:
                        best = (key, a, b)
                _, a, b = best
                clusters[a] += clusters[b]
                del clusters[b]
            return frozenset(frozenset(c) for c in clusters)

        for _ in range(200):
            n = int(rng.integers(2, 9))
            raw = rng.uniform(0.0, 1.0, (n, n))
            d = np.triu(raw, 1)
            d = d + d.T
            k = int(rng.integers(1, n + 1))
            ours = complete_linkage(d, k)
            mine = {frozenset(i for i, l2 in enumerate(ours.labels) if l2 == lab)
                    for lab in set(ours.labels)}
            assert frozenset(mine) == naive_cl(d.tolist(), k)


def test_criterion_08_end_to_end_kmeans_over_sbr(trained, benchmark_answers,
                                                 benchmark_f_matrix, benchmark_inks):
    params, history = trained
    with criterion(8, "pinned benchmark: k-means over normalized similarity rows"):
        best_acc = max(h["val_token_acc"] for h in history)
        assert best_acc >= 0.90
        raw = build_sbr_matrix(benchmark_answers, SimilarityKind.GSSF, params,
                               f=benchmark_f_matrix)
        norm = normalize_unit_interval(raw)
        cats = [ink.category for ink in benchmark_inks]
        purities, costs = [], []
        for seed in (0, 1, 2):
            assignment = kmeans(norm.values, 5, seed=seed, restarts=10)
            purities.append(purity(assignment.labels, cats))
            costs.append(marking_cost(assignment.labels, cats))
        assert np.mean(purities) >= 0.90, f"mean purity {np.mean(purities):.3f}"
        assert np.mean(costs) <= 0.60, f"mean marking cost {np.mean(costs):.3f}"
        print(f"    purity {np.mean(purities):.3f} (sd {np.std(purities):.3f}), "
              f"marking cost {np.mean(costs):.3f} (sd {np.std(costs):.3f}), "
              f"held-out token accuracy {best_acc:.3f}")


def test_criterion_09_variant_and_baseline_ordering(trained, benchmark_answers,
                                                    benchmark_f_matrix, benchmark_inks):
    params, _ = trained
    with criterion(9, "similarity-kind sweep: average beats baseline, near best variant"):
        cats = [ink.category for ink in benchmark_inks]
        mean_purity = {}
        for kind in SimilarityKind:
            f = benchmark_f_matrix if kind != SimilarityKind.NEG_EDIT_DISTANCE else None
            raw = build_sbr_matrix(benchmark_answers, kind, params, f=f)
            norm = normalize_unit_interval(raw)
            vals = [purity(kmeans(norm.values, 5, seed=s, restarts=10).labels, cats)
                    for s in (0, 1, 2)]
            mean_purity[kind] = float(np.mean(vals))
        assert mean_purity[SimilarityKind.GSSF] >= mean_purity[SimilarityKind.NEG_EDIT_DISTANCE]
        best_variant = max(mean_purity[SimilarityKind.MIN], mean_purity[SimilarityKind.MAX],
                           mean_purity[SimilarityKind.ASYMMETRIC])
        assert mean_purity[SimilarityKind.GSSF] >= best_variant - 0.02
        print("    mean purity by kind: "
              + ", ".join(f"{k.value}={v:.3f}" for k, v in mean_purity.items()))


def test_criterion_10_pipeline_determinism(benchmark_files, tmp_path):
    with criterion(10, "byte-identical artifacts across repeat runs and thread counts"):
        outs = []
        for name, threads in (("run_t1", "1"), ("run_t4", "4"), ("run_again", "4")):
            out = tmp_path / name
            code = main(["cluster",
                         "--data", str(benchmark_files["dataset"]),
                         "--ckpt", str(benchmark_files["checkpoint"]),
                         "--out", str(out),
                         "--kind", "gssf", "--method", "m5",
                         "--seed", "0", "--threads", threads])
            assert code == 0
            outs.append(out)
        for artifact in ("report.json", "assignment.csv", "sbr.pgm"):
            blobs = [(o / artifact).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2], f"{artifact} differs between runs"
