"""The encoder layer against its earlier formulation (``bigru_oracle.py``).

The current layer writes each gate into its cache slot and its backward pass
turns those slots into gate-gradient factors once per layer. The forward
output must equal the oracle's bit for bit, with and without the cache.
Gradients reassociate products, so they must agree within 1e-12 times the
largest gradient magnitude.
"""

import numpy as np
import pytest

import bigru_oracle
from gssf.ink import extract_features, resample_and_normalize
from gssf.seq2seq import ArchConfig, build_vocabulary, init_params
from gssf.seq2seq import model

REL_TOL = 1e-12

LENGTH_SETS = {
    "mixed": [7, 3, 5, 1, 6],
    "unpadded": [6, 6, 6],               # every step skips the masks
    "one_full_row": [9, 1, 1, 1],        # some row is padded at every step
    "single": [5],                       # B = 1
}


def layer_inputs(lens, in_dim=8, hidden=4, seed=0):
    rng = np.random.default_rng(seed)
    xs = np.zeros((len(lens), max(lens), in_dim))
    for i, n in enumerate(lens):
        xs[i, :n] = rng.normal(0, 1, (n, in_dim))
    weights = [tuple(rng.normal(0, 0.5, s) for s in
                     [(in_dim, 3 * hidden), (hidden, 3 * hidden), (3 * hidden,)])
               for _ in range(2)]
    return xs, weights, np.asarray(lens)


def flat_grads(dx, dirs):
    return [dx] + [w for triple in dirs for w in triple]


def assert_grads_close(got, want):
    scale = max(float(np.abs(w).max()) for w in want if w is not None)
    for g, w in zip(got, want, strict=True):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.shape == w.shape
            assert float(np.abs(g - w).max()) <= REL_TOL * scale


def check_layer(xs, weights, lens, need_dx=True):
    for keep in (False, True):
        out, cache = model._bigru_layer(xs, weights, lens, keep)
        out_o, cache_o = bigru_oracle.bigru_layer(xs, weights, lens, keep)
        assert np.array_equal(out, out_o)
    g = np.random.default_rng(7).normal(0, 1, out.shape)
    dx, dirs = model._bigru_backward(cache, g, need_dx)
    dx_o, dirs_o = bigru_oracle.bigru_backward(cache_o, g, need_dx)
    assert_grads_close(flat_grads(dx, dirs), flat_grads(dx_o, dirs_o))


@pytest.mark.parametrize("lengths", sorted(LENGTH_SETS))
@pytest.mark.parametrize("in_dim,hidden", [(8, 4), (64, 32)])
def test_layer_matches_oracle(lengths, in_dim, hidden):
    check_layer(*layer_inputs(LENGTH_SETS[lengths], in_dim, hidden))


def test_layer_without_input_gradient():
    xs, weights, lens = layer_inputs(LENGTH_SETS["mixed"])
    check_layer(xs, weights, lens, need_dx=False)


def test_pinned_batch_matches_oracle(benchmark_inks):
    """16 answers of the pinned set (T about 112) at the default sizes."""
    arch = ArchConfig(resample_spacing=0.08)
    feats = [extract_features(resample_and_normalize(ink, arch.resample_spacing))
             for ink in benchmark_inks[::6][:16]]
    lens = [len(f) for f in feats]
    assert len(set(lens)) > 1
    xs = np.zeros((len(feats), max(lens), arch.input_dim))
    for i, f in enumerate(feats):
        xs[i, :len(f)] = f
    params = init_params(arch, build_vocabulary([["x"]]), seed=3)
    weights = [tuple(params.tensors[f"enc0_{d}_{w}"] for w in ("wx", "wh", "b"))
               for d in ("fwd", "bwd")]
    check_layer(xs, weights, np.asarray(lens))


@pytest.mark.parametrize("pool", [0, 1, 2])
def test_encoder_stack_matches_oracle(pool, monkeypatch):
    arch = ArchConfig(enc_layers=2, enc_hidden=4, enc_pool=pool)
    params = init_params(arch, build_vocabulary([["a"]]), seed=5)
    lens = LENGTH_SETS["mixed"]
    xs, _, _ = layer_inputs(lens)
    ann, klens, cache = model._encode_steps(params.tensors, arch, xs, lens, keep=True)
    g = np.random.default_rng(9).normal(0, 1, ann.shape)
    grads = model._encode_backward(cache, g)
    monkeypatch.setattr(model, "_bigru_layer", bigru_oracle.bigru_layer)
    monkeypatch.setattr(model, "_bigru_backward", bigru_oracle.bigru_backward)
    ann_o, klens_o, cache_o = model._encode_steps(params.tensors, arch, xs, lens, keep=True)
    grads_o = model._encode_backward(cache_o, g)
    assert klens == klens_o
    assert np.array_equal(ann, ann_o)
    assert set(grads) == set(grads_o)
    assert_grads_close([grads[k] for k in sorted(grads)], [grads_o[k] for k in sorted(grads)])


def test_encode_backward_consumes_caches():
    """Each layer's cache is popped and freed as its backward pass runs."""
    arch = ArchConfig(enc_layers=3, enc_hidden=4, enc_pool=1)
    params = init_params(arch, build_vocabulary([["a"]]), seed=5)
    lens = LENGTH_SETS["mixed"]
    xs, _, _ = layer_inputs(lens)
    ann, _, caches = model._encode_steps(params.tensors, arch, xs, lens, keep=True)
    assert len(caches) == 3
    model._encode_backward(caches, np.ones(ann.shape))
    assert caches == []


def test_caches_are_independent():
    """The backward pass consumes its cache; a second forward must not share it."""
    xs, weights, lens = layer_inputs(LENGTH_SETS["mixed"])
    _, first = model._bigru_layer(xs, weights, lens, keep=True)
    out, second = model._bigru_layer(xs, weights, lens, keep=True)
    g = np.random.default_rng(7).normal(0, 1, out.shape)
    want = flat_grads(*model._bigru_backward(first, g, True))
    got = flat_grads(*model._bigru_backward(second, g, True))
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
