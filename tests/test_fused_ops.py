"""Fused recurrent tape ops against the per-step tape compositions they replace.

The oracles below are the original formulations built from primitive tape
ops: the per-step gated recurrent cell, the per-step bidirectional encoder
loop over time-major steps, and the coverage convolution as W broadcast
multiplies. Forward values must agree within 1e-12 and every gradient within
1e-9, on masked mixed-length batches, every pooling depth and B = 1.
"""

import numpy as np
import pytest

from gssf.seq2seq import ArchConfig, build_vocabulary, init_params, loss_and_gradients
from gssf.seq2seq import model
from gssf.seq2seq.autodiff import Tensor, as_tensor, concat, no_grad

FWD_TOL = 1e-12
GRAD_TOL = 1e-9


# -- oracles: the per-step tape compositions ----------------------------------


def oracle_sigmoid(t: Tensor) -> Tensor:
    return 1.0 / (1.0 + (-t).exp())


def oracle_gru_cell(x, h, wx, wh, b, hsize, mask_col=None):
    gx = x @ wx + b
    gh = h @ wh
    r = oracle_sigmoid(gx[:, :hsize] + gh[:, :hsize])
    z = oracle_sigmoid(gx[:, hsize:2 * hsize] + gh[:, hsize:2 * hsize])
    n = (gx[:, 2 * hsize:] + r * gh[:, 2 * hsize:]).tanh()
    h_new = n + z * (h - n)
    if mask_col is None:
        return h_new
    return mask_col * h_new + (1.0 - mask_col) * h


def oracle_encode_steps(pt, arch, steps, lens):
    """Time-major encoder loop: ``steps`` is a list of (B, input_dim) tensors."""
    batch = steps[0].shape[0]
    h_sz = arch.enc_hidden
    cur = [as_tensor(s) for s in steps]
    cur_lens = list(lens)
    for layer in range(arch.enc_layers):
        if layer >= arch.enc_layers - arch.enc_pool:
            cur = cur[::2]
            cur_lens = [(n + 1) // 2 for n in cur_lens]
        t_steps = len(cur)
        if min(cur_lens) == t_steps:
            masks = [None] * t_steps
        else:
            lens_arr = np.asarray(cur_lens)
            masks = [(t < lens_arr)[:, None].astype(np.float64) for t in range(t_steps)]
        outs = {}
        for direction, order in (("fwd", range(t_steps)), ("bwd", range(t_steps - 1, -1, -1))):
            wx = pt[f"enc{layer}_{direction}_wx"]
            wh = pt[f"enc{layer}_{direction}_wh"]
            b = pt[f"enc{layer}_{direction}_b"]
            h = Tensor(np.zeros((batch, h_sz)))
            collected = [h] * t_steps
            for t in order:
                h = oracle_gru_cell(cur[t], h, wx, wh, b, h_sz, masks[t])
                collected[t] = h
            outs[direction] = collected
        cur = [concat([f, bk], axis=1) for f, bk in zip(outs["fwd"], outs["bwd"])]
    ann = concat([c.reshape(batch, 1, arch.annotation_dim) for c in cur], axis=1)
    return ann, cur_lens


def oracle_coverage_features(pt, arch, cov_acc):
    """W broadcast multiplies by ``cov_k`` rows, then the ``cov_w`` product."""
    batch, k_max = cov_acc.shape
    width, channels = arch.cov_kernel, arch.cov_channels
    pad = width // 2
    zeros = Tensor(np.zeros((batch, pad)))
    padded = concat([zeros, cov_acc, zeros], axis=1)
    out = None
    for w in range(width):
        window = padded[:, w:w + k_max].reshape(batch, k_max, 1)
        term = window * pt["cov_k"][w].reshape(1, 1, channels)
        out = term if out is None else out + term
    return out @ pt["cov_w"]


# -- fixtures -------------------------------------------------------------------

LENGTH_SETS = {
    "mixed": [7, 3, 5, 1, 6],
    "equal": [4, 4, 4],
    "single": [5],
    "one_step": [1, 1],
}


def random_params(pool, seed=3):
    arch = ArchConfig(enc_layers=2, enc_hidden=4, enc_pool=pool, dec_hidden=5, embed_dim=3,
                      att_dim=4, cov_channels=3, cov_kernel=3)
    params = init_params(arch, build_vocabulary([["a", "b"], ["c"]]), seed)
    rng = np.random.default_rng(seed)
    for name in params.tensors:  # nonzero biases exercise every path
        if name.endswith("_b"):
            params.tensors[name] = rng.normal(0, 0.3, params.tensors[name].shape)
    return params


def padded_feats(lens, seed=0):
    rng = np.random.default_rng(seed)
    padded = np.zeros((len(lens), max(lens), 8))
    for i, n in enumerate(lens):
        padded[i, :n] = rng.normal(0, 1, (n, 8))
    return padded


def assert_close(got, want, tol):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


# -- differential tests ---------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 4])
def test_gru_cell_matches_oracle(batch):
    rng = np.random.default_rng(batch)
    hs, in_dim = 4, 6
    arrays = [rng.normal(0, 1, s) for s in
              [(batch, in_dim), (batch, hs), (in_dim, 3 * hs), (hs, 3 * hs), (3 * hs,)]]
    weight = rng.normal(0, 1, (batch, hs))
    fused_in = [Tensor(a.copy()) for a in arrays]
    oracle_in = [Tensor(a.copy()) for a in arrays]
    fused = model._gru_cell(*fused_in)
    oracle = oracle_gru_cell(*oracle_in, hs)
    assert_close(fused.data, oracle.data, FWD_TOL)
    (fused * weight).sum().backward()
    (oracle * weight).sum().backward()
    for f, o in zip(fused_in, oracle_in):
        assert_close(f.grad, o.grad, GRAD_TOL)


@pytest.mark.parametrize("lengths", sorted(LENGTH_SETS))
@pytest.mark.parametrize("pool", [0, 1, 2])
def test_encoder_matches_oracle(pool, lengths):
    lens = LENGTH_SETS[lengths]
    params = random_params(pool)
    arch = params.arch
    padded = padded_feats(lens)
    pt_fused, pt_oracle = model._wrap(params), model._wrap(params)
    feats = Tensor(padded.copy())
    steps = [Tensor(np.ascontiguousarray(padded[:, t])) for t in range(padded.shape[1])]
    ann, klens = model._encode_steps(pt_fused, arch, feats, lens)
    ann_o, klens_o = oracle_encode_steps(pt_oracle, arch, steps, lens)
    assert klens == klens_o
    assert ann.shape == ann_o.shape
    # padded positions are compared too: their junk values follow the same rule
    assert_close(ann.data, ann_o.data, FWD_TOL)

    weight = np.random.default_rng(9).normal(0, 1, ann.shape)
    (ann * weight).sum().backward()
    (ann_o * weight).sum().backward()
    enc_names = [n for n in params.tensors if n.startswith("enc")]
    assert len(enc_names) == 12
    for name in enc_names:
        assert_close(pt_fused[name].grad, pt_oracle[name].grad, GRAD_TOL)
    # with layer-0 pooling the oracle never reaches the odd steps
    step_grads = [np.zeros(s.shape) if s.grad is None else s.grad for s in steps]
    assert_close(feats.grad, np.stack(step_grads, axis=1), GRAD_TOL)


@pytest.mark.parametrize("batch", [1, 3])
def test_coverage_matches_oracle(batch):
    params = random_params(1)
    rng = np.random.default_rng(batch)
    acc = rng.uniform(0, 2, (batch, 6))
    pt_fused, pt_oracle = model._wrap(params), model._wrap(params)
    cov_f, cov_o = Tensor(acc.copy()), Tensor(acc.copy())
    fused = model._coverage_features(pt_fused, params.arch, cov_f)
    oracle = oracle_coverage_features(pt_oracle, params.arch, cov_o)
    assert_close(fused.data, oracle.data, FWD_TOL)
    weight = rng.normal(0, 1, fused.shape)
    (fused * weight).sum().backward()
    (oracle * weight).sum().backward()
    assert_close(cov_f.grad, cov_o.grad, GRAD_TOL)
    for name in ("cov_k", "cov_w"):
        assert_close(pt_fused[name].grad, pt_oracle[name].grad, GRAD_TOL)


@pytest.mark.parametrize("lengths", sorted(LENGTH_SETS))
@pytest.mark.parametrize("pool", [0, 1, 2])
def test_loss_and_gradients_match_oracle_model(monkeypatch, pool, lengths):
    lens = LENGTH_SETS[lengths]
    params = random_params(pool, seed=5)
    rng = np.random.default_rng(1)
    targets = [[2, 3], [4], [3, 3, 2], [2], [4, 2]]
    batch = [(rng.normal(0, 1, (n, 8)), targets[i]) for i, n in enumerate(lens)]
    loss, grads = loss_and_gradients(params, batch)

    def encode_steps(pt, arch, feats, lens):
        steps = [np.ascontiguousarray(feats[:, t]) for t in range(feats.shape[1])]
        return oracle_encode_steps(pt, arch, steps, lens)

    monkeypatch.setattr(model, "_encode_steps", encode_steps)
    monkeypatch.setattr(model, "_coverage_features", oracle_coverage_features)
    monkeypatch.setattr(model, "_gru_cell",
                        lambda x, h, wx, wh, b: oracle_gru_cell(x, h, wx, wh, b, wh.shape[0]))
    loss_o, grads_o = loss_and_gradients(params, batch)
    assert abs(loss - loss_o) <= FWD_TOL
    assert set(grads) == set(grads_o) == set(params.tensors)
    for name in grads:
        assert_close(grads[name], grads_o[name], GRAD_TOL)


def test_no_grad_records_no_parents():
    params = random_params(1)
    pt = model._wrap(params)
    with no_grad():
        ann, _ = model._encode_steps(pt, params.arch, padded_feats([5, 2]), [5, 2])
        cell = model._gru_cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 5))),
                               Tensor(np.ones((3, 15))), Tensor(np.ones((5, 15))),
                               Tensor(np.zeros(15)))
    for out in (ann, cell):
        assert out._parents == () and out._backward is None


def test_chunked_encode_matches_single_batches():
    params = random_params(1)
    rng = np.random.default_rng(4)
    feats = [rng.normal(0, 1, (int(n), 8)) for n in rng.integers(1, 12, model.INFER_CHUNK + 5)]
    batched = model.encode_batch(params, feats)
    assert len(batched) == len(feats)
    for f, got in zip(feats, batched):
        want = model.encode(params, f)
        assert got.source_len == want.source_len == len(f)
        assert_close(got.vectors, want.vectors, FWD_TOL)
