"""Hand-derived backward passes against the tape-composed recognizer they replace.

The oracles are the original formulations built from primitive tape ops
(``tape_model.py``): the per-step gated recurrent cell, the per-step
bidirectional encoder loop over time-major steps, the coverage convolution
and the whole teacher-forced decoder. Forward values must agree within 1e-12
and every gradient within 1e-9, on masked mixed-length batches, every pooling
depth, several encoder depths and coverage widths, and B = 1.
"""

import numpy as np
import pytest

import tape_model
from gssf.seq2seq import ArchConfig, build_vocabulary, init_params, loss_and_gradients
from gssf.seq2seq import model
from tape import Tensor, concat

FWD_TOL = 1e-12
GRAD_TOL = 1e-9


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
TARGETS = [[2, 3], [4], [3, 3, 2], [2], [4, 2]]


def random_params(pool, seed=3, layers=2, kernel=3):
    arch = ArchConfig(enc_layers=layers, enc_hidden=4, enc_pool=pool, dec_hidden=5,
                      embed_dim=3, att_dim=4, cov_channels=3, cov_kernel=kernel)
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


def assert_matches_tape_model(params, lens):
    rng = np.random.default_rng(1)
    batch = [(rng.normal(0, 1, (n, 8)), TARGETS[i]) for i, n in enumerate(lens)]
    loss, grads = loss_and_gradients(params, batch)
    loss_o, grads_o = tape_model.loss_and_gradients(params, batch)
    assert abs(loss - loss_o) <= FWD_TOL
    assert list(grads) == list(grads_o) == list(params.tensors)
    for name in grads:
        assert_close(grads[name], grads_o[name], GRAD_TOL)


# -- differential tests ---------------------------------------------------------


def assert_cell_matches_tape(stack, batch):
    """Three ``_gru_step`` steps from a nonzero state, and the gradients their
    ``_gru_factors`` give, against the tape cell run per stacked direction."""
    rng = np.random.default_rng(batch + len(stack))
    hs, in_dim, t_steps = 4, 6, 3
    xs = rng.normal(0, 1, (t_steps, *stack, batch, in_dim))
    wx = rng.normal(0, 0.5, (*stack, in_dim, 3 * hs))
    wh = rng.normal(0, 0.5, (*stack, hs, 3 * hs))
    b = rng.normal(0, 0.3, (*stack, 1, 3 * hs))
    weight = rng.normal(0, 1, (t_steps, *stack, batch, hs))
    states = np.empty((t_steps + 1, *stack, batch, hs))
    states[0] = rng.normal(0, 1, states.shape[1:])
    gates = np.empty((t_steps, 4, *stack, batch, hs))
    gx = np.empty((*stack, batch, 3 * hs))
    gh = np.empty_like(gx)
    for t in range(t_steps):
        np.matmul(xs[t], wx, out=gx)
        gx += b
        np.matmul(states[t], wh, out=gh)
        model._gru_step(model._gate_major(gx), model._gate_major(gh), gates[t],
                        states[t], states[t + 1])

    # Backward through time from the factors, for the loss sum(weight * states).
    cand = model._gru_factors(gates, states[:-1])
    factors, z = gates[:, :3], gates[:, 3]
    dx = np.empty_like(xs)
    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
    dh = np.zeros(states.shape[1:])
    for t in range(t_steps - 1, -1, -1):
        g = weight[t] + dh
        dgh = np.concatenate(list(g * factors[t]), axis=-1)
        dgx = np.concatenate([*(g * factors[t, :2]), g * cand[t]], axis=-1)
        dh = g * z[t] + dgh @ wh.swapaxes(-1, -2)
        dx[t] = dgx @ wx.swapaxes(-1, -2)
        dwx += xs[t].swapaxes(-1, -2) @ dgx
        dwh += states[t].swapaxes(-1, -2) @ dgh
        db += dgx.sum(axis=-2, keepdims=True)

    for d in range(2 if stack else 1):
        def sel(a):
            return a[d] if stack else a
        params = [Tensor(sel(a).copy()) for a in (states[0], wx, wh, b)]
        steps = [Tensor(sel(xs[t]).copy()) for t in range(t_steps)]
        h, loss = params[0], None
        for t in range(t_steps):
            h = tape_model.gru_cell(steps[t], h, *params[1:], hs)
            assert_close(h.data, sel(states[t + 1]), FWD_TOL)
            term = (h * sel(weight[t])).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        for got, want in zip((dh, dwx, dwh, db), params):
            assert_close(sel(got), want.grad, GRAD_TOL)
        for t in range(t_steps):
            assert_close(sel(dx[t]), steps[t].grad, GRAD_TOL)


@pytest.mark.parametrize("batch", [1, 4])
def test_gru_cell_matches_oracle(batch):
    """The shared cell on the decoder's (B, h) state and on the encoder's
    (2, B, h) stack of directions."""
    assert_cell_matches_tape((), batch)
    assert_cell_matches_tape((2,), batch)


@pytest.mark.parametrize("lengths", sorted(LENGTH_SETS))
@pytest.mark.parametrize("pool", [0, 1, 2])
def test_encoder_matches_oracle(pool, lengths):
    lens = LENGTH_SETS[lengths]
    params = random_params(pool)
    arch = params.arch
    padded = padded_feats(lens)
    ann, klens, cache = model._encode_steps(params.tensors, arch, padded, lens, keep=True)
    pt_oracle = tape_model.wrap(params)
    steps = [Tensor(np.ascontiguousarray(padded[:, t])) for t in range(padded.shape[1])]
    ann_o, klens_o = tape_model.encode_steps(pt_oracle, arch, steps, lens)
    assert klens == klens_o
    assert ann.shape == ann_o.shape
    # padded positions are compared too: their junk values follow the same rule
    assert_close(ann, ann_o.data, FWD_TOL)

    weight = np.random.default_rng(9).normal(0, 1, ann.shape)
    grads = model._encode_backward(cache, weight)
    (ann_o * weight).sum().backward()
    enc_names = [n for n in params.tensors if n.startswith("enc")]
    assert len(enc_names) == 12 and set(grads) == set(enc_names)
    for name in enc_names:
        assert_close(grads[name], pt_oracle[name].grad, GRAD_TOL)


@pytest.mark.parametrize("batch", [1, 3])
def test_coverage_matches_oracle(batch):
    """The tape model's folded coverage kernel against W per-row multiplies."""
    params = random_params(1)
    rng = np.random.default_rng(batch)
    acc = rng.uniform(0, 2, (batch, 6))
    pt_fused, pt_oracle = tape_model.wrap(params), tape_model.wrap(params)
    cov_f, cov_o = Tensor(acc.copy()), Tensor(acc.copy())
    fused = tape_model.coverage_features(pt_fused, params.arch, cov_f)
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
def test_loss_and_gradients_match_oracle_model(pool, lengths):
    assert_matches_tape_model(random_params(pool, seed=5), LENGTH_SETS[lengths])


@pytest.mark.parametrize("layers,pool,kernel", [(1, 0, 5), (1, 1, 7), (3, 1, 5), (3, 3, 7)])
def test_loss_and_gradients_match_oracle_arch(layers, pool, kernel):
    params = random_params(pool, seed=6, layers=layers, kernel=kernel)
    assert_matches_tape_model(params, LENGTH_SETS["mixed"])


def test_inference_keeps_no_cache():
    params = random_params(1)
    p, arch = params.tensors, params.arch
    feats = padded_feats([5, 2])
    for keep in (False, True):
        ann, klens, enc_cache = model._encode_steps(p, arch, feats, [5, 2], keep)
        feed = np.array([[0, 2], [0, 3]])
        _, _, dec_cache = model._teacher_forced_steps(p, ann, klens, feed, feed, keep)
        assert (enc_cache is not None) == (dec_cache is not None) == keep


def test_decoder_backward_consumes_field_lists():
    """The decoder cache keeps one list per field; the backward pass stacks
    each field and empties its list, so no step array outlives its use."""
    params = random_params(1)
    p, arch = params.tensors, params.arch
    ann, klens, _ = model._encode_steps(p, arch, padded_feats([5, 2]), [5, 2], keep=False)
    feed = np.array([[0, 2, 3], [0, 3, 1]])
    lp, _, cache = model._teacher_forced_steps(p, ann, klens, feed, feed, keep=True)
    fields = cache[-1]
    assert [len(f) for f in fields] == [4, 3, 3, 3, 3, 3]  # the states add the initial one
    model._teacher_forced_backward(p, ann, feed, feed, np.ones(lp.shape), cache)
    assert all(f == [] for f in fields)


def test_chunked_encode_matches_single_batches():
    params = random_params(1)
    rng = np.random.default_rng(4)
    feats = [rng.normal(0, 1, (int(n), 8)) for n in rng.integers(1, 12, model.INFER_CHUNK + 5)]
    batched = [ann for ann, _ in model.encode_and_decode(params, feats)]
    assert len(batched) == len(feats)
    for f, got in zip(feats, batched):
        want = model.encode(params, f)
        assert_close(got.vectors, want.vectors, FWD_TOL)
