"""The recognizer composed from primitive tape ops: the gradient oracle.

Every op below is a node on the generic reverse-mode tape in ``tape.py``:
the per-step gated recurrent cell, the time-major bidirectional encoder loop,
the coverage convolution, attention, the output layer and the loss. So
``loss_and_gradients`` here gets its gradients from the tape alone,
independently of the hand-derived backward passes in ``gssf.seq2seq.model``.
Only the padding helpers are shared with the model.
"""

import numpy as np

from gssf.seq2seq.model import MASK_NEG, _batch_tokens, _pad
from gssf.seq2seq.vocab import EOS_INDEX
from tape import Tensor, as_tensor, concat, log_softmax


def wrap(params):
    return {k: Tensor(v) for k, v in params.tensors.items()}


def sigmoid(t: Tensor) -> Tensor:
    return 1.0 / (1.0 + (-t).exp())


def gru_cell(x, h, wx, wh, b, hsize, mask_col=None):
    gx = x @ wx + b
    gh = h @ wh
    r = sigmoid(gx[:, :hsize] + gh[:, :hsize])
    z = sigmoid(gx[:, hsize:2 * hsize] + gh[:, hsize:2 * hsize])
    n = (gx[:, 2 * hsize:] + r * gh[:, 2 * hsize:]).tanh()
    h_new = n + z * (h - n)
    if mask_col is None:
        return h_new
    return mask_col * h_new + (1.0 - mask_col) * h


def encode_steps(pt, arch, steps, lens):
    """Time-major encoder loop: ``steps`` is a list of (B, input_dim) tensors.

    Returns the (B, K, annotation_dim) annotation tensor and the counts K_i.
    """
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
                h = gru_cell(cur[t], h, wx, wh, b, h_sz, masks[t])
                collected[t] = h
            outs[direction] = collected
        cur = [concat([f, bk], axis=1) for f, bk in zip(outs["fwd"], outs["bwd"])]
    ann = concat([c.reshape(batch, 1, arch.annotation_dim) for c in cur], axis=1)
    return ann, cur_lens


def coverage_features(pt, arch, cov_acc):
    """Coverage term of the attention energy: each width-W window of the
    zero-padded accumulated attention times the folded (W, att_dim) kernel
    ``cov_k @ cov_w``, as one (B, K, W) product."""
    k_max = cov_acc.shape[1]
    zeros = Tensor(np.zeros((cov_acc.shape[0], arch.cov_kernel // 2)))
    padded = concat([zeros, cov_acc, zeros], axis=1)
    windows = padded[:, np.arange(k_max)[:, None] + np.arange(arch.cov_kernel)]
    return windows @ (pt["cov_k"] @ pt["cov_w"])


def attention_keys(pt, ann):
    return ann @ pt["att_ua"] + pt["att_b"]


def attention_mask_bias(klens, k_max):
    if min(klens) == k_max:
        return None
    return np.where(np.arange(k_max) < np.asarray(klens)[:, None], 0.0, MASK_NEG)


def init_decoder_state(pt, arch, ann, klens):
    """Initial decoder state from the masked annotation mean, and zero coverage."""
    batch, k_max, _ = ann.shape
    if min(klens) == k_max:
        mean = ann.sum(axis=1) * (1.0 / k_max)
    else:
        valid = np.arange(k_max)[:, None] < np.asarray(klens)[:, None, None]
        inv = (1.0 / np.asarray(klens, dtype=np.float64))[:, None]
        mean = (ann * valid).sum(axis=1) * inv
    s0 = (mean @ pt["dec_init_w"] + pt["dec_init_b"]).tanh()
    return s0, Tensor(np.zeros((batch, k_max)))


def decode_step_core(pt, arch, prev_emb, s_prev, ann, keys, mask_bias, cov_acc):
    """One decoder step: (logits, new state, attention, new coverage)."""
    batch, k_max, a_dim = ann.shape
    query = (s_prev @ pt["att_ws"]).reshape(batch, 1, arch.att_dim)
    cov = coverage_features(pt, arch, cov_acc)
    act = (keys + query + cov).tanh()
    energy = (act * pt["att_v"]).sum(axis=2)
    if mask_bias is not None:
        energy = energy + mask_bias
    alpha = log_softmax(energy, axis=1).exp()
    ctx = (alpha.reshape(batch, 1, k_max) @ ann).reshape(batch, a_dim)
    x = concat([prev_emb, ctx], axis=1)
    s = gru_cell(x, s_prev, pt["dec_wx"], pt["dec_wh"], pt["dec_b"], arch.dec_hidden)
    logits = s @ pt["out_ws"] + ctx @ pt["out_wc"] + prev_emb @ pt["out_we"] + pt["out_b"]
    return logits, s, alpha, cov_acc + alpha


def teacher_forced_steps(pt, arch, ann, klens, feed, targets):
    """(B, T) tensor of log P(targets[:, t]) when ``feed`` is fed stepwise."""
    batch, t_steps = feed.shape
    keys = attention_keys(pt, ann)
    mask_bias = attention_mask_bias(klens, ann.shape[1])
    s, cov = init_decoder_state(pt, arch, ann, klens)
    rows = np.arange(batch)
    cols = []
    for t in range(t_steps):
        prev_emb = pt["emb"][feed[:, t]]
        logits, s, _, cov = decode_step_core(pt, arch, prev_emb, s, ann, keys, mask_bias, cov)
        ls = log_softmax(logits, axis=1)
        cols.append(ls[rows, targets[:, t]].reshape(batch, 1))
    return concat(cols, axis=1)


def loss_and_gradients(params, batch):
    """Mean token-level cross-entropy (end token included) and tape gradients."""
    pt = wrap(params)
    arch = params.arch
    feats, lens = _pad([np.asarray(f, dtype=np.float64) for f, _ in batch], arch.input_dim)
    steps = [np.ascontiguousarray(feats[:, t]) for t in range(feats.shape[1])]
    ann, klens = encode_steps(pt, arch, steps, lens)
    feed, targets, mask = _batch_tokens([[*t, EOS_INDEX] for _, t in batch])
    lp = teacher_forced_steps(pt, arch, ann, klens, feed, targets)
    loss_t = -((lp * mask).sum() / float(mask.sum()))
    loss_t.backward()
    grads = {name: (pt[name].grad if pt[name].grad is not None else np.zeros_like(arr))
             for name, arr in params.tensors.items()}
    return float(loss_t.data), grads
