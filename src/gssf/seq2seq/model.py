"""Toy-scale encoder-decoder recognizer over pen-trajectory features.

The encoder stacks bidirectional gated recurrent layers; the top layers
subsample their input sequence (keeping the 1st, 3rd, ... steps) so an
input of length L yields ceil(L / 2^p) annotation vectors. The decoder is
a single gated recurrent layer driven by additive attention with a
convolutional coverage term, and emits a distribution over the vocabulary
at every step. All maths is plain float64 numpy. Training gradients come
from two hand-derived backward passes through time, one per encoder layer
and one over the whole teacher-forced decoder, so they are exact for the
implemented forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import InputError
from ..ink import FEATURE_DIM, _is_int, _is_real
from .vocab import EOS_INDEX, SOS_INDEX, Vocabulary

MASK_NEG = -1e30  # additive attention bias that zeroes padded positions
INFER_CHUNK = 32  # answers per padded encoder or decoder batch; bounds inference memory
MAX_ARCH_SIZE = 4096  # upper bound on every architecture size, decode length included
MAX_PARAMS = 2 ** 24  # upper bound on the parameter count (128 MiB of float64)


class ModelError(InputError):
    pass


@dataclass(frozen=True)
class ArchConfig:
    """Architecture sizes plus the preprocessing knobs inference depends on."""

    input_dim: int = FEATURE_DIM  # fixed: the width extract_features emits
    enc_layers: int = 2
    enc_hidden: int = 32          # per direction
    enc_pool: int = 1             # top layers whose input is subsampled
    dec_hidden: int = 64
    embed_dim: int = 32
    att_dim: int = 32
    cov_channels: int = 8
    cov_kernel: int = 5
    resample_spacing: float = 0.05
    max_decode_len: int = 30

    @property
    def annotation_dim(self) -> int:
        return 2 * self.enc_hidden

    def validate(self) -> None:
        sizes = (
            self.input_dim, self.enc_layers, self.enc_hidden, self.dec_hidden,
            self.embed_dim, self.att_dim, self.cov_channels, self.cov_kernel,
            self.max_decode_len,
        )
        if not all(_is_int(s) for s in (*sizes, self.enc_pool)):
            raise ModelError("architecture sizes must be integers")
        if any(not 0 < s <= MAX_ARCH_SIZE for s in sizes):
            raise ModelError(f"architecture sizes must lie in [1, {MAX_ARCH_SIZE}]")
        if self.input_dim != FEATURE_DIM:
            raise ModelError(f"input_dim must be {FEATURE_DIM}, the ink feature width")
        if not 0 <= self.enc_pool <= self.enc_layers:
            raise ModelError("enc_pool must lie in [0, enc_layers]")
        if self.cov_kernel % 2 != 1:
            raise ModelError("cov_kernel must be odd")
        if not _is_real(self.resample_spacing) or not self.resample_spacing > 0:
            raise ModelError("resample_spacing must be a positive number")


def param_shapes(arch: ArchConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Named tensor shapes, in the fixed order they are created and serialized.

    Needs an ``arch`` that passed ``validate``. Raises ``ModelError`` when the
    shapes add up to more than ``MAX_PARAMS`` parameters; nothing is
    allocated before that check.
    """
    h, a = arch.enc_hidden, arch.annotation_dim
    hd, e, at, c = arch.dec_hidden, arch.embed_dim, arch.att_dim, arch.cov_channels
    shapes: dict[str, tuple[int, ...]] = {"emb": (vocab_size, e)}
    in_dim = arch.input_dim
    for layer in range(arch.enc_layers):
        for d in ("fwd", "bwd"):
            shapes[f"enc{layer}_{d}_wx"] = (in_dim, 3 * h)
            shapes[f"enc{layer}_{d}_wh"] = (h, 3 * h)
            shapes[f"enc{layer}_{d}_b"] = (3 * h,)
        in_dim = a
    shapes["dec_init_w"] = (a, hd)
    shapes["dec_init_b"] = (hd,)
    shapes["dec_wx"] = (e + a, 3 * hd)
    shapes["dec_wh"] = (hd, 3 * hd)
    shapes["dec_b"] = (3 * hd,)
    shapes["att_ws"] = (hd, at)
    shapes["att_ua"] = (a, at)
    shapes["att_b"] = (at,)
    shapes["att_v"] = (at,)
    shapes["cov_k"] = (arch.cov_kernel, c)
    shapes["cov_w"] = (c, at)
    shapes["out_ws"] = (hd, vocab_size)
    shapes["out_wc"] = (a, vocab_size)
    shapes["out_we"] = (e, vocab_size)
    shapes["out_b"] = (vocab_size,)
    count = sum(math.prod(s) for s in shapes.values())
    if count > MAX_PARAMS:
        raise ModelError(f"architecture config implies {count:,} parameters, over "
                         f"the {MAX_PARAMS:,} cap")
    return shapes


@dataclass
class ModelParams:
    """All trainable tensors plus the configuration they are shaped by."""

    arch: ArchConfig
    vocab: Vocabulary
    tensors: dict[str, np.ndarray]


def init_params(arch: ArchConfig, vocab: Vocabulary, seed: int) -> ModelParams:
    """Seeded init: uniform weights scaled by fan-in/fan-out, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(arch, vocab.size).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in = shape[0]
            fan_out = shape[-1] if len(shape) > 1 else 1
            lim = math.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-lim, lim, size=shape)
    return ModelParams(arch, vocab, tensors)


def zero_params(arch: ArchConfig, vocab: Vocabulary) -> ModelParams:
    """All-zero parameters; every emitted distribution is then uniform."""
    shapes = param_shapes(arch, vocab.size)
    return ModelParams(arch, vocab, {n: np.zeros(s) for n, s in shapes.items()})


@dataclass
class Annotations:
    """Encoder output: one vector per kept time step."""

    vectors: np.ndarray  # (K, annotation_dim)


@dataclass
class ScoredDecode:
    """Greedy decode result: emitted tokens (end marker excluded) and the
    log-probability the model assigned to each emission."""

    tokens: list[int]
    self_logprobs: np.ndarray
    truncated: bool = False

# -- forward and backward passes (batched; single-sample ops use B=1) -------
#
# Every forward function takes the parameter arrays by name and, where a
# backward pass exists, a ``keep`` flag: with it the function also returns the
# cache its backward pass reads; without it (inference) the cache is None.

Params = dict[str, np.ndarray]


def _gate_major(a: np.ndarray) -> np.ndarray:
    """(..., B, 3h) array as a (3, ..., B, h) view, one slot per gate."""
    return np.moveaxis(a.reshape(*a.shape[:-1], 3, a.shape[-1] // 3), -2, 0)


def _gru_step(gx_gates: np.ndarray, gh_gates: np.ndarray, slots: np.ndarray,
              h: np.ndarray, out: np.ndarray) -> None:
    """One gated recurrent step on (..., B, h) stacks, in place, from the
    gate-major views of ``x @ wx + b`` and ``h @ wh``. The gates go into the
    (4, ..., B, h) ``slots`` in the order (r ghn, n, r, z), ghn being the
    candidate slice of ``h @ wh``, and the new state into ``out``. Keeping
    r ghn, a term of n, rather than ghn spares inference a copy per step.
    """
    rz = slots[2:]
    np.add(gx_gates[:2], gh_gates[:2], out=rz)
    np.negative(rz, out=rz)
    np.exp(rz, out=rz)
    rz += 1.0
    np.divide(1.0, rz, out=rz)
    np.multiply(slots[2], gh_gates[2], out=slots[0])
    n = slots[1]
    np.add(slots[0], gx_gates[2], out=n)
    np.tanh(n, out=n)
    np.subtract(h, n, out=out)
    out *= slots[3]
    out += n


def _gru_factors(gates: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """Turn a (T, 4, ..., B, h) cache of ``_gru_step`` slots, in place, into
    gate-gradient factors; ``h_prev`` holds each step's input state.

    The slots become F_r = A (r ghn)(1-r), F_z = (h_prev - n) z(1-z) and
    F_n = A r, in the gate order of ``h @ wh``, and z stays; A = (1-z)(1-n^2)
    is returned. For the gradient g of a step's new state, g times the factors
    is the gradient of ``h @ wh``, that of ``x @ wx + b`` differs only in its
    candidate slice, g A, and g z is the direct part of the gradient of h.
    """
    rghn, n, r, z = gates.swapaxes(0, 1)
    scratch = 1.0 - z
    cand = n * n
    np.subtract(1.0, cand, out=cand)
    cand *= scratch
    np.subtract(h_prev, n, out=n)
    n *= z
    n *= scratch
    np.subtract(1.0, r, out=scratch)
    rghn *= cand
    rghn *= scratch
    r *= cand
    return cand


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable log softmax over the last axis; exact -log(n) on
    all-zero rows."""
    shift = x - x.max(axis=-1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


def _bigru_layer(xs: np.ndarray, weights: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 lens: np.ndarray, keep: bool):
    """Both directions of one bidirectional encoder layer.

    ``xs`` is a batch-major (B, T, in) array and ``weights`` holds the
    (wx, wh, b) triples of the forward and the backward direction. Returns the
    (B, T, 2h) output (forward states, then backward states) and the cache.
    A row stops updating past its length in ``lens`` (the forward state
    carries over, the backward state stays zero).

    Step s advances the forward direction at time s and the backward one at
    time T-1-s as one (2, B, .) stack. The (2, T+1, B, h) states hold the
    zero initial state and then each step's new state, in step order. With
    ``keep`` the cache holds the states and the step-major (T, 4, 2, B, h)
    ``_gru_step`` slots (inference reuses the first step's slots). The padding
    mask is applied only on steps where some row is padded.

    The input projection stays per step. Hoisting it for all T steps makes a
    (T, 2, B, in) temporary (458 KB at B = 32) whose release raises glibc's
    dynamic mmap threshold, so later arrays stay on the heap: the pinned
    clustering run then peaked at 50.7 MB instead of 42.9 MB, although with
    the threshold fixed (MALLOC_MMAP_THRESHOLD_=131072) it peaked at 43.0 MB
    against 42.4 MB.
    """
    batch, t_steps, _ = xs.shape
    wx, wh, b = (np.stack([triple[i] for triple in weights]) for i in range(3))
    hs = wh.shape[1]
    b = b[:, None, :]
    times = np.stack([np.arange(t_steps), np.arange(t_steps - 1, -1, -1)], axis=1)
    valid = times[:, :, None, None] < lens[:, None]
    padded = ~valid.all(axis=(1, 2, 3))
    x_tm = xs.swapaxes(0, 1)
    states = np.zeros((2, t_steps + 1, batch, hs))
    gates = np.empty((t_steps if keep else 1, 4, 2, batch, hs))
    gx, gh = np.empty((2, 2, batch, 3 * hs))
    gx_gates, gh_gates = _gate_major(gx), _gate_major(gh)  # (3, 2, B, h) views
    h = states[:, 0]
    for s in range(t_steps):
        h_new = states[:, s + 1]
        np.matmul(x_tm[times[s]], wx, out=gx)
        gx += b
        np.matmul(h, wh, out=gh)
        _gru_step(gx_gates, gh_gates, gates[s if keep else 0], h, h_new)
        if padded[s]:
            np.copyto(h_new, h, where=~valid[s])
        h = h_new
    out = np.empty((batch, t_steps, 2 * hs))
    out[:, :, :hs] = states[0, 1:].swapaxes(0, 1)
    out[:, :, hs:] = states[1, :0:-1].swapaxes(0, 1)
    return out, ((xs, wx, wh, valid, padded, states, gates) if keep else None)


def _bigru_backward(cache, g: np.ndarray, need_dx: bool):
    """Backward through time of ``_bigru_layer`` for the output gradient ``g``.

    Returns the input gradient (None unless ``need_dx``) and the
    (wx, wh, b) gradients of the forward and the backward direction.

    The pass consumes its cache: ``_gru_factors`` turns the cached gates into
    factors before the time loop. Each step masks its state gradient g (the
    masks are skipped on steps where no row is padded) and writes g times the
    factors into ``dgh``. After the loop dwh comes from ``dgh``, whose
    candidate slice then becomes g A, which makes it dgx with no copy.
    ``dgh`` is direction-major like the states, so both products read views.
    """
    xs, wx, wh, valid, padded, states, gates = cache
    batch, t_steps, in_dim = xs.shape
    hs = wh.shape[1]
    cand = _gru_factors(gates, states[:, :-1].swapaxes(0, 1))
    factors, z = gates[:, :3], gates[:, 3]  # (F_r, F_z, F_n) is the gate order of dgh

    g_steps = np.empty((2, t_steps, batch, hs))  # masked state gradients, step order
    g_steps[0] = g[:, :, :hs].swapaxes(0, 1)
    g_steps[1] = g[:, ::-1, hs:].swapaxes(0, 1)
    dgh = np.empty((2, t_steps, batch, 3 * hs))  # step order, rows as in states
    dgh_gates = np.moveaxis(_gate_major(dgh), 2, 0)  # (T, 3, 2, B, h) view
    wh_t = np.ascontiguousarray(wh.swapaxes(1, 2))
    dh = np.zeros((2, batch, hs))
    for s in range(t_steps - 1, -1, -1):
        g_s = g_steps[:, s]
        if padded[s]:
            total = g_s + dh
            g_s[...] = np.where(valid[s], total, 0.0)
        else:
            g_s += dh
        np.multiply(g_s, factors[s], out=dgh_gates[s])
        dh = g_s * z[s]
        dh += dgh[:, s] @ wh_t
        if padded[s]:
            dh = np.where(valid[s], dh, total)
    # Weight gradients: one product per direction over all T*B rows (the
    # first step's h_prev is zero, so its rows drop out of dwh).
    dwh = (states[:, 1:-1].reshape(2, -1, hs).swapaxes(1, 2)
           @ dgh[:, 1:].reshape(2, -1, 3 * hs))
    np.multiply(g_steps, cand.swapaxes(0, 1), out=dgh[..., 2 * hs:])
    # dgh now holds dgx. The backward direction's rows run in reverse time,
    # so it pairs with the time-reversed input.
    rows_gx = dgh.reshape(2, -1, 3 * hs)
    x_rows = [xs[:, ::step].swapaxes(0, 1).reshape(-1, in_dim) for step in (1, -1)]
    dwx = [x.T @ d for x, d in zip(x_rows, rows_gx)]
    dx = None
    if need_dx:
        per_dir = [(d @ w.T).reshape(t_steps, batch, in_dim) for d, w in zip(rows_gx, wx)]
        dx = (per_dir[0] + per_dir[1][::-1]).swapaxes(0, 1)
    return dx, list(zip(dwx, dwh, rows_gx.sum(axis=1)))


def _encode_steps(p: Params, arch: ArchConfig, feats: np.ndarray, lens: list[int],
                  keep: bool):
    """Run the encoder stack over a padded batch-major (B, L, input_dim) batch.

    Returns the (B, K, annotation_dim) annotations, per-sample annotation
    counts and the cache: per layer, its own cache and its input length before
    subsampling (None for an unpooled layer). Padded positions carry junk
    values; callers mask them.
    """
    cur = feats
    cur_lens = np.asarray(lens)
    caches = []
    for layer in range(arch.enc_layers):
        pooled_from = None
        if layer >= arch.enc_layers - arch.enc_pool:
            pooled_from = cur.shape[1]
            cur = cur[:, ::2]
            cur_lens = (cur_lens + 1) // 2
        weights = [tuple(p[f"enc{layer}_{d}_{w}"] for w in ("wx", "wh", "b"))
                   for d in ("fwd", "bwd")]
        cur, cache = _bigru_layer(cur, weights, cur_lens, keep)
        caches.append((cache, pooled_from))
    return cur, cur_lens.tolist(), (caches if keep else None)


def _encode_backward(caches: list, g: np.ndarray) -> dict[str, np.ndarray]:
    """Encoder weight gradients for the annotation gradient ``g``, top layer
    first; a subsampled layer's input gradient lands on the kept steps.

    Consumes ``caches``: each layer's cache is popped and freed before the
    layer below runs, so the list is empty on return.
    """
    grads: dict[str, np.ndarray] = {}
    while caches:
        layer = len(caches) - 1
        cache, pooled_from = caches.pop()
        dx, dirs = _bigru_backward(cache, g, need_dx=layer > 0)
        del cache
        for d, triple in zip(("fwd", "bwd"), dirs):
            for w, grad in zip(("wx", "wh", "b"), triple):
                grads[f"enc{layer}_{d}_{w}"] = grad
        g = dx
        if layer > 0 and pooled_from is not None:
            g = np.zeros((dx.shape[0], pooled_from, dx.shape[2]))
            g[:, ::2] = dx
    return grads


def _decoder_start(p: Params, ann: np.ndarray, klens: list[int]):
    """Per-batch decoder constants, the initial state and coverage, and the
    mean cache.

    The constants are the attention keys, the additive mask bias that zeroes
    padded positions, the folded (W, att_dim) coverage kernel
    ``cov_k @ cov_w``, the (K, W) index of every coverage window and the
    cell's input buffers ``gx`` and ``gh``, reused by every step, with their
    gate-major views. The coverage accumulator starts at zero, padded by
    W // 2 on each side. The initial state reads the masked mean of the
    annotations; the mean cache holds its (B, K) weights and the mean itself.
    """
    batch, k_max = ann.shape[:2]
    width = p["cov_k"].shape[0]
    valid = np.arange(k_max) < np.asarray(klens)[:, None]
    inv = 1.0 / np.asarray(klens, dtype=np.float64)
    mean = (ann * valid[:, :, None]).sum(axis=1) * inv[:, None]
    s0 = np.tanh(mean @ p["dec_init_w"] + p["dec_init_b"])
    gx, gh = np.empty((2, batch, p["dec_wx"].shape[1]))
    consts = (ann @ p["att_ua"] + p["att_b"], np.where(valid, 0.0, MASK_NEG),
              p["cov_k"] @ p["cov_w"], np.arange(k_max)[:, None] + np.arange(width),
              (gx, gh, _gate_major(gx), _gate_major(gh)))
    cov0 = np.zeros((batch, k_max + width - 1))
    return consts, s0, cov0, (valid * inv[:, None], mean)


def _decode_step(p: Params, ann: np.ndarray, consts, prev_emb: np.ndarray,
                 s_prev: np.ndarray, cov_acc: np.ndarray, slots: np.ndarray):
    """One decoder step over a (B, K, a) annotation batch.

    The attention energy adds the coverage term: each width-W window of the
    zero-padded accumulated attention ``cov_acc`` times the folded kernel.
    This step's attention weights are added to the interior of ``cov_acc`` in
    place. The recurrent gates go into the (4, B, h) ``slots`` (``_gru_step``).
    Returns the output logits, the new state and the step cache (decoder
    input, coverage windows, attention activations, attention weights).
    """
    keys, mask_bias, kw, win, (gx, gh, gx_gates, gh_gates) = consts
    windows = cov_acc[:, win]
    act = keys + (s_prev @ p["att_ws"])[:, None, :]
    act += windows @ kw
    np.tanh(act, out=act)
    alpha = np.exp(_log_softmax(act @ p["att_v"] + mask_bias))
    pad = kw.shape[0] // 2
    cov_acc[:, pad:pad + ann.shape[1]] += alpha
    ctx = (alpha[:, None, :] @ ann)[:, 0]
    x = np.concatenate([prev_emb, ctx], axis=1)
    np.matmul(x, p["dec_wx"], out=gx)
    gx += p["dec_b"]
    np.matmul(s_prev, p["dec_wh"], out=gh)
    s = np.empty_like(s_prev)
    _gru_step(gx_gates, gh_gates, slots, s_prev, s)
    logits = s @ p["out_ws"] + ctx @ p["out_wc"] + prev_emb @ p["out_we"] + p["out_b"]
    return logits, s, (x, windows, act, alpha)


def _teacher_forced_steps(p: Params, ann: np.ndarray, klens: list[int], feed: np.ndarray,
                          targets: np.ndarray, keep: bool):
    """Feed ``feed`` stepwise against a padded annotation batch.

    ``feed``/``targets`` are (B, T) int arrays. Returns the (B, T)
    log-probabilities of ``targets``, the (B, T) per-step argmax and the cache
    ``_teacher_forced_backward`` reads, with the (T, 4, B, h) recurrent gates.
    The cache keeps one list per field, each holding one array per step: the
    states (the initial one first, so T + 1 of them), the log-softmax, the
    decoder input, the coverage windows, the attention activations and the
    attention weights.
    """
    consts, s, cov, mean_cache = _decoder_start(p, ann, klens)
    rows = np.arange(feed.shape[0])
    lp = np.empty(feed.shape)
    argmax = np.empty(feed.shape, dtype=np.int64)
    gates = np.empty((feed.shape[1] if keep else 1, 4, *s.shape))
    fields = ([s], [], [], [], [], []) if keep else None
    for t in range(feed.shape[1]):
        logits, s, step = _decode_step(p, ann, consts, p["emb"][feed[:, t]], s, cov,
                                       gates[t if keep else 0])
        ls = _log_softmax(logits)
        argmax[:, t] = ls.argmax(axis=1)
        lp[:, t] = ls[rows, targets[:, t]]
        if keep:
            for field, value in zip(fields, (s, ls, *step)):
                field.append(value)
    return lp, argmax, ((consts[2], mean_cache, gates, fields) if keep else None)


def _stack_field(steps: list) -> np.ndarray:
    """Stack one cached field's per-step arrays on a leading T axis and empty
    its list, so the steps are freed before the next field is stacked."""
    stacked = np.stack(steps)
    steps.clear()
    return stacked


def _teacher_forced_backward(p: Params, ann: np.ndarray, feed: np.ndarray,
                             targets: np.ndarray, g_lp: np.ndarray, cache):
    """Backpropagation through time over ``_teacher_forced_steps`` for the
    gradient ``g_lp`` of its (B, T) log-probabilities.

    The state and the accumulated attention carry gradient from each step to
    the one before; ``_gru_factors`` consumes the cached gates and the field
    lists are left empty. Returns the annotation gradient and the gradients of
    every decoder tensor.
    """
    kw, (mean_w, mean), gates, fields = cache
    # Per-step values stacked on a leading T axis, one field at a time.
    states, ls, x, windows, act, alpha = map(_stack_field, fields)
    s_prev, s_new = states[:-1], states[1:]
    t_steps, batch, _ = ls.shape
    e_dim, width, k_max = p["emb"].shape[1], kw.shape[0], ann.shape[1]
    pad = width // 2

    # log_softmax then the pick of each target: softmax times -g, plus g at the target.
    g_logits = np.exp(ls) * -g_lp.T[:, :, None]
    g_logits[np.arange(t_steps)[:, None], np.arange(batch), targets.T] += g_lp.T
    g_emb = g_logits @ p["out_we"].T
    g_ctx = g_logits @ p["out_wc"].T
    g_out_s = g_logits @ p["out_ws"].T

    cand = _gru_factors(gates, s_prev)
    factors, z = gates[:, :3], gates[:, 3]
    dgx, dgh = np.empty((2, t_steps, batch, p["dec_wx"].shape[1]))
    dgx_gates, dgh_gates = (np.moveaxis(_gate_major(d), 1, 0) for d in (dgx, dgh))
    g_energy = np.empty(alpha.shape)
    g_pre = np.empty(act.shape)
    g_s = np.zeros(s_prev.shape[1:])
    g_cov = np.zeros((batch, k_max + 2 * pad))  # gradient of the padded accumulator
    for t in range(t_steps - 1, -1, -1):
        g_new = g_s + g_out_s[t]
        np.multiply(g_new, factors[t], out=dgh_gates[t])
        dgx[t] = dgh[t]
        np.multiply(g_new, cand[t], out=dgx_gates[t, 2])
        g_x = dgx[t] @ p["dec_wx"].T
        g_emb[t] += g_x[:, :e_dim]
        g_ctx[t] += g_x[:, e_dim:]
        g_alpha = (ann @ g_ctx[t][:, :, None])[:, :, 0] + g_cov[:, pad:pad + k_max]
        g_energy[t] = alpha[t] * (g_alpha - (alpha[t] * g_alpha).sum(axis=1, keepdims=True))
        g_pre[t] = g_energy[t][:, :, None] * p["att_v"] * (1.0 - act[t] * act[t])
        g_s = g_new * z[t] + dgh[t] @ p["dec_wh"].T + g_pre[t].sum(axis=1) @ p["att_ws"].T
        g_win = g_pre[t] @ kw.T
        for w in range(width):
            g_cov[:, w:w + k_max] += g_win[:, :, w]

    g_init = g_s * (1.0 - s_prev[0] * s_prev[0])
    g_keys = g_pre.sum(axis=0)
    g_ann = (mean_w[:, :, None] * (g_init @ p["dec_init_w"].T)[:, None, :]
             + alpha.transpose(1, 2, 0) @ g_ctx.transpose(1, 0, 2)
             + g_keys @ p["att_ua"].T)
    g_kw = _rows(windows).T @ _rows(g_pre)
    g_out = _rows(g_logits)
    grads = {
        "dec_init_w": mean.T @ g_init,
        "dec_init_b": g_init.sum(axis=0),
        "dec_wx": _rows(x).T @ _rows(dgx),
        "dec_wh": _rows(s_prev).T @ _rows(dgh),
        "dec_b": dgx.sum(axis=(0, 1)),
        "att_ws": _rows(s_prev).T @ _rows(g_pre.sum(axis=2)),
        "att_ua": _rows(ann).T @ _rows(g_keys),
        "att_b": g_keys.sum(axis=(0, 1)),
        "att_v": g_energy.reshape(-1) @ _rows(act),
        "cov_k": g_kw @ p["cov_w"].T,
        "cov_w": p["cov_k"].T @ g_kw,
        "out_ws": _rows(s_new).T @ g_out,
        "out_wc": _rows(x[:, :, e_dim:]).T @ g_out,
        "out_we": _rows(x[:, :, :e_dim]).T @ g_out,
        "out_b": g_out.sum(axis=0),
        "emb": np.zeros_like(p["emb"]),
    }
    np.add.at(grads["emb"], feed.T, g_emb)
    return g_ann, grads


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a matrix of its last-axis rows."""
    return a.reshape(-1, a.shape[-1])


def _pad(arrays: list[np.ndarray], dim: int) -> tuple[np.ndarray, list[int]]:
    """Zero-padded (B, L_max, dim) batch of (L_i, dim) arrays and the lengths L_i."""
    lens = [a.shape[0] for a in arrays]
    padded = np.zeros((len(arrays), max(lens), dim))
    for i, a in enumerate(arrays):
        padded[i, : lens[i]] = a
    return padded, lens


def _batch_tokens(token_seqs: list[list[int]]):
    """Feed/target/mask arrays for teacher forcing, padded with the end token."""
    t_max = max(len(s) for s in token_seqs)
    feed = np.full((len(token_seqs), t_max), EOS_INDEX, dtype=np.int64)
    targets = feed.copy()
    mask = np.zeros((len(token_seqs), t_max))
    for i, seq in enumerate(token_seqs):
        feed[i, : len(seq)] = [SOS_INDEX, *seq[:-1]]
        targets[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return feed, targets, mask


def _greedy_decode(p: Params, max_len: int, ann: np.ndarray,
                   klens: list[int]) -> list[ScoredDecode]:
    """Greedy argmax decoding of a padded (B, K, a) annotation batch; ties
    break to the lowest index. Rows past a set's ``klens`` entry may hold any
    finite values: the attention bias and the mean weights zero them. A row
    stops collecting tokens once it emits the end marker, and is
    ``truncated`` if it never does within ``max_len`` steps."""
    batch = len(klens)
    tokens = np.zeros((batch, max_len), dtype=np.int64)
    logprobs = np.zeros((batch, max_len))
    lengths = np.zeros(batch, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    prev = np.full(batch, SOS_INDEX)
    consts, s, cov, _ = _decoder_start(p, ann, klens)
    slots = np.empty((4, *s.shape))
    for t in range(max_len):
        logits, s, _ = _decode_step(p, ann, consts, p["emb"][prev], s, cov, slots)
        ls = _log_softmax(logits)
        prev = ls.argmax(axis=1)
        live &= prev != EOS_INDEX
        lengths += live
        tokens[:, t], logprobs[:, t] = prev, ls[np.arange(batch), prev]
        if not live.any():
            break
    # A finished row stays finished, so its tokens are the first `lengths[i]` steps.
    return [ScoredDecode(tokens=tokens[i, :n].tolist(), self_logprobs=logprobs[i, :n],
                         truncated=bool(live[i])) for i, n in enumerate(lengths)]


# -- public operations ------------------------------------------------------


def encode(params: ModelParams, feats: np.ndarray) -> Annotations:
    """Encode a feature sequence into ceil(L / 2^p) annotation vectors."""
    ann, _, _ = _encode_steps(params.tensors, params.arch, *_pad([feats], params.arch.input_dim),
                              keep=False)
    return Annotations(vectors=ann[0])


def encode_and_decode(params: ModelParams,
                      feats: list[np.ndarray]) -> list[tuple[Annotations, ScoredDecode]]:
    """Encode many (L, ``arch.input_dim``) feature sequences, L >= 1, as
    ``ink.extract_features`` makes them, in padded batches of ``INFER_CHUNK``,
    then greedy-decode each batch's own padded annotations. Each answer keeps
    its ceil(L / 2^p) annotation vectors, a view of its batch."""
    arch, p = params.arch, params.tensors
    chunks = [_encode_steps(p, arch, *_pad(feats[start:start + INFER_CHUNK], arch.input_dim),
                            keep=False)[:2] for start in range(0, len(feats), INFER_CHUNK)]
    decoded = [_greedy_decode(p, arch.max_decode_len, ann, klens) for ann, klens in chunks]
    return [(Annotations(vectors=ann[i, :k]), dec) for (ann, klens), decs in zip(chunks, decoded)
            for i, (k, dec) in enumerate(zip(klens, decs))]


def teacher_forced_logprobs(params: ModelParams, ann: Annotations, tokens: list[int]) -> np.ndarray:
    """log P(tokens[i] | annotations, tokens[:i]) with the start token prepended,
    for a non-empty ``tokens`` of vocabulary indices such as a greedy decode."""
    feed, targets = np.array([[SOS_INDEX, *tokens[:-1]]]), np.array([tokens])
    return _teacher_forced_steps(params.tensors, ann.vectors[None], [len(ann.vectors)],
                                 feed, targets, keep=False)[0][0]


def cross_logprob_sums(params: ModelParams, anns: list[Annotations],
                       token_seqs: list[list[int]]) -> np.ndarray:
    """(len(anns), len(token_seqs)) total teacher-forced log-probability of
    every sequence against every annotation set. The sequences hold
    vocabulary indices; an empty one sums to 0 and costs no decoder step.

    The annotation sets are padded in the chunks of ``INFER_CHUNK`` that
    ``encode_and_decode`` uses. Each chunk gets one ``_decoder_start`` and
    walks the sequences in sorted order, depth first over their prefix tree.
    Step t depends only on a sequence's first t tokens (its target just
    picks a column of the output), so a sequence resumes from the steps of
    its longest common prefix with the one before, the step after that
    prefix included when the one before ran it: each distinct prefix that
    some sequence extends is stepped once per chunk. Each row steps and sums
    exactly as a chunk teacher-forced against that one sequence would, so
    the sums are the same bits.
    """
    p = params.tensors
    order = sorted(range(len(token_seqs)), key=token_seqs.__getitem__)
    seqs = [token_seqs[q] for q in order]
    # Common prefix with the sequence before, which in sorted order is all
    # of that one or ends at a mismatch.
    shared = [0] + [next((t for t, (a, b) in enumerate(zip(prev, seq)) if a != b), len(prev))
                    for prev, seq in zip(seqs, seqs[1:])]
    t_max = max(map(len, token_seqs), default=0)
    sums = np.zeros((len(anns), len(token_seqs)))
    for start in range(0, len(anns), INFER_CHUNK):
        ann, klens = _pad([a.vectors for a in anns[start:start + INFER_CHUNK]],
                          params.arch.annotation_dim)
        consts, s, cov, _ = _decoder_start(p, ann, klens)
        rows = np.arange(len(klens))
        slots = np.empty((4, *s.shape))
        lp = np.empty((len(klens), t_max))  # column t: log-prob of step t's target
        path = [(None, s, cov)]  # after t steps: the last step's log-softmax, state, coverage
        for q, tokens, depth in zip(order, seqs, shared):
            del path[depth + 2:]
            for t in range(len(path) - 1, len(tokens)):
                _, s, cov = path[t]
                cov = cov.copy()  # _decode_step adds this step's attention in place
                feed = np.full(len(klens), tokens[t - 1] if t else SOS_INDEX)
                logits, s, _ = _decode_step(p, ann, consts, p["emb"][feed], s, cov, slots)
                path.append((_log_softmax(logits), s, cov))
            for t in range(depth, len(tokens)):
                lp[:, t] = path[t + 1][0][rows, tokens[t]]
            sums[start:start + len(klens), q] = lp[:, :len(tokens)].sum(axis=1)
    return sums


def _forward_batch(params: ModelParams, batch: list[tuple[np.ndarray, list[int]]], keep: bool):
    """Encode a training batch and teacher-force its labels, end token included.

    Returns the (B, T) log-probabilities and argmax, the targets and mask,
    and what the backward pass reads. ``batch`` is not empty.
    """
    arch, p = params.arch, params.tensors
    ann, klens, enc_cache = _encode_steps(p, arch, *_pad(
        [np.asarray(f, dtype=np.float64) for f, _ in batch], arch.input_dim), keep)
    feed, targets, mask = _batch_tokens([[*t, EOS_INDEX] for _, t in batch])
    lp, argmax, dec_cache = _teacher_forced_steps(p, ann, klens, feed, targets, keep)
    return lp, argmax, targets, mask, (ann, feed, enc_cache, dec_cache)


def loss_and_gradients(params: ModelParams, batch: list[tuple[np.ndarray, list[int]]]):
    """Mean token-level cross-entropy (end token included) and exact gradients."""
    lp, _, targets, mask, (ann, feed, enc_cache, dec_cache) = _forward_batch(
        params, batch, keep=True)
    total_tokens = float(mask.sum())
    loss = float(-((lp * mask).sum() / total_tokens))
    g_ann, grads = _teacher_forced_backward(params.tensors, ann, feed, targets,
                                            mask * (-1.0 / total_tokens), dec_cache)
    del dec_cache, ann  # freed before the encoder's backward pass runs
    grads.update(_encode_backward(enc_cache, g_ann))
    return loss, {name: grads[name] for name in params.tensors}


def teacher_forced_accuracy(params: ModelParams, batch: list[tuple[np.ndarray, list[int]]]) -> float:
    """Fraction of target tokens (end token included) predicted by argmax,
    in padded slices of ``INFER_CHUNK``; NaN when a log-probability is not
    finite, as with weights that overflow."""
    hits = tokens = 0
    for start in range(0, len(batch), INFER_CHUNK):
        lp, argmax, targets, mask, _ = _forward_batch(
            params, batch[start:start + INFER_CHUNK], keep=False)
        if not np.isfinite(lp[mask > 0]).all():
            return math.nan
        hits += int(((argmax == targets) & (mask > 0)).sum())
        tokens += int(mask.sum())
    return hits / tokens
