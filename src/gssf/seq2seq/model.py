"""Toy-scale encoder-decoder recognizer over pen-trajectory features.

The encoder stacks bidirectional gated recurrent layers; the top layers
subsample their input sequence (keeping the 1st, 3rd, ... steps) so an
input of length L yields ceil(L / 2^p) annotation vectors. The decoder is
a single gated recurrent layer driven by additive attention with a
convolutional coverage term, and emits a distribution over the vocabulary
at every step. All maths runs in float64 on a small autodiff tape, which
keeps training gradients exact for the implemented forward pass. Each
bidirectional encoder layer and each decoder recurrent step is a single
tape node with a hand-derived backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, concat, grad_enabled, log_softmax, no_grad
from .vocab import EOS_INDEX, SOS_INDEX, Vocabulary

MASK_NEG = -1e30  # additive attention bias that zeroes padded positions
INFER_CHUNK = 32  # answers per padded encoder or decoder batch; bounds inference memory
CROSS_CHUNK = 64  # (decode, annotation set) pairs per teacher-forced scoring batch


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ArchConfig:
    """Architecture sizes plus the preprocessing knobs inference depends on."""

    input_dim: int = 8
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
        if any(s <= 0 for s in sizes):
            raise ModelError("architecture sizes must be positive")
        if not 0 <= self.enc_pool <= self.enc_layers:
            raise ModelError("enc_pool must lie in [0, enc_layers]")
        if self.cov_kernel % 2 != 1:
            raise ModelError("cov_kernel must be odd")
        if self.resample_spacing <= 0:
            raise ModelError("resample_spacing must be positive")


def param_shapes(arch: ArchConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Named tensor shapes, in the fixed order they are created and serialized."""
    arch.validate()
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
    return shapes


@dataclass
class ModelParams:
    """All trainable tensors plus the configuration they are shaped by."""

    arch: ArchConfig
    vocab: Vocabulary
    tensors: dict[str, np.ndarray]

    def validate(self) -> None:
        expected = param_shapes(self.arch, self.vocab.size)
        if set(expected) != set(self.tensors):
            raise ModelError("parameter names do not match the architecture")
        for name, shape in expected.items():
            t = self.tensors[name]
            if t.shape != shape:
                raise ModelError(f"tensor {name}: shape {t.shape}, expected {shape}")
            if not np.isfinite(t).all():
                raise ModelError(f"tensor {name}: non-finite values")

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.vocab, {k: v.copy() for k, v in self.tensors.items()})


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
    """Encoder output: one vector per kept time step, plus the input length."""

    vectors: np.ndarray  # (K, annotation_dim)
    source_len: int


@dataclass
class ScoredDecode:
    """Greedy decode result: emitted tokens (end marker excluded) and the
    log-probability the model assigned to each emission."""

    tokens: list[int]
    self_logprobs: np.ndarray
    truncated: bool = False


# -- forward pass internals (batched; single-sample ops use B=1) -----------


def _wrap(params: ModelParams) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in params.tensors.items()}


def _gru_gates(gx: np.ndarray, h: np.ndarray, wh: np.ndarray):
    """One gated recurrent step from its input projection ``gx = x @ wx + b``.

    Works on (..., B, h) stacks. Returns the new state and the gate values
    (r, z, n, ghn) its backward pass needs, where ghn is the candidate slice
    of ``h @ wh``.
    """
    hs = h.shape[-1]
    gh = h @ wh
    rz = 1.0 / (1.0 + np.exp(-(gx[..., :2 * hs] + gh[..., :2 * hs])))
    r, z = rz[..., :hs], rz[..., hs:]
    ghn = gh[..., 2 * hs:]
    n = np.tanh(gx[..., 2 * hs:] + r * ghn)
    return n + z * (h - n), (r, z, n, ghn)


def _gru_gate_grads(g: np.ndarray, h: np.ndarray, r: np.ndarray, z: np.ndarray,
                    n: np.ndarray, ghn: np.ndarray):
    """Backward of ``_gru_gates`` for the gradient ``g`` of the new state.

    Returns the gradients w.r.t. ``gx`` and ``h @ wh`` and the direct
    (non-matmul) part of the gradient w.r.t. ``h``.
    """
    hs = h.shape[-1]
    dgx = np.empty(g.shape[:-1] + (3 * hs,))
    dn = g * (1.0 - z) * (1.0 - n * n)
    dgx[..., :hs] = dn * ghn * r * (1.0 - r)
    dgx[..., hs:2 * hs] = g * (h - n) * z * (1.0 - z)
    dgx[..., 2 * hs:] = dn
    dgh = dgx.copy()
    dgh[..., 2 * hs:] *= r
    return dgx, dgh, g * z


def _gru_cell(x: Tensor, h: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One decoder recurrent step as a single tape node."""
    h_new, gates = _gru_gates(x.data @ wx.data + b.data, h.data, wh.data)

    def backward(g):
        dgx, dgh, dh = _gru_gate_grads(g, h.data, *gates)
        x._accum(dgx @ wx.data.T)
        h._accum(dh + dgh @ wh.data.T)
        wx._accum(x.data.T @ dgx)
        wh._accum(h.data.T @ dgh)
        b._accum(dgx.sum(axis=0))

    return Tensor(h_new, (x, h, wx, wh, b), backward)


_DIRS = np.arange(2)


def _bigru_layer(x: Tensor, weights: list[tuple[Tensor, Tensor, Tensor]],
                 lens: np.ndarray | None) -> Tensor:
    """Both directions of one bidirectional encoder layer as a single tape node.

    ``x`` is a batch-major (B, T, in) tensor and ``weights`` holds the
    (wx, wh, b) triples of the forward and the backward direction. The output
    is (B, T, 2h): forward states, then backward states. With ``lens``, a row
    stops updating past its length (the forward state carries over, the
    backward state stays zero). Per-step gate values are kept only while the
    tape records.

    Step s advances the forward direction at time s and the backward one at
    time T-1-s as one (2, B, .) stack. All per-step work stays on small
    arrays: whole-sequence temporaries cost more in fresh pages than they
    save in calls.
    """
    xs = x.data
    batch, t_steps, _ = xs.shape
    wx, wh, b = (np.stack([triple[i].data for triple in weights]) for i in range(3))
    hs = wh.shape[1]
    b = b[:, None, :]
    times = np.stack([np.arange(t_steps), np.arange(t_steps - 1, -1, -1)], axis=1)
    valid = None if lens is None else times[:, :, None, None] < lens[:, None]
    x_tm = xs.swapaxes(0, 1)
    states = np.empty((2, t_steps, batch, hs))  # step order
    gates = np.empty((4, 2, t_steps, batch, hs)) if grad_enabled() else None
    h = np.zeros((2, batch, hs))
    for s in range(t_steps):
        h_new, step_gates = _gru_gates(x_tm[times[s]] @ wx + b, h, wh)
        if gates is not None:
            gates[:, :, s] = step_gates
        h = h_new if valid is None else np.where(valid[s], h_new, h)
        states[:, s] = h
    out = np.empty((batch, t_steps, 2 * hs))
    out[:, :, :hs] = states[0].swapaxes(0, 1)
    out[:, :, hs:] = states[1, ::-1].swapaxes(0, 1)

    def backward(g):
        g_steps = np.empty((2, t_steps, batch, hs))
        g_steps[0] = g[:, :, :hs].swapaxes(0, 1)
        g_steps[1] = g[:, ::-1, hs:].swapaxes(0, 1)
        dgx = np.empty((2, batch, t_steps, 3 * hs))  # input-time order, rows as in xs
        dgh = np.empty((2, t_steps, batch, 3 * hs))  # step order, rows as in states
        wh_t = wh.swapaxes(1, 2)
        dh = np.zeros((2, batch, hs))
        for s in range(t_steps - 1, -1, -1):
            g_s = g_steps[:, s] + dh
            g_in = g_s if valid is None else np.where(valid[s], g_s, 0.0)
            h_prev = states[:, s - 1] if s else np.zeros((2, batch, hs))
            dgx[_DIRS, :, times[s]], dgh[:, s], dh = _gru_gate_grads(
                g_in, h_prev, *gates[:, :, s])
            dh = dh + dgh[:, s] @ wh_t
            if valid is not None:
                dh = np.where(valid[s], dh, g_s)
        # Weight gradients: one product per direction over all T*B rows (the
        # first step's h_prev is zero, so its rows drop out of dwh).
        rows_gx = dgx.reshape(2, batch * t_steps, 3 * hs)
        dwx = xs.reshape(batch * t_steps, -1).T @ rows_gx
        dwh = (states[:, :-1].reshape(2, -1, hs).swapaxes(1, 2)
               @ dgh[:, 1:].reshape(2, -1, 3 * hs))
        db = rows_gx.sum(axis=1)
        for (wx_d, wh_d, b_d), gwx, gwh, gb in zip(weights, dwx, dwh, db):
            wx_d._accum(gwx)
            wh_d._accum(gwh)
            b_d._accum(gb)
        x._accum(dgx[0] @ wx[0].T + dgx[1] @ wx[1].T)

    params = tuple(t for triple in weights for t in triple)
    return Tensor(out, (x, *params), backward)


def _encode_steps(pt: dict[str, Tensor], arch: ArchConfig, feats: np.ndarray | Tensor,
                  lens: list[int]) -> tuple[Tensor, list[int]]:
    """Run the encoder stack over a padded batch-major (B, L, input_dim) batch.

    Returns the (B, K, annotation_dim) annotation tensor and per-sample
    annotation counts. Padded positions carry junk values; callers mask them.
    """
    cur = as_tensor(feats)
    cur_lens = np.asarray(lens)
    for layer in range(arch.enc_layers):
        if layer >= arch.enc_layers - arch.enc_pool:
            cur = cur[:, ::2]
            cur_lens = (cur_lens + 1) // 2
        weights = [tuple(pt[f"enc{layer}_{d}_{w}"] for w in ("wx", "wh", "b"))
                   for d in ("fwd", "bwd")]
        cur = _bigru_layer(cur, weights, None if cur_lens.min() == cur.shape[1] else cur_lens)
    return cur, cur_lens.tolist()


def _attention_mask_bias(klens: list[int], k_max: int) -> np.ndarray | None:
    if min(klens) == k_max:
        return None
    return np.where(np.arange(k_max) < np.asarray(klens)[:, None], 0.0, MASK_NEG)


def _init_decoder_state(pt: dict[str, Tensor], arch: ArchConfig, ann: Tensor,
                        klens: list[int]) -> tuple[Tensor, Tensor]:
    batch, k_max, _ = ann.shape
    if min(klens) == k_max:
        mean = ann.sum(axis=1) * (1.0 / k_max)
    else:
        valid = np.arange(k_max)[:, None] < np.asarray(klens)[:, None, None]
        inv = (1.0 / np.asarray(klens, dtype=np.float64))[:, None]
        mean = (ann * valid).sum(axis=1) * inv
    s0 = (mean @ pt["dec_init_w"] + pt["dec_init_b"]).tanh()
    return s0, Tensor(np.zeros((batch, k_max)))


def _coverage_features(pt: dict[str, Tensor], arch: ArchConfig, cov_acc: Tensor) -> Tensor:
    """Coverage term of the attention energy: each width-W window of the
    zero-padded accumulated attention times the folded (W, att_dim) kernel
    ``cov_k @ cov_w``, as one (B, K, W) product."""
    k_max = cov_acc.shape[1]
    zeros = Tensor(np.zeros((cov_acc.shape[0], arch.cov_kernel // 2)))
    padded = concat([zeros, cov_acc, zeros], axis=1)
    windows = padded[:, np.arange(k_max)[:, None] + np.arange(arch.cov_kernel)]
    return windows @ (pt["cov_k"] @ pt["cov_w"])


def _decode_step_core(pt: dict[str, Tensor], arch: ArchConfig, prev_emb: Tensor,
                      s_prev: Tensor, ann: Tensor, keys: Tensor,
                      mask_bias: np.ndarray | None, cov_acc: Tensor):
    batch, k_max, a_dim = ann.shape
    query = (s_prev @ pt["att_ws"]).reshape(batch, 1, arch.att_dim)
    cov = _coverage_features(pt, arch, cov_acc)
    act = (keys + query + cov).tanh()
    energy = (act * pt["att_v"]).sum(axis=2)
    if mask_bias is not None:
        energy = energy + mask_bias
    alpha = log_softmax(energy, axis=1).exp()
    ctx = (alpha.reshape(batch, 1, k_max) @ ann).reshape(batch, a_dim)
    x = concat([prev_emb, ctx], axis=1)
    s = _gru_cell(x, s_prev, pt["dec_wx"], pt["dec_wh"], pt["dec_b"])
    logits = s @ pt["out_ws"] + ctx @ pt["out_wc"] + prev_emb @ pt["out_we"] + pt["out_b"]
    return logits, s, alpha, cov_acc + alpha


def _teacher_forced_steps(pt: dict[str, Tensor], arch: ArchConfig, ann: Tensor,
                          klens: list[int], feed: np.ndarray, targets: np.ndarray,
                          collect_argmax: bool = False):
    """Per-step log-probabilities of ``targets`` when ``feed`` is fed stepwise.

    ``feed``/``targets`` are (B, T) int arrays; returns a (B, T) tensor of
    log P(targets[:, t]) and optionally the per-step argmax indices.
    """
    batch, t_steps = feed.shape
    keys = _attention_keys(pt, ann)
    mask_bias = _attention_mask_bias(klens, ann.shape[1])
    s, cov = _init_decoder_state(pt, arch, ann, klens)
    rows = np.arange(batch)
    cols: list[Tensor] = []
    argmax = np.zeros((batch, t_steps), dtype=np.int64) if collect_argmax else None
    for t in range(t_steps):
        prev_emb = pt["emb"][feed[:, t]]
        logits, s, _, cov = _decode_step_core(pt, arch, prev_emb, s, ann, keys, mask_bias, cov)
        ls = log_softmax(logits, axis=1)
        if collect_argmax:
            argmax[:, t] = ls.data.argmax(axis=1)
        cols.append(ls[rows, targets[:, t]].reshape(batch, 1))
    return concat(cols, axis=1), argmax


def _attention_keys(pt: dict[str, Tensor], ann: Tensor) -> Tensor:
    return ann @ pt["att_ua"] + pt["att_b"]


def _pad(arrays: list[np.ndarray], dim: int) -> tuple[np.ndarray, list[int]]:
    """Zero-padded (B, L_max, dim) batch of (L_i, dim) arrays and the lengths L_i."""
    lens = [a.shape[0] for a in arrays]
    padded = np.zeros((len(arrays), max(lens), dim))
    for i, a in enumerate(arrays):
        padded[i, : lens[i]] = a
    return padded, lens


def _batch_tokens(token_seqs: list[list[int]], extra_eos: bool):
    """Feed/target/mask arrays for teacher forcing, optionally with the end token."""
    lens = [len(s) + (1 if extra_eos else 0) for s in token_seqs]
    t_max = max(lens)
    feed = np.full((len(token_seqs), t_max), EOS_INDEX, dtype=np.int64)
    targets = np.full((len(token_seqs), t_max), EOS_INDEX, dtype=np.int64)
    mask = np.zeros((len(token_seqs), t_max))
    for i, seq in enumerate(token_seqs):
        full = list(seq) + ([EOS_INDEX] if extra_eos else [])
        feed[i, : len(full)] = [SOS_INDEX] + full[:-1]
        targets[i, : len(full)] = full
        mask[i, : len(full)] = 1.0
    return feed, targets, mask


# -- public operations ------------------------------------------------------


def encode_batch(params: ModelParams, feats_list: list[np.ndarray]) -> list[Annotations]:
    """Encode many feature sequences in padded batches of ``INFER_CHUNK``;
    each keeps its own ceil(L / 2^p) annotation vectors."""
    arch = params.arch
    feats_list = [np.asarray(f, dtype=np.float64) for f in feats_list]
    for feats in feats_list:
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ModelError("empty or malformed feature sequence")
        if feats.shape[1] != arch.input_dim:
            raise ModelError(f"feature dim {feats.shape[1]}, expected {arch.input_dim}")
    out: list[Annotations] = []
    with no_grad():
        pt = _wrap(params)
        for start in range(0, len(feats_list), INFER_CHUNK):
            chunk = feats_list[start:start + INFER_CHUNK]
            ann, klens = _encode_steps(pt, arch, *_pad(chunk, arch.input_dim))
            out.extend(Annotations(vectors=ann.data[i, :k], source_len=len(f))
                       for i, (k, f) in enumerate(zip(klens, chunk)))
    return out


def encode(params: ModelParams, feats: np.ndarray) -> Annotations:
    """Encode a feature sequence into ceil(L / 2^p) annotation vectors."""
    return encode_batch(params, [feats])[0]


def greedy_decode_batch(params: ModelParams, anns: list[Annotations],
                        max_len: int | None = None) -> list[ScoredDecode]:
    """Greedy argmax decoding of many annotation sets in padded batches of
    ``INFER_CHUNK``; ties break to the lowest index. A row stops collecting
    tokens once it emits the end marker, and is ``truncated`` if it never
    does within ``max_len`` steps."""
    arch = params.arch
    max_len = arch.max_decode_len if max_len is None else max_len
    if max_len < 1:
        raise ModelError("max_len must be at least 1")
    if not anns:
        return []
    if len(anns) > INFER_CHUNK:
        return [d for start in range(0, len(anns), INFER_CHUNK)
                for d in greedy_decode_batch(params, anns[start:start + INFER_CHUNK], max_len)]
    padded, klens = _pad([a.vectors for a in anns], arch.annotation_dim)
    batch = len(anns)
    tokens = np.zeros((batch, max_len), dtype=np.int64)
    logprobs = np.zeros((batch, max_len))
    lengths = np.zeros(batch, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    prev = np.full(batch, SOS_INDEX)
    with no_grad():
        pt = _wrap(params)
        ann_t = as_tensor(padded)
        keys = _attention_keys(pt, ann_t)
        mask_bias = _attention_mask_bias(klens, padded.shape[1])
        s, cov = _init_decoder_state(pt, arch, ann_t, klens)
        for t in range(max_len):
            logits, s, _, cov = _decode_step_core(pt, arch, pt["emb"][prev], s, ann_t, keys,
                                                  mask_bias, cov)
            ls = log_softmax(logits, axis=1).data
            prev = ls.argmax(axis=1)
            live &= prev != EOS_INDEX
            lengths += live
            tokens[:, t], logprobs[:, t] = prev, ls[np.arange(batch), prev]
            if not live.any():
                break
    # A finished row stays finished, so its tokens are the first `lengths[i]` steps.
    return [ScoredDecode(tokens=tokens[i, :n].tolist(), self_logprobs=logprobs[i, :n],
                         truncated=bool(live[i])) for i, n in enumerate(lengths)]


def greedy_decode(params: ModelParams, ann: Annotations, max_len: int | None = None) -> ScoredDecode:
    """Greedy argmax decoding from the start token; ties break to the lowest index."""
    return greedy_decode_batch(params, [ann], max_len)[0]


def _check_tokens(params: ModelParams, token_seqs: list[list[int]]) -> None:
    for seq in token_seqs:
        if len(seq) == 0:
            raise ModelError("empty token sequence")
        if any(not 0 <= t < params.vocab.size for t in seq):
            raise ModelError("token index out of range")


def _teacher_forced(pt: dict[str, Tensor], arch: ArchConfig, anns: list[Annotations],
                    token_seqs: list[list[int]]):
    """Per-step log-probabilities (B, T) and validity mask of each non-empty
    ``token_seqs[i]`` teacher-forced against ``anns[i]``, as one padded batch."""
    ann, klens = _pad([a.vectors for a in anns], arch.annotation_dim)
    feed, targets, mask = _batch_tokens(token_seqs, extra_eos=False)
    lp, _ = _teacher_forced_steps(pt, arch, as_tensor(ann), klens, feed, targets)
    return lp.data, mask


def teacher_forced_logprobs(params: ModelParams, ann: Annotations, tokens: list[int]) -> np.ndarray:
    """log P(tokens[i] | annotations, tokens[:i]) with the start token prepended."""
    _check_tokens(params, [tokens])
    with no_grad():
        return _teacher_forced(_wrap(params), params.arch, [ann], [tokens])[0][0]


def cross_logprob_sums(params: ModelParams, anns: list[Annotations],
                       token_seqs: list[list[int]]) -> np.ndarray:
    """(len(anns), len(token_seqs)) total teacher-forced log-probability of
    every non-empty sequence against every annotation set.

    The (sequence, annotation set) pairs run in padded batches of
    ``CROSS_CHUNK``, sequence-major with the shortest sequence first, so a
    batch is padded only to the lengths of the sequences it holds.
    """
    _check_tokens(params, token_seqs)
    order = np.argsort([len(s) for s in token_seqs], kind="stable")
    seq_of = np.repeat(order, len(anns))
    ann_of = np.tile(np.arange(len(anns)), len(token_seqs))
    sums = np.zeros((len(anns), len(token_seqs)))
    with no_grad():
        pt = _wrap(params)
        for start in range(0, len(seq_of), CROSS_CHUNK):
            c, q = ann_of[start:start + CROSS_CHUNK], seq_of[start:start + CROSS_CHUNK]
            lp, mask = _teacher_forced(pt, params.arch, [anns[i] for i in c],
                                       [token_seqs[i] for i in q])
            sums[c, q] = (lp * mask).sum(axis=1)
    return sums


def loss_and_gradients(params: ModelParams, batch: list[tuple[np.ndarray, list[int]]]):
    """Mean token-level cross-entropy (end token included) and exact gradients."""
    if not batch:
        raise ModelError("empty batch")
    pt = _wrap(params)
    arch = params.arch
    ann, klens = _encode_steps(pt, arch, *_pad(
        [np.asarray(f, dtype=np.float64) for f, _ in batch], arch.input_dim))
    feed, targets, mask = _batch_tokens([list(t) for _, t in batch], extra_eos=True)
    lp, _ = _teacher_forced_steps(pt, arch, ann, klens, feed, targets)
    total_tokens = int(mask.sum())
    loss_t = -((lp * mask).sum() / float(total_tokens))
    loss = float(loss_t.data)
    if not math.isfinite(loss):
        raise ModelError(f"non-finite training loss {loss!r} on batch of {len(batch)}")
    loss_t.backward()
    grads = {name: (pt[name].grad if pt[name].grad is not None else np.zeros_like(arr))
             for name, arr in params.tensors.items()}
    return loss, grads


def teacher_forced_accuracy(params: ModelParams, batch: list[tuple[np.ndarray, list[int]]]) -> float:
    """Fraction of target tokens (end token included) predicted by argmax."""
    if not batch:
        raise ModelError("empty batch")
    with no_grad():
        pt = _wrap(params)
        arch = params.arch
        ann, klens = _encode_steps(pt, arch, *_pad(
            [np.asarray(f, dtype=np.float64) for f, _ in batch], arch.input_dim))
        feed, targets, mask = _batch_tokens([list(t) for _, t in batch], extra_eos=True)
        _, argmax = _teacher_forced_steps(pt, arch, ann, klens, feed, targets, collect_argmax=True)
    hits = ((argmax == targets) & (mask > 0)).sum()
    return float(hits) / float(mask.sum())
