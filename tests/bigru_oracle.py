"""The bidirectional encoder layer as it was before its backward pass made
the gate-gradient factors once per layer: the reference the current
``model._bigru_layer`` and ``model._bigru_backward`` are tested against.
Its per-step cell ``gru_gates`` is also the decoder step's reference
(``test_decode_step.py``).

Gates are stacked per step into a (4, 2, T, B, h) cache, every backward step
derives its gate gradients from the gate values, and ``np.where`` masks every
step. The forward output must match the current layer bit for bit; gradients
agree to rounding.
"""

import numpy as np


def gru_gates(gx: np.ndarray, h: np.ndarray, wh: np.ndarray):
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


def gru_gate_grads(g: np.ndarray, h: np.ndarray, r: np.ndarray, z: np.ndarray,
                   n: np.ndarray, ghn: np.ndarray):
    """Backward of ``gru_gates`` for the gradient ``g`` of the new state.

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


DIRS = np.arange(2)


def bigru_layer(xs: np.ndarray, weights: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                lens: np.ndarray, keep: bool):
    """Both directions of one bidirectional encoder layer.

    ``xs`` is a batch-major (B, T, in) array and ``weights`` holds the
    (wx, wh, b) triples of the forward and the backward direction. Returns the
    (B, T, 2h) output (forward states, then backward states) and the cache.
    A row stops updating past its length in ``lens`` (the forward state
    carries over, the backward state stays zero).

    Step s advances the forward direction at time s and the backward one at
    time T-1-s as one (2, B, .) stack. All per-step work stays on small
    arrays: whole-sequence temporaries cost more in fresh pages than they
    save in calls.
    """
    batch, t_steps, _ = xs.shape
    wx, wh, b = (np.stack([triple[i] for triple in weights]) for i in range(3))
    hs = wh.shape[1]
    b = b[:, None, :]
    times = np.stack([np.arange(t_steps), np.arange(t_steps - 1, -1, -1)], axis=1)
    valid = times[:, :, None, None] < lens[:, None]
    x_tm = xs.swapaxes(0, 1)
    states = np.empty((2, t_steps, batch, hs))  # step order
    gates = np.empty((4, 2, t_steps, batch, hs)) if keep else None
    h = np.zeros((2, batch, hs))
    for s in range(t_steps):
        h_new, step_gates = gru_gates(x_tm[times[s]] @ wx + b, h, wh)
        if keep:
            gates[:, :, s] = step_gates
        h = np.where(valid[s], h_new, h)
        states[:, s] = h
    out = np.empty((batch, t_steps, 2 * hs))
    out[:, :, :hs] = states[0].swapaxes(0, 1)
    out[:, :, hs:] = states[1, ::-1].swapaxes(0, 1)
    return out, ((xs, wx, wh, times, valid, states, gates) if keep else None)


def bigru_backward(cache, g: np.ndarray, need_dx: bool):
    """Backward through time of ``bigru_layer`` for the output gradient ``g``.

    Returns the input gradient (None unless ``need_dx``) and the
    (wx, wh, b) gradients of the forward and the backward direction.
    """
    xs, wx, wh, times, valid, states, gates = cache
    batch, t_steps, _ = xs.shape
    hs = wh.shape[1]
    g_steps = np.empty((2, t_steps, batch, hs))
    g_steps[0] = g[:, :, :hs].swapaxes(0, 1)
    g_steps[1] = g[:, ::-1, hs:].swapaxes(0, 1)
    dgx = np.empty((2, batch, t_steps, 3 * hs))  # input-time order, rows as in xs
    dgh = np.empty((2, t_steps, batch, 3 * hs))  # step order, rows as in states
    wh_t = wh.swapaxes(1, 2)
    dh = np.zeros((2, batch, hs))
    for s in range(t_steps - 1, -1, -1):
        g_s = g_steps[:, s] + dh
        h_prev = states[:, s - 1] if s else np.zeros((2, batch, hs))
        dgx[DIRS, :, times[s]], dgh[:, s], dh = gru_gate_grads(
            np.where(valid[s], g_s, 0.0), h_prev, *gates[:, :, s])
        dh = np.where(valid[s], dh + dgh[:, s] @ wh_t, g_s)
    # Weight gradients: one product per direction over all T*B rows (the
    # first step's h_prev is zero, so its rows drop out of dwh).
    rows_gx = dgx.reshape(2, batch * t_steps, 3 * hs)
    dwx = xs.reshape(batch * t_steps, -1).T @ rows_gx
    dwh = (states[:, :-1].reshape(2, -1, hs).swapaxes(1, 2)
           @ dgh[:, 1:].reshape(2, -1, 3 * hs))
    dx = dgx[0] @ wx[0].T + dgx[1] @ wx[1].T if need_dx else None
    return dx, list(zip(dwx, dwh, rows_gx.sum(axis=1)))
