"""The decoder step against the formulation it replaced.

``earlier_decode_step`` is the earlier step: it zero-pads the accumulated
attention with ``np.pad`` on every call, builds the window index each time,
sums the attention energy elementwise and runs the recurrent cell as
``bigru_oracle.gru_gates``, which allocates its gates. The current step keeps
the accumulator padded, reuses the index from ``_decoder_start``, takes the
energy as one product and writes the gates into their slots in place
(``model._gru_step``), so values may differ only in the last bits: within
1e-12 per step (gate slots included), equal greedy decodes, and cross scores
within 1e-9.
"""

import numpy as np
import pytest

import bigru_oracle
from gssf.sbr import build_sbr_matrix
from gssf.seq2seq import ArchConfig, build_vocabulary, init_params, model
from gssf.similarity import SimilarityKind, cross_score_matrix, score_answers

TOL = 1e-12


def earlier_decode_step(p, ann, consts, prev_emb, s_prev, cov_acc):
    """Oracle: one decoder step over an unpadded (B, K) accumulator; returns
    the logits, new state, new accumulator and the step cache."""
    keys, mask_bias, kw = consts
    k_max = ann.shape[1]
    pad = kw.shape[0] // 2
    padded = np.pad(cov_acc, ((0, 0), (pad, pad)))
    windows = padded[:, np.arange(k_max)[:, None] + np.arange(kw.shape[0])]
    act = np.tanh(keys + (s_prev @ p["att_ws"])[:, None, :] + windows @ kw)
    energy = (act * p["att_v"]).sum(axis=2) + mask_bias
    alpha = np.exp(model._log_softmax(energy))
    ctx = (alpha[:, None, :] @ ann)[:, 0]
    x = np.concatenate([prev_emb, ctx], axis=1)
    s, gates = bigru_oracle.gru_gates(x @ p["dec_wx"] + p["dec_b"], s_prev, p["dec_wh"])
    logits = s @ p["out_ws"] + ctx @ p["out_wc"] + prev_emb @ p["out_we"] + p["out_b"]
    return logits, s, cov_acc + alpha, (x, windows, act, alpha, gates)


def oracle_in_place_step(p, ann, consts, prev_emb, s_prev, cov_acc, slots):
    """``earlier_decode_step`` behind the current step's signature."""
    pad = consts[2].shape[0] // 2
    interior = cov_acc[:, pad:pad + ann.shape[1]]
    logits, s, new_cov, (*cache, (r, z, n, ghn)) = earlier_decode_step(
        p, ann, consts[:3], prev_emb, s_prev, interior.copy())
    interior[...] = new_cov
    slots[...] = (r * ghn, n, r, z)
    return logits, s, tuple(cache)


def random_decoder(kernel, seed):
    arch = ArchConfig(enc_hidden=4, dec_hidden=5, embed_dim=3, att_dim=6,
                      cov_channels=3, cov_kernel=kernel)
    params = init_params(arch, build_vocabulary([["a", "b"], ["c"]]), seed)
    rng = np.random.default_rng(seed)
    for name in params.tensors:  # nonzero biases exercise every path
        if name.endswith("_b"):
            params.tensors[name] = rng.normal(0, 0.3, params.tensors[name].shape)
    return params


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@pytest.mark.parametrize("klens", [[7, 3, 5, 1, 6], [4, 4], [1], [2, 9]])
def test_step_matches_earlier(kernel, klens):
    params = random_decoder(kernel, seed=kernel + len(klens))
    p = params.tensors
    rng = np.random.default_rng(len(klens))
    ann = rng.normal(0, 1, (len(klens), max(klens), params.arch.annotation_dim))
    consts, s, cov, _ = model._decoder_start(p, ann, klens)
    s_o, cov_o = s.copy(), np.zeros(ann.shape[:2])
    pad = kernel // 2
    assert cov.shape == (len(klens), max(klens) + 2 * pad)
    slots = np.empty((4, *s.shape))
    for t in range(6):
        emb = p["emb"][rng.integers(0, params.vocab.size, len(klens))]
        logits, s, (_, windows, act, alpha) = model._decode_step(p, ann, consts, emb, s,
                                                                 cov, slots)
        logits_o, s_o, cov_o, (_, windows_o, act_o, alpha_o, (r, z, n, ghn)) = (
            earlier_decode_step(p, ann, consts[:3], emb, s_o, cov_o))
        for got, want in ((logits, logits_o), (s, s_o), (alpha, alpha_o),
                          (slots, np.stack([r * ghn, n, r, z])),
                          (cov[:, pad:pad + ann.shape[1]], cov_o), (act, act_o),
                          (windows, windows_o)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)
        assert not cov[:, :pad].any() and not cov[:, pad + ann.shape[1]:].any()
        # padded positions get exactly zero weight
        assert all(not alpha[i, k:].any() for i, k in enumerate(klens))


def test_greedy_decodes_equal_on_pinned_set(trained, benchmark_inks, benchmark_answers,
                                            monkeypatch):
    params, _ = trained
    monkeypatch.setattr(model, "_decode_step", oracle_in_place_step)
    oracle = score_answers(params, benchmark_inks)
    assert len(oracle) == len(benchmark_answers)
    for got, want in zip(benchmark_answers, oracle):
        assert got.decode.tokens == want.decode.tokens
        assert got.decode.truncated == want.decode.truncated
        np.testing.assert_allclose(got.decode.self_logprobs, want.decode.self_logprobs,
                                   rtol=0.0, atol=TOL)


def test_cross_scores_match_earlier_step(trained, benchmark_answers, benchmark_f_matrix,
                                        monkeypatch):
    params, _ = trained
    monkeypatch.setattr(model, "_decode_step", oracle_in_place_step)
    oracle = cross_score_matrix(benchmark_answers, params)
    np.testing.assert_allclose(benchmark_f_matrix, oracle, rtol=0.0, atol=1e-9)
    assert np.all(np.diag(benchmark_f_matrix) == 0.0)
    values = build_sbr_matrix(benchmark_answers, SimilarityKind.GSSF, params,
                              f=benchmark_f_matrix).values
    assert np.array_equal(values, values.T)
