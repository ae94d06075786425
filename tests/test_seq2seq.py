"""Recognizer unit tests: vocabulary, encoder/decoder laws, training, checkpoints."""

import dataclasses
import json
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import with_duplicate_record
from gssf.ink import FEATURE_DIM, RawInk, extract_features, resample_and_normalize
from gssf.seq2seq import (Annotations, ArchConfig, CheckpointError, ModelError,
                          ModelParams, TrainConfig, TrainingError, Vocabulary,
                          VocabularyError, build_vocabulary, checkpoint_bytes,
                          cross_logprob_sums, encode, encode_and_decode, init_params,
                          load_checkpoint, loss_and_gradients, param_shapes, save_checkpoint,
                          teacher_forced_accuracy, teacher_forced_logprobs, train, zero_params)
from gssf.seq2seq import model
from gssf.seq2seq.model import MAX_ARCH_SIZE
from gssf.seq2seq.vocab import EOS_INDEX, SOS_INDEX
from tape import as_tensor, log_softmax, no_grad
from tape_model import attention_keys, decode_step_core, wrap
from tape_model import init_decoder_state as tape_init_decoder_state

SMALL = ArchConfig(enc_hidden=5, dec_hidden=6, embed_dim=4, att_dim=4,
                   cov_channels=3, cov_kernel=3, max_decode_len=10)


def greedy_decode(params, feats):
    """Greedy decode of one feature sequence."""
    return encode_and_decode(params, [feats])[0][1]


def small_model(seed=7, vocab_tokens=(("a", "b"), ("c",))):
    vocab = build_vocabulary([list(t) for t in vocab_tokens])
    return init_params(SMALL, vocab, seed)


def random_feats(length, seed=0):
    return np.random.default_rng(seed).normal(0, 1, (length, FEATURE_DIM))


def with_max_decode_len(params, n):
    """``params`` with the decode cap set to ``n``; tensors are shared."""
    arch = dataclasses.replace(params.arch, max_decode_len=n)
    return ModelParams(arch, params.vocab, params.tensors)


def with_config_field(data, field, old, new):
    """Checkpoint bytes ``data`` of a ``SMALL`` model with one config field
    changed from ``old`` to ``new``, the block's length prefix updated."""
    cfg = json.dumps(dataclasses.asdict(SMALL), sort_keys=True).encode()
    before, after = (f'"{field}": {json.dumps(v)}'.encode() for v in (old, new))
    assert before in cfg
    bad = cfg.replace(before, after)
    return data.replace(struct.pack("<I", len(cfg)) + cfg, struct.pack("<I", len(bad)) + bad)


def init_decoder_state(params, ann):
    """Oracle: initial decoder state and zero coverage for one annotation set."""
    with no_grad():
        s0, cov = tape_init_decoder_state(wrap(params), params.arch,
                                          as_tensor(ann.vectors[None]), [len(ann.vectors)])
    return s0.data[0], cov.data[0]


def decode_step(params, prev_token, state, ann, coverage_acc):
    """Oracle: one unbatched decoder step.

    Returns (symbol distribution, new state, attention, new coverage).
    """
    with no_grad():
        pt = wrap(params)
        ann_t = as_tensor(ann.vectors[None])
        logits, s, alpha, cov = decode_step_core(
            pt, params.arch, pt["emb"][np.asarray([prev_token])], as_tensor(state[None]),
            ann_t, attention_keys(pt, ann_t), None, as_tensor(coverage_acc[None]))
        dist = np.exp(log_softmax(logits, axis=1).data[0])
    return dist, s.data[0], alpha.data[0], cov.data[0]


class TestVocabulary:
    def test_set_construction(self):
        v = build_vocabulary([["2", "+", "3"], ["2"]])
        assert v.size == 5
        assert set(v.tokens) == {"<sos>", "<eos>", "+", "2", "3"}

    def test_duplicate_only_corpus(self):
        assert build_vocabulary([["a"], ["a"]]).size == 3

    def test_order_independent(self):
        a = build_vocabulary([["x", "y"], ["z"]])
        b = build_vocabulary([["z"], ["y", "x"]])
        assert a.tokens == b.tokens

    def test_reserved_indices(self):
        v = build_vocabulary([["q"]])
        assert v.tokens[SOS_INDEX] == "<sos>" and v.tokens[EOS_INDEX] == "<eos>"

    def test_empty_corpus_rejected(self):
        with pytest.raises(VocabularyError):
            build_vocabulary([])

    def test_reserved_collision_rejected(self):
        with pytest.raises(VocabularyError):
            build_vocabulary([["<eos>"]])

    def test_roundtrip_encode_decode(self):
        v = build_vocabulary([["a", "b", "c"]])
        assert [v.tokens[i] for i in v.encode(["c", "a"])] == ["c", "a"]


class TestInitParams:
    def test_deterministic(self):
        a, b = small_model(3), small_model(3)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_seeds_differ(self):
        a, b = small_model(3), small_model(4)
        assert any(not np.array_equal(a.tensors[n], b.tensors[n]) for n in a.tensors)

    def test_biases_zero_weights_not(self):
        p = small_model()
        assert all(not t.any() for n, t in p.tensors.items() if n.endswith("_b"))
        assert all(t.any() for n, t in p.tensors.items() if not n.endswith("_b"))

    def test_zero_params_uniform_everywhere(self):
        p = zero_params(SMALL, small_model().vocab)
        ann = encode(p, random_feats(6))
        state, cov = init_decoder_state(p, ann)
        dist, _, _, _ = decode_step(p, SOS_INDEX, state, ann, cov)
        np.testing.assert_allclose(dist, 1.0 / p.vocab.size, atol=1e-15)


class TestEncode:
    def test_pooling_length_law_examples(self):
        vocab = build_vocabulary([["a"]])
        p2 = init_params(ArchConfig(enc_hidden=4, dec_hidden=4, embed_dim=3, att_dim=3,
                                    cov_channels=2, cov_kernel=3, enc_pool=2), vocab, 0)
        assert len(encode(p2, random_feats(8)).vectors) == 2
        assert len(encode(p2, random_feats(1)).vectors) == 1

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("pool", [0, 1, 2])
    def test_pooling_length_law(self, length, pool):
        vocab = build_vocabulary([["a"]])
        arch = ArchConfig(enc_hidden=3, dec_hidden=3, embed_dim=2, att_dim=2,
                          cov_channels=2, cov_kernel=3, enc_pool=pool)
        params = init_params(arch, vocab, 0)
        assert len(encode(params, random_feats(length)).vectors) == math.ceil(length / 2 ** pool)

    def test_deterministic(self):
        p = small_model()
        a = encode(p, random_feats(9))
        b = encode(p, random_feats(9))
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestDecodeStep:
    def test_distribution_normalized(self):
        p = small_model()
        ann = encode(p, random_feats(7))
        state, cov = init_decoder_state(p, ann)
        dist, new_state, attn, new_cov = decode_step(p, SOS_INDEX, state, ann, cov)
        assert dist.min() > 0.0
        assert abs(dist.sum() - 1.0) < 1e-6
        assert abs(attn.sum() - 1.0) < 1e-6 and attn.min() >= 0.0
        np.testing.assert_allclose(new_cov, cov + attn)

    def test_single_annotation_attention_is_one(self):
        p = small_model()
        ann = encode(p, random_feats(1))
        assert len(ann.vectors) == 1
        state, cov = init_decoder_state(p, ann)
        _, _, attn, _ = decode_step(p, SOS_INDEX, state, ann, cov)
        assert attn[0] == 1.0


class TestGreedyDecode:
    def test_zero_params_tie_rule(self):
        p = zero_params(SMALL, build_vocabulary([["a", "b"]]))
        dec = greedy_decode(with_max_decode_len(p, 5), random_feats(4))
        # uniform distribution: lowest index (the start marker) wins every tie
        assert dec.tokens == [SOS_INDEX] * 5
        assert dec.truncated
        np.testing.assert_array_equal(dec.self_logprobs, -np.log(p.vocab.size))

    def test_max_len_one(self):
        p = small_model()
        dec = greedy_decode(with_max_decode_len(p, 1), random_feats(4))
        assert len(dec.tokens) <= 1
        assert dec.truncated == (len(dec.tokens) == 1)

    def test_greedy_maximality(self):
        p = small_model(seed=9)
        ann = encode(p, random_feats(6, seed=2))
        dec = greedy_decode(with_max_decode_len(p, 6), random_feats(6, seed=2))
        state, cov = init_decoder_state(p, ann)
        prev = SOS_INDEX
        for tok, lp in zip(dec.tokens, dec.self_logprobs):
            dist, state, _, cov = decode_step(p, prev, state, ann, cov)
            assert tok == int(np.argmax(dist))
            assert lp == pytest.approx(np.log(dist).max(), abs=1e-9)
            assert all(lp >= np.log(pv) - 1e-12 for pv in dist)
            prev = tok

    def test_bad_max_len(self, tmp_path):
        # The cap is an architecture size, so no decodable model can carry 0.
        with pytest.raises(ModelError):
            dataclasses.replace(SMALL, max_decode_len=0).validate()
        path = tmp_path / "model.ckpt"
        path.write_bytes(with_config_field(checkpoint_bytes(small_model()), "max_decode_len",
                                           SMALL.max_decode_len, 0))
        with pytest.raises(CheckpointError, match="bad config block"):
            load_checkpoint(path)


class TestTeacherForcing:
    def test_matches_greedy_on_own_decode(self):
        p = small_model(seed=11)
        ann = encode(p, random_feats(8, seed=3))
        dec = greedy_decode(with_max_decode_len(p, 6), random_feats(8, seed=3))
        if not dec.tokens:
            pytest.skip("decode empty for this seed")
        lp = teacher_forced_logprobs(p, ann, dec.tokens)
        np.testing.assert_allclose(lp, dec.self_logprobs, atol=1e-9)

    def test_zero_params_uniform(self):
        p = zero_params(SMALL, build_vocabulary([["a", "b", "c"]]))
        ann = encode(p, random_feats(5))
        lp = teacher_forced_logprobs(p, ann, [2, 3, 4])
        np.testing.assert_array_equal(lp, [-np.log(p.vocab.size)] * 3)

    def test_probabilities_in_unit_interval(self):
        p = small_model(seed=13)
        ann = encode(p, random_feats(5, seed=1))
        lp = teacher_forced_logprobs(p, ann, [0, 1, 2, 3])
        probs = np.exp(lp)
        assert np.all(probs > 0.0) and np.all(probs <= 1.0)
        assert np.all(lp <= 0.0)

    def test_batched_cross_sums_match_single(self):
        p = small_model(seed=17)
        ann = encode(p, random_feats(6, seed=4))
        seqs = [[2, 3], [3], [2, 2, 3]]
        batched = cross_logprob_sums(p, [ann], seqs)[0]
        singles = [teacher_forced_logprobs(p, ann, s).sum() for s in seqs]
        np.testing.assert_allclose(batched, singles, atol=1e-9)


class TestLossAndGradients:
    def test_zero_params_loss_is_log_v_exactly(self):
        p = zero_params(SMALL, build_vocabulary([["a", "b", "c"]]))
        loss, _ = loss_and_gradients(p, [(random_feats(4), [2])])
        assert loss == math.log(p.vocab.size)

    def test_duplicated_sample_keeps_mean(self):
        p = small_model(seed=19)
        sample = (random_feats(5, seed=5), [2, 3])
        single, _ = loss_and_gradients(p, [sample])
        double, _ = loss_and_gradients(p, [sample, sample])
        assert single == pytest.approx(double, abs=1e-12)

    def test_gradients_cover_every_tensor(self):
        p = small_model(seed=23)
        _, grads = loss_and_gradients(p, [(random_feats(6, seed=6), [2, 3, 2])])
        assert set(grads) == set(p.tensors)
        assert all(np.isfinite(g).all() for g in grads.values())
        assert any(np.abs(g).max() > 0 for g in grads.values())

    def test_spot_finite_difference(self):
        # full per-tensor gradient audit lives in the acceptance suite
        p = small_model(seed=29)
        rng = np.random.default_rng(0)
        for name in p.tensors:
            if name.endswith("_b"):
                p.tensors[name] = rng.normal(0, 0.2, p.tensors[name].shape)
        batch = [(random_feats(5, seed=7), [2, 3])]
        _, grads = loss_and_gradients(p, batch)
        h = 1e-5
        for name in ("att_v", "cov_k"):
            arr = p.tensors[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = loss_and_gradients(p, batch)
                arr[idx] = orig - h
                lm, _ = loss_and_gradients(p, batch)
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                assert grads[name][idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def one_batch_accuracy(params, batch):
    """Oracle: held-out accuracy from one padded batch of the whole set, as
    ``teacher_forced_accuracy`` computed it before it ran in slices."""
    lp, argmax, targets, mask, _ = model._forward_batch(params, batch, keep=False)
    if not np.isfinite(lp[mask > 0]).all():
        return math.nan
    return float(((argmax == targets) & (mask > 0)).sum()) / float(mask.sum())


def held_out_set(n, seed=3):
    """``n`` (features, label) pairs of varied lengths over tokens 2-4."""
    rng = np.random.default_rng(seed)
    return [(random_feats(int(rng.integers(3, 12)), seed=i),
             [int(t) for t in rng.integers(2, 5, int(rng.integers(1, 4)))]) for i in range(n)]


class TestHeldOutAccuracy:
    def test_slices_equal_one_batch(self):
        p = small_model(seed=31)
        batch = held_out_set(40)
        assert len(batch) > model.INFER_CHUNK
        acc = teacher_forced_accuracy(p, batch)
        assert acc == one_batch_accuracy(p, batch)
        assert 0.0 < acc < 1.0

    def test_non_finite_second_slice_is_nan(self, monkeypatch):
        """A slice with a non-finite log-probability ends the pass with NaN;
        later slices are not run."""
        forward, sizes = model._forward_batch, []

        def overflow_second(params, part, keep):
            lp, *rest = forward(params, part, keep)
            sizes.append(len(part))
            if len(sizes) == 2:
                lp[0, 0] = -np.inf
            return (lp, *rest)

        monkeypatch.setattr(model, "_forward_batch", overflow_second)
        assert math.isnan(teacher_forced_accuracy(small_model(seed=31), held_out_set(70)))
        assert sizes == [model.INFER_CHUNK] * 2


def memorization_fixture():
    stroke = np.array([[0.0, 0.0], [0.3, 0.9], [0.7, 0.1], [1.0, 1.0]])
    ink = RawInk(strokes=[stroke], id="m")
    arch = ArchConfig(enc_hidden=8, dec_hidden=10, embed_dim=6, att_dim=6,
                      cov_channels=3, cov_kernel=3, resample_spacing=0.1)
    config = TrainConfig(arch=arch, learning_rate=5e-3, batch_size=4,
                         max_epochs=250, patience=250)
    return ink, ["7", "+", "4"], config


class TestTrain:
    def test_memorizes_single_sample(self):
        ink, label, config = memorization_fixture()
        history = []
        params = train([(ink, label)], config, seed=0, on_epoch=history.append)
        assert history[-1]["loss"] < 0.01
        feats = extract_features(resample_and_normalize(ink, config.arch.resample_spacing))
        dec = greedy_decode(params, feats)
        assert [params.vocab.tokens[i] for i in dec.tokens] == label

    def test_deterministic_for_fixed_seed(self):
        ink, label, config = memorization_fixture()
        config = TrainConfig(arch=config.arch, learning_rate=5e-3, batch_size=4,
                             max_epochs=8, patience=8)
        a = train([(ink, label)], config, seed=1)
        b = train([(ink, label)], config, seed=1)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        ink, label, config = memorization_fixture()
        wild = TrainConfig(arch=config.arch, learning_rate=1e300, clip_norm=0.0,
                           batch_size=4, max_epochs=10, patience=10)
        with pytest.raises(TrainingError, match="diverged"):
            train([(ink, label)], wild, seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(VocabularyError):
            train([], TrainConfig(), seed=0)

    def test_missing_label_rejected(self):
        ink, label, config = memorization_fixture()
        for sample in ((ink, None), (None, label)):
            with pytest.raises(ModelError, match="ink and a label"):
                train([(ink, label), sample], config, seed=0)

    def test_internal_error_is_not_relabelled(self, monkeypatch):
        ink, label, config = memorization_fixture()

        def broken(params, batch):
            raise IndexError("internal bug")

        monkeypatch.setattr("gssf.seq2seq.training.loss_and_gradients", broken)
        with pytest.raises(IndexError, match="internal bug"):
            train([(ink, label)], config, seed=0)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("enc_layers", 2.5), ("max_decode_len", 2.5), ("dec_hidden", "6"),
        ("enc_pool", True), ("cov_kernel", None),
        ("resample_spacing", "x"), ("resample_spacing", math.inf),
        ("resample_spacing", math.nan), ("resample_spacing", 0.0),
        ("input_dim", FEATURE_DIM - 3), ("input_dim", FEATURE_DIM + 1),
    ])
    def test_arch_rejects(self, field, value):
        with pytest.raises(ModelError):
            dataclasses.replace(SMALL, **{field: value}).validate()

    @pytest.mark.parametrize("field,value", [
        ("max_decode_len", 10 ** 12), ("enc_hidden", MAX_ARCH_SIZE + 1),
        ("enc_layers", MAX_ARCH_SIZE + 1), ("cov_kernel", 2 * MAX_ARCH_SIZE + 1),
    ])
    def test_arch_rejects_oversized(self, field, value):
        with pytest.raises(ModelError, match=str(MAX_ARCH_SIZE)):
            dataclasses.replace(SMALL, **{field: value}).validate()

    def test_param_count_cap(self, monkeypatch):
        with pytest.raises(ModelError, match="parameters"):
            param_shapes(dataclasses.replace(SMALL, enc_hidden=MAX_ARCH_SIZE), 20)
        count = sum(math.prod(s) for s in param_shapes(SMALL, 20).values())
        monkeypatch.setattr(model, "MAX_PARAMS", count)
        param_shapes(SMALL, 20)
        with pytest.raises(ModelError, match="parameters"):
            param_shapes(SMALL, 21)

    def test_arch_accepts_the_size_cap(self):
        dataclasses.replace(SMALL, max_decode_len=MAX_ARCH_SIZE, att_dim=MAX_ARCH_SIZE,
                            cov_kernel=MAX_ARCH_SIZE - 1).validate()

    def test_arch_accepts_numpy_integers(self):
        dataclasses.replace(SMALL, enc_layers=np.int64(2),
                            resample_spacing=np.float64(0.1)).validate()

    @pytest.mark.parametrize("field,value", [
        ("batch_size", -1), ("batch_size", 0), ("batch_size", 2.5), ("batch_size", True),
        ("max_epochs", -1), ("max_epochs", 3.0), ("patience", -1), ("patience", "5"),
        ("learning_rate", "x"), ("learning_rate", 0.0), ("learning_rate", math.nan),
        pytest.param("learning_rate", 10 ** 400, id="learning_rate-huge_int"),
        ("clip_norm", "a"), ("clip_norm", -1.0),
        ("clip_norm", math.inf), ("val_fraction", 1.5), ("val_fraction", -0.1),
        ("val_fraction", math.nan), ("val_fraction", None),
    ])
    def test_train_rejects(self, field, value):
        with pytest.raises(ModelError):
            TrainConfig(**{field: value}).validate()

    def test_train_validates_its_arch(self):
        with pytest.raises(ModelError, match="input_dim"):
            TrainConfig(arch=dataclasses.replace(SMALL, input_dim=5)).validate()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_valid_arch_runs(self, data):
        """A config either fails ``validate()`` or encodes, decodes and trains
        on the features the pipeline extracts from ink."""
        layers = data.draw(st.integers(1, 3), label="enc_layers")
        arch = dataclasses.replace(
            SMALL, enc_layers=layers,
            enc_pool=data.draw(st.integers(0, layers), label="enc_pool"),
            cov_kernel=data.draw(st.sampled_from([1, 3, 5]), label="cov_kernel"),
            input_dim=data.draw(st.sampled_from([5, 8, 9]), label="input_dim"),
            max_decode_len=4)
        try:
            arch.validate()
        except ModelError:
            return
        params = init_params(arch, build_vocabulary([["a", "b"]]), seed=0)
        ink = RawInk(strokes=[np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]]),
                              np.array([[0.5, 1.0], [1.5, 1.0]])])
        feats = [extract_features(resample_and_normalize(ink, 0.2)), random_feats(3)]
        encode_and_decode(params, feats)
        loss_and_gradients(params, [(f, [2, 3]) for f in feats])

    def test_train_accepts_boundaries(self):
        TrainConfig().validate()
        TrainConfig(learning_rate=1e300, clip_norm=0, batch_size=np.int64(1), max_epochs=0,
                    patience=0, val_fraction=1).validate()
        TrainConfig(val_fraction=0.0).validate()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = small_model(seed=31)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.vocab.tokens == params.vocab.tokens
        assert loaded.arch == params.arch
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
        assert checkpoint_bytes(loaded) == path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        params = small_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        params = small_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_integer_config_size_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(with_config_field(checkpoint_bytes(small_model()), "dec_hidden",
                                           SMALL.dec_hidden, "6"))
        with pytest.raises(CheckpointError, match="bad config block"):
            load_checkpoint(path)

    def test_oversized_config_size_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(with_config_field(checkpoint_bytes(small_model()), "max_decode_len",
                                           SMALL.max_decode_len, 10 ** 12))
        with pytest.raises(CheckpointError, match="bad config block"):
            load_checkpoint(path)

    def test_other_input_dim_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(with_config_field(checkpoint_bytes(small_model()), "input_dim",
                                           FEATURE_DIM, 5))
        with pytest.raises(CheckpointError, match=r"bad config block \(input_dim"):
            load_checkpoint(path)

    def test_oversized_param_count_raises_checkpoint_error(self, tmp_path):
        """Every size within MAX_ARCH_SIZE, but 405M parameters: rejected before
        any tensor is read."""
        path = tmp_path / "model.ckpt"
        path.write_bytes(with_config_field(checkpoint_bytes(small_model()), "enc_hidden",
                                           SMALL.enc_hidden, 4096))
        with pytest.raises(CheckpointError, match="parameters"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", ["nan", "renamed", "dims_swapped", "duplicate",
                                         "rank_past_numpy_limit"])
    def test_tensor_block_checked_against_the_config(self, tmp_path, corrupt):
        """A well-formed tensor block that the config block does not shape,
        that holds a NaN or that repeats a tensor (the copy would otherwise
        replace the first silently) raises ``CheckpointError`` and nothing else.
        So does a rank of 65: the dims then read a zero bias, so no data is
        missing, and numpy refuses more than 64 dimensions."""
        params = small_model()
        data = bytearray(checkpoint_bytes(params))
        at = data.index(struct.pack("<I", 6) + b"dec_wh") + 4  # (dec_hidden, 3 dec_hidden)
        if corrupt == "nan":
            struct.pack_into("<d", data, at + 6 + 4 + 16, math.nan)
        elif corrupt == "renamed":
            data[at:at + 6] = b"dec_wz"
        elif corrupt == "duplicate":
            data = with_duplicate_record(bytes(data))
        elif corrupt == "rank_past_numpy_limit":
            rank_at = data.index(struct.pack("<I", 10) + b"enc0_fwd_b") + 14
            assert struct.unpack_from("<IQ", data, rank_at) == (1, 3 * SMALL.enc_hidden)
            struct.pack_into("<I", data, rank_at, 65)
        else:
            assert struct.unpack_from("<2Q", data, at + 10) == params.tensors["dec_wh"].shape
            struct.pack_into("<2Q", data, at + 10, 3 * SMALL.dec_hidden, SMALL.dec_hidden)
        path = tmp_path / "model.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_deeply_nested_config_raises_checkpoint_error(self, tmp_path):
        """json.loads raises RecursionError, not ValueError, on deep nesting."""
        data = checkpoint_bytes(small_model())
        cfg = json.dumps(dataclasses.asdict(SMALL), sort_keys=True).encode()
        bad = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "model.ckpt"
        path.write_bytes(data.replace(struct.pack("<I", len(cfg)) + cfg,
                                      struct.pack("<I", len(bad)) + bad))
        start = time.perf_counter()
        with pytest.raises(CheckpointError, match="bad config block"):
            load_checkpoint(path)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("corrupt", ["token_0xff", "emb_2**62x4", "emb_2**63x2"])
    def test_corruption_raises_checkpoint_error(self, tmp_path, corrupt):
        data = bytearray(checkpoint_bytes(small_model()))
        if corrupt == "token_0xff":
            data[16] = 0xFF  # first byte of the first token, after magic, version, count, length
        else:
            dims = (2 ** 62, 4) if corrupt == "emb_2**62x4" else (2 ** 63, 2)
            name = data.index(struct.pack("<I", 3) + b"emb") + 4
            assert struct.unpack_from("<I", data, name + 3)[0] == 2  # rank
            struct.pack_into("<2Q", data, name + 7, *dims)
        path = tmp_path / "model.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_truncated_or_bit_flipped_loads_or_raises_checkpoint_error(self, tmp_path, data):
        """The loader reads only its own format: a cut or a flipped bit either
        still loads or raises ``CheckpointError``, never anything else. Half the
        flips land in the first KiB, where the vocabulary, config and first
        tensor headers live."""
        blob = bytearray(checkpoint_bytes(small_model()))
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bits = 8 * len(blob)
            bit = data.draw(st.integers(0, 8 * 1024 - 1) | st.integers(0, bits - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path / "model.ckpt"
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
