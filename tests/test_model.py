import numpy as np
import pytest

from groundlm.model import (CrossModalModel, MaskedBatch, ModelConfig,
                            load_checkpoint, mask_regions, mask_tokens,
                            masked_ce_stats, masked_lm_loss,
                            masked_region_loss, save_checkpoint)
from groundlm.optim import Adam
from groundlm.tensor import Tensor
from groundlm.train import evaluate_perplexity
from groundlm.vocab import MASKED_ID, N_RESERVED, RESERVED, Vocab

from conftest import tiny_model, tiny_vocab


def token_rows(rng, b, t, vocab_size):
    return rng.integers(N_RESERVED, vocab_size, size=(b, t)).astype(np.int64)


class TestMaskTokens:
    def test_rate_near_one_selects_every_maskable(self, rng):
        ids = token_rows(rng, 32, 16, 30)
        corrupted, flags = mask_tokens(ids, 0.999999, rng, 30)
        assert flags.all()
        share_masked = (corrupted[flags] == MASKED_ID).mean()
        assert 0.7 < share_masked < 0.9

    def test_reserved_positions_never_flagged(self, rng):
        ids = token_rows(rng, 4, 8, 30)
        ids[:, 0] = 1  # [cls]
        ids[:, -1] = 0  # [pad]
        _corrupted, flags = mask_tokens(ids, 0.5, rng, 30)
        assert not flags[:, 0].any()
        assert not flags[:, -1].any()

    def test_at_least_one_flag_per_row(self, rng):
        ids = token_rows(rng, 64, 6, 30)
        _c, flags = mask_tokens(ids, 0.05, rng, 30)
        assert flags.any(axis=1).all()

    def test_flag_set_exactly_where_substituted_or_kept(self, rng):
        ids = token_rows(rng, 8, 12, 30)
        corrupted, flags = mask_tokens(ids, 0.3, rng, 30)
        assert (corrupted[~flags] == ids[~flags]).all()
        changed = corrupted != ids
        assert (~changed | flags).all()

    def test_random_substitutes_stay_in_real_vocab(self, rng):
        ids = token_rows(rng, 64, 10, 30)
        corrupted, flags = mask_tokens(ids, 0.9, rng, 30)
        subs = corrupted[flags]
        subs = subs[subs != MASKED_ID]
        assert (subs >= N_RESERVED).all() and (subs < 30).all()

    def test_seed_determinism(self):
        ids = token_rows(np.random.default_rng(0), 4, 8, 30)
        c1, f1 = mask_tokens(ids, 0.15, np.random.default_rng(42), 30)
        c2, f2 = mask_tokens(ids, 0.15, np.random.default_rng(42), 30)
        assert np.array_equal(c1, c2) and np.array_equal(f1, f2)


class TestMaskRegions:
    def test_rate_zero_no_flags(self, rng):
        regions = rng.normal(size=(2, 3, 4)).astype(np.float32)
        out, flags = mask_regions(regions, 0.0, rng)
        assert not flags.any()
        np.testing.assert_array_equal(out, regions)

    def test_forced_selection_zeroes_input_keeps_target(self, rng):
        regions = rng.normal(size=(1, 1, 4)).astype(np.float32)
        original = regions.copy()
        out, flags = mask_regions(regions, 0.999999, rng)
        assert flags.all()
        np.testing.assert_array_equal(out[flags], 0.0)
        np.testing.assert_array_equal(regions, original)

    def test_seed_determinism(self, rng):
        regions = rng.normal(size=(3, 5, 2)).astype(np.float32)
        o1, f1 = mask_regions(regions, 0.5, np.random.default_rng(7))
        o2, f2 = mask_regions(regions, 0.5, np.random.default_rng(7))
        assert np.array_equal(o1, o2) and np.array_equal(f1, f2)


def placeholder_batch(rng, model, b=2, t=5):
    ids = token_rows(rng, b, t, model.config.vocab_size)
    corrupted, flags = mask_tokens(ids, 0.3, rng, model.config.vocab_size)
    return MaskedBatch(token_ids=corrupted, token_mask_flags=flags, original_tokens=ids)


def paired_batch(rng, model, b=2, t=5, mask_regions_too=False):
    cfg = model.config
    batch = placeholder_batch(rng, model, b, t)
    n_slots = cfg.n_regions
    regions = rng.normal(size=(b, n_slots, cfg.d_v)).astype(np.float32)
    batch.regions = regions.copy()
    batch.original_regions = regions.copy()
    batch.rank_ids = np.zeros((b, n_slots), dtype=np.int64)
    batch.placeholder_slots = np.zeros((b, n_slots), dtype=bool)
    if mask_regions_too:
        flags = np.zeros((b, n_slots), dtype=bool)
        flags[:, 0] = True
        batch.regions[flags] = 0.0
        batch.region_mask_flags = flags
    else:
        batch.region_mask_flags = np.zeros((b, n_slots), dtype=bool)
    return batch


class TestForward:
    def test_placeholder_shapes(self, rng):
        model = tiny_model()
        batch = placeholder_batch(rng, model, b=3, t=5)
        logits, region_preds, cls_vec = model.forward(batch)
        assert logits.shape == (3, 5, 11)
        assert region_preds.shape == (3, 1, 4)
        assert cls_vec.shape == (3, 8)

    def test_rank_swap_changes_visual_inputs(self, rng):
        model = tiny_model(k_max=2)
        b, t = 1, 4
        batch = placeholder_batch(rng, model, b, t)
        regions = rng.normal(size=(b, 2, model.config.d_v)).astype(np.float32)
        base = dict(regions=regions, original_regions=regions.copy(),
                    placeholder_slots=np.zeros((b, 2), dtype=bool),
                    region_mask_flags=np.zeros((b, 2), dtype=bool))
        batch.rank_ids = np.array([[0, 1]])
        for k, v in base.items():
            setattr(batch, k, v)
        out_a = model.forward(batch)[1].data.copy()
        batch.rank_ids = np.array([[1, 0]])
        out_b = model.forward(batch)[1].data
        assert not np.allclose(out_a, out_b)

    def test_zero_layer_model_is_embedding_lookup(self, rng):
        model = tiny_model(n_layers_text=0, n_layers_cross=0)
        batch = placeholder_batch(rng, model, b=2, t=4)
        logits, _preds, _cls = model.forward(batch)

        emb = model.params["token_embeddings"].data[batch.token_ids]
        pos = model.params["position_embeddings"].data[:4]
        ph = model.params["placeholder"].data
        joint = np.concatenate([emb + pos, np.broadcast_to(ph, (2, 1, ph.shape[-1]))], axis=1)
        mu = joint.mean(axis=-1, keepdims=True)
        var = joint.var(axis=-1, keepdims=True)
        normed = (joint - mu) / np.sqrt(var + 1e-5)
        normed = normed * model.params["final_ln.g"].data + model.params["final_ln.b"].data
        expected = normed[:, :4] @ model.params["lm_head.W"].data + model.params["lm_head.b"].data
        np.testing.assert_allclose(logits.data, expected, atol=1e-5)

    def test_batch_padding_matches_single_example(self, rng):
        model = tiny_model()
        ids_a = token_rows(rng, 1, 5, 11)
        ids_b = token_rows(rng, 1, 3, 11)
        padded = np.zeros((2, 5), dtype=np.int64)
        padded[0] = ids_a
        padded[1, :3] = ids_b
        flags = np.zeros((2, 5), dtype=bool)
        flags[:, 1] = True
        pad_valid = padded != 0

        joint = MaskedBatch(token_ids=padded, token_mask_flags=flags,
                            original_tokens=padded.copy(),
                            attention_pad_mask=np.concatenate(
                                [pad_valid, np.ones((2, 1), dtype=bool)], axis=1))
        solo = MaskedBatch(token_ids=ids_b, token_mask_flags=flags[1:, :3],
                           original_tokens=ids_b.copy())
        out_joint = model.forward(joint)[0].data[1, :3]
        out_solo = model.forward(solo)[0].data[0]
        np.testing.assert_allclose(out_joint, out_solo, atol=1e-4)


class TestLosses:
    def test_uniform_logits_give_log_vocab(self):
        v = 7
        logits = Tensor(np.zeros((2, 3, v)), requires_grad=True)
        targets = np.ones((2, 3), dtype=np.int64)
        flags = np.ones((2, 3), dtype=bool)
        loss = masked_lm_loss(logits, targets, flags)
        np.testing.assert_allclose(loss.data, np.log(v), rtol=1e-6)

    def test_confident_correct_logits_near_zero(self):
        logits_arr = np.full((1, 2, 5), -50.0)
        logits_arr[0, :, 3] = 50.0
        loss = masked_lm_loss(Tensor(logits_arr, requires_grad=True),
                              np.full((1, 2), 3, dtype=np.int64),
                              np.ones((1, 2), dtype=bool))
        assert loss.data < 1e-6

    def test_hand_computed_two_token_cross_entropy(self):
        logits_arr = np.array([[[1.0, 2.0, 0.5], [0.0, 0.0, 1.0]]])
        targets = np.array([[1, 2]])
        flags = np.array([[True, True]])
        loss = masked_lm_loss(Tensor(logits_arr, requires_grad=True), targets, flags)
        expected = np.mean([
            -np.log(np.exp(2.0) / np.exp([1.0, 2.0, 0.5]).sum()),
            -np.log(np.exp(1.0) / np.exp([0.0, 0.0, 1.0]).sum()),
        ])
        np.testing.assert_allclose(loss.data, expected, rtol=1e-6)

    def test_region_loss_hand_case(self):
        # r=[1,0] predicted as [0,0] with p=2: (1+0)/(1*2) = 0.5
        model = tiny_model(d_v=2, l1_coeff=0.0)
        model.params["region_head.W"].data[:] = 0.0
        preds = Tensor(np.zeros((1, 1, 2)), requires_grad=True)
        target = np.array([[[1.0, 0.0]]])
        flags = np.array([[True]])
        loss = masked_region_loss(preds, target, flags, model)
        np.testing.assert_allclose(loss.data, 0.5, rtol=1e-6)

    def test_region_l1_closed_form(self):
        model = tiny_model(l1_coeff=0.1)
        d, d_v = model.config.d, model.config.d_v
        model.params["region_head.W"].data[:] = 1.0
        preds = Tensor(np.zeros((1, 1, d_v)), requires_grad=True)
        target = np.zeros((1, 1, d_v))
        flags = np.array([[True]])
        loss = masked_region_loss(preds, target, flags, model)
        np.testing.assert_allclose(loss.data, 0.1 * d * d_v, rtol=1e-6)

    def test_perfect_prediction_zero_weights_zero_loss(self):
        model = tiny_model(l1_coeff=0.1)
        model.params["region_head.W"].data[:] = 0.0
        target = np.ones((1, 1, model.config.d_v))
        loss = masked_region_loss(Tensor(target.copy(), requires_grad=True),
                                  target, np.array([[True]]), model)
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_no_masked_region_contributes_zero(self):
        model = tiny_model()
        loss = masked_region_loss(Tensor(np.ones((1, 1, 4)), requires_grad=True),
                                  np.ones((1, 1, 4)), np.array([[False]]), model)
        assert loss.data == 0.0
        assert loss._parents == ()

    def test_unmasked_logit_perturbation_leaves_loss_unchanged(self, rng):
        logits_arr = rng.normal(size=(2, 4, 6))
        targets = rng.integers(0, 6, size=(2, 4))
        flags = np.zeros((2, 4), dtype=bool)
        flags[:, 1] = True
        base = masked_lm_loss(Tensor(logits_arr.copy(), requires_grad=True), targets, flags)
        perturbed = logits_arr.copy()
        perturbed[:, 0] += 100.0
        perturbed[:, 2:] -= 37.0
        after = masked_lm_loss(Tensor(perturbed, requires_grad=True), targets, flags)
        np.testing.assert_allclose(base.data, after.data, rtol=1e-12)


class TestPerplexity:
    def test_uniform_head_matches_vocab_size(self):
        words = [f"w{i:02d}" for i in range(95)]
        vocab = Vocab(list(RESERVED) + words)
        model = tiny_model(vocab_size=100, max_len=8)
        model.params["lm_head.W"].data[:] = 0.0
        model.params["lm_head.b"].data[:] = 0.0
        gen = np.random.default_rng(5)
        texts = [" ".join(gen.choice(words, size=7)) for _ in range(120)]
        ppl = evaluate_perplexity(model, texts, vocab, seed=5)
        assert 95.0 <= ppl <= 105.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_perplexity(tiny_model(), [], tiny_vocab(), seed=0)


class TestFreezeAndTraining:
    def test_frozen_text_encoder_bit_identical_after_steps(self, rng):
        model = tiny_model()
        model.set_text_encoder_frozen(True)
        before = {n: model.params[n].data.copy() for n in model.text_encoder_param_names()}
        opt = Adam(model.trainable_params(), lr=1e-2)
        for _ in range(3):
            batch = paired_batch(rng, model, mask_regions_too=True)
            logits, preds, _ = model.forward(batch)
            loss = masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags) + \
                masked_region_loss(preds, batch.original_regions,
                                   batch.region_mask_flags, model)
            opt.zero_grad()
            loss.backward()
            opt.step()
        for name, arr in before.items():
            assert np.array_equal(model.params[name].data, arr), name
        # and something else did move
        assert not np.array_equal(model.params["lm_head.W"].data,
                                  CrossModalModel(model.config, seed=0).params["lm_head.W"].data)

    def test_unfrozen_text_encoder_moves(self, rng):
        model = tiny_model()
        before = model.params["text.0.attn.qkv.W"].data.copy()
        opt = Adam(model.trainable_params(), lr=1e-2)
        batch = placeholder_batch(rng, model)
        logits, _preds, _ = model.forward(batch)
        loss = masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags)
        loss.backward()
        opt.step()
        assert not np.array_equal(model.params["text.0.attn.qkv.W"].data, before)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        model = tiny_model()
        model.set_text_encoder_frozen(True)
        path = tmp_path / "m.glmc"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config == model.config
        for name, p in model.params.items():
            assert np.array_equal(back.params[name].data, p.data), name
        assert not back.params["text.0.ln1.g"].requires_grad

    def test_rewrite_byte_identical(self, tmp_path):
        model = tiny_model()
        p1, p2 = tmp_path / "a.glmc", tmp_path / "b.glmc"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_and_version(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.glmc"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        good = bytes(blob)
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)
        blob = bytearray(good)
        blob[4] = 42
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="42"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.glmc"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match="unexpected end"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.glmc"
        save_checkpoint(tiny_model(), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ValueError, match=f"3 trailing byte.*offset {size}"):
            load_checkpoint(path)


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=11, d=10, n_heads=4)

    def test_mask_rate_range(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=11, mask_rate=0.0)

    def test_vocab_floor(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=5)

    def test_ce_stats_float64(self, rng):
        model = tiny_model()
        batch = placeholder_batch(rng, model)
        logits, _p, _c = model.forward(batch)
        total, count = masked_ce_stats(logits.data, batch.original_tokens,
                                       batch.token_mask_flags)
        assert count == int(batch.token_mask_flags.sum())
        assert isinstance(total, float) and np.isfinite(total)
