import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlm.model import (CrossModalModel, MaskedBatch, Masks, ModelConfig,
                            load_checkpoint, mask_stream, mask_tokens,
                            masked_ce_stats, masked_lm_loss,
                            masked_region_loss, save_checkpoint)
from groundlm.optim import Adam
from groundlm.tensor import ShapeError, Tensor, take_rows
from groundlm.train import evaluate_perplexity
from groundlm.vocab import MASKED_ID, N_RESERVED, PAD_ID, RESERVED, Vocab

from conftest import central_diff, max_rel_err, rel_err, tiny_model, tiny_vocab


def rewrite_config(path, **changes):
    """Patch keys of a GLMC file's config JSON in place, keeping the parameters."""
    blob = path.read_bytes()
    (config_len,) = struct.unpack("<I", blob[8:12])
    config = json.loads(blob[12:12 + config_len])
    config.update(changes)
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + config_len:])


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

    def test_matches_row_by_row_redraw_reference(self):
        def reference(ids, rate, rng, vocab_size):
            # visits every row, as mask_tokens did before it skipped rows
            # that need no redraw; the draws must come out identical
            maskable = ids >= N_RESERVED
            flags = (rng.random(ids.shape) < rate) & maskable
            for b in range(ids.shape[0]):
                if maskable[b].any():
                    while not flags[b].any():
                        flags[b] = (rng.random(ids.shape[1]) < rate) & maskable[b]
            corrupted = ids.copy()
            roll = rng.random(ids.shape)
            use_mask = flags & (roll < 0.8)
            use_random = flags & (roll >= 0.8) & (roll < 0.9)
            corrupted[use_mask] = MASKED_ID
            n_rand = int(use_random.sum())
            if n_rand:
                corrupted[use_random] = rng.integers(N_RESERVED, vocab_size, size=n_rand)
            return corrupted, flags

        for seed in range(240):
            rng = np.random.default_rng(seed)
            ids = token_rows(rng, int(rng.integers(1, 12)), int(rng.integers(1, 9)), 30)
            ids[rng.random(ids.shape) < 0.3] = PAD_ID
            ids[rng.random(ids.shape[0]) < 0.2] = PAD_ID    # all-pad rows
            ids[rng.random(ids.shape[0]) < 0.1, :] = 1      # rows with no maskable token
            rate = float(rng.choice([0.05, 0.15, 0.5]))
            got = mask_tokens(ids, rate, np.random.default_rng([seed, 1]), 30)
            want = reference(ids, rate, np.random.default_rng([seed, 1]), 30)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), seed


class TestMaskStream:
    """A stream's masks come from one ``mask_tokens`` call over all its rows
    and one region draw per slot, each on its own generator."""

    def test_text_masks_are_one_mask_tokens_call(self, rng):
        cfg = tiny_model().config
        ids = token_rows(rng, 9, 6, cfg.vocab_size)
        ids[::2, 4:] = PAD_ID
        masks = mask_stream(ids, cfg, np.random.default_rng([3, 7]), None)
        want = mask_tokens(ids, cfg.mask_rate, np.random.default_rng([3, 7]), cfg.vocab_size)
        assert np.array_equal(masks.tokens, want[0]) and np.array_equal(masks.token_flags, want[1])
        assert masks.region_flags is None
        assert not masks.token_flags[ids == PAD_ID].any()   # so a batch may trim pad columns

    def test_without_text_generator_text_stays_whole(self, rng):
        cfg = tiny_model().config
        ids = token_rows(rng, 4, 6, cfg.vocab_size)
        masks = mask_stream(ids, cfg, None, np.random.default_rng(1), n_slots=3)
        assert np.array_equal(masks.tokens, ids) and not masks.token_flags.any()
        assert masks.region_flags.shape == (4, 3)

    def test_region_flags_one_draw_per_slot_in_row_order(self, rng):
        cfg = ModelConfig(vocab_size=11, d=8, d_v=4, mask_rate=0.5)
        ids = token_rows(rng, 40, 5, 11)
        masks = mask_stream(ids, cfg, np.random.default_rng(2), np.random.default_rng(7), 3)
        want = np.random.default_rng(7).random((40, 3)) < 0.5
        assert np.array_equal(masks.region_flags, want)
        assert 0 < masks.region_flags.mean() < 1

    def test_seed_determinism(self, rng):
        cfg = tiny_model().config
        ids = token_rows(rng, 6, 5, cfg.vocab_size)
        a, b = (mask_stream(ids, cfg, np.random.default_rng(4), np.random.default_rng(5), 2)
                for _ in range(2))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rows_take_the_same_rows_of_every_mask(self, rng):
        cfg = tiny_model().config
        masks = mask_stream(token_rows(rng, 8, 5, cfg.vocab_size), cfg,
                            np.random.default_rng(4), np.random.default_rng(5), 2)
        picks = np.array([5, 0, 3])
        part = masks.rows(picks)
        assert all(np.array_equal(got, whole[picks]) for got, whole in zip(part, masks))
        assert Masks().rows(picks) == Masks()


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
        assert logits.shape == (batch.token_mask_flags.sum(), 11)
        assert region_preds.shape == (0, 4)   # a placeholder batch flags no region slot
        assert cls_vec.shape == (3, 8)

    def test_rank_swap_changes_visual_inputs(self, rng):
        """Swapping two images' regions swaps their ranks too; were ranks ignored,
        the joint attention would give the same predictions in swapped order."""
        model = tiny_model(k_max=2)
        b, t = 1, 4
        batch = placeholder_batch(rng, model, b, t)
        regions = rng.normal(size=(b, 2, model.config.d_v)).astype(np.float32)
        batch.region_mask_flags = np.ones((b, 2), dtype=bool)
        batch.regions = batch.original_regions = regions
        out_a = model.forward(batch)[1].data.copy()
        batch.regions = batch.original_regions = regions[:, ::-1]
        out_b = model.forward(batch)[1].data
        assert not np.allclose(out_a, out_b[::-1])

    def test_visual_slots_follow_the_slot_layout(self, rng):
        """Image j fills slots 2j and 2j+1 at n_regions 2: slot s shows its projected
        regions plus rank embedding s // 2, and is valid iff it holds an image. A row
        with no image slot shows the placeholder in slot 0, its one valid slot."""
        model = tiny_model(k_max=3, n_regions=2)
        p = {name: param.data for name, param in model.params.items()}
        batch = placeholder_batch(rng, model, b=2, t=4)
        batch.regions = rng.normal(size=(2, 6, 4)).astype(np.float32)
        batch.image_slots = np.array([[True] * 4 + [False] * 2, [False] * 6])
        vis, valid = model._visual_slots(batch)
        want = (batch.regions @ p["region_projection.W"] + p["region_projection.b"]
                + p["rank_embeddings"][np.arange(6) // 2])
        np.testing.assert_allclose(vis.data[0, :4], want[0, :4], rtol=1e-6, atol=1e-7)
        np.testing.assert_array_equal(vis.data[1, 0], p["placeholder"])
        np.testing.assert_array_equal(valid, [[True] * 4 + [False] * 2,
                                              [True] + [False] * 5])
        batch.regions, batch.image_slots = np.zeros((2, 8, 4), dtype=np.float32), None
        with pytest.raises(ShapeError):   # slots 6 and 7 would take rank 3 of k_max 3
            model._visual_slots(batch)

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
        expected = (normed[:, :4][batch.token_mask_flags] @ model.params["lm_head.W"].data
                    + model.params["lm_head.b"].data)
        np.testing.assert_allclose(logits.data, expected, atol=1e-5)

    def test_batch_padding_matches_single_example(self, rng):
        model = tiny_model()
        ids_a = token_rows(rng, 1, 5, 11)
        ids_b = token_rows(rng, 1, 3, 11)
        padded = np.zeros((2, 5), dtype=np.int64)
        padded[0] = ids_a
        padded[1, :3] = ids_b
        flags = np.zeros((2, 5), dtype=bool)
        flags[0, 1] = flags[1, :3] = True

        joint = MaskedBatch(token_ids=padded, token_mask_flags=flags,
                            original_tokens=padded.copy())
        solo = MaskedBatch(token_ids=ids_b, token_mask_flags=flags[1:, :3],
                           original_tokens=ids_b.copy())
        out_joint = model.forward(joint)[0].data[1:]   # the rows of example b
        out_solo = model.forward(solo)[0].data
        np.testing.assert_allclose(out_joint, out_solo, atol=1e-4)


HEAD_SETS = [(), ("lm",), ("region",), ("lm", "region")]


@pytest.fixture(scope="module")
def head_models():
    """d = 64 is the acceptance and benchmark shape; d = 128 is the CLI
    default, whose 32-wide heads make BLAS round an 8-row score product
    unlike the same rows of a 24-row one. Keyed by (d, dtype)."""
    return {(d, dtype): tiny_model(vocab_size=40, d=d, d_v=16, n_heads=4, n_layers_cross=2,
                                   max_len=8, k_max=16, seed=3, dtype=dtype)
            for d in (64, 128) for dtype in (np.float32, np.float64)}


def random_batch(rng, model, b, width, kind):
    """``b`` rows of 1..``width`` tokens with [pad] after each row's end.
    kind: placeholder (no regions), paired (one slot) or object (16 slots);
    with regions, some slots are invalid and empty rows use the placeholder."""
    cfg = model.config
    lengths = rng.integers(1, width + 1, size=b)
    lengths[0] = width
    ids = token_rows(rng, b, width, cfg.vocab_size)
    ids[np.arange(width) >= lengths[:, None]] = PAD_ID
    flags = (ids != PAD_ID) & (rng.random(ids.shape) < 0.4)
    flags[0, 0] = True
    batch = MaskedBatch(ids, flags, ids.copy())
    if kind == "placeholder":
        return batch
    r = 1 if kind == "paired" else 16
    valid = rng.random((b, r)) < 0.7
    empty = ~valid.any(axis=1) | (rng.random(b) < 0.2)
    valid[empty] = False
    batch.regions = rng.normal(size=(b, r, cfg.d_v)).astype(np.float32)
    batch.original_regions = rng.normal(size=(b, r, cfg.d_v)).astype(np.float32)
    batch.region_mask_flags = valid & (rng.random((b, r)) < 0.5)
    batch.image_slots = valid
    return batch


def forward_and_grads(model, batch, heads, outputs_read, u):
    """Outputs of a forward with ``heads``, and the parameter gradients of a
    loss over the ``outputs_read`` among them and the [cls] vector."""
    batch.heads = heads
    logits, preds, cls_vec = model.forward(batch)
    loss = (cls_vec * Tensor(u)).sum()
    if "lm" in outputs_read:
        loss = loss + masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags)
    if "region" in outputs_read:
        loss = loss + masked_region_loss(preds, batch.original_regions,
                                         batch.region_mask_flags, model)
    for p in model.params.values():
        p.grad = None
    loss.backward()
    return (logits, preds, cls_vec), {n: p.grad for n, p in model.params.items()}


class TestHeads:
    # max-abs error over max-abs value, of each output read and each gradient
    TOL = {np.float32: 1e-5, np.float64: 1e-12}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([64, 128]), b=st.integers(1, 6), width=st.integers(1, 8),
           kind=st.sampled_from(["placeholder", "paired", "object"]),
           seed=st.integers(0, 2**16))
    def test_every_head_set_reads_the_full_forward_to_rounding(self, head_models, dtype, d, b,
                                                               width, kind, seed):
        """Whatever ``batch.heads`` leaves out, the outputs read and the
        gradients of a loss over them agree to rounding with those of a forward
        of both heads whose last cross block computes every row and then gathers
        the rows read. Row 0's [cls] is flagged, so it is gathered twice. A head
        not read is None, and so is the gradient of every parameter the full
        loss leaves alone."""
        model = head_models[d, dtype]
        tol = self.TOL[dtype]
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, model, b, width, kind)
        u = rng.normal(size=(b, d)).astype(np.float32)
        block = model._encoder_block

        def full_then_gather(prefix, x, bias, rows=None, picks=None):
            out = block(prefix, x, bias)
            return out if picks is None else take_rows(out, picks)

        for heads in HEAD_SETS:
            model._encoder_block = full_then_gather
            try:
                full, full_grads = forward_and_grads(model, batch, ("lm", "region"), heads, u)
            finally:
                del model._encoder_block
            got, grads = forward_and_grads(model, batch, heads, heads, u)
            for name, want, out in zip(("lm", "region", "cls"), full, got):
                if name in heads or name == "cls":
                    assert out.shape == want.shape, (heads, name)
                    assert max_rel_err(out.data, want.data) < tol, (heads, name)
                else:
                    assert out is None, (heads, name)
            for name, want in full_grads.items():
                if want is None:
                    assert grads[name] is None, (heads, name)
                else:
                    assert max_rel_err(grads[name], want) < tol, (heads, name)

    @pytest.mark.parametrize("kind", ["placeholder", "paired", "object"])
    def test_last_cross_block_computes_only_the_rows_read(self, head_models, kind):
        """The last cross block's FFN sees one row per example ([cls]), one per
        flagged text position if "lm" is read and one per flagged region slot if
        "region" is; the heads give exactly those rows."""
        model = head_models[64, np.float32]
        cfg = model.config
        batch = random_batch(np.random.default_rng(29), model, 6, 8, kind)
        b = batch.batch_size
        n_text = int(batch.token_mask_flags.sum())
        n_region = 0 if batch.region_mask_flags is None else int(batch.region_mask_flags.sum())
        last = f"cross.{cfg.n_layers_cross - 1}.mlp.fc1"
        fc1_rows = []
        linear = model._linear

        def recorded(prefix, x):
            if prefix == last:
                fc1_rows.append(x.data.reshape(-1, x.shape[-1]).shape[0])
            return linear(prefix, x)
        model._linear = recorded
        try:
            for heads in HEAD_SETS:
                batch.heads = heads
                logits, preds, cls_vec = model.forward(batch)
                lm, region = "lm" in heads, "region" in heads
                assert fc1_rows[-1] == b + n_text * lm + n_region * region, heads
                assert cls_vec.shape == (b, cfg.d)
                if lm:
                    assert logits.shape == (n_text, cfg.vocab_size), heads
                if region:
                    assert preds.shape == (n_region, cfg.d_v), heads
        finally:
            del model._linear

    def test_lm_only_forward_matches_finite_differences(self):
        """The restricted last cross block against calculus: float64, the LM
        head only, 16 region slots whose keys and values the text rows read."""
        model = tiny_model(vocab_size=12, d=8, d_v=4, n_heads=2, max_len=6, k_max=16,
                           seed=5, dtype=np.float64)
        rng = np.random.default_rng(11)
        batch = random_batch(rng, model, 2, 5, "object")
        batch.heads = ("lm",)
        u = rng.normal(size=(2, 8))

        def loss():
            logits, preds, cls_vec = model.forward(batch)
            assert preds is None
            return (masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags)
                    + (cls_vec * Tensor(u)).sum())

        loss().backward()
        checked = 0
        for name, p in model.params.items():
            if p.grad is None:
                assert name.startswith("region_head"), name
                continue
            fd = central_diff(lambda: loss().data.item(), p.data)
            assert rel_err(p.grad, fd) < 1e-5, name
            checked += 1
        assert checked == len(model.params) - 2


class TestLosses:
    """The losses take ``forward``'s rows at the flagged positions."""

    def test_uniform_logits_give_log_vocab(self):
        v = 7
        logits = Tensor(np.zeros((6, v)), requires_grad=True)
        targets = np.ones((2, 3), dtype=np.int64)
        flags = np.ones((2, 3), dtype=bool)
        loss = masked_lm_loss(logits, targets, flags)
        np.testing.assert_allclose(loss.data, np.log(v), rtol=1e-6)

    def test_confident_correct_logits_near_zero(self):
        logits_arr = np.full((2, 5), -50.0)
        logits_arr[:, 3] = 50.0
        loss = masked_lm_loss(Tensor(logits_arr, requires_grad=True),
                              np.full((1, 2), 3, dtype=np.int64),
                              np.ones((1, 2), dtype=bool))
        assert loss.data < 1e-6

    def test_hand_computed_two_token_cross_entropy(self):
        logits_arr = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 1.0]])
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
        preds = Tensor(np.zeros((1, 2)), requires_grad=True)
        target = np.array([[[1.0, 0.0]]])
        flags = np.array([[True]])
        loss = masked_region_loss(preds, target, flags, model)
        np.testing.assert_allclose(loss.data, 0.5, rtol=1e-6)

    def test_region_l1_closed_form(self):
        model = tiny_model(l1_coeff=0.1)
        d, d_v = model.config.d, model.config.d_v
        model.params["region_head.W"].data[:] = 1.0
        preds = Tensor(np.zeros((1, d_v)), requires_grad=True)
        target = np.zeros((1, 1, d_v))
        flags = np.array([[True]])
        loss = masked_region_loss(preds, target, flags, model)
        np.testing.assert_allclose(loss.data, 0.1 * d * d_v, rtol=1e-6)

    def test_perfect_prediction_zero_weights_zero_loss(self):
        model = tiny_model(l1_coeff=0.1)
        model.params["region_head.W"].data[:] = 0.0
        target = np.ones((1, 1, model.config.d_v))
        loss = masked_region_loss(Tensor(target[:, 0].copy(), requires_grad=True),
                                  target, np.array([[True]]), model)
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_no_masked_region_contributes_zero(self):
        model = tiny_model()
        loss = masked_region_loss(Tensor(np.ones((0, 4)), requires_grad=True),
                                  np.ones((1, 1, 4)), np.array([[False]]), model)
        assert loss.data == 0.0
        assert loss._parents == ()

    def test_unmasked_logit_perturbation_leaves_loss_unchanged(self, rng):
        """Only the flagged positions are read: the logits and the targets of
        the others may change freely."""
        logits_arr = rng.normal(size=(2, 4, 6))
        targets = rng.integers(0, 6, size=(2, 4))
        flags = np.zeros((2, 4), dtype=bool)
        flags[:, 1] = True
        base = masked_lm_loss(Tensor(logits_arr[flags].copy(), requires_grad=True),
                              targets, flags)
        perturbed = logits_arr.copy()
        perturbed[:, 0] += 100.0
        perturbed[:, 2:] -= 37.0
        moved = targets.copy()
        moved[~flags] = (moved[~flags] + 1) % 6
        after = masked_lm_loss(Tensor(perturbed[flags], requires_grad=True), moved, flags)
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

    def test_config_needing_more_bytes_than_the_file_rejected(self, tmp_path):
        path = tmp_path / "m.glmc"
        model = tiny_model()
        save_checkpoint(model, path)
        rewrite_config(path, vocab_size=10**15)
        # token embeddings, LM head weight and LM head bias grow with the vocabulary
        grown = (10**15 - model.config.vocab_size) * (2 * model.config.d + 1)
        need = 4 * (sum(p.data.size for p in model.params.values()) + grown)
        with pytest.raises(ValueError, match=f"needs {need} bytes of parameters") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key, value, needle", [
        ("bogus_key", 1, "bogus_key"),
        ("n_heads", 0, "must be >= 1, got 8, 4 and 0"),
        ("d", -8, "must be >= 1, got -8, 4 and 2"),
        ("d_v", -4, "must be >= 1, got 8, -4 and 2"),
    ], ids=["bogus_key", "n_heads", "d", "d_v"])
    def test_config_value_out_of_range_names_file(self, tmp_path, key, value, needle):
        path = tmp_path / "m.glmc"
        save_checkpoint(tiny_model(), path)
        rewrite_config(path, **{key: value})
        with pytest.raises(ValueError, match="does not fit ModelConfig") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and needle in str(err.value)

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
