import numpy as np
import pytest

from groundlm.associate import AssociationCache, build_caption_index
from groundlm.embeddings import WordEmbeddingTable
from groundlm.index import ImageFeatureStore, write_feature_store
from groundlm.model import CrossModalModel, ModelConfig
from groundlm.train import (STRATEGIES, Corpora, Strategy, TrainConfig,
                            build_batch, evaluate_perplexity, mix_corpora,
                            pretrain, validate_strategy_corpora,
                            write_metrics_csv)
from groundlm.vocab import RESERVED, Vocab

WORDS = ["red", "dog", "cat", "sat", "mat", "hat", "sun", "sky"]

TABLE_ROWS = {  # visual mode, LM loss, region loss, example stream
    "NoGrounding": ("placeholder", True, False, "text"),
    "TransferredI2T": ("paired", True, False, "mixed"),
    "TransferredT2I": ("paired", False, True, "paired"),
    "TransferredBoth": ("paired", True, True, "mixed"),
    "AssociativeScene": ("scene", True, False, "text"),
    "AssociativeObject": ("object", True, False, "text"),
    "AssociativeKeyword": ("keyword", True, False, "text"),
}


def small_world(tmp_path, rng, n_pairs=24):
    vocab = Vocab(list(RESERVED) + WORDS)
    texts = [" ".join(rng.choice(WORDS, size=4)) for _ in range(30)]
    captions = {f"i{j:03d}": " ".join(rng.choice(WORDS, size=3)) for j in range(n_pairs)}
    feats = [(img, rng.normal(size=(1, 4)).astype(np.float32)) for img in captions]
    store_path = tmp_path / "f.vftr"
    write_feature_store(store_path, feats, n_regions=1, feat_dim=4)
    table = WordEmbeddingTable(
        6, {w: rng.normal(size=6).astype(np.float32) for w in WORDS}, frozenset())
    corpora = Corpora(vocab=vocab, text_only=texts, paired=list(captions.items()),
                      store=ImageFeatureStore(store_path),
                      caption_index=build_caption_index(captions, table),
                      table=table, caption_corpus=captions)
    return corpora


def small_model(vocab, **overrides):
    kw = dict(vocab_size=len(vocab), d=8, d_v=4, n_layers_text=1, n_layers_cross=1,
              n_heads=2, max_len=6, k_max=2, n_regions=1)
    kw.update(overrides)
    return CrossModalModel(ModelConfig(**kw), seed=0)


def quick_config(**overrides):
    kw = dict(batch_size=8, lr=1e-3, max_epochs=2, max_steps=12, seed=3,
              eval_every=6, patience=50, mix_ratio=0.5)
    kw.update(overrides)
    return TrainConfig(**kw)


class TestMixCorpora:
    def test_ratio_one_only_paired(self):
        stream = mix_corpora([("a", "x"), ("b", "y")], ["t1", "t2"], 1.0, seed=0)
        assert all(img is not None for img, _ in stream)

    def test_ratio_zero_only_text(self):
        stream = mix_corpora([("a", "x")], ["t1", "t2"], 0.0, seed=0)
        assert all(img is None for img, _ in stream)

    def test_half_ratio_binomial(self):
        paired = [(f"i{j}", "c") for j in range(5000)]
        texts = ["t"] * 5000
        stream = mix_corpora(paired, texts, 0.5, seed=1)
        share = np.mean([img is not None for img, _ in stream])
        assert abs(share - 0.5) < 0.02

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            mix_corpora([], ["t"], 0.5, seed=0)
        with pytest.raises(ValueError):
            mix_corpora([("a", "x")], [], 0.5, seed=0)

    def test_deterministic(self):
        paired = [(f"i{j}", "c") for j in range(50)]
        texts = ["t"] * 50
        assert mix_corpora(paired, texts, 0.3, seed=9) == \
            mix_corpora(paired, texts, 0.3, seed=9)


class TestValidation:
    def test_strategy_names_fixed(self):
        assert set(STRATEGIES) == {
            "NoGrounding", "TransferredI2T", "TransferredT2I", "TransferredBoth",
            "AssociativeScene", "AssociativeObject", "AssociativeKeyword"}

    def test_no_grounding_forces_k_zero(self):
        assert Strategy("NoGrounding", k=16).k == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Strategy("MadeUp")

    def test_missing_pieces_reported_per_strategy(self, tmp_path, rng):
        vocab = Vocab(list(RESERVED) + WORDS)
        bare = Corpora(vocab=vocab, text_only=["red dog"])
        with pytest.raises(ValueError, match="TransferredI2T"):
            validate_strategy_corpora(Strategy("TransferredI2T", k=1), bare)
        with pytest.raises(ValueError, match="AssociativeScene"):
            validate_strategy_corpora(Strategy("AssociativeScene", k=2), bare)
        with pytest.raises(ValueError, match="AssociativeObject"):
            validate_strategy_corpora(Strategy("AssociativeObject", k=2), bare)
        with pytest.raises(ValueError, match="AssociativeKeyword"):
            validate_strategy_corpora(Strategy("AssociativeKeyword", k=2), bare)
        with pytest.raises(ValueError, match="NoGrounding"):
            validate_strategy_corpora(Strategy("NoGrounding"), Corpora(vocab=vocab))

    @pytest.mark.parametrize("name", list(TABLE_ROWS))
    def test_visual_modes(self, name):
        spec = Strategy(name, k=1).spec
        assert (spec.mode, spec.lm_loss, spec.region_loss, spec.stream) == TABLE_ROWS[name]


class TestPretrain:
    def test_learning_lowers_training_loss(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        _m, metrics = pretrain(Strategy("NoGrounding"), corpora, model,
                               quick_config(max_steps=200, max_epochs=100,
                                            eval_every=20, mix_ratio=0.0))
        losses = [v for _s, split, metric, v in metrics
                  if split == "train" and metric == "loss"]
        assert losses[-1] < losses[0]

    def test_metrics_log_deterministic(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        runs = []
        for _ in range(2):
            model = small_model(corpora.vocab)
            _m, metrics = pretrain(Strategy("TransferredBoth", k=1), corpora, model,
                                   quick_config())
            runs.append(metrics)
        assert runs[0] == runs[1]

    def test_t2i_never_updates_lm_head(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        before_lm = model.params["lm_head.W"].data.copy()
        before_region = model.params["region_head.W"].data.copy()
        pretrain(Strategy("TransferredT2I", k=1), corpora, model,
                 quick_config(mix_ratio=1.0))
        assert np.array_equal(model.params["lm_head.W"].data, before_lm)
        assert not np.array_equal(model.params["region_head.W"].data, before_region)

    def test_metrics_csv_format(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        _m, metrics = pretrain(Strategy("NoGrounding"), corpora, model, quick_config())
        path = tmp_path / "m.csv"
        write_metrics_csv(metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,split,metric,value"
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_strategy_k_capped_by_model(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab, k_max=2)
        with pytest.raises(ValueError, match="k_max"):
            pretrain(Strategy("AssociativeScene", k=8), corpora, model, quick_config())


class TestAssociativeFallback:
    def test_empty_association_uses_placeholder_slot(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        vocab = corpora.vocab
        model = small_model(vocab)
        rows = [vocab.encode("red dog", max_len=6)]
        raw = [["[cls]", "zzz", "qqq"]]  # all-OOV query -> degenerate -> fallback
        batch = build_batch([(None, "zzz qqq")], rows, vocab, model, "scene",
                            raw_rows=raw, corpora=corpora, k=2)
        assert batch.placeholder_slots[0, 0]
        assert batch.attention_pad_mask[0, -2 * 1]  # slot 0 valid
        assert not batch.attention_pad_mask[0, -1]  # slot 1 empty

    def test_fallback_forward_close_to_placeholder_mode(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        vocab = corpora.vocab
        model = small_model(vocab)
        rows = [vocab.encode("red dog sat", max_len=6)]
        raw = [["[cls]", "zzz"]]
        assoc_batch = build_batch([(None, "zzz")], rows, vocab, model, "scene",
                                  raw_rows=raw, corpora=corpora, k=2)
        ph_batch = build_batch([(None, "red dog sat")], rows, vocab, model, "placeholder")
        out_a = model.forward(assoc_batch)[0].data
        out_p = model.forward(ph_batch)[0].data
        np.testing.assert_allclose(out_a, out_p, atol=1e-4)


class TestEvaluate:
    def test_same_seed_same_ppl(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        a = evaluate_perplexity(model, corpora.text_only, corpora.vocab, seed=7)
        b = evaluate_perplexity(model, corpora.text_only, corpora.vocab, seed=7)
        assert a == b

    def test_association_cache_reused(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        cache = AssociationCache()
        evaluate_perplexity(model, corpora.text_only[:8], corpora.vocab, seed=7,
                            mode="scene", corpora=corpora, k=2, cache=cache)
        assert cache.misses > 0
        before = cache.misses
        evaluate_perplexity(model, corpora.text_only[:8], corpora.vocab, seed=7,
                            mode="scene", corpora=corpora, k=2, cache=cache)
        assert cache.misses == before
        assert cache.hits > 0
