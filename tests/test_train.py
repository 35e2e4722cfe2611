import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlm import associate as associate_mod
from groundlm import kernels
from groundlm import train as train_mod
from groundlm.associate import (AssociationCache, SynsetEntry,
                                build_caption_index, build_synset_index,
                                load_caption_corpus)
from groundlm.embeddings import WordEmbeddingTable, load_word_vectors
from groundlm.gmm import fit_gmm
from groundlm.index import ImageFeatureStore, write_feature_store
from groundlm.model import (CrossModalModel, MaskedBatch, Masks, ModelConfig, mask_tokens,
                            masked_ce_stats)
from groundlm.tensor import Tensor, no_grad
from groundlm.toydata import ToySpec, generate_grounded_corpus
from groundlm.train import (STRATEGIES, Corpora, Strategy, Stream, TrainConfig, _pad_rows,
                            _query_text, associate_query, build_batch, encode_stream,
                            evaluate_perplexity, mix_corpora, pretrain, training_batches,
                            validate_lookup, validate_strategy_corpora, write_metrics_csv)
from groundlm.vocab import PAD_ID, RESERVED, Vocab

WORDS = ["red", "dog", "cat", "sat", "mat", "hat", "sun", "sky"]

TABLE_ROWS = {  # visual mode, trained heads, example stream
    "NoGrounding": ("placeholder", ("lm",), "text"),
    "TransferredI2T": ("paired", ("lm",), "mixed"),
    "TransferredT2I": ("paired", ("region",), "paired"),
    "TransferredBoth": ("paired", ("lm", "region"), "mixed"),
    "AssociativeScene": ("scene", ("lm",), "text"),
    "AssociativeObject": ("object", ("lm",), "text"),
    "AssociativeKeyword": ("keyword", ("lm",), "text"),
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

    def test_matches_the_round_robin_loop(self):
        def reference(paired, text_only, mix_ratio, seed):
            draws = np.random.default_rng([seed, 3]).random(len(paired) + len(text_only))
            out, pi, ti = [], 0, 0
            for take_paired in draws < mix_ratio:
                if take_paired:
                    out.append(tuple(paired[pi % len(paired)]))
                    pi += 1
                else:
                    out.append((None, text_only[ti % len(text_only)]))
                    ti += 1
            return out

        for seed in range(200):
            rng = np.random.default_rng(seed)
            paired = [(f"i{j}", f"c{j}") for j in range(int(rng.integers(1, 30)))]
            texts = [f"t{j}" for j in range(int(rng.integers(1, 30)))]
            ratio = float(rng.choice([0.05, 0.3, 0.5, 0.9]))
            assert mix_corpora(paired, texts, ratio, seed) == reference(paired, texts, ratio, seed)

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

    @pytest.mark.parametrize("name", ["TransferredI2T", "TransferredT2I", "TransferredBoth"])
    def test_paired_strategies_show_one_image(self, name):
        """K counts the images a row shows, and a paired row shows its own:
        a paired strategy is neither rejected for a K it never reads nor
        checked against k_max with it."""
        for k in (0, 1, 16):
            strategy = Strategy(name, k=k)
            assert strategy.k == 1
            validate_lookup(strategy, Corpora(vocab=None, store=object()), k_max=1)

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
        assert (spec.mode, spec.heads, spec.stream) == TABLE_ROWS[name]


class TestTrainingBatches:
    def test_epoch_order_and_step_cap(self):
        got = list(training_batches(10, TrainConfig(batch_size=4, max_epochs=3, max_steps=5),
                                    seed=3))
        assert [epoch for epoch, _picks in got] == [0, 0, 0, 1, 1]
        assert [len(picks) for _epoch, picks in got] == [4, 4, 2, 4, 4]
        for e in (0, 1):
            seen = np.concatenate([picks for epoch, picks in got if epoch == e])
            order = np.random.default_rng([3, 1000 + e]).permutation(10)
            assert np.array_equal(seen, order[:len(seen)])

    def test_uncapped_runs_every_epoch(self):
        config = TrainConfig(batch_size=4, max_epochs=3, max_steps=None)
        assert len(list(training_batches(10, config, seed=3))) == 9

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_step_cap_must_be_positive(self, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            TrainConfig(max_steps=max_steps)

    @pytest.mark.parametrize("name", ["max_epochs", "kappa"])
    def test_epochs_and_kappa_must_be_positive(self, name):
        # max_epochs=0 would save an untrained model; kappa=0 would fail on
        # the first object batch
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            TrainConfig(**{name: 0})


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

    def test_returned_model_holds_no_gradients(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        trained, _metrics = pretrain(Strategy("TransferredBoth", k=1), corpora, model,
                                     quick_config(eval_every=100))
        assert all(p.grad is None for p in trained.params.values())

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

    def test_transferred_both_step_graph_size(self, tmp_path, monkeypatch):
        """A training step at the acceptance shape records at most 45 op
        nodes: each layer piece (linear, attention, layer norm) is one node."""
        paths = generate_grounded_corpus(ToySpec(seed=0), tmp_path)
        vocab = Vocab.load(paths.vocab)
        corpora = Corpora(vocab=vocab, text_only=open(paths.corpus).read().splitlines(),
                          paired=list(load_caption_corpus(paths.captions).items()),
                          store=ImageFeatureStore(paths.features))
        model = CrossModalModel(ModelConfig(
            vocab_size=len(vocab), d=64, d_v=64, n_layers_text=1, n_layers_cross=1,
            n_heads=4, max_len=8, k_max=16), seed=7)
        sizes = []
        backward = Tensor.backward

        def counting_backward(loss):
            nodes, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) not in nodes and node._op != "leaf":
                    nodes.add(id(node))
                    stack.extend(node._parents)
            sizes.append(len(nodes))
            backward(loss)

        monkeypatch.setattr(Tensor, "backward", counting_backward)
        pretrain(Strategy("TransferredBoth", k=1), corpora, model,
                 quick_config(batch_size=32, max_steps=1))
        assert len(sizes) == 1 and sizes[0] <= 45, sizes

    @pytest.mark.parametrize("name, k", [("NoGrounding", 0), ("TransferredT2I", 1),
                                         ("TransferredBoth", 1), ("AssociativeScene", 16)])
    def test_training_bits_do_not_depend_on_the_heads_computed(self, tmp_path, name, k):
        """Pretraining computes only the heads its losses read; at the acceptance
        shape, its parameters and metrics agree to rounding with those of the
        same run with both heads computed on every forward. The last cross
        block's products run at the rows read, which BLAS may round unlike the
        same rows of the full product; after 5 Adam steps at lr 1e-3 the
        largest parameter difference measured was 5.0e-6 (AssociativeScene,
        in the key third of a qkv bias, whose exact gradient is zero, so Adam
        steps on rounding noise) and the largest relative metric difference
        5.5e-8."""
        paths = generate_grounded_corpus(ToySpec(seed=0), tmp_path)
        vocab = Vocab.load(paths.vocab)
        captions = load_caption_corpus(paths.captions)
        table = load_word_vectors(paths.word_vectors)
        corpora = Corpora(vocab=vocab, text_only=open(paths.corpus).read().splitlines()[:300],
                          paired=list(captions.items())[:300],
                          store=ImageFeatureStore(paths.features), table=table,
                          caption_index=build_caption_index(captions, table))
        runs = []
        for force_both in (False, True):
            model = CrossModalModel(ModelConfig(
                vocab_size=len(vocab), d=64, d_v=64, n_layers_text=1, n_layers_cross=1,
                n_heads=4, max_len=8, k_max=16), seed=7)
            if force_both:
                forward = model.forward

                def full(batch, forward=forward):
                    batch.heads = ("lm", "region")
                    return forward(batch)

                model.forward = full
            _model, metrics = pretrain(Strategy(name, k=k), corpora, model, quick_config(
                batch_size=32, max_steps=5, eval_every=3, val_fraction=0.1))
            runs.append(({n: p.data for n, p in model.params.items()}, metrics))
        (params, metrics), (want_params, want_metrics) = runs
        assert [m[:3] for m in metrics] == [m[:3] for m in want_metrics]
        np.testing.assert_allclose([m[3] for m in metrics], [m[3] for m in want_metrics],
                                   rtol=1e-6, atol=0)
        for n, data in params.items():
            np.testing.assert_allclose(data, want_params[n], rtol=0, atol=2e-5, err_msg=n)

    def test_validation_ppl_is_evaluate_perplexity_of_the_split(self, tmp_path, rng,
                                                                monkeypatch):
        """TransferredBoth validates both heads in one pass; its `val,ppl` is
        still exactly what a held-out pass over the split reports."""
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        evaluate, seen = train_mod._evaluate, []

        def recorded(model, stream, vocab, heads, *, masks, **kwargs):
            seen.append((list(stream[0]), heads, kwargs))
            return evaluate(model, stream, vocab, heads, masks=masks, **kwargs)
        monkeypatch.setattr(train_mod, "_evaluate", recorded)
        _m, metrics = pretrain(Strategy("TransferredBoth", k=1), corpora, model,
                               quick_config(max_steps=6, eval_every=6))
        monkeypatch.undo()
        [(examples, heads, kwargs)] = seen
        assert heads == ("lm", "region")
        [ppl] = [v for _s, split, metric, v in metrics if (split, metric) == ("val", "ppl")]
        assert ppl == evaluate_perplexity(model, examples, corpora.vocab, **kwargs)

    @pytest.mark.parametrize("name", ["TransferredBoth", "AssociativeScene"])
    def test_split_prepared_once_and_each_eval_is_a_fresh_pass(self, tmp_path, rng,
                                                               monkeypatch, name):
        """The validation split is encoded and masked once, before training;
        every evaluation of it still reads what a held-out pass over the split
        reports for the model of that moment, with its own association."""
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        prepare, evaluate = train_mod._prepare, train_mod._evaluate
        prepared, fresh = [], []

        def recorded_prepare(*args):
            prepared.append(prepare(*args))
            return prepared[-1]

        def recorded_evaluate(model, stream, vocab, heads, **kwargs):
            # evaluate_perplexity's own steps, unrecorded, over a fresh preparation
            again, masks = prepare(stream[0], vocab, model.config, ("lm",), kwargs["seed"],
                                   kwargs["corpora"])
            lm_sum, lm_count, _, _ = evaluate(
                model, again, vocab, ("lm",),
                **{**kwargs, "masks": masks, "cache": AssociationCache()})
            fresh.append(float(np.exp(lm_sum / lm_count)))
            return evaluate(model, stream, vocab, heads, **kwargs)
        monkeypatch.setattr(train_mod, "_prepare", recorded_prepare)
        monkeypatch.setattr(train_mod, "_evaluate", recorded_evaluate)
        _m, metrics = pretrain(Strategy(name, k=1), corpora, model,
                               quick_config(max_steps=9, eval_every=3),
                               cache=AssociationCache())
        assert len(prepared) == 1
        ppls = [v for _s, split, metric, v in metrics if (split, metric) == ("val", "ppl")]
        assert len(ppls) == 3 and ppls == fresh

    def test_scene_row_of_zero_vector_words_falls_back(self, tmp_path, rng):
        """A row whose in-vocabulary words all have zero vectors has no usable
        word: it falls back to the placeholder, and training runs on."""
        corpora = small_world(tmp_path, rng)
        for word in WORDS[:2]:
            corpora.table.entries[word][:] = 0.0   # a view of the word's table row
        corpora.text_only = [f"{WORDS[0]} zzz {WORDS[1]}"] * 16 + corpora.text_only
        assert unmasked_rankings(encode_stream([(None, corpora.text_only[0])], corpora.vocab, 6),
                                 "scene", corpora, 2) == [[]]
        _m, metrics = pretrain(Strategy("AssociativeScene", k=2), corpora,
                               small_model(corpora.vocab), quick_config(), cache=AssociationCache())
        assert all(np.isfinite(value) for *_head, value in metrics)

    def test_strategy_k_capped_by_model(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab, k_max=2)
        with pytest.raises(ValueError, match="k_max"):
            pretrain(Strategy("AssociativeScene", k=8), corpora, model, quick_config())


def unmasked_rankings(stream, mode, corpora, k, kappa=8, seed=0, cache=None):
    """The rankings of every row of the unmasked ``stream``, from one
    ``_associate_rows`` call, as a training chunk or held-out pass gets them."""
    return train_mod._associate_rows(mode, stream.ids, np.zeros(stream.ids.shape, dtype=bool),
                                     stream.raw, corpora.vocab, corpora, k, kappa, seed, cache)


class TestAssociativeFallback:
    def test_empty_association_uses_placeholder_slot(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        vocab = corpora.vocab
        model = small_model(vocab)
        rows = [vocab.encode("red dog", max_len=6)]
        raw = [["[cls]", "zzz", "qqq"]]  # all-OOV query -> degenerate -> fallback
        stream = Stream([(None, "zzz qqq")], _pad_rows(rows), raw)
        rankings = unmasked_rankings(stream, "scene", corpora, 2)
        assert rankings == [[]]
        batch = build_batch(stream, [0], model, "scene", rankings=rankings, corpora=corpora, k=2)
        assert not batch.image_slots[0].any()
        _vis, slot_valid = model._visual_slots(batch)
        assert slot_valid[0, 0]  # the placeholder slot
        assert not slot_valid[0, 1]  # slot 1 empty

    def test_fallback_forward_close_to_placeholder_mode(self, tmp_path, rng):
        corpora = small_world(tmp_path, rng)
        vocab = corpora.vocab
        model = small_model(vocab)
        rows = [vocab.encode("red dog sat", max_len=6)]
        raw = [["[cls]", "zzz"]]
        stream = Stream([(None, "zzz")], _pad_rows(rows), raw)
        assoc_batch = build_batch(stream, [0], model, "scene", corpora=corpora, k=2,
                                  rankings=unmasked_rankings(stream, "scene", corpora, 2))
        ph_batch = build_batch(encode_stream([(None, "red dog sat")], vocab, 6), [0], model,
                               "placeholder")
        for batch in (assoc_batch, ph_batch):   # the logits of every position
            batch.token_mask_flags = np.ones(batch.token_ids.shape, dtype=bool)
        out_a = model.forward(assoc_batch)[0].data
        out_p = model.forward(ph_batch)[0].data
        np.testing.assert_allclose(out_a, out_p, atol=1e-4)

    @pytest.mark.parametrize("mode", ["scene", "object", "keyword"])
    def test_retrieval_mode_needs_rankings(self, tmp_path, rng, mode):
        corpora = small_world(tmp_path, rng)
        model = small_model(corpora.vocab)
        stream = encode_stream([(None, "red dog sat")], corpora.vocab, 6)
        with pytest.raises(ValueError, match="rankings"):
            build_batch(stream, [0], model, mode, corpora=corpora, k=2)


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

    def test_object_cache_keyed_by_kappa(self, tmp_path, rng):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2)

        def ppl(kappa, cache):
            return evaluate_perplexity(model, EQUIV_TEXTS, corpora.vocab, seed=7,
                                       mode="object", corpora=corpora, k=2, kappa=kappa,
                                       cache=cache)

        shared = AssociationCache()
        at_one = ppl(1, shared)
        fresh = ppl(2, AssociationCache())
        assert fresh != at_one  # kappa changes which images rows see
        assert ppl(2, shared) == fresh


def reference_build_batch(examples, token_rows, vocab, model, mode, *, raw_rows=None,
                          text_masks=None, region_flags=None, corpora=None,
                          k=0, kappa=8, assoc_seed=0, cache=None):
    """The per-slot loop build_batch used before it gathered a batch's regions
    with one index: one ``store.get`` and one slice write per image.
    ``text_masks`` is the rows' (corrupted ids, flags) at any width that holds
    them; ``region_flags`` has one flag per slot."""
    cfg = model.config
    ids = _pad_rows(token_rows)
    if text_masks is not None:
        width = ids.shape[1]
        corrupted, flags = (m[:, :width] for m in text_masks)
        assert not text_masks[1][:, width:].any()   # the trim drops no target
        assert (text_masks[0][:, width:] == PAD_ID).all()
    else:
        corrupted, flags = ids.copy(), np.zeros(ids.shape, dtype=bool)
    batch = MaskedBatch(token_ids=corrupted, token_mask_flags=flags, original_tokens=ids)
    if mode == "placeholder":
        return batch
    b_sz = ids.shape[0]
    store = corpora.store
    n = store.n_regions
    if mode == "paired":
        n_slots = n
        per_example = [[] if image_id is None else [store.get(image_id)]
                       for image_id, _text in examples]
    else:
        n_slots = k * n
        per_example = []
        for b in range(b_sz):
            query = _query_text(corrupted[b], flags[b], raw_rows[b], vocab)
            [ranked] = associate_query(mode, [query], corpora, k, kappa, assoc_seed, cache)
            per_example.append([store.get(img) for img, _s in ranked])
    regions = np.zeros((b_sz, n_slots, cfg.d_v), dtype=np.float32)
    image_slots = np.zeros((b_sz, n_slots), dtype=bool)
    for b, slots in enumerate(per_example):
        for j, rows in enumerate(slots):
            lo = j * n
            regions[b, lo:lo + n] = rows
            image_slots[b, lo:lo + n] = True
    masked = regions.copy()
    if region_flags is not None:
        masked[region_flags] = 0.0
        region_flags = region_flags & image_slots
    else:
        region_flags = np.zeros((b_sz, n_slots), dtype=bool)
    batch.regions = masked
    batch.original_regions = regions
    batch.region_mask_flags = region_flags
    batch.image_slots = image_slots
    return batch


BATCH_FIELDS = ("token_ids", "token_mask_flags", "original_tokens", "regions",
                "original_regions", "region_mask_flags", "image_slots")

# Rows chosen so that every retrieval mode meets an empty association: no
# usable word for scene ("zzz qqq"), only stopwords for keyword ("sat mat"),
# no lexicon noun for object ("red sat mat", "zzz qqq").
EQUIV_TEXTS = ["red dog sat cat", "zzz qqq", "sat mat", "sun sky dog hat",
               "cat cat mat", "red sat mat", "hat sun", "dog red sky sun cat"]


def two_region_world(tmp_path, rng):
    """Six images of two regions each; five have captions, and three
    synsets key all six."""
    vocab = Vocab(list(RESERVED) + WORDS)
    images = [f"i{j:03d}" for j in range(6)]
    write_feature_store(tmp_path / "f2.vftr",
                        [(img, rng.normal(size=(2, 4)).astype(np.float32)) for img in images],
                        n_regions=2, feat_dim=4)
    captions = {img: " ".join(rng.choice(WORDS, size=3)) for img in images[:5]}
    table = WordEmbeddingTable(
        6, {w: rng.normal(size=6).astype(np.float32) for w in WORDS}, {"sat", "mat"})
    synsets = [SynsetEntry("s0", ["dog"], "a red dog", images[:2]),
               SynsetEntry("s1", ["cat"], "a cat on a mat", images[2:4]),
               SynsetEntry("s2", ["sun"], "the sun in the sky", images[4:])]
    return Corpora(vocab=vocab, text_only=EQUIV_TEXTS, paired=list(captions.items()),
                   store=ImageFeatureStore(tmp_path / "f2.vftr"),
                   caption_index=build_caption_index(captions, table),
                   synset_index=build_synset_index(synsets, table),
                   table=table, lexicon=frozenset({"dog", "cat", "sun", "hat"}),
                   caption_corpus=captions)


def reference_perplexity(model, examples, vocab, *, seed, mode, corpora, k, kappa,
                         batch_size, cache):
    """The per-batch loop: the stream is masked by one ``mask_tokens`` call at
    width ``max_len``, then each batch takes its rows of the masks and is
    associated and forwarded in turn."""
    cfg = model.config
    encoded = [vocab.encode_with_raw(text, cfg.max_len) for _img, text in examples]
    ids = _pad_rows([row for row, _raw in encoded], cfg.max_len)
    corrupted, flags = mask_tokens(ids, cfg.mask_rate, np.random.default_rng([seed, 7]),
                                   cfg.vocab_size)
    total, count = 0.0, 0
    with no_grad():
        for lo in range(0, len(examples), batch_size):
            hi = lo + batch_size
            chunk = encoded[lo:hi]
            batch = reference_build_batch(
                examples[lo:hi], [ids for ids, _raw in chunk], vocab, model, mode,
                raw_rows=[raw for _ids, raw in chunk], text_masks=(corrupted[lo:hi], flags[lo:hi]),
                corpora=corpora, k=k, kappa=kappa, assoc_seed=seed, cache=cache)
            batch.heads = ("lm",)
            s, c = masked_ce_stats(model.forward(batch)[0].data, batch.original_tokens,
                                   batch.token_mask_flags)
            total += s
            count += c
    return float(np.exp(total / count))


class TestStreamPerplexity:
    """A held-out pass associates its whole stream in one call, and gives
    the bits and cache counts of the per-batch loop."""

    def stream(self, corpora, rng, n):
        texts = [" ".join(rng.choice(WORDS + ["zzz"], size=int(rng.integers(1, 7))))
                 for _ in range(n)]
        images = [img for img, _caption in corpora.paired]
        return [(images[j % len(images)] if j % 3 else None, text)
                for j, text in enumerate(texts)]

    @pytest.mark.parametrize("mode", ["placeholder", "paired", "scene", "object", "keyword"])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 200])
    def test_one_call_equals_the_per_batch_loop(self, tmp_path, rng, mode, n):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        examples = self.stream(corpora, rng, n)
        got, want = [], []
        for run, out in ((evaluate_perplexity, got), (reference_perplexity, want)):
            cache = AssociationCache()
            out.append(run(model, examples, corpora.vocab, seed=5, mode=mode, corpora=corpora,
                           k=4, kappa=3, batch_size=32, cache=cache))
            out.append((cache.hits, cache.misses))
        assert repr(got[0]) == repr(want[0])
        assert got[1] == want[1]

    def test_object_pass_makes_one_association_call(self, tmp_path, rng, monkeypatch):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        examples = self.stream(corpora, rng, 200)
        calls = []

        def counted(texts, *args, **kwargs):
            calls.append(len(texts))
            return associate_mod.associate_object(texts, *args, **kwargs)
        monkeypatch.setattr(train_mod, "associate_object", counted)
        counts = []
        for run in (evaluate_perplexity, reference_perplexity):
            calls.clear()
            run(model, examples, corpora.vocab, seed=5, mode="object", corpora=corpora,
                k=4, kappa=3, batch_size=32, cache=AssociationCache())
            counts.append(len(calls))
        assert counts[0] == 1
        assert counts[1] > 1   # the per-batch loop calls once per batch at least


class TestAssociateQuery:
    """The one call into the retrieval strategies: [masked] markers are
    dropped before the strategy runs and before the cache key is built."""

    @pytest.mark.parametrize("mode", ["scene", "object", "keyword"])
    def test_markers_dropped_and_cached(self, tmp_path, rng, mode):
        corpora = two_region_world(tmp_path, rng)

        def ranked(query, cache=None):
            [one] = associate_query(mode, [query], corpora, 4, 2, 3, cache=cache)
            return one

        plain = ranked("red dog sun cat")
        assert plain and plain == ranked("[masked] red dog [MASKED] sun  cat [masked]")
        assert ranked("[masked]") == ranked(" [masked] [MASKED] ") == []
        cache = AssociationCache()
        first = ranked("red [masked] dog sun cat", cache)
        again = ranked("red dog [masked] sun cat", cache)
        assert first == again == plain
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    # duplicates (one only after its markers drop), marker-only queries, one
    # noun, a repeated noun, no noun at all, and 2-4 distinct nouns
    BATCH = ["red dog sat cat", "[masked] [MASKED]", "sat dog mat", "red sat mat",
             "sun sky dog hat", "red [masked] dog sat cat", "cat cat mat", "hat sun cat",
             "", "zzz qqq", "red dog sat cat", "dog hat", "[masked]", "sky hat sun dog cat"]

    @pytest.mark.parametrize("mode", ["scene", "object", "keyword"])
    def test_list_call_equals_one_call_per_query(self, tmp_path, rng, mode):
        corpora = two_region_world(tmp_path, rng)
        warm = self.BATCH[4]   # one query is cached before the batch
        results, counters = [], []
        for batched in (False, True):
            cache = AssociationCache()
            associate_query(mode, [warm], corpora, 4, 2, 3, cache=cache)
            if batched:
                got = associate_query(mode, self.BATCH, corpora, 4, 2, 3, cache=cache)
            else:
                got = [associate_query(mode, [q], corpora, 4, 2, 3, cache=cache)[0]
                       for q in self.BATCH]
            results.append(got)
            counters.append((cache.hits, cache.misses, len(cache)))
        assert results[0] == results[1]
        assert results[1] == associate_query(mode, self.BATCH, corpora, 4, 2, 3)
        assert counters[0] == counters[1] == (5, 10, 10)
        assert results[1][1] == results[1][8] == []

    def test_object_batch_fits_one_stack_per_noun_count(self, tmp_path, rng, monkeypatch):
        """Associating 32 object rows costs one E-step per noun-count group and
        EM iteration, not one per text and iteration."""
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2)
        texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 6)))) for _ in range(32)]
        encoded = [corpora.vocab.encode_with_raw(t, model.config.max_len) for t in texts]
        fits = []

        def recorded(*args, **kwargs):
            fits.append(fit_gmm(*args, **kwargs))
            return fits[-1]
        estep, steps = kernels.active.gmm_estep, []

        def counted(*args):
            steps.append(args[0].shape)
            return estep(*args)
        monkeypatch.setattr(associate_mod, "fit_gmm", recorded)
        monkeypatch.setattr(kernels.active, "gmm_estep", counted)
        unmasked_rankings(encode_stream([(None, t) for t in texts], corpora.vocab,
                                        model.config.max_len), "object", corpora, 4, kappa=2,
                          seed=3, cache=AssociationCache())
        nouns = [{w for w in raw if w in corpora.lexicon} for _ids, raw in encoded]
        groups = {len(found) for found in nouns} - {0, 1}
        per_text = [f for stack in fits for f in stack]
        iterations = max(f.n_iter for f in per_text)
        assert len(fits) == len(groups) >= 2
        assert len(steps) <= len(groups) * iterations
        # one fit per text would make more E-step calls than that
        assert sum(f.n_iter for f in per_text) > len(groups) * iterations


class TestChunkedAssociation:
    """pretrain associates its training rows one chunk at a time: a chunk runs
    from an epoch start or an evaluation to the next evaluation or the epoch
    end, and one ``associate_query`` call covers its rows in visit order."""

    K = 2

    @staticmethod
    def world(tmp_path, rng):
        corpora = two_region_world(tmp_path, rng)
        corpora.text_only = [" ".join(rng.choice(WORDS + ["zzz"], size=int(rng.integers(1, 7))))
                             for _ in range(54)]
        return corpora

    def run(self, corpora, config, monkeypatch, per_batch=False, flat_val=False):
        """(metrics rows, parameter bytes, cache counts, the size of each training
        association call, the size of each training batch) of an object
        pretrain. ``per_batch`` makes it the reference that associates each
        batch's own rows when the batch is built; ``flat_val`` makes every
        validation read the same, so patience stops at the second one."""
        cache = AssociationCache()
        calls, trained, evaluating = [], [], []
        query, build, evaluate, associate = train_mod.associate_query, train_mod.build_batch, \
            train_mod._evaluate, train_mod._associate_rows

        def counted(mode, queries, *args, **kwargs):
            if not evaluating:
                calls.append(len(queries))
            return query(mode, queries, *args, **kwargs)

        def evaluated(*args, **kwargs):
            evaluating.append(True)
            try:
                return (1.0, 1, 0.0, 0) if flat_val else evaluate(*args, **kwargs)
            finally:
                evaluating.pop()

        def chunk_associated(mode, tokens, *args):
            # the reference associates no chunk: each batch's rows, when it is built
            return [None] * len(tokens) if per_batch and not evaluating else \
                associate(mode, tokens, *args)

        def built(stream, rows, model, mode, *, masks, rankings, **kwargs):
            if not evaluating:
                trained.append(len(rows))
                if per_batch:
                    tokens, flags, _regions = masks.rows(rows)
                    rankings = dict(zip(rows.tolist(), associate(
                        mode, tokens, flags, [stream.raw[i] for i in rows], corpora.vocab,
                        corpora, self.K, config.kappa, config.seed, cache)))
            return build(stream, rows, model, mode, masks=masks, rankings=rankings, **kwargs)
        monkeypatch.setattr(train_mod, "associate_query", counted)
        monkeypatch.setattr(train_mod, "_associate_rows", chunk_associated)
        monkeypatch.setattr(train_mod, "_evaluate", evaluated)
        monkeypatch.setattr(train_mod, "build_batch", built)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=self.K)
        try:
            _m, metrics = pretrain(Strategy("AssociativeObject", k=self.K), corpora, model,
                                   config, cache=cache)
        finally:
            monkeypatch.undo()
        params = {name: p.data.tobytes() for name, p in model.params.items()}
        return metrics, params, (cache.hits, cache.misses), calls, trained

    @staticmethod
    def chunk_starts(steps, per_epoch, eval_every):
        return [s for s in range(1, steps + 1)
                if (s - 1) % per_epoch == 0 or (s - 1) % eval_every == 0]

    def test_one_call_per_chunk_equals_one_per_batch(self, tmp_path, rng, monkeypatch):
        corpora = self.world(tmp_path, rng)
        # 49 training rows in batches of 4: 13 steps an epoch, which 5 does not divide
        config = quick_config(batch_size=4, max_epochs=3, max_steps=None, eval_every=5,
                              kappa=2)
        chunked = self.run(corpora, config, monkeypatch)
        reference = self.run(corpora, config, monkeypatch, per_batch=True)
        metrics, params, counts, calls, trained = chunked
        assert len(trained) == 39 and sum(trained) == 3 * 49
        starts = self.chunk_starts(39, 13, 5)
        assert starts == [1, 6, 11, 14, 16, 21, 26, 27, 31, 36]
        assert calls == [sum(trained[lo - 1:hi - 1])
                         for lo, hi in zip(starts, starts[1:] + [40])]
        assert reference[3] == reference[4] == trained   # one call per batch
        assert metrics == reference[0] and params == reference[1]
        assert counts == reference[2] and counts[0] > 0 and counts[1] > 0

    def test_no_row_past_an_early_stop_is_associated(self, tmp_path, rng, monkeypatch):
        corpora = self.world(tmp_path, rng)
        config = quick_config(batch_size=4, max_epochs=3, max_steps=None, eval_every=5,
                              kappa=2, patience=1)
        chunked = self.run(corpora, config, monkeypatch, flat_val=True)
        reference = self.run(corpora, config, monkeypatch, per_batch=True, flat_val=True)
        metrics, params, counts, calls, trained = chunked
        assert trained == [4] * 10   # stopped at the second validation
        assert calls == [20, 20]
        assert metrics == reference[0] and params == reference[1] and counts == reference[2]


class TestBuildBatchEquivalence:
    def assert_same(self, corpora, model, mode, examples, k, masks_regions=False, seed=5):
        vocab = corpora.vocab
        encoded = [vocab.encode_with_raw(text, model.config.max_len) for _img, text in examples]
        # masks as a stream draws them: at width max_len, one flag per slot
        cfg = model.config
        corrupted, flags = mask_tokens(_pad_rows([e[0] for e in encoded], cfg.max_len),
                                       cfg.mask_rate, np.random.default_rng(seed),
                                       cfg.vocab_size)
        stream = encode_stream(examples, vocab, cfg.max_len)
        region_flags = None
        if masks_regions:
            n_slots = corpora.store.n_regions
            region_flags = (np.random.default_rng(seed + 1).random((len(examples), n_slots))
                            < cfg.mask_rate)
        builds = [
            lambda: reference_build_batch(
                examples, [e[0] for e in encoded], vocab, model, mode,
                raw_rows=[e[1] for e in encoded], text_masks=(corrupted, flags),
                region_flags=region_flags, corpora=corpora, k=k, kappa=8, assoc_seed=3),
            lambda: build_batch(
                stream, range(len(examples)), model, mode,
                masks=Masks(corrupted, flags, region_flags), corpora=corpora, k=k,
                rankings=None if mode in ("placeholder", "paired") else train_mod._associate_rows(
                    mode, corrupted, flags, stream.raw, vocab, corpora, k, 8, 3, None))]
        batches, reads = [], []
        for build in builds:
            before = corpora.store.reads
            batches.append(build())
            reads.append(corpora.store.reads - before)
        want, got = batches
        for name in BATCH_FIELDS:
            a, b = getattr(want, name), getattr(got, name)
            if a is None:
                assert b is None, name
                continue
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert reads[0] == reads[1]
        return got

    def test_placeholder(self, tmp_path, rng):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        got = self.assert_same(corpora, model, "placeholder",
                               [(None, t) for t in EQUIV_TEXTS], k=0)
        assert got.regions is None and corpora.store.reads == 0

    def test_paired_with_region_masking(self, tmp_path, rng):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        examples = [(img if j % 3 else None, text)
                    for j, (img, text) in enumerate(corpora.paired * 3)]
        got = self.assert_same(corpora, model, "paired", examples, k=1, masks_regions=True)
        empty = ~got.image_slots.any(axis=1)
        assert empty.any() and not empty.all()
        assert got.region_mask_flags.any()

    @pytest.mark.parametrize("mode", ["scene", "object", "keyword"])
    @pytest.mark.parametrize("k", [2, 8])
    def test_retrieval_modes(self, tmp_path, rng, mode, k):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        got = self.assert_same(corpora, model, mode, [(None, t) for t in EQUIV_TEXTS], k=k)
        images_per_row = got.image_slots.sum(axis=1) // 2
        empty = ~got.image_slots.any(axis=1)
        assert empty.any() and not empty.all()
        if k == 8:  # six images exist, so some associations are shorter than K
            assert (images_per_row[~empty] < k).any()
        else:
            assert (images_per_row[~empty] == k).all()

    def test_without_store_placeholder_rows_only(self, tmp_path, rng):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        stream = encode_stream([(None, t) for t in EQUIV_TEXTS[:2]], corpora.vocab, 8)
        batch = build_batch(stream, range(2), model, "paired",
                            corpora=Corpora(vocab=corpora.vocab))
        assert batch.regions.shape == (2, 2, 4) and not batch.regions.any()
        assert not batch.image_slots.any()


class TestRegionMasks:
    """build_batch zeroes the regions of flagged, filled slots and keeps the
    targets whole; unflagged and placeholder slots stay as gathered."""

    def test_flagged_regions_zeroed_targets_kept(self, tmp_path, rng):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        examples = [(corpora.paired[0][0], "red dog"), (None, "cat sat")]
        batch = build_batch(encode_stream(examples, corpora.vocab, 8), range(2),
                            model, "paired", corpora=corpora,
                            masks=Masks(region_flags=np.ones((2, 2), dtype=bool)))
        assert batch.region_mask_flags.tolist() == [[True, True], [False, False]]
        assert not batch.regions[0].any() and batch.original_regions[0].all()
        np.testing.assert_array_equal(batch.original_regions[0],
                                      corpora.store.get(corpora.paired[0][0]))

    def test_unflagged_regions_stay_whole(self, tmp_path, rng):
        corpora = two_region_world(tmp_path, rng)
        model = small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)
        examples = [(img, text) for img, text in corpora.paired]
        batch = build_batch(encode_stream(examples, corpora.vocab, 8), range(len(examples)),
                            model, "paired", corpora=corpora)
        assert not batch.region_mask_flags.any()
        np.testing.assert_array_equal(batch.regions, batch.original_regions)


def mixed_stream(corpora, rng, n):
    """``n`` examples of 1-6 words, two in three paired with an image."""
    texts = [" ".join(rng.choice(WORDS + ["zzz"], size=int(rng.integers(1, 7))))
             for _ in range(n)]
    images = [img for img, _caption in corpora.paired]
    return [(images[j % len(images)] if j % 3 else None, text) for j, text in enumerate(texts)]


@pytest.fixture(scope="module")
def invariance_world(tmp_path_factory):
    corpora = two_region_world(tmp_path_factory.mktemp("invariance"), np.random.default_rng(0))
    return corpora, small_model(corpora.vocab, d_v=4, n_regions=2, k_max=8, max_len=8)


class TestBatchSizeInvariance:
    """A stream is masked once, so what an evaluation reports does not depend
    on how the stream is cut into batches."""

    @pytest.mark.parametrize("mode", ["placeholder", "paired", "scene", "object"])
    @given(n=st.integers(1, 230), drawn=st.integers(1, 240), seed=st.integers(0, 1000))
    @settings(max_examples=6, deadline=None)
    def test_held_out_ppl(self, invariance_world, mode, n, drawn, seed):
        corpora, model = invariance_world
        examples = mixed_stream(corpora, np.random.default_rng(seed), n)
        ppls = [evaluate_perplexity(model, examples, corpora.vocab, seed=seed, mode=mode,
                                    corpora=corpora, k=4, kappa=3, batch_size=size,
                                    cache=AssociationCache())
                for size in (1, 7, 32, 200, drawn)]
        assert max(ppls) - min(ppls) <= 1e-6 * min(ppls), ppls

    @given(n=st.integers(1, 230), drawn=st.integers(1, 240), seed=st.integers(0, 1000))
    @settings(max_examples=6, deadline=None)
    def test_t2i_region_objective(self, invariance_world, n, drawn, seed):
        corpora, model = invariance_world
        examples = mixed_stream(corpora, np.random.default_rng(seed), n)
        means = []
        stream, masks = train_mod._prepare(examples, corpora.vocab, model.config, ("region",),
                                           seed, corpora)
        for size in (1, 7, 32, 200, drawn):
            lm_sum, lm_count, total, count = train_mod._evaluate(
                model, stream, corpora.vocab, ("region",), masks=masks, seed=seed,
                mode="paired", corpora=corpora, k=1, kappa=8, batch_size=size, cache=None)
            assert (lm_sum, lm_count) == (0.0, 0)
            means.append(total / count if count else 0.0)
        assert max(means) - min(means) <= 1e-6 * max(means), means


class TestTrainingMasks:
    @staticmethod
    def epoch_text_masks(corpora, name, batch_size, monkeypatch):
        """Each training example's text (corrupted ids, flags) in epoch 0, at
        width max_len, from the batches pretrain builds."""
        picks_seen, batches = [], []
        order, build = train_mod.training_batches, train_mod.build_batch

        def recorded_order(*args, **kwargs):
            for epoch, picks in order(*args, **kwargs):
                picks_seen.append(picks)
                yield epoch, picks

        def recorded_build(*args, **kwargs):
            batches.append(build(*args, **kwargs))
            return batches[-1]
        monkeypatch.setattr(train_mod, "training_batches", recorded_order)
        monkeypatch.setattr(train_mod, "build_batch", recorded_build)
        model = small_model(corpora.vocab, max_len=8)
        pretrain(Strategy(name, k=1), corpora, model,
                 quick_config(batch_size=batch_size, max_epochs=1, max_steps=None,
                              eval_every=1000))
        n = sum(len(picks) for picks in picks_seen)
        tokens = np.full((n, 8), PAD_ID)
        flags = np.zeros((n, 8), dtype=bool)
        for picks, batch in zip(picks_seen, batches):
            width = batch.token_ids.shape[1]
            tokens[picks, :width] = batch.token_ids
            flags[picks, :width] = batch.token_mask_flags
        assert np.array_equal(np.sort(np.concatenate(picks_seen)), np.arange(n))
        assert flags.any(axis=1).all()
        return tokens, flags

    def test_both_and_i2t_draw_the_same_text_masks(self, tmp_path, rng, monkeypatch):
        """TransferredBoth's region masks have their own generator, so its text
        masks are I2T's, example by example, at any batch size."""
        corpora = small_world(tmp_path, rng)
        runs = [self.epoch_text_masks(corpora, name, size, monkeypatch)
                for name in ("TransferredBoth", "TransferredI2T") for size in (8, 5)]
        for tokens, flags in runs[1:]:
            assert np.array_equal(tokens, runs[0][0]) and np.array_equal(flags, runs[0][1])
