import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from groundlm import train as train_mod
from groundlm.associate import (AssociationCache, SynsetEntry,
                                build_caption_index, build_synset_index)
from groundlm.embeddings import WordEmbeddingTable
from groundlm.finetune import (Task, TaskExample, finetune, load_task_file,
                               spearman)
from groundlm.index import ImageFeatureStore, write_feature_store
from groundlm.model import CrossModalModel, ModelConfig, load_checkpoint, save_checkpoint
from groundlm.tensor import ShapeError, grad_enabled
from groundlm.train import Corpora, Strategy, TrainConfig
from groundlm.vocab import RESERVED, Vocab

WORDS = ["red", "blue", "dog", "cat", "sat", "ran", "mat", "sky"]


def write_task(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def pair_task(n=24):
    """Linearly separable toy task: label = which color word appears."""
    ex = []
    for j in range(n):
        if j % 2 == 0:
            ex.append(TaskExample(0, "red dog sat", None))
        else:
            ex.append(TaskExample(1, "blue cat ran", None))
    return Task(metric="accuracy", examples=ex, label_set=[0, 1])


def task_world(tmp_path, rng):
    vocab = Vocab(list(RESERVED) + WORDS)
    feats = [(f"i{j}", rng.normal(size=(1, 4)).astype(np.float32)) for j in range(6)]
    store_path = tmp_path / "f.vftr"
    write_feature_store(store_path, feats, n_regions=1, feat_dim=4)
    return Corpora(vocab=vocab, store=ImageFeatureStore(store_path))


def associative_world(tmp_path, rng, zero_noun=None):
    """``task_world`` plus what the scene, object and keyword strategies read;
    ``zero_noun``, if given, has an all-zero word vector."""
    corpora = task_world(tmp_path, rng)
    images = [f"i{j}" for j in range(6)]
    vectors = {w: rng.normal(size=6).astype(np.float32) for w in WORDS}
    if zero_noun is not None:
        vectors[zero_noun] = np.zeros(6, dtype=np.float32)
    corpora.table = WordEmbeddingTable(6, vectors, {"sat"})
    corpora.caption_corpus = {img: " ".join(rng.choice(WORDS, size=3)) for img in images}
    corpora.caption_index = build_caption_index(corpora.caption_corpus, corpora.table)
    corpora.synset_index = build_synset_index(
        [SynsetEntry("s0", ["dog"], "a red dog", images[:3]),
         SynsetEntry("s1", ["cat"], "a cat on a mat", images[3:])], corpora.table)
    corpora.lexicon = frozenset({"dog", "cat", "mat"})
    return corpora


def mk_model(vocab, model_class=CrossModalModel, **overrides):
    kw = dict(vocab_size=len(vocab), d=8, d_v=4, n_layers_text=1, n_layers_cross=1,
              n_heads=2, max_len=6, k_max=2, n_regions=1)
    kw.update(overrides)
    return model_class(ModelConfig(**kw), seed=0)


class TestLoadTaskFile:
    def test_round_trip(self, tmp_path):
        p = write_task(tmp_path / "t.tsv", [
            "metric=accuracy labels=0,1",
            "0\tred dog",
            "1\tblue cat\tsecond sentence",
        ])
        task = load_task_file(p)
        assert task.metric == "accuracy"
        assert task.label_set == [0, 1]
        assert task.examples[1].text_b == "second sentence"

    def test_spearman_float_labels(self, tmp_path):
        p = write_task(tmp_path / "t.tsv", ["metric=spearman", "2.5\ta b", "0.1\tc d"])
        task = load_task_file(p)
        assert task.examples[0].label == 2.5

    def test_missing_metric_header(self, tmp_path):
        p = write_task(tmp_path / "t.tsv", ["labels=0,1", "0\tx"])
        with pytest.raises(ValueError, match="metric"):
            load_task_file(p)

    def test_label_outside_declared_set_names_line(self, tmp_path):
        p = write_task(tmp_path / "t.tsv",
                       ["metric=accuracy labels=0,1", "0\ta", "2\tb"])
        with pytest.raises(ValueError, match="line 3"):
            load_task_file(p)

    def test_repeated_declared_label_names_line_1(self, tmp_path):
        """A class id declared twice would size the head for a class that no
        example can reach."""
        p = write_task(tmp_path / "t.tsv", ["metric=accuracy labels=0,0,1", "0\ta", "1\tb"])
        with pytest.raises(ValueError, match="line 1: labels=0,0,1 repeat a class id"):
            load_task_file(p)

    def test_non_integer_class_label_names_line(self, tmp_path):
        p = write_task(tmp_path / "t.tsv", ["metric=accuracy", "zero\ta"])
        with pytest.raises(ValueError, match="line 2"):
            load_task_file(p)

    def test_wrong_field_count(self, tmp_path):
        p = write_task(tmp_path / "t.tsv",
                       ["metric=accuracy", "0\ta\tb\tc\td"])
        with pytest.raises(ValueError, match="line 2"):
            load_task_file(p)

    def test_header_but_no_examples(self, tmp_path):
        p = write_task(tmp_path / "t.tsv", ["metric=accuracy", ""])
        with pytest.raises(ValueError, match="no examples"):
            load_task_file(p)

    def test_labels_on_spearman_rejected(self, tmp_path):
        p = write_task(tmp_path / "t.tsv", ["metric=spearman labels=0,1", "1.0\ta"])
        with pytest.raises(ValueError, match="labels"):
            load_task_file(p)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_case(self):
        # ranks pred 1,2,3,5,4 vs gold 1,2,3,4,5 -> rho = 1 - 6*2/(5*24) = 0.9
        assert spearman([0.1, 0.2, 0.3, 0.9, 0.8],
                        [1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(0.9)

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=3,
                    max_size=20, unique=True),
           st.floats(min_value=0.1, max_value=5),
           st.floats(min_value=-10, max_value=10))
    def test_monotone_transform_invariance(self, xs, scale, shift):
        # integer inputs keep the ordering exact under the affine map
        gold = list(range(len(xs)))
        base = spearman([float(x) for x in xs], gold)
        warped = [scale * x + shift for x in xs]
        assert spearman(warped, gold) == pytest.approx(base, abs=1e-9)

    # small integers tie often; the floats reach magnitudes up to 1e300
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.tuples(*[st.one_of(st.integers(-2, 2).map(float),
                                          st.floats(-1e300, 1e300))] * 2),
                    min_size=2, max_size=30),
           st.booleans())
    @example([(0.0, 1.0), (1.0, 0.0)], False)
    @example([(1.0, 0.0), (1.0, 0.0), (2.0, 3.0)], True)
    def test_matches_scipy_bitwise(self, pairs, reverse):
        pred = [p for p, _ in pairs]
        gold = pred[::-1] if reverse else [g for _, g in pairs]
        if len(set(pred)) == 1 or len(set(gold)) == 1:
            with pytest.raises(ValueError, match="constant"):
                spearman(pred, gold)
            return
        assert spearman(pred, gold).hex() == float(spearmanr(pred, gold).statistic).hex()

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            spearman([np.nan, 1, 2, 3], [1, 2, 3, 4])


class NanAtEval(CrossModalModel):
    """A model whose cls head yields NaN for every other eval example, in the
    run whose head seed is ``poison_seed``; training steps stay finite."""

    poison_seed = None

    def add_cls_head(self, n_labels, seed=0):
        super().add_cls_head(n_labels, seed)
        self.poisoned = self.poison_seed in (None, seed)

    def cls_logits(self, cls_vec):
        logits = super().cls_logits(cls_vec)
        if self.poisoned and not grad_enabled():
            logits.data[::2] = np.nan
        return logits


class RaisesInForward(CrossModalModel):
    """A model whose forward raises ``error``: a fault, not a failed run."""

    error = TypeError

    def forward(self, batch):
        raise self.error("forward is broken")


class TestFinetune:
    def test_separable_task_reaches_high_accuracy(self, tmp_path, rng):
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab)
        report = finetune(model, pair_task(), Strategy("NoGrounding"),
                          TrainConfig(batch_size=8, lr=1e-2, max_epochs=60,
                                      max_steps=None, seed=0, val_fraction=0.25),
                          corpora=corpora, n_runs=2)
        assert report.median >= 0.99
        assert report.metric == "accuracy"

    def test_report_shape_eight_runs(self, tmp_path, rng):
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab)
        report = finetune(model, pair_task(8), Strategy("NoGrounding"),
                          TrainConfig(batch_size=4, lr=1e-2, max_epochs=1,
                                      max_steps=2, seed=5, val_fraction=0.25),
                          corpora=corpora, n_runs=8)
        assert len(report.runs) == 8
        blob = report.to_json()
        assert blob["n_runs"] == 8
        assert blob["n_completed"] == 8
        assert blob["errors"] == []
        assert len(blob["config_digest"]) == 16

    def test_weights_restored_after_protocol(self, tmp_path, rng):
        """finetune trains copies: the model passed in keeps its parameters,
        requires_grad flags and config, and still saves a loadable checkpoint."""
        corpora = task_world(tmp_path, rng)
        for freeze_text in (False, True):
            model = mk_model(corpora.vocab, freeze_text=freeze_text)
            config = dataclasses.replace(model.config)
            before = {n: (p.data.copy(), p.requires_grad) for n, p in model.params.items()}
            finetune(model, pair_task(8), Strategy("NoGrounding"),
                     TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=2,
                                 seed=5, val_fraction=0.25),
                     corpora=corpora, n_runs=2)
            assert model.config == config
            assert (model.config.n_labels, model.config.freeze_text) == (0, freeze_text)
            assert list(model.params) == list(before)
            for n, (arr, requires_grad) in before.items():
                assert np.array_equal(model.params[n].data, arr), n
                assert model.params[n].requires_grad == requires_grad, n
            path = tmp_path / f"after_{freeze_text}.glmc"
            save_checkpoint(model, path)
            back = load_checkpoint(path)
            assert back.config == config
            for n, p in model.params.items():
                assert np.array_equal(back.params[n].data, p.data), n
                assert back.params[n].requires_grad == p.requires_grad, n

    def test_plain_forward_wrapper_does_not_train_the_original(self, tmp_path, rng):
        """A plain function installed as ``model.forward`` is the same object
        in a deep copy, still calling the original model; each run's forwards
        must go through the run's own copy."""
        corpora = task_world(tmp_path, rng)
        config = TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=2, seed=5,
                             val_fraction=0.25)
        want = finetune(mk_model(corpora.vocab), pair_task(8), Strategy("NoGrounding"),
                        config, corpora=corpora, n_runs=2)
        model = mk_model(corpora.vocab)
        before = {n: p.data.copy() for n, p in model.params.items()}
        forward = model.forward
        model.forward = lambda batch: forward(batch)
        got = finetune(model, pair_task(8), Strategy("NoGrounding"), config,
                       corpora=corpora, n_runs=2)
        assert all(p.grad is None for p in model.params.values())
        for n, arr in before.items():
            assert np.array_equal(model.params[n].data, arr), n
        assert got.to_json() == want.to_json()

    def test_transferred_never_touches_store(self, tmp_path, rng):
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab)
        finetune(model, pair_task(8), Strategy("TransferredI2T", k=2),
                 TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=2,
                             seed=5, val_fraction=0.25),
                 corpora=corpora, n_runs=1)
        assert corpora.store.reads == 0

    def test_untrained_head_scores_near_chance(self, tmp_path, rng):
        """Shuffled labels kill the signal; accuracy sits in the binomial band."""
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab)
        ex = []
        shuffle = np.random.default_rng(0)
        for j in range(40):
            text = "red dog sat" if j % 2 == 0 else "blue cat ran"
            ex.append(TaskExample(int(shuffle.integers(0, 2)), text, None))
        task = Task(metric="accuracy", examples=ex, label_set=[0, 1])
        report = finetune(model, task, Strategy("NoGrounding"),
                          TrainConfig(batch_size=8, lr=1e-3, max_epochs=2,
                                      max_steps=None, seed=1, val_fraction=0.5),
                          corpora=corpora, n_runs=4)
        n_eval = 20
        sigma = 0.5 / np.sqrt(n_eval)
        assert abs(report.median - 0.5) < 3 * sigma + 1e-9

    def test_spearman_task_end_to_end(self, tmp_path, rng):
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab)
        ex = [TaskExample(float(j % 3), f"{WORDS[j % len(WORDS)]} sat", None)
              for j in range(12)]
        task = Task(metric="spearman", examples=ex)
        report = finetune(model, task, Strategy("NoGrounding"),
                          TrainConfig(batch_size=4, lr=1e-2, max_epochs=2,
                                      max_steps=None, seed=2, val_fraction=0.5),
                          corpora=corpora, n_runs=2)
        assert report.metric == "spearman"
        for s in report.runs:
            assert s is None or -1.0 <= s <= 1.0

    def test_failed_runs_reported_not_fatal(self, tmp_path, rng):
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab)
        # constant gold scores make spearman undefined -> every run errors
        ex = [TaskExample(1.0, "red dog", None) for _ in range(8)]
        task = Task(metric="spearman", examples=ex)
        with pytest.raises(RuntimeError, match="all fine-tune runs failed"):
            finetune(model, task, Strategy("NoGrounding"),
                     TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=1,
                                 seed=3, val_fraction=0.5),
                     corpora=corpora, n_runs=2)

    @pytest.mark.parametrize("metric", ["accuracy", "spearman"])
    def test_non_finite_eval_output_fails_the_run(self, tmp_path, rng, metric):
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab, model_class=NanAtEval)
        task = Task(metric=metric, examples=[
            TaskExample(j % 2 if metric == "accuracy" else float(j % 3),
                        f"{WORDS[j % len(WORDS)]} sat") for j in range(12)])
        config = TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=2,
                             seed=4, val_fraction=0.5)
        with pytest.raises(RuntimeError, match="run 0: 3 of 6 eval outputs are not finite"):
            finetune(model, task, Strategy("NoGrounding"), config, corpora=corpora, n_runs=1)
        # only run 1 is poisoned: it is reported as failed and left out of the median
        model.poison_seed = config.seed + 1
        report = finetune(model, task, Strategy("NoGrounding"), config, corpora=corpora,
                          n_runs=3)
        assert report.runs[1] is None and None not in (report.runs[0], report.runs[2])
        assert report.errors == ["run 1: 3 of 6 eval outputs are not finite"]
        assert report.median == (report.runs[0] + report.runs[2]) / 2

    @pytest.mark.parametrize("error", [TypeError, ShapeError])
    def test_programming_error_propagates(self, tmp_path, rng, error):
        # only a failed run (non-finite values, undefined Spearman) is kept out
        # of the median; any other error, a ShapeError included, is a traceback
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab, model_class=RaisesInForward)
        model.error = error
        with pytest.raises(error, match="forward is broken"):
            finetune(model, pair_task(8), Strategy("NoGrounding"),
                     TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=1,
                                 seed=0, val_fraction=0.25),
                     corpora=corpora, n_runs=2)

    @pytest.mark.parametrize("n_runs", [1, 3])
    @pytest.mark.parametrize("name", ["AssociativeScene", "AssociativeObject",
                                      "AssociativeKeyword"])
    def test_each_split_associated_once(self, tmp_path, rng, monkeypatch, name, n_runs):
        """Retrieval for the unmasked task text is the same in every run, so
        each split is associated in one call, before the runs."""
        corpora = associative_world(tmp_path, rng)
        model = mk_model(corpora.vocab)
        texts = [" ".join(pair) for pair in itertools.permutations(WORDS[:4], 2)]
        task = Task(metric="accuracy", label_set=[0, 1],
                    examples=[TaskExample(j % 2, text) for j, text in enumerate(texts)])
        query, calls = train_mod.associate_query, []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return query(*args, **kwargs)
        monkeypatch.setattr(train_mod, "associate_query", counted)
        cache = AssociationCache()
        report = finetune(model, task, Strategy(name, k=2),
                          TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=2,
                                      seed=5, val_fraction=0.25, kappa=2),
                          corpora=corpora, n_runs=n_runs, cache=cache)
        assert report.errors == [] and len(report.runs) == n_runs
        assert sorted(map(len, calls)) == [3, 9]
        assert (cache.hits, cache.misses) == (0, len(set(texts)))

    def test_association_error_raised_before_any_run(self, tmp_path, rng):
        """An association that raises fails the whole probe, once: it is the
        same in every run, so it is not a failed run."""
        corpora = associative_world(tmp_path, rng)
        four = WordEmbeddingTable(4, {w: rng.normal(size=4).astype(np.float32) for w in WORDS})
        corpora.synset_index = build_synset_index(
            [SynsetEntry("s0", ["dog"], "a red dog", ["i0", "i1"])], four)
        model = mk_model(corpora.vocab, model_class=RaisesInForward)   # no run may start
        with pytest.raises(ValueError, match="query dim 6 != index dim 4"):
            finetune(model, pair_task(8), Strategy("AssociativeObject", k=2),
                     TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=1,
                                 seed=0, val_fraction=0.25, kappa=2),
                     corpora=corpora, n_runs=8)

    @pytest.mark.parametrize("name", ["AssociativeScene", "AssociativeObject"])
    def test_zero_vector_noun_probe_completes(self, tmp_path, rng, name):
        """A task noun whose word vector is all zero retrieves nothing; the
        probe runs on, with that text's other nouns or the placeholder."""
        corpora = associative_world(tmp_path, rng, zero_noun="dog")
        task = Task(metric="accuracy", label_set=[0, 1], examples=[
            TaskExample(j % 2, text) for j, text in
            enumerate(["dog", "blue cat ran", "red dog", "dog and cat"] * 2)])
        report = finetune(mk_model(corpora.vocab), task, Strategy(name, k=2),
                          TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=2,
                                      seed=0, val_fraction=0.25, kappa=2),
                          corpora=corpora, n_runs=2)
        assert report.errors == [] and len(report.runs) == 2

    def test_k_beyond_model_capacity_rejected(self, tmp_path, rng):
        corpora = task_world(tmp_path, rng)
        corpora.table = object()  # satisfies the presence check
        model = mk_model(corpora.vocab, k_max=2)
        with pytest.raises(ValueError, match="k_max"):
            finetune(model, pair_task(8), Strategy("AssociativeScene", k=16),
                     TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=1,
                                 seed=0, val_fraction=0.25),
                     corpora=corpora, n_runs=1)

    @pytest.mark.parametrize("n_runs", [0, -2])
    def test_runs_below_one_rejected_before_any_run(self, tmp_path, rng, n_runs):
        corpora = task_world(tmp_path, rng)
        model = mk_model(corpora.vocab, model_class=RaisesInForward)   # no run may start
        with pytest.raises(ValueError, match=f"n_runs >= 1, got {n_runs}"):
            finetune(model, pair_task(8), Strategy("NoGrounding"),
                     TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=1,
                                 seed=0, val_fraction=0.25),
                     corpora=corpora, n_runs=n_runs)

    def test_associative_requires_table(self, tmp_path, rng):
        corpora = task_world(tmp_path, rng)  # has store but no table
        model = mk_model(corpora.vocab)
        with pytest.raises(ValueError, match="AssociativeScene"):
            finetune(model, pair_task(8), Strategy("AssociativeScene", k=2),
                     TrainConfig(batch_size=4, lr=1e-2, max_epochs=1, max_steps=1,
                                 seed=0, val_fraction=0.25),
                     corpora=corpora, n_runs=1)
