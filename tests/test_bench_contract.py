"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark's tracer patches functions by dotted name, its checks call
``associate_object`` positionally, its session loads the feature store,
builds the synset index from the store's offsets and passes one association
cache and a thread count to pretraining, evaluation and the probe, and its
step clock wraps ``model.forward`` as a function of the batch alone; a rename
or a signature change here would otherwise first show up as a crash in a
benchmark run. The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

import groundlm
from groundlm.associate import (AssociationCache, SynsetEntry,
                                build_caption_index, build_synset_index,
                                load_caption_corpus)
from groundlm.embeddings import WordEmbeddingTable, load_word_vectors
from groundlm.finetune import Task, TaskExample, finetune
from groundlm.index import ImageFeatureStore, write_feature_store
from groundlm.model import CrossModalModel, ModelConfig
from groundlm.toydata import ToySpec, generate_grounded_corpus
from groundlm.train import Corpora, Strategy, TrainConfig, evaluate_perplexity, pretrain
from groundlm.vocab import Vocab

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted):
    head, *rest = dotted.split(".")
    obj = importlib.import_module(f"groundlm.{head}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_every_trace_target_resolves(tracer):
    for owner_path, attr, _name in tracer.TARGETS:
        owner = resolve(owner_path)
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner_path}.{attr}"
            fn = owner.__dict__[attr]
        else:
            fn = getattr(owner, attr, None)
        assert callable(fn), f"{owner_path}.{attr}"


def test_every_kernel_name_resolves(tracer):
    active = resolve("kernels.active")
    for name in tracer.KERNEL_NAMES:
        assert callable(getattr(active, name, None)), name


def test_associate_object_called_as_the_checks_call_it():
    table = WordEmbeddingTable(2, {"dog": np.array([1.0, 0.0], dtype=np.float32),
                                   "cat": np.array([0.0, 1.0], dtype=np.float32)},
                               frozenset())
    index = build_synset_index([SynsetEntry("s0", ["dog"], "dog", ["d1", "d2"]),
                                SynsetEntry("s1", ["cat"], "cat", ["c1", "c2"])], table)
    lexicon = frozenset({"dog", "cat"})
    items = groundlm.associate.associate_object(
        "dog and cat", index, table, lexicon, 4, min(8, 4), seed=11).items
    assert len(items) == 4
    assert [(type(it.image_id), type(it.similarity)) for it in items] == [(str, float)] * 4


def test_store_offsets_feed_synset_index_as_the_session_does(tmp_path):
    path = tmp_path / "f.vftr"
    written = write_feature_store(path, [(image_id, np.full((1, 2), i, dtype=np.float32))
                                         for i, image_id in enumerate(("d1", "d2", "c1"))],
                                  n_regions=1, feat_dim=2)
    store = ImageFeatureStore(path)
    assert store.offsets == written
    assert all(type(offset) is int for offset in store.offsets.values())
    assert store.reads == 0
    table = WordEmbeddingTable(2, {"dog": np.array([1.0, 0.0], dtype=np.float32)},
                               frozenset())
    index = build_synset_index([SynsetEntry("s0", ["dog"], "dog", ["d1", "c1"])], table,
                               store.offsets)
    assert index.ids == ["d1", "c1"]
    store.close()


def test_association_cache_counts_hits_and_misses():
    cache = AssociationCache()
    assert (cache.hits, cache.misses) == (0, 0)


@pytest.mark.parametrize("fn", [pretrain, evaluate_perplexity, finetune])
def test_session_calls_accept_cache_and_threads(fn):
    params = inspect.signature(fn).parameters
    assert "cache" in params and "threads" in params


class OneArgumentClock:
    """A wrapper installed on a model instance, as perfbench's ``StepClock``
    and ``tools/ab_steps.py`` install theirs, which pass the batch on as the
    one argument. A deep copy of the model (each fine-tune run trains one)
    gets a wrapper of its own that records into the same list."""

    def __init__(self, model, calls):
        self.model, self.calls = model, calls
        model.forward = self

    def __call__(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return type(self.model).forward(self.model, *args, **kwargs)

    def __deepcopy__(self, memo):
        return OneArgumentClock(memo[id(self.model)], self.calls)


def test_every_forward_call_passes_one_argument(tmp_path):
    paths = generate_grounded_corpus(ToySpec(seed=1, n_examples=120), tmp_path)
    vocab = Vocab.load(paths.vocab)
    captions = load_caption_corpus(paths.captions)
    table = load_word_vectors(paths.word_vectors)
    co = Corpora(vocab=vocab, text_only=open(paths.corpus).read().splitlines(),
                 paired=list(captions.items()), store=ImageFeatureStore(paths.features),
                 table=table, caption_index=build_caption_index(captions, table))
    model = CrossModalModel(ModelConfig(vocab_size=len(vocab), d=16, d_v=64, n_layers_text=1,
                                        n_layers_cross=1, n_heads=2, max_len=8, k_max=4))
    calls = []
    OneArgumentClock(model, calls)
    cfg = TrainConfig(batch_size=16, max_steps=3, eval_every=2)
    phases = {}
    for name in ("NoGrounding", "TransferredT2I", "TransferredBoth", "AssociativeScene"):
        pretrain(Strategy(name, k=2), co, model, cfg, cache=AssociationCache(), threads=1)
        phases[name] = len(calls)
    evaluate_perplexity(model, co.text_only[:40], vocab, seed=0, mode="scene", corpora=co,
                        k=2, batch_size=16, cache=AssociationCache(), threads=1)
    phases["evaluate_perplexity"] = len(calls)
    task = Task("accuracy", [TaskExample(int(cap.split()[0][1:]) % 2, cap)
                             for cap in list(captions.values())[:24]], [0, 1])
    finetune(model, task, Strategy("AssociativeScene", k=2), TrainConfig(batch_size=8,
             max_steps=2), corpora=co, n_runs=2, cache=AssociationCache(), threads=1)
    phases["finetune"] = len(calls)
    counts = list(phases.values())
    assert all(b > a for a, b in zip([0] + counts, counts)), phases
    assert all(len(args) == 1 and not kwargs for args, kwargs in calls)
