"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark's tracer patches functions by dotted name, its checks call
``associate_object`` positionally, and its session loads the feature store,
builds the synset index from the store's offsets and passes one association
cache and a thread count to pretraining, evaluation and the probe; a rename or
a signature change here would otherwise first show up as a crash in a
benchmark run. The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

import groundlm
from groundlm.associate import (AssociationCache, NounLexicon, SynsetEntry,
                                build_synset_index)
from groundlm.embeddings import WordEmbeddingTable
from groundlm.finetune import finetune
from groundlm.index import ImageFeatureStore, write_feature_store
from groundlm.train import evaluate_perplexity, pretrain

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
    lexicon = NounLexicon(frozenset({"dog", "cat"}))
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
    assert [(it.id, it.payload_ref) for it in index.items] == \
        [("d1", written["d1"]), ("c1", written["c1"])]
    store.close()


def test_association_cache_counts_hits_and_misses():
    cache = AssociationCache()
    assert (cache.hits, cache.misses) == (0, 0)


@pytest.mark.parametrize("fn", [pretrain, evaluate_perplexity, finetune])
def test_session_calls_accept_cache_and_threads(fn):
    params = inspect.signature(fn).parameters
    assert "cache" in params and "threads" in params
