"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark's tracer patches functions by dotted name and its checks call
``associate_object`` positionally; a rename or a signature change here would
otherwise first show up as a crash in a traced benchmark run. The tracer is
loaded from its file and only read.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

import groundlm
from groundlm.associate import NounLexicon, SynsetEntry, build_synset_index
from groundlm.embeddings import WordEmbeddingTable

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
