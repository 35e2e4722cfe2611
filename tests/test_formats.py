"""Edge cases shared by the three binary formats: VIDX (image-key index),
VFTR (region-feature store) and GLMC (model checkpoint).

A file either loads exactly what was written or raises one ``ValueError``
whose message names the file. Every strict prefix of a small file and the
file with one byte appended are checked, and a Hypothesis fuzz truncates,
inserts into and flips bytes of each format. A flipped byte inside a value
(a float, an id, a config number) cannot be detected without a checksum, so
a flipped file may load; it must then keep every shape. A VIDX item is only
an id and its key, so a VIDX flip that loads changed one of those.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_model
from groundlm.index import (ImageFeatureStore, build_index, load_index, save_index,
                            write_feature_store)
from groundlm.model import load_checkpoint, save_checkpoint


def write_vidx(path):
    rng = np.random.default_rng(1)
    save_index(build_index((f"img{i}", rng.normal(size=3)) for i in range(3)), path)


def write_vftr(path):
    rng = np.random.default_rng(2)
    write_feature_store(path, [(image_id, rng.normal(size=(2, 3)))
                               for image_id in ("a", "bb", "ccc")], n_regions=2, feat_dim=3)


def write_glmc(path):
    save_checkpoint(tiny_model(vocab_size=8, d=2, d_v=2, n_heads=1, max_len=2, k_max=1),
                    path)


FORMATS = {
    "vidx": (write_vidx, load_index),
    "vftr": (write_vftr, ImageFeatureStore),
    "glmc": (write_glmc, load_checkpoint),
}


@pytest.fixture(params=sorted(FORMATS))
def written(request, tmp_path):
    write, load = FORMATS[request.param]
    path = tmp_path / f"x.{request.param}"
    write(path)
    return path, path.read_bytes(), load


def test_every_strict_prefix_rejected_naming_file(written):
    path, blob, load = written
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError, match="unexpected end of file") as err:
            load(path)
        assert str(path) in str(err.value), n


def test_appended_byte_rejected_naming_file_and_offset(written):
    path, blob, load = written
    load(path)  # the file as written loads
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value) == f"{path}: 1 trailing byte(s) at offset {len(blob)}"


def test_store_rejects_duplicate_and_non_utf8_ids(tmp_path):
    path = tmp_path / "x.vftr"
    write_feature_store(path, [("a", np.zeros((1, 1))), ("b", np.ones((1, 1)))],
                        n_regions=1, feat_dim=1)
    blob = path.read_bytes()
    second = blob.index(b"b")
    path.write_bytes(blob[:second] + b"a" + blob[second + 1:])
    with pytest.raises(ValueError, match=f"duplicate image id 'a' at offset {second - 4}"):
        ImageFeatureStore(path)
    path.write_bytes(blob[:second] + b"\xff" + blob[second + 1:])
    with pytest.raises(ValueError, match=f"id of image 1 is not UTF-8 at offset {second}"):
        ImageFeatureStore(path)


def written_as(fmt, loaded):
    """Everything a loaded file holds, in comparable form."""
    if fmt == "vidx":
        return loaded.dim, [(it.id, it.key.tobytes()) for it in loaded.items]
    if fmt == "vftr":
        return (loaded.n_regions, loaded.feat_dim, loaded.offsets,
                loaded.gather(list(loaded.offsets)).tobytes())
    return asdict(loaded.config), {name: (p.data.shape, p.data.tobytes())
                                   for name, p in loaded.params.items()}


def shapes_of(fmt, loaded):
    if fmt == "vidx":
        return loaded.dim, len(loaded.items)
    if fmt == "vftr":
        return loaded.n_regions, loaded.feat_dim, loaded.count
    return {name: p.data.shape for name, p in loaded.params.items()}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Per format: the file path, its bytes and what loading it gives."""
    out = {}
    for fmt, (write, load) in FORMATS.items():
        path = tmp_path_factory.mktemp("fuzz") / f"x.{fmt}"
        write(path)
        out[fmt] = path, path.read_bytes(), load(path)
    return out


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_file_loads_as_written_or_raises_value_error(originals, fmt, data):
    path, blob, loaded = originals[fmt]
    load = FORMATS[fmt][1]
    kind = data.draw(st.sampled_from(["truncate", "insert", "flip"]), label="kind")
    if kind == "truncate":
        cut = data.draw(st.integers(0, len(blob) - 1), label="length")
        mutated = blob[:cut]
    elif kind == "insert":
        at = data.draw(st.integers(0, len(blob)), label="at")
        mutated = blob[:at] + data.draw(st.binary(min_size=1, max_size=8), label="bytes") \
            + blob[at:]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        mutated = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    path.write_bytes(mutated)
    try:
        got = load(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    if kind == "flip":
        assert shapes_of(fmt, got) == shapes_of(fmt, loaded)
    else:
        assert written_as(fmt, got) == written_as(fmt, loaded)
