import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlm.index import (ImageFeatureStore, build_index, load_index,
                            save_index, top_k, write_feature_store)


def qv(values):
    return np.asarray(values, dtype=np.float32)


def entries_from(keys, prefix="img"):
    return [(f"{prefix}{i:04d}", np.asarray(k, dtype=np.float32)) for i, k in enumerate(keys)]


class TestBuild:
    def test_keys_normalized(self):
        index = build_index(entries_from([[3.0, 4.0]]))
        item = index.items[0]
        np.testing.assert_allclose(item.key, [0.6, 0.8], rtol=1e-6)

    def test_duplicate_id_rejected(self):
        rows = entries_from([[1.0, 0.0], [0.0, 1.0]])
        rows[1] = (rows[0][0],) + rows[1][1:]
        with pytest.raises(ValueError, match=rows[0][0]):
            build_index(rows)

    def test_zero_key_skipped_with_count(self):
        rows = entries_from([[0.0, 0.0]])
        with pytest.warns(UserWarning):
            index = build_index(rows)
        assert len(index.items) == 0
        assert index.skipped == 1

    def test_mixed_dim_rejected(self):
        rows = [("a", np.ones(2, dtype=np.float32)), ("b", np.ones(3, dtype=np.float32))]
        with pytest.raises(ValueError):
            build_index(rows)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_key_rejected_naming_id(self, bad):
        rows = entries_from([[1.0, 0.0], [bad, 1.0], [0.0, bad]])
        with pytest.raises(ValueError, match="non-finite key for id 'img0001'"):
            build_index(rows)


class TestTopK:
    def test_self_retrieval_similarity_one(self, rng):
        keys = rng.normal(size=(20, 8))
        index = build_index(entries_from(keys))
        out = top_k(index, qv(keys[7]), 1)
        assert out[0][0] == "img0007"
        assert abs(out[0][1] - 1.0) < 1e-6

    def test_k_larger_than_index_returns_all_sorted(self, rng):
        keys = rng.normal(size=(5, 4))
        index = build_index(entries_from(keys))
        out = top_k(index, qv(rng.normal(size=4)), 16)
        assert len(out) == 5
        sims = [s for _id, s in out]
        assert sims == sorted(sims, reverse=True)

    def test_brute_force_oracle_thousand_keys(self, rng):
        keys = rng.normal(size=(1000, 16))
        index = build_index(entries_from(keys))
        query = rng.normal(size=16).astype(np.float32)
        out = top_k(index, qv(query), 16)

        unit = keys / np.linalg.norm(keys, axis=1, keepdims=True)
        q = query / np.linalg.norm(query)
        sims = (unit @ q).astype(np.float32)
        ids = np.array([f"img{i:04d}" for i in range(1000)])
        order = np.lexsort((ids, -sims))
        expected = [ids[j] for j in order[:16]]
        assert [i for i, _s in out] == expected

    def test_tie_break_ascending_id(self):
        index = build_index(entries_from([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        out = top_k(index, qv([1.0, 0.0]), 2)
        assert [i for i, _s in out] == ["img0000", "img0001"]

    def test_degenerate_query_rejected(self, rng):
        index = build_index(entries_from(rng.normal(size=(3, 4))))
        with pytest.raises(ValueError, match="zero-norm query"):
            top_k(index, np.zeros(4, dtype=np.float32), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, rng, bad):
        index = build_index(entries_from(rng.normal(size=(3, 4))))
        with pytest.raises(ValueError, match="non-finite query"):
            top_k(index, qv([1.0, bad, 0.0, 0.0]), 2)

    def test_dim_mismatch_and_bad_k(self, rng):
        index = build_index(entries_from(rng.normal(size=(3, 4))))
        with pytest.raises(ValueError):
            top_k(index, qv(np.ones(5)), 2)
        with pytest.raises(ValueError):
            top_k(index, qv(np.ones(4)), 0)


# Distinct directions whose unit vectors and pairwise dot products are exact
# in float32 (components 0, +-1/2 or +-1), so the oracle's similarities are
# the same floats however BLAS blocks the scan's matrix-vector product.
DYADIC_DIRS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (1, 1, 1, 1),
               (1, -1, 1, -1), (-1, -1, 1, 1), (1, 1, -1, 1), (-1, 0, 0, 0)]
ID_TEXT = st.text(alphabet="ab0", min_size=1, max_size=4)


def oracle_top_k(ids, raw_keys, query, k):
    """Brute force: float32 cosine, similarity desc then id asc, exact floats."""
    keys = np.stack([v / np.float32(float(np.linalg.norm(v))) for v in raw_keys])
    q = query / np.float32(float(np.linalg.norm(query)))
    sims = keys @ q.astype(np.float32)
    order = np.lexsort((np.array(ids), -sims))[:k]
    return [(ids[i], float(sims[i])) for i in order]


@st.composite
def tie_heavy_case(draw, dirs):
    n_dirs = draw(st.integers(1, 4))
    picked = draw(st.lists(st.sampled_from(range(len(dirs))), min_size=n_dirs,
                           max_size=n_dirs, unique=True))
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=24, unique=True))
    rows = draw(st.lists(st.sampled_from(picked), min_size=len(ids), max_size=len(ids)))
    scales = draw(st.lists(st.sampled_from([0.5, 1.0, 4.0]), min_size=len(ids),
                           max_size=len(ids)))
    raw = [np.asarray(dirs[r], dtype=np.float32) * np.float32(c)
           for r, c in zip(rows, scales)]
    query = np.asarray(dirs[draw(st.sampled_from(range(len(dirs))))], dtype=np.float32)
    k = draw(st.integers(1, len(ids) + 1))
    return ids, raw, query, k


class TestTieHeavyOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=tie_heavy_case(DYADIC_DIRS))
    def test_sharded_top_k_equals_oracle(self, case):
        ids, raw, query, k = case
        index = build_index(zip(ids, raw))
        assert top_k(index, qv(query), k) == oracle_top_k(ids, raw, query, k)

    @settings(max_examples=100, deadline=None)
    @given(case=tie_heavy_case([tuple(r) for r in
                                np.random.default_rng(5).normal(size=(6, 5))]))
    def test_single_shard_top_k_equals_oracle(self, case):
        ids, raw, query, k = case
        index = build_index(zip(ids, raw))
        assert top_k(index, qv(query), k) == oracle_top_k(ids, raw, query, k)


@st.composite
def gaussian_case(draw):
    """Gaussian keys with some rows repeated (exact ties) and ids whose
    order differs from row order; similarities are not dyadic, so a scan
    that did not score every key in the one product could round them
    differently from the oracle."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=(n, d)).astype(np.float32)
    for i, j in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        if draw(st.booleans()) and draw(st.booleans()):
            raw[i] = raw[j]
    ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
    query = rng.normal(size=d).astype(np.float32)
    k = draw(st.integers(1, n + 1))
    return ids, list(raw), query, k


class TestShardIndependence:
    @settings(max_examples=150, deadline=None)
    @given(case=gaussian_case())
    def test_gaussian_keys_equal_oracle_at_any_shard_size(self, case):
        ids, raw, query, k = case
        index = build_index(zip(ids, raw))
        assert top_k(index, qv(query), k) == oracle_top_k(ids, raw, query, k)


class TestPersistence:
    def test_round_trip_equal(self, tmp_path, rng):
        keys = rng.normal(size=(3, 4))
        index = build_index(entries_from(keys))
        path = tmp_path / "x.vidx"
        save_index(index, path)
        back = load_index(path)
        assert [it.id for it in back.items] == [it.id for it in index.items]
        for a, b in zip(index.items, back.items):
            np.testing.assert_array_equal(a.key, b.key)

    def test_rewrite_byte_identical(self, tmp_path, rng):
        index = build_index(entries_from(rng.normal(size=(4, 3))))
        p1, p2 = tmp_path / "a.vidx", tmp_path / "b.vidx"
        save_index(index, p1)
        save_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_error(self, tmp_path, rng):
        path = tmp_path / "x.vidx"
        save_index(build_index(entries_from(rng.normal(size=(3, 4)))), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 5])
        with pytest.raises(ValueError, match="unexpected end"):
            load_index(path)

    def test_version_mismatch_names_versions(self, tmp_path, rng):
        path = tmp_path / "x.vidx"
        save_index(build_index(entries_from(rng.normal(size=(1, 4)))), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # little-endian u32 version right after magic
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="99"):
            load_index(path)

    def test_non_finite_key_on_disk_rejected_naming_id(self, tmp_path):
        index = build_index(entries_from([[1.0, 0.0], [3.0, 4.0]]))
        path = tmp_path / "x.vidx"
        save_index(index, path)
        blob = path.read_bytes()
        key = index.items[1].key.astype("<f4").tobytes()
        assert blob.count(key) == 1
        path.write_bytes(blob.replace(key, np.array([0.6, np.nan], dtype="<f4").tobytes()))
        with pytest.raises(ValueError, match="img0001"):
            load_index(path)

    def test_duplicate_id_rejected_naming_file_id_and_offset(self, tmp_path):
        index = build_index([("aa", [1.0, 0.0]), ("ab", [0.99, 0.1])])
        index.items[1].id = "aa"
        path = tmp_path / "x.vidx"
        save_index(index, path)
        second = 20 + (4 + 2 + 4 * 2)   # header, then the first record
        with pytest.raises(ValueError) as err:
            load_index(path)
        assert str(err.value) == f"{path}: duplicate id 'aa' at offset {second}"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.vidx"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_index(path)


class TestFeatureStore:
    def test_round_trip_and_reads_counter(self, tmp_path, rng):
        feats = {f"i{i}": rng.normal(size=(2, 4)).astype(np.float32) for i in range(5)}
        path = tmp_path / "f.vftr"
        write_feature_store(path, feats.items(), n_regions=2, feat_dim=4)
        store = ImageFeatureStore(path)
        assert store.n_regions == 2 and store.feat_dim == 4
        np.testing.assert_array_equal(store.get("i3"), feats["i3"])
        assert store.reads == 1
        store.get("i3")  # a loaded row still counts as an access
        assert store.reads == 2

    def test_gather_matches_get_and_counts_reads(self, tmp_path, rng):
        feats = {f"i{i}": rng.normal(size=(2, 3)).astype(np.float32) for i in range(6)}
        path = tmp_path / "f.vftr"
        write_feature_store(path, feats.items(), n_regions=2, feat_dim=3)
        store = ImageFeatureStore(path)
        got = store.gather(["i4", "i0", "i4"])
        assert got.shape == (3, 2, 3) and store.reads == 3
        for row, image_id in zip(got, ["i4", "i0", "i4"]):
            np.testing.assert_array_equal(row, feats[image_id])
        with pytest.raises(ValueError, match="zzz") as err:
            store.gather(["i1", "zzz"])
        assert str(path) in str(err.value)
        assert store.reads == 3

    @pytest.mark.parametrize("new_ids", [["b", "a"], ["bb", "a"]])
    def test_leftover_sidecar_ignored(self, tmp_path, rng, new_ids):
        path = tmp_path / "f.vftr"
        feats = [rng.normal(size=(1, 3)).astype(np.float32) for _ in range(2)]
        old_offsets = write_feature_store(path, list(zip(["a", "b"], feats)), n_regions=1,
                                          feat_dim=3)
        # an older bundle's offset sidecar, left next to a store rewritten with
        # other ids in another order
        sidecar = {"version": 1, "n_regions": 1, "feat_dim": 3, "offsets": old_offsets}
        (tmp_path / "f.vftr.manifest.json").write_text(json.dumps(sidecar))
        offsets = write_feature_store(path, list(zip(new_ids, feats)), n_regions=1,
                                      feat_dim=3)
        store = ImageFeatureStore(path)
        assert store.offsets == offsets != old_offsets
        for image_id, rows in zip(new_ids, feats):
            np.testing.assert_array_equal(store.get(image_id), rows)

    def test_unknown_id_and_shape_errors(self, tmp_path, rng):
        path = tmp_path / "f.vftr"
        write_feature_store(path, [("a", np.ones((1, 3), dtype=np.float32))],
                            n_regions=1, feat_dim=3)
        store = ImageFeatureStore(path)
        with pytest.raises(ValueError, match="'zzz' not in feature store"):
            store.get("zzz")
        with pytest.raises(ValueError):
            write_feature_store(tmp_path / "g.vftr",
                                [("a", np.ones((2, 3), dtype=np.float32))],
                                n_regions=1, feat_dim=3)

    def test_duplicate_id_rejected(self, tmp_path):
        rows = [("a", np.ones((1, 2), dtype=np.float32)),
                ("a", np.zeros((1, 2), dtype=np.float32))]
        with pytest.raises(ValueError):
            write_feature_store(tmp_path / "f.vftr", rows, n_regions=1, feat_dim=2)

    @pytest.mark.parametrize("bad, match", [
        (("a", np.zeros((1, 2), dtype=np.float32)), "duplicate image id 'a'"),
        (("c", np.zeros((2, 2), dtype=np.float32)), r"'c': expected shape \(1, 2\)"),
    ], ids=["duplicate", "shape"])
    def test_rejected_write_changes_no_file(self, tmp_path, bad, match):
        """The last record is the bad one: nothing is written, so no file is
        created and an existing store keeps every byte."""
        rows = [("a", np.ones((1, 2), dtype=np.float32)),
                ("b", np.full((1, 2), 2.0, dtype=np.float32)), bad]
        fresh = tmp_path / "new.vftr"
        with pytest.raises(ValueError, match=match):
            write_feature_store(fresh, rows, n_regions=1, feat_dim=2)
        assert not fresh.exists()
        kept = tmp_path / "kept.vftr"
        write_feature_store(kept, rows[:2], n_regions=1, feat_dim=2)
        before = kept.read_bytes()
        with pytest.raises(ValueError, match=match):
            write_feature_store(kept, rows, n_regions=1, feat_dim=2)
        assert kept.read_bytes() == before
        np.testing.assert_array_equal(ImageFeatureStore(kept).get("b"), rows[1][1])
