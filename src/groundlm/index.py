"""Image-key archive: exact top-K cosine retrieval plus binary persistence.

Keys are unit-normalized at build time, so cosine similarity is a single
matrix-vector product. Retrieval is exact: every shard is fully scanned, then
the K best are selected rather than sorted. ``np.partition`` finds the K-th
best similarity, every row at least that good is kept (so a tie group that
straddles position K survives whole), and only those candidates are sorted,
by similarity and then by each id's precomputed integer rank. Shard winners
are merged the same way, so the ranked list is independent of the thread
count and equal to a brute-force sort by (similarity desc, id asc). Keys and
queries must be finite; non-finite ones are rejected, because they have no
place in that order.

File formats (all little-endian):
  index  — magic ``VIDX``, u32 version=1, u32 dim, u64 count, then per item
           u32-length-prefixed UTF-8 id, u8 source kind, u64 payload ref,
           dim float32 key components.
  store  — magic ``VFTR``, u32 version=1, u32 n_regions, u32 feat_dim,
           u64 count, then per image u32-length-prefixed id followed by
           n_regions*feat_dim float32s. A JSON sidecar (``<path>.manifest.json``)
           maps id to the byte offset of its record.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .embeddings import QueryVector

INDEX_MAGIC = b"VIDX"
STORE_MAGIC = b"VFTR"
INDEX_VERSION = 1
STORE_VERSION = 1

_SOURCE_KINDS = ("caption", "synset")


@dataclass
class KeyedImage:
    id: str
    key: np.ndarray          # unit vector, float32
    payload_ref: int
    source_kind: str = "caption"


class ImageKeyIndex:
    def __init__(self, dim: int, items: List[KeyedImage], shard_size: int = 65536,
                 skipped: int = 0):
        self.dim = dim
        self.items = items
        self.shard_size = shard_size
        self.skipped = skipped
        if items:
            self._keys = np.ascontiguousarray(np.stack([it.key for it in items]))
            finite = np.isfinite(self._keys).all(axis=1)
            if not finite.all():
                bad = items[int(np.argmin(finite))].id
                raise ValueError(f"non-finite key for id {bad!r}")
        else:
            self._keys = np.zeros((0, dim), dtype=np.float32)
        # each row's position in ascending id order: ties break on an int
        ids = np.array([it.id for it in items], dtype=str)
        self._id_rank = np.empty(len(items), dtype=np.int64)
        self._id_rank[np.argsort(ids, kind="stable")] = np.arange(len(items))

    def __len__(self) -> int:
        return len(self.items)


def default_threads() -> int:
    env = os.environ.get("GLM_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return 1


def build_index(entries: Iterable[Tuple[str, np.ndarray, int, str]],
                shard_size: int = 65536) -> ImageKeyIndex:
    """Normalize and stack (id, raw key, payload_ref, source_kind) entries.

    Zero-norm keys are skipped (counted on ``index.skipped``); duplicate ids
    and mismatched dimensions raise.
    """
    items: List[KeyedImage] = []
    seen = set()
    dim: Optional[int] = None
    skipped = 0
    for entry_id, raw, payload_ref, source_kind in entries:
        if source_kind not in _SOURCE_KINDS:
            raise ValueError(f"unknown source_kind {source_kind!r} for id {entry_id!r}")
        vec = np.asarray(raw, dtype=np.float32).reshape(-1)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ValueError(
                f"key for id {entry_id!r} has dim {vec.shape[0]}, index dim is {dim}")
        if entry_id in seen:
            raise ValueError(f"duplicate id {entry_id!r}")
        seen.add(entry_id)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            skipped += 1
            continue
        items.append(KeyedImage(entry_id, vec / np.float32(norm), int(payload_ref), source_kind))
    if skipped:
        warnings.warn(f"build_index: skipped {skipped} zero-norm keys", stacklevel=2)
    if dim is None:
        dim = 0
    return ImageKeyIndex(dim, items, shard_size=shard_size, skipped=skipped)


def _rank(id_rank: np.ndarray, sims: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best entries by (similarity desc, id rank asc).

    Selection, not a full sort: the k-th best similarity is found with
    ``np.partition``, every entry at least that good is a candidate (the
    whole tie group at the boundary included), and only the candidates are
    sorted.
    """
    n = sims.shape[0]
    if k < n:
        kth = np.partition(sims, n - k)[n - k]
        cand = np.flatnonzero(sims >= kth)
    else:
        cand = np.arange(n)
    order = np.lexsort((id_rank[cand], -sims[cand]))
    return cand[order[:k]]


def top_k(index: ImageKeyIndex, query, k: int,
          threads: Optional[int] = None) -> List[Tuple[str, float]]:
    """Exact K-nearest by cosine, descending, ties broken by ascending id.

    Each shard is scanned with one matrix-vector product and reduced to its
    K best by ``_rank``; the shard winners are ranked again the same way.
    Non-finite queries are rejected.
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if isinstance(query, QueryVector):
        if query.is_degenerate:
            raise ValueError("top_k: degenerate query (no in-vocabulary tokens)")
        q = query.values
    else:
        q = np.asarray(query, dtype=np.float32).reshape(-1)
    if q.shape[0] != index.dim:
        raise ValueError(f"query dim {q.shape[0]} != index dim {index.dim}")
    if not np.isfinite(q).all():
        raise ValueError("top_k: non-finite query")
    norm = float(np.linalg.norm(q))
    if norm < 1e-12:
        raise ValueError("top_k: zero-norm query")
    q = (q / np.float32(norm)).astype(np.float32)
    n = len(index)
    if n == 0:
        return []

    threads = default_threads() if threads is None else max(1, threads)
    shards = [(s, min(s + index.shard_size, n)) for s in range(0, n, index.shard_size)]

    def scan(bounds):
        lo, hi = bounds
        sims = index._keys[lo:hi] @ q
        local = _rank(index._id_rank[lo:hi], sims, k)
        return local + lo, sims[local]

    if len(shards) == 1:
        best_idx, best_sim = scan(shards[0])
    else:
        if threads == 1:
            parts = [scan(b) for b in shards]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(scan, shards))
        cand_idx = np.concatenate([p[0] for p in parts])
        cand_sim = np.concatenate([p[1] for p in parts])
        best = _rank(index._id_rank[cand_idx], cand_sim, k)
        best_idx, best_sim = cand_idx[best], cand_sim[best]
    return [(index.items[i].id, float(s)) for i, s in zip(best_idx.tolist(), best_sim)]


# -- index persistence -------------------------------------------------------


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"unexpected end of file while reading {what}")
    return buf


def save_index(index: ImageKeyIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<IIQ", INDEX_VERSION, index.dim, len(index.items)))
        for it in index.items:
            raw_id = it.id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_id)))
            fh.write(raw_id)
            fh.write(struct.pack("<BQ", _SOURCE_KINDS.index(it.source_kind), it.payload_ref))
            fh.write(np.ascontiguousarray(it.key, dtype="<f4").tobytes())


def load_index(path, shard_size: int = 65536) -> ImageKeyIndex:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != INDEX_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {INDEX_MAGIC!r}")
        version, dim, count = struct.unpack("<IIQ", _read_exact(fh, 16, "header"))
        if version != INDEX_VERSION:
            raise ValueError(f"unsupported index version {version}, expected {INDEX_VERSION}")
        items: List[KeyedImage] = []
        for i in range(count):
            (id_len,) = struct.unpack("<I", _read_exact(fh, 4, f"id length of item {i}"))
            item_id = _read_exact(fh, id_len, f"id of item {i}").decode("utf-8")
            kind_byte, payload_ref = struct.unpack("<BQ", _read_exact(fh, 9, f"item {i} header"))
            if kind_byte >= len(_SOURCE_KINDS):
                raise ValueError(f"bad source_kind byte {kind_byte} for item {i}")
            key = np.frombuffer(
                _read_exact(fh, 4 * dim, f"key of item {i}"), dtype="<f4").copy()
            items.append(KeyedImage(item_id, key, payload_ref, _SOURCE_KINDS[kind_byte]))
    return ImageKeyIndex(dim, items, shard_size=shard_size)


# -- region-feature store -----------------------------------------------------


def write_feature_store(path, images: Sequence[Tuple[str, np.ndarray]],
                        n_regions: int, feat_dim: int) -> Dict[str, int]:
    """Write the binary store plus its JSON offset manifest; returns offsets."""
    offsets: Dict[str, int] = {}
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(struct.pack("<IIIQ", STORE_VERSION, n_regions, feat_dim, len(images)))
        for image_id, rows in images:
            arr = np.ascontiguousarray(rows, dtype="<f4")
            if arr.shape != (n_regions, feat_dim):
                raise ValueError(
                    f"image {image_id!r}: expected shape {(n_regions, feat_dim)}, got {arr.shape}")
            if image_id in offsets:
                raise ValueError(f"duplicate image id {image_id!r}")
            offsets[image_id] = fh.tell()
            raw_id = image_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_id)))
            fh.write(raw_id)
            fh.write(arr.tobytes())
    manifest = {"version": STORE_VERSION, "n_regions": n_regions,
                "feat_dim": feat_dim, "offsets": offsets}
    with open(str(path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=0)
    return offsets


class ImageFeatureStore:
    """Random-access reader over the binary region-feature file.

    Every ``get`` increments ``reads``, which lets tests prove a training
    mode never touched image features.
    """

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(path, "rb")
        magic = _read_exact(self._fh, 4, "magic")
        if magic != STORE_MAGIC:
            self._fh.close()
            raise ValueError(f"bad magic {magic!r}, expected {STORE_MAGIC!r}")
        version, self.n_regions, self.feat_dim, self.count = struct.unpack(
            "<IIIQ", _read_exact(self._fh, 20, "header"))
        if version != STORE_VERSION:
            self._fh.close()
            raise ValueError(f"unsupported store version {version}, expected {STORE_VERSION}")
        self.offsets = self._load_manifest()
        self.reads = 0
        self._cache: Dict[str, np.ndarray] = {}

    def _load_manifest(self) -> Dict[str, int]:
        manifest_path = self.path + ".manifest.json"
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            if manifest.get("n_regions") != self.n_regions or manifest.get("feat_dim") != self.feat_dim:
                raise ValueError("manifest geometry disagrees with store header")
            return {k: int(v) for k, v in manifest["offsets"].items()}
        # no sidecar: rebuild offsets with one sequential scan
        offsets: Dict[str, int] = {}
        payload = 4 * self.n_regions * self.feat_dim
        for i in range(self.count):
            offsets_at = self._fh.tell()
            (id_len,) = struct.unpack("<I", _read_exact(self._fh, 4, f"id length of image {i}"))
            image_id = _read_exact(self._fh, id_len, f"id of image {i}").decode("utf-8")
            offsets[image_id] = offsets_at
            self._fh.seek(payload, os.SEEK_CUR)
        return offsets

    def __contains__(self, image_id: str) -> bool:
        return image_id in self.offsets

    def ids(self) -> List[str]:
        return list(self.offsets)

    def get(self, image_id: str) -> np.ndarray:
        """Region features (n_regions, feat_dim) float32 for one image.

        Rows are cached in memory after the first fetch; treat the returned
        array as read-only.
        """
        try:
            offset = self.offsets[image_id]
        except KeyError:
            raise KeyError(f"image id {image_id!r} not in feature store") from None
        self.reads += 1
        cached = self._cache.get(image_id)
        if cached is not None:
            return cached
        self._fh.seek(offset)
        (id_len,) = struct.unpack("<I", _read_exact(self._fh, 4, "id length"))
        self._fh.seek(id_len, os.SEEK_CUR)
        raw = _read_exact(self._fh, 4 * self.n_regions * self.feat_dim, f"features of {image_id!r}")
        rows = np.frombuffer(raw, dtype="<f4").reshape(self.n_regions, self.feat_dim).copy()
        self._cache[image_id] = rows
        return rows

    def get_by_ref(self, payload_ref: int) -> np.ndarray:
        self.reads += 1
        self._fh.seek(payload_ref)
        (id_len,) = struct.unpack("<I", _read_exact(self._fh, 4, "id length"))
        self._fh.seek(id_len, os.SEEK_CUR)
        raw = _read_exact(self._fh, 4 * self.n_regions * self.feat_dim, "features")
        return np.frombuffer(raw, dtype="<f4").reshape(self.n_regions, self.feat_dim).copy()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
