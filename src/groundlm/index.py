"""Image-key archive: exact top-K cosine retrieval plus binary persistence.

Keys are unit-normalized at build time, so cosine similarity is one
matrix-vector product over all keys. Retrieval is exact: that similarity
vector is reduced to its K best by selection rather than a full sort.
``np.partition`` finds the K-th best similarity, every row at least that
good is kept (so a tie group that straddles position K survives whole), and
only those candidates are sorted, by similarity and then by each id's
precomputed integer rank, which equals a brute-force sort by (similarity
desc, id asc). Keys and queries are float32 arrays and must be finite;
non-finite ones have no place in that order and are rejected. A vector of
norm below ``embeddings.NORM_FLOOR`` ("no usable word", as the zero vector)
has no direction: ``build_index`` skips it as a key and ``top_k`` rejects it
as a query.

File formats (all little-endian):
  index  — magic ``VIDX``, u32 version=2, u32 dim, u64 count, then per item
           u32-length-prefixed UTF-8 id followed by dim float32 key components.
  store  — magic ``VFTR``, u32 version=1, u32 n_regions, u32 feat_dim,
           u64 count, then per image u32-length-prefixed UTF-8 id followed
           by n_regions*feat_dim float32s. The file is the whole store: ids
           and record offsets are found by reading it in order.

Both files, and the GLMC checkpoints of ``model``, are read through
``ByteReader``: a short, overlong or otherwise malformed file raises one
``ValueError`` naming the file, what was being read and the byte offset.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .embeddings import NORM_FLOOR, norms, usable

INDEX_MAGIC = b"VIDX"
STORE_MAGIC = b"VFTR"
INDEX_VERSION = 2
STORE_VERSION = 1

_U32 = struct.Struct("<I")


@dataclass
class KeyedImage:
    id: str
    key: np.ndarray          # unit vector, float32


class ImageKeyIndex:
    """Ids and stacked unit keys; ``items`` as records, made on use."""

    def __init__(self, dim: int, ids: Sequence[str], keys: np.ndarray, skipped: int = 0):
        self.dim, self.ids, self.skipped = dim, list(ids), skipped
        self._keys = np.ascontiguousarray(keys, dtype=np.float32).reshape(len(self.ids), dim)
        finite = np.isfinite(self._keys).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite key for id {self.ids[int(np.argmin(finite))]!r}")
        # each row's position in ascending id order: ties break on an int
        self._id_rank = np.argsort(np.argsort(np.array(self.ids, dtype=str), kind="stable"))
        # (query bytes, K) -> top_k result, filled by callers whose queries
        # repeat (object association's nouns); lives and dies with the index
        self.rankings: Dict[Tuple[bytes, int], List[Tuple[str, float]]] = {}

    @cached_property
    def items(self) -> List[KeyedImage]:
        return list(map(KeyedImage, self.ids, self._keys))

    def __len__(self) -> int:
        return len(self.ids)


def build_index(entries: Iterable[Tuple[str, np.ndarray]]) -> ImageKeyIndex:
    """Normalize and stack (id, raw key) entries.

    Keys without a direction are skipped (counted on ``index.skipped``); duplicate
    ids and mismatched dimensions raise, naming the first entry that fails.
    """
    entries = list(entries)
    if not entries:
        return ImageKeyIndex(0, [], np.zeros((0, 0)))
    ids, raws = zip(*entries)
    # each key object is converted and normalized once: a synset's images share one
    slot: Dict[int, int] = {}
    which = np.array([slot.setdefault(id(raw), len(slot)) for raw in raws])
    keys = [np.asarray(raws[i], dtype=np.float32).reshape(-1)
            for i in np.unique(which, return_index=True)[1]]
    dims = np.array([key.shape[0] for key in keys])[which]
    if not (len(set(ids)) == len(ids) and (dims == dims[0]).all()):
        seen = set()
        for entry_id, dim in zip(ids, dims):
            if dim != dims[0]:
                raise ValueError(f"key for id {entry_id!r} has dim {dim}, index dim is {dims[0]}")
            if entry_id in seen:
                raise ValueError(f"duplicate id {entry_id!r}")
            seen.add(entry_id)
    keys = np.stack(keys)
    live = usable(keys)[which]
    skipped = len(ids) - int(live.sum())
    if skipped:
        warnings.warn(f"build_index: skipped {skipped} zero-norm keys", stacklevel=2)
    with np.errstate(divide="ignore", invalid="ignore"):   # keys without a direction
        unit = (keys / norms(keys)[:, None])[which[live]]
    return ImageKeyIndex(int(dims[0]), compress(ids, live.tolist()), unit, skipped=skipped)


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


def top_k(index: ImageKeyIndex, query: np.ndarray, k: int) -> List[Tuple[str, float]]:
    """Exact K-nearest by cosine, descending, ties broken by ascending id.

    All keys are scored with one matrix-vector product and the scores are
    ranked by one ``_rank``. Non-finite and zero-norm queries are rejected:
    the zero vector means "no usable word", and callers check for it first.
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float32).reshape(-1)
    if q.shape[0] != index.dim:
        raise ValueError(f"query dim {q.shape[0]} != index dim {index.dim}")
    if not np.isfinite(q).all():
        raise ValueError("top_k: non-finite query")
    norm = float(np.linalg.norm(q))
    if norm < NORM_FLOOR:
        raise ValueError("top_k: zero-norm query")
    q = (q / np.float32(norm)).astype(np.float32)
    if len(index) == 0:
        return []
    sims = index._keys @ q
    return [(index.ids[i], float(sims[i])) for i in _rank(index._id_rank, sims, k).tolist()]


# -- binary files ------------------------------------------------------------


class ByteReader:
    """A binary file read whole, with a read position.

    ``take`` and ``unpack`` advance the position; ``done`` rejects trailing
    bytes. Every failure is a ``ValueError`` naming the file, what was being
    read and the byte offset, so the CLI exits 1 with one line.
    """

    def __init__(self, path):
        self.path = str(path)
        with open(path, "rb") as fh:
            self.data = memoryview(fh.read())
        self.pos = 0

    def error(self, message: str, offset: Optional[int] = None) -> ValueError:
        return ValueError(f"{self.path}: {message} at offset "
                          f"{self.pos if offset is None else offset}")

    def take(self, n: int, what: str) -> memoryview:
        start = self.pos
        if n > len(self.data) - start:
            raise self.error(f"unexpected end of file while reading {what}")
        self.pos = start + n
        return self.data[start:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, what: str) -> str:
        """A u32-length-prefixed UTF-8 string."""
        (n,) = self.unpack("<I", what)
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{what} is not UTF-8", self.pos - n) from None

    def header(self, magic: bytes, version: int) -> None:
        """Check the 4-byte magic and the u32 version that open every format."""
        found = bytes(self.take(4, "magic"))
        if found != magic:
            raise self.error(f"bad magic {found!r}, expected {magic!r}", 0)
        (found_version,) = self.unpack("<I", "version")
        if found_version != version:
            raise self.error(f"unsupported {magic.decode()} version {found_version}, "
                             f"expected {version}", 4)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"{len(self.data) - self.pos} trailing byte(s)")


def save_index(index: ImageKeyIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<IIQ", INDEX_VERSION, index.dim, len(index.items)))
        for it in index.items:
            raw_id = it.id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_id)))
            fh.write(raw_id)
            fh.write(np.ascontiguousarray(it.key, dtype="<f4").tobytes())


def load_index(path) -> ImageKeyIndex:
    reader = ByteReader(path)
    reader.header(INDEX_MAGIC, INDEX_VERSION)
    dim, count = reader.unpack("<IQ", "header")
    records: List[tuple] = []
    seen = set()
    for i in range(count):
        start = reader.pos
        item_id = reader.text(f"id of item {i}")
        if item_id in seen:
            raise reader.error(f"duplicate id {item_id!r}", start)
        seen.add(item_id)
        key = np.frombuffer(reader.take(4 * dim, f"key of item {i}"), dtype="<f4")
        records.append((item_id, key))
    reader.done()
    ids, keys = zip(*records) if records else ((), ())
    try:
        return ImageKeyIndex(dim, ids, np.array(keys))
    except ValueError as exc:
        raise ValueError(f"{reader.path}: {exc}") from None


# -- region-feature store -----------------------------------------------------


def write_feature_store(path, images: Sequence[Tuple[str, np.ndarray]],
                        n_regions: int, feat_dim: int) -> Dict[str, int]:
    """Write the binary store; returns id -> byte offset of its record. Every
    record is checked before the file is opened, so a rejected write changes no file."""
    header = STORE_MAGIC + struct.pack("<IIIQ", STORE_VERSION, n_regions, feat_dim, len(images))
    shape, payload = (n_regions, feat_dim), 4 * n_regions * feat_dim
    offsets: Dict[str, int] = {}
    records = [header]
    pos = len(header)
    for image_id, rows in images:
        arr = np.ascontiguousarray(rows, dtype="<f4")
        if arr.shape != shape:
            raise ValueError(f"image {image_id!r}: expected shape {shape}, got {arr.shape}")
        if image_id in offsets:
            raise ValueError(f"duplicate image id {image_id!r}")
        offsets[image_id] = pos
        raw_id = image_id.encode("utf-8")
        records += (_U32.pack(len(raw_id)) + raw_id, arr)
        pos += 4 + len(raw_id) + payload
    with open(path, "wb") as fh:
        fh.writelines(records)
    return offsets


class ImageFeatureStore:
    """Every image of a binary region-feature file, in memory.

    The constructor reads the file once, in record order, into one dense
    (count, n_regions, feat_dim) float32 array, an id -> row map and
    ``offsets`` (id -> byte offset of the record); no file handle stays open.
    A batch of images is one fancy index into the array. Every image handed
    out by ``get`` or ``gather`` increments ``reads``, which lets tests prove
    a training mode never touched image features.
    """

    def __init__(self, path):
        self.path = str(path)
        reader = ByteReader(path)
        reader.header(STORE_MAGIC, STORE_VERSION)
        self.n_regions, self.feat_dim, self.count = reader.unpack("<IIQ", "header")
        payload = 4 * self.n_regions * self.feat_dim
        data, pos = reader.data, reader.pos
        self.offsets: Dict[str, int] = {}
        chunks = []
        for i in range(self.count):
            start = pos
            try:
                pos += 4 + _U32.unpack_from(data, start)[0]
                image_id = str(data[start + 4:pos], "utf-8")
            except (struct.error, UnicodeDecodeError):
                image_id = None
            if image_id is None or pos + payload > len(data) or image_id in self.offsets:
                # the reader reads the faulty record again and raises its error
                reader.pos = start
                image_id = reader.text(f"id of image {i}")
                if image_id in self.offsets:
                    raise reader.error(f"duplicate image id {image_id!r}", start)
                reader.take(payload, f"features of image {image_id!r}")
            self.offsets[image_id] = start
            chunks.append(data[pos:pos + payload])
            pos += payload
        reader.pos = pos
        reader.done()
        self._rows = {image_id: row for row, image_id in enumerate(self.offsets)}
        self._features = np.frombuffer(b"".join(chunks), dtype="<f4").reshape(
            self.count, self.n_regions, self.feat_dim)
        self.reads = 0

    def get(self, image_id: str) -> np.ndarray:
        """Region features (n_regions, feat_dim) float32 for one image."""
        return self.gather([image_id])[0]

    def gather(self, image_ids: Sequence[str]) -> np.ndarray:
        """Region features of many images, (len(image_ids), n_regions,
        feat_dim), taken with one fancy index."""
        try:
            picks = [self._rows[image_id] for image_id in image_ids]
        except KeyError as exc:
            raise ValueError(f"{self.path}: image id {exc.args[0]!r} not in feature store") \
                from None
        self.reads += len(picks)
        return self._features[picks]

    def close(self) -> None:
        """Nothing to release: the constructor read the file and closed it."""
