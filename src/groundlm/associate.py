"""Text-to-image association strategies.

Three ways to pick K images for a piece of text:

* scene: CBOW-encode the whole (masked) text, cosine top-K over an index of
  caption-keyed images.
* object: extract lexicon nouns, cluster their word vectors with a small
  GMM, pick a representative noun per cluster, and pull synset-keyed images
  for each representative.
* keyword baseline: rank images by how many content tokens of the text
  appear in their caption.

All strategies return an Association; an empty one signals "fall back to
the placeholder" to the model layer.
"""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .embeddings import WordEmbeddingTable, encode_cbow, encode_synset_key, tokenize
from .gmm import fit_gmm
from .index import ImageFeatureStore, ImageKeyIndex, build_index, top_k

MASK_TOKEN_TEXT = "[masked]"

CACHE_MAGIC = b"GLAC"
CACHE_VERSION = 1


@dataclass
class AssociationItem:
    image_id: str
    rank: int
    similarity: float
    regions: Optional[np.ndarray] = None   # (N, d_v) once resolved


@dataclass
class Association:
    strategy: str
    items: List[AssociationItem] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items


@dataclass
class NounLexicon:
    nouns: frozenset

    def __post_init__(self):
        if not self.nouns:
            raise ValueError("noun lexicon is empty")
        self.nouns = frozenset(n.lower() for n in self.nouns)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.nouns


def load_noun_lexicon(path) -> NounLexicon:
    """One noun per line; `#` comments and blank lines skipped."""
    nouns = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.split("#", 1)[0].strip().lower()
            if word:
                nouns.add(word)
    return NounLexicon(frozenset(nouns))


def extract_nouns(text: str, lexicon: NounLexicon) -> List[str]:
    """In-order lexicon hits, duplicates preserved."""
    return [t for t in tokenize(text) if t in lexicon]


# -- corpus / synset parsing --------------------------------------------------


def load_caption_corpus(path) -> Dict[str, str]:
    """TSV `image_id<TAB>caption` -> ordered dict; duplicate ids rejected."""
    corpus: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"line {lineno}: expected image_id<TAB>caption")
            image_id, caption = line.split("\t", 1)
            if not image_id:
                raise ValueError(f"line {lineno}: empty image id")
            if image_id in corpus:
                raise ValueError(f"line {lineno}: duplicate image id {image_id!r}")
            corpus[image_id] = caption
    return corpus


@dataclass
class SynsetEntry:
    synset_id: str
    lemmas: List[str]
    definition: str
    image_ids: List[str]


def load_synsets(path) -> List[SynsetEntry]:
    """TSV `synset_id<TAB>lemma,lemma<TAB>definition<TAB>img,img`."""
    out: List[SynsetEntry] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
            synset_id, lemma_field, definition, image_field = parts
            lemmas = [l.strip() for l in lemma_field.split(",") if l.strip()]
            image_ids = [i.strip() for i in image_field.split(",") if i.strip()]
            if not lemmas:
                raise ValueError(f"line {lineno}: synset {synset_id!r} has no lemmas")
            out.append(SynsetEntry(synset_id, lemmas, definition, image_ids))
    return out


# -- index builders -----------------------------------------------------------


def build_caption_index(corpus: Mapping[str, str], table: WordEmbeddingTable,
                        offsets: Optional[Mapping[str, int]] = None,
                        shard_size: int = 65536) -> ImageKeyIndex:
    """Key every image by the CBOW vector of its caption."""
    offsets = offsets or {}
    entries = []
    for image_id, caption in corpus.items():
        qv = encode_cbow(caption, table)
        entries.append((image_id, qv.values, offsets.get(image_id, 0), "caption"))
    return build_index(entries, shard_size=shard_size)


def build_synset_index(synsets: Sequence[SynsetEntry], table: WordEmbeddingTable,
                       offsets: Optional[Mapping[str, int]] = None,
                       shard_size: int = 65536) -> ImageKeyIndex:
    """Key every image by its synset's lemma+definition vector."""
    offsets = offsets or {}
    entries = []
    for syn in synsets:
        key = encode_synset_key(syn.lemmas, syn.definition, table)
        for image_id in syn.image_ids:
            entries.append((image_id, key.values, offsets.get(image_id, 0), "synset"))
    return build_index(entries, shard_size=shard_size)


# -- strategies ---------------------------------------------------------------


def _resolve(items: List[AssociationItem], store: Optional[ImageFeatureStore]) -> None:
    if store is None:
        return
    for it in items:
        it.regions = store.get(it.image_id)


def associate_scene(masked_text: str, index: ImageKeyIndex, table: WordEmbeddingTable,
                    k: int, store: Optional[ImageFeatureStore] = None,
                    mask_token: str = MASK_TOKEN_TEXT,
                    threads: Optional[int] = None) -> Association:
    """Whole-text CBOW retrieval over caption keys.

    Mask tokens are stripped before encoding, so the result depends only on
    the surviving tokens. A degenerate query yields an empty Association.
    """
    surviving = " ".join(t for t in masked_text.split() if t.lower() != mask_token)
    query = encode_cbow(surviving, table)
    if query.is_degenerate:
        return Association("scene")
    ranked = top_k(index, query, k, threads=threads)
    items = [AssociationItem(image_id, rank, sim)
             for rank, (image_id, sim) in enumerate(ranked)]
    _resolve(items, store)
    return Association("scene", items)


def _gmm_seed(run_seed: int, text: str) -> list:
    return [int(run_seed) & 0xFFFFFFFF, zlib.crc32(text.encode("utf-8"))]


def associate_object(text: str, synset_index: ImageKeyIndex, table: WordEmbeddingTable,
                     lexicon: NounLexicon, k: int, kappa: int,
                     store: Optional[ImageFeatureStore] = None, seed: int = 0,
                     threads: Optional[int] = None) -> Association:
    """Noun clustering + representatives over synset keys.

    Distinct in-vocabulary nouns feed a diagonal GMM with kappa capped at
    their count; each component (heaviest first) nominates its closest noun,
    which retrieves ceil(k / kappa') images; the concatenation is truncated
    to k. A single distinct noun skips the fit, which could only nominate it
    for all k images. Texts with no usable nouns yield an empty Association.
    """
    if kappa > k:
        raise ValueError(f"kappa ({kappa}) must not exceed K ({k})")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    nouns_in_order = extract_nouns(text, lexicon)
    distinct: List[str] = []
    for noun in nouns_in_order:
        if noun not in distinct and noun in table.entries:
            distinct.append(noun)
    if not distinct:
        return Association("object")
    if len(distinct) == 1:
        # a one-point, one-component mixture always nominates that point
        reps, per_component = distinct, k
    else:
        vectors = np.stack([table.entries[n] for n in distinct]).astype(np.float64)
        model = fit_gmm(vectors, min(kappa, len(distinct)), seed=_gmm_seed(seed, text))
        unit = vectors / np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12)
        per_component = math.ceil(k / model.kappa)
        reps = []
        for comp in np.argsort(-model.weights, kind="stable"):
            mean = model.means[comp]
            mean_norm = np.linalg.norm(mean)
            rep_idx = 0 if mean_norm < 1e-12 else int(np.argmax(unit @ (mean / mean_norm)))
            reps.append(distinct[rep_idx])
    items: List[AssociationItem] = []
    for noun in reps:
        for image_id, sim in top_k(synset_index, table.entries[noun], per_component,
                                   threads=threads):
            items.append(AssociationItem(image_id, len(items), sim))
            if len(items) == k:
                break
        if len(items) == k:
            break
    _resolve(items, store)
    return Association("object", items)


def associate_keyword_baseline(text: str, caption_corpus: Mapping[str, Union[str, set]],
                               k: int, table: Optional[WordEmbeddingTable] = None,
                               store: Optional[ImageFeatureStore] = None) -> Association:
    """Rank images by shared-keyword count, ties by ascending id.

    The text contributes its non-stopword tokens (stopwords from ``table``
    when given, else the bundled list); captions contribute their full token
    set. Zero overlap still returns k images, ordered by id; a query with no
    usable tokens at all is degenerate and returns an empty association.
    """
    from .embeddings import default_stopwords
    stop = table.stopwords if table is not None else default_stopwords()
    text_tokens = {t for t in tokenize(text) if t not in stop}
    if not text_tokens:
        return Association("keyword_baseline", [])
    scored: List[Tuple[int, str]] = []
    for image_id, caption in caption_corpus.items():
        cap_tokens = caption if isinstance(caption, (set, frozenset)) else set(tokenize(caption))
        scored.append((len(text_tokens & cap_tokens), image_id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    items = [AssociationItem(image_id, rank, float(score))
             for rank, (score, image_id) in enumerate(scored[:k])]
    _resolve(items, store)
    return Association("keyword_baseline", items)


# -- on-disk association cache -----------------------------------------------


def association_cache_key(strategy: str, text: str, k: int, seed: int = 0) -> str:
    digest = hashlib.sha256(
        f"{strategy}\x1f{k}\x1f{seed}\x1f{text}".encode("utf-8")).hexdigest()
    return digest


class AssociationCache:
    """Content-hash -> ranked (id, similarity) list, with binary persistence.

    Regions are never cached; they are re-resolved from the feature store so
    the cache stays small and store swaps take effect.
    """

    def __init__(self):
        self._data: Dict[str, List[Tuple[str, float]]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> Optional[List[Tuple[str, float]]]:
        hit = self._data.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def put(self, key: str, ranked: Iterable[Tuple[str, float]]) -> None:
        self._data[key] = [(str(i), float(s)) for i, s in ranked]

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<IQ", CACHE_VERSION, len(self._data)))
            for key in sorted(self._data):
                ranked = self._data[key]
                raw_key = key.encode("utf-8")
                fh.write(struct.pack("<I", len(raw_key)))
                fh.write(raw_key)
                fh.write(struct.pack("<I", len(ranked)))
                for image_id, sim in ranked:
                    raw_id = image_id.encode("utf-8")
                    fh.write(struct.pack("<I", len(raw_id)))
                    fh.write(raw_id)
                    fh.write(struct.pack("<f", sim))

    @classmethod
    def load(cls, path) -> "AssociationCache":
        from .index import _read_exact
        cache = cls()
        with open(path, "rb") as fh:
            magic = _read_exact(fh, 4, "magic")
            if magic != CACHE_MAGIC:
                raise ValueError(f"bad magic {magic!r}, expected {CACHE_MAGIC!r}")
            version, count = struct.unpack("<IQ", _read_exact(fh, 12, "header"))
            if version != CACHE_VERSION:
                raise ValueError(f"unsupported cache version {version}, expected {CACHE_VERSION}")
            for _ in range(count):
                (key_len,) = struct.unpack("<I", _read_exact(fh, 4, "key length"))
                key = _read_exact(fh, key_len, "key").decode("utf-8")
                (n_items,) = struct.unpack("<I", _read_exact(fh, 4, "item count"))
                ranked = []
                for _ in range(n_items):
                    (id_len,) = struct.unpack("<I", _read_exact(fh, 4, "id length"))
                    image_id = _read_exact(fh, id_len, "image id").decode("utf-8")
                    (sim,) = struct.unpack("<f", _read_exact(fh, 4, "similarity"))
                    ranked.append((image_id, sim))
                cache._data[key] = ranked
        return cache
