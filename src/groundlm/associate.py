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
the placeholder" to the model layer. Word vectors are plain float32 arrays,
and one whose norm is below ``NORM_FLOOR`` means "no usable word". Callers
reach the strategies through ``train.associate_query``, which drops
``[masked]`` markers and caches the ranked (image id, similarity) pairs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .embeddings import (WordEmbeddingTable, default_stopwords, encode_cbow,
                         encode_synset_key, read_lines, read_words, tokenize, usable)
from .gmm import fit_gmm
from .index import ImageKeyIndex, build_index, top_k


class AssociationItem(NamedTuple):
    """One ranked image; it is the (image id, similarity) pair the cache keeps."""
    image_id: str
    similarity: float


@dataclass
class Association:
    """Ranked items, best first; empty when the text has no usable word."""
    items: List[AssociationItem] = field(default_factory=list)


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
    nouns = read_words(path)
    if not nouns:
        raise ValueError(f"{path}: noun lexicon is empty")
    return NounLexicon(nouns)


def extract_nouns(text: str, lexicon: NounLexicon) -> List[str]:
    """In-order lexicon hits, duplicates preserved."""
    return [t for t in tokenize(text) if t in lexicon]


# -- corpus / synset parsing --------------------------------------------------


def load_caption_corpus(path) -> Dict[str, str]:
    """TSV `image_id<TAB>caption` -> ordered dict; duplicate ids rejected."""
    corpus: Dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{path}: line {lineno}: expected image_id<TAB>caption")
        image_id, caption = line.split("\t", 1)
        if not image_id:
            raise ValueError(f"{path}: line {lineno}: empty image id")
        if image_id in corpus:
            raise ValueError(f"{path}: line {lineno}: duplicate image id {image_id!r}")
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
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno}: expected 4 tab-separated fields, "
                             f"got {len(parts)}")
        synset_id, lemma_field, definition, image_field = parts
        lemmas = [l.strip() for l in lemma_field.split(",") if l.strip()]
        image_ids = [i.strip() for i in image_field.split(",") if i.strip()]
        if not lemmas:
            raise ValueError(f"{path}: line {lineno}: synset {synset_id!r} has no lemmas")
        out.append(SynsetEntry(synset_id, lemmas, definition, image_ids))
    return out


# -- index builders -----------------------------------------------------------


def build_caption_index(corpus: Mapping[str, str], table: WordEmbeddingTable,
                        offsets: Optional[Mapping[str, int]] = None) -> ImageKeyIndex:
    """Key every image by the CBOW vector of its caption."""
    offsets = offsets or {}
    keys = encode_cbow(list(corpus.values()), table)
    return build_index((image_id, key, offsets.get(image_id, 0), "caption")
                       for image_id, key in zip(corpus, keys))


def build_synset_index(synsets: Sequence[SynsetEntry], table: WordEmbeddingTable,
                       offsets: Optional[Mapping[str, int]] = None) -> ImageKeyIndex:
    """Key every image by its synset's lemma+definition vector."""
    offsets = offsets or {}
    keys = encode_synset_key([syn.lemmas for syn in synsets],
                             [syn.definition for syn in synsets], table)
    return build_index((image_id, key, offsets.get(image_id, 0), "synset")
                       for syn, key in zip(synsets, keys) for image_id in syn.image_ids)


# -- strategies ---------------------------------------------------------------


def associate_scene(texts, index: ImageKeyIndex, table: WordEmbeddingTable, k: int,
                    threads: Optional[int] = None) -> Union[Association, List[Association]]:
    """Whole-text CBOW retrieval over caption keys for one text, or for a
    list encoded in one call; a query with no usable word retrieves nothing."""
    single = isinstance(texts, str)
    queries = encode_cbow([texts] if single else list(texts), table)
    out = [Association([AssociationItem(*pair) for pair in top_k(index, query, k, threads=threads)]
                       if live else []) for query, live in zip(queries, usable(queries).tolist())]
    return out[0] if single else out


def _gmm_seed(run_seed: int, text: str) -> np.ndarray:
    # as uint32 words: the entropy that default_rng reads from the list of both ints
    return np.array([int(run_seed) & 0xFFFFFFFF, zlib.crc32(text.encode("utf-8"))], np.uint32)


def _noun_ranking(index: ImageKeyIndex, vector: np.ndarray, k: int,
                  threads: Optional[int]) -> List[AssociationItem]:
    """``top_k(index, vector, k)`` as items, computed once per index and noun vector.

    The result is kept in ``index.rankings`` under the vector's float32 bytes
    and ``k``. Its first m entries equal ``top_k(index, vector, m)``, because
    (similarity desc, id rank asc) is a strict total order.
    """
    key = (np.asarray(vector, dtype=np.float32).tobytes(), k)
    ranked = index.rankings.get(key)
    if ranked is None:
        ranked = index.rankings[key] = [AssociationItem(*pair) for pair in
                                        top_k(index, vector, k, threads=threads)]
    return ranked


def _representatives(vectors: np.ndarray, weights: np.ndarray,
                     means: np.ndarray) -> np.ndarray:
    """The noun each mixture component nominates, for a stack of fits.

    ``vectors`` is a (B, n, d) stack of noun vectors, and ``weights`` (B, k)
    and ``means`` (B, k, d) are its B fits. Returns the (B, k) noun indices,
    heaviest component first (a stable order): the noun whose unit vector is
    closest in cosine to the component mean, or noun 0 for a mean of norm
    below 1e-12. Each row is bitwise what the fit alone would choose: the
    mean norms are a stacked product equal to ``np.linalg.norm``, and the
    similarities are one (B, n, d) @ (B, d, 1) product per component, which
    rounds as a fit's ``unit @ direction`` does (one product over every
    component does not).
    """
    unit = vectors / np.maximum(np.linalg.norm(vectors, axis=-1, keepdims=True), 1e-12)
    order = np.argsort(-weights, axis=1, kind="stable")
    ordered = np.take_along_axis(means, order[:, :, None], axis=1)
    norms = np.sqrt((ordered[:, :, None, :] @ ordered[:, :, :, None])[:, :, 0, 0])
    flat = norms < 1e-12
    directions = ordered / np.where(flat, 1.0, norms)[:, :, None]
    picks = np.zeros(order.shape, dtype=np.int64)
    for c in range(order.shape[1]):
        sims = (unit @ directions[:, c, :, None])[:, :, 0]
        picks[:, c] = np.where(flat[:, c], 0, sims.argmax(axis=1))
    return picks


MAX_STACK = 128   # texts per GMM stack: bounds the memory of one EM loop


def associate_object(texts, synset_index: ImageKeyIndex, table: WordEmbeddingTable,
                     lexicon: NounLexicon, k: int, kappa: int, seed: int = 0,
                     threads: Optional[int] = None) -> Union[Association, List[Association]]:
    """Noun clustering + representatives over synset keys.

    Distinct in-vocabulary nouns feed a diagonal GMM with kappa capped at
    their count; each component (heaviest first) nominates its closest noun,
    which retrieves ceil(k / kappa') images, the head of that noun's top-k
    ranking; the concatenation is truncated to k. A single distinct noun
    skips the fit, which could only nominate it for all k images. A noun
    with no usable vector has nothing to retrieve with and is dropped
    before the fit; texts with no usable nouns yield an empty Association.

    ``texts`` is one text, which returns one Association, or a list, which
    returns one per text. The texts of a list that share a distinct-noun
    count are fit in stacks of up to ``MAX_STACK``; each equals its text's fit alone.
    """
    if kappa > k:
        raise ValueError(f"kappa ({kappa}) must not exceed K ({k})")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    single = isinstance(texts, str)
    batch = [texts] if single else list(texts)
    found = [[n for n in dict.fromkeys(extract_nouns(text, lexicon)) if n in table.rows]
             for text in batch]
    words = list(dict.fromkeys(n for distinct in found for n in distinct))
    live = dict(zip(words, usable(table.vectors[[table.rows[n] for n in words]]).tolist()))
    nouns = [[n for n in distinct if live[n]] for distinct in found]
    # no fit below two nouns: a one-point, one-component mixture always
    # nominates that point
    reps: List[Tuple[List[str], int]] = [(distinct, k) for distinct in nouns]
    groups: Dict[int, List[int]] = {}
    for i, distinct in enumerate(nouns):
        if len(distinct) > 1:
            groups.setdefault(len(distinct), []).append(i)
    stacks = [(n, group[lo:lo + MAX_STACK]) for n, group in groups.items()
              for lo in range(0, len(group), MAX_STACK)]
    for n, members in stacks:
        rows = [[table.entries[w] for w in nouns[i]] for i in members]
        stack = np.stack(rows).astype(np.float64)
        models = fit_gmm(stack, min(kappa, n), seed=[_gmm_seed(seed, batch[i]) for i in members])
        picks = _representatives(stack, np.stack([m.weights for m in models]),
                                 np.stack([m.means for m in models]))
        per_component = math.ceil(k / models[0].kappa)
        for i, row in zip(members, picks.tolist()):
            reps[i] = ([nouns[i][j] for j in row], per_component)
    out = []
    for chosen, per_component in reps:
        items: List[AssociationItem] = []
        for noun in chosen:
            if len(items) >= k:   # a representative after the k-th image computes no ranking
                break
            items += _noun_ranking(synset_index, table.entries[noun], k, threads)[:per_component]
        del items[k:]
        out.append(Association(items))
    return out[0] if single else out


def associate_keyword_baseline(text: str, caption_corpus: Mapping[str, str], k: int,
                               table: Optional[WordEmbeddingTable] = None) -> Association:
    """Rank images by shared-keyword count, ties by ascending id.

    The text contributes its non-stopword tokens (stopwords from ``table``
    when given, else the bundled list); captions contribute their full token
    set. Zero overlap still returns k images, ordered by id; a query with no
    usable tokens at all returns an empty association.
    """
    stop = table.stopwords if table is not None else default_stopwords()
    text_tokens = {t for t in tokenize(text) if t not in stop}
    if not text_tokens:
        return Association()
    scored = sorted(((len(text_tokens & set(tokenize(caption))), image_id)
                     for image_id, caption in caption_corpus.items()),
                    key=lambda pair: (-pair[0], pair[1]))
    return Association([AssociationItem(image_id, float(score))
                        for score, image_id in scored[:k]])


# -- association cache ---------------------------------------------------------


# (visual mode, query text, K, kappa, association seed): every input that
# changes a ranking, given the corpora of one session
CacheKey = Tuple[str, str, int, int, int]


class AssociationCache:
    """In-memory ``CacheKey`` -> ranked (id, similarity) list.

    A cache serves one session's corpora; it is not persisted. Regions are
    never cached: batches gather them from the feature store by id.
    """

    def __init__(self):
        self._data: Dict[CacheKey, List[Tuple[str, float]]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: CacheKey) -> Optional[List[Tuple[str, float]]]:
        hit = self._data.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def put(self, key: CacheKey, ranked: List[Tuple[str, float]]) -> None:
        self._data[key] = ranked
