"""Synthetic grounded corpora with a controllable text/image information gap.

Every example is built around a hidden concept c:

* caption: ``<concept-word> <cue-word> <filler> <filler> <filler>``
* image:   one region whose feature vector sits on the concept's visual
  anchor (plus sigma=0.05 noise) with probability ``grounding_strength``,
  and is pure noise otherwise.

The trick that makes grounding measurable at desk scale: cue words appear
in captions and in the word-vector table but are deliberately left out of
the model vocabulary, so the model reads them as [unk]. When the concept
word is masked, a text-only model faces the full concept entropy, while the
retrieval channel (which works on raw words) can still use the surviving
cue to find same-concept images, and a paired image identifies the concept
directly. Filler tokens are i.i.d. uniform, pinning the reachable
perplexity floors exactly; the floors are emitted alongside the corpus.

Text generation never consumes image randomness, so two specs differing
only in ``grounding_strength`` emit identical text files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import List

import numpy as np

from .index import write_feature_store
from .vocab import RESERVED, N_RESERVED


@dataclass
class ToySpec:
    vocab_size: int = 200
    n_concepts: int = 96
    n_examples: int = 2000
    d_w: int = 64
    d_v: int = 64
    grounding_strength: float = 1.0
    seed: int = 0
    n_regions: int = 1
    n_fillers_per_caption: int = 3

    def __post_init__(self):
        if not 0.0 <= self.grounding_strength <= 1.0:
            raise ValueError(
                f"grounding_strength must be in [0, 1], got {self.grounding_strength}")
        if self.n_concepts < 2:
            raise ValueError("need at least 2 concepts")
        if self.vocab_size <= N_RESERVED + self.n_concepts + 1:
            raise ValueError(
                f"vocab_size {self.vocab_size} leaves no room for filler words "
                f"({self.n_concepts} concepts + {N_RESERVED} reserved)")
        if self.n_examples < 1 or self.d_w < 2 or self.d_v < 2 or self.n_regions < 1:
            raise ValueError("sizes and dims must be positive")

    @property
    def n_fillers(self) -> int:
        return self.vocab_size - N_RESERVED - self.n_concepts


@dataclass
class ToyCorpusPaths:
    out_dir: str
    captions: str
    features: str
    word_vectors: str
    corpus: str
    vocab: str
    synsets: str
    nouns: str
    floors: str


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def entropy_floors(spec: ToySpec) -> dict:
    """Analytic perplexity floors for the masked-token distribution.

    The cue position is [unk] to the model and never maskable, leaving
    1 + n_fillers_per_caption candidate positions, each equally likely to be
    masked. A masked filler is irreducibly uniform over the filler set; a
    masked concept word is uniform over concepts for a text-only model and
    fully determined by a clean paired image.
    """
    positions = 1 + spec.n_fillers_per_caption
    share = 1.0 / positions
    h_concept = math.log(spec.n_concepts)
    h_filler = math.log(spec.n_fillers)
    ungrounded_ce = share * h_concept + (1.0 - share) * h_filler
    grounded_ce = share * (1.0 - spec.grounding_strength) * h_concept \
        + (1.0 - share) * h_filler
    return {
        "concept_entropy": h_concept,
        "filler_entropy": h_filler,
        "maskable_positions": positions,
        "concept_mask_share": share,
        "grounding_strength": spec.grounding_strength,
        "ungrounded_ce_floor": ungrounded_ce,
        "ungrounded_ppl_floor": math.exp(ungrounded_ce),
        "grounded_ce_floor": grounded_ce,
        "grounded_ppl_floor": math.exp(grounded_ce),
    }


def generate_grounded_corpus(spec: ToySpec, out_dir) -> ToyCorpusPaths:
    """Write the full bundle: captions TSV, feature store, word vectors,
    text-only corpus, model vocabulary, synsets, noun lexicon, floors JSON."""
    os.makedirs(out_dir, exist_ok=True)
    rng_text = np.random.default_rng([spec.seed, 1])
    rng_img = np.random.default_rng([spec.seed, 2])
    rng_vec = np.random.default_rng([spec.seed, 3])

    concept_words = [f"c{i:03d}" for i in range(spec.n_concepts)]
    cue_words = [f"u{i:03d}" for i in range(spec.n_concepts)]
    filler_words = [f"f{i:03d}" for i in range(spec.n_fillers)]

    # word vectors: concept and cue words cluster tightly on per-concept
    # anchors; fillers are low-norm noise so they barely steer a query
    anchors_w = _unit(rng_vec.normal(size=(spec.n_concepts, spec.d_w)))
    concept_vecs = anchors_w + 0.1 * _unit(rng_vec.normal(size=(spec.n_concepts, spec.d_w)))
    cue_vecs = anchors_w + 0.1 * _unit(rng_vec.normal(size=(spec.n_concepts, spec.d_w)))
    filler_vecs = 0.3 * _unit(rng_vec.normal(size=(spec.n_fillers, spec.d_w)))
    anchors_v = _unit(rng_vec.normal(size=(spec.n_concepts, spec.d_v)))

    concepts = rng_text.integers(spec.n_concepts, size=spec.n_examples)
    fillers = rng_text.integers(spec.n_fillers,
                                size=(spec.n_examples, spec.n_fillers_per_caption))

    # every caption's words, gathered from object arrays of the word lists
    caption_words = np.concatenate(
        [np.array([concept_words, cue_words], dtype=object).T[concepts],
         np.array(filler_words, dtype=object)[fillers]], axis=1)
    captions = list(map(" ".join, caption_words.tolist()))
    image_ids = [f"img{ex:05d}" for ex in range(spec.n_examples)]

    # each region row draws random(), normal(d_v) for a noise base unless it is
    # grounded, then normal(d_v) for its jitter, into float64 buffers of 256 rows
    features = np.empty((spec.n_examples, spec.n_regions, spec.d_v), dtype=np.float32)
    rows, block = features.reshape(-1, spec.d_v), 256
    row_concepts = np.repeat(concepts, spec.n_regions)
    drawn, noise = np.empty((2, block, spec.d_v))
    drawn_rows, noise_rows = list(drawn), list(noise)
    for lo in range(0, len(rows), block):
        grounded = []
        for j in range(min(block, len(rows) - lo)):
            grounded.append(rng_img.random() < spec.grounding_strength)
            if not grounded[j]:
                rng_img.standard_normal(out=drawn_rows[j])
            rng_img.standard_normal(out=noise_rows[j])
        n, free = len(grounded), ~np.array(grounded)
        base = anchors_v[row_concepts[lo:lo + n]]
        base[free] = _unit(drawn[:n][free])
        rows[lo:lo + n] = base + 0.05 * noise[:n]
    del caption_words, drawn, noise, drawn_rows, noise_rows   # not held through the writes

    paths = ToyCorpusPaths(
        out_dir=str(out_dir),
        captions=os.path.join(out_dir, "captions.tsv"),
        features=os.path.join(out_dir, "features.vftr"),
        word_vectors=os.path.join(out_dir, "wordvecs.txt"),
        corpus=os.path.join(out_dir, "corpus.txt"),
        vocab=os.path.join(out_dir, "vocab.txt"),
        synsets=os.path.join(out_dir, "synsets.tsv"),
        nouns=os.path.join(out_dir, "nouns.txt"),
        floors=os.path.join(out_dir, "floors.json"),
    )

    _write_lines(paths.captions, map("\t".join, zip(image_ids, captions)))
    _write_lines(paths.corpus, captions)
    # cue words are intentionally absent: the model reads them as [unk]
    _write_lines(paths.vocab, list(RESERVED) + concept_words + filler_words)

    line = "%s " + " ".join(["%.6f"] * spec.d_w)
    _write_lines(paths.word_vectors, [f"{2 * spec.n_concepts + spec.n_fillers} {spec.d_w}"] + [
        line % (word, *vec) for words, vecs in ((concept_words, concept_vecs),
                                                (cue_words, cue_vecs),
                                                (filler_words, filler_vecs))
        for word, vec in zip(words, vecs.tolist())])

    write_feature_store(paths.features, list(zip(image_ids, features)), spec.n_regions, spec.d_v)

    by_concept: List[List[str]] = [[] for _ in range(spec.n_concepts)]
    for image_id, c in zip(image_ids, concepts.tolist()):
        by_concept[c].append(image_id)
    _write_lines(paths.synsets, [
        f"s{i:03d}\t{concept_words[i]},{cue_words[i]}\t"
        f"{concept_words[i]} {cue_words[i]}\t{','.join(ids)}"
        for i, ids in enumerate(by_concept) if ids])
    _write_lines(paths.nouns, concept_words + cue_words)

    floors = entropy_floors(spec)
    floors["spec"] = asdict(spec)
    with open(paths.floors, "w", encoding="utf-8") as fh:
        json.dump(floors, fh, sort_keys=True, indent=2)
        fh.write("\n")

    return paths
