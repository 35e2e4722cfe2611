"""Word-vector tables and continuous-bag-of-words encoders.

Queries and image keys share one representation: the mean of word vectors
for the in-vocabulary, non-stopword tokens of a text. Synset keys blend a
lemma mean with the encoded definition. Out-of-vocabulary or all-stopword
inputs never raise; they come back flagged as degenerate zero vectors and
the caller decides what to do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Dict, FrozenSet, Iterable, Optional, Sequence

import numpy as np

# unicode alphanumeric runs; underscore is a separator, not a word char
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list:
    """Lowercase and split on every non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class QueryVector:
    values: np.ndarray
    is_degenerate: bool = False


class WordEmbeddingTable:
    """Token -> R^{d_w} map with case-insensitive lookup and a stopword set."""

    def __init__(self, dim: int, entries: Dict[str, np.ndarray],
                 stopwords: Optional[Iterable[str]] = None):
        self.dim = int(dim)
        self.entries = entries
        self.stopwords: FrozenSet[str] = frozenset(
            s.lower() for s in (stopwords if stopwords is not None else default_stopwords()))

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, token: str) -> Optional[np.ndarray]:
        return self.entries.get(token.lower())


def load_stopwords(path) -> set:
    """One token per line; blank lines and `#` comments are skipped."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.split("#", 1)[0].strip().lower()
            if word:
                out.add(word)
    return out


_DEFAULT_STOPWORDS: Optional[FrozenSet[str]] = None


def default_stopwords() -> FrozenSet[str]:
    global _DEFAULT_STOPWORDS
    if _DEFAULT_STOPWORDS is None:
        text = resources.files("groundlm").joinpath("data/stopwords.txt").read_text("utf-8")
        words = set()
        for line in text.splitlines():
            word = line.split("#", 1)[0].strip().lower()
            if word:
                words.add(word)
        _DEFAULT_STOPWORDS = frozenset(words)
    return _DEFAULT_STOPWORDS


def load_word_vectors(path, stopwords: Optional[Iterable[str]] = None) -> WordEmbeddingTable:
    """Parse whitespace-separated text vectors into a WordEmbeddingTable.

    An optional first line `count dim` (two integer fields) declares the
    dimension; otherwise it is inferred from the first data line. Duplicate
    tokens (case-insensitive) keep their first occurrence. Non-numeric and
    non-finite (nan, inf, float32 overflow) components are rejected with
    their line number.
    """
    entries: Dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    declared = int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    dim = declared[1]
                    continue
            token = parts[0].lower()
            try:
                vec = np.array(parts[1:], dtype=np.float32)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric vector component") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"line {lineno}: non-finite vector component")
            if dim is None:
                dim = vec.shape[0]
            if vec.shape[0] != dim:
                raise ValueError(
                    f"line {lineno}: expected {dim} components, got {vec.shape[0]}")
            if token not in entries:
                entries[token] = vec
    if dim is None:
        raise ValueError(f"{path}: empty word-vector file")
    return WordEmbeddingTable(dim, entries, stopwords)


def _mean_of(vectors: Sequence[np.ndarray], dim: int) -> QueryVector:
    if not vectors:
        return QueryVector(np.zeros(dim, dtype=np.float32), is_degenerate=True)
    return QueryVector(np.mean(np.stack(vectors), axis=0).astype(np.float32))


def encode_cbow(text: str, table: WordEmbeddingTable) -> QueryVector:
    """Mean vector of in-vocabulary non-stopword tokens.

    Falls back to all in-vocabulary tokens when stopword filtering empties
    the bag, then to a degenerate zero vector.
    """
    tokens = tokenize(text)
    in_vocab = [t for t in tokens if t in table.entries]
    content = [t for t in in_vocab if t not in table.stopwords]
    kept = content or in_vocab
    return _mean_of([table.entries[t] for t in kept], table.dim)


def encode_synset_key(lemmas: Sequence[str], definition: str,
                      table: WordEmbeddingTable) -> QueryVector:
    """Average of the lemma mean and the encoded definition.

    Each half that comes out degenerate is dropped; only if both are
    degenerate is the key itself degenerate. Lemmas are matched as whole
    lowercase tokens, duplicates counting toward the mean.
    """
    if not lemmas:
        raise ValueError("encode_synset_key: need at least one lemma")
    lemma_vecs = [table.entries[l.lower()] for l in lemmas if l.lower() in table.entries]
    lemma_part = _mean_of(lemma_vecs, table.dim)
    def_part = encode_cbow(definition, table)
    parts = [p for p in (lemma_part, def_part) if not p.is_degenerate]
    if not parts:
        return QueryVector(np.zeros(table.dim, dtype=np.float32), is_degenerate=True)
    return _mean_of([p.values for p in parts], table.dim)
