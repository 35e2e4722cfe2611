"""Word-vector tables and continuous-bag-of-words encoders.

Queries and image keys share one representation, a float32 array: the mean
of word vectors for the in-vocabulary, non-stopword tokens of a text. Synset
keys blend a lemma mean with the encoded definition. The zero vector is the
one encoding of "no usable word" (out-of-vocabulary or all-stopword input,
or words whose vectors are zero); it never raises here, and the caller
decides what it means.
"""

from __future__ import annotations

import io
import re
from importlib import resources
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

# unicode alphanumeric runs; underscore is a separator, not a word char
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list:
    """Lowercase and split on every non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


def read_lines(path) -> List[str]:
    """The lines of a UTF-8 text file, as ``decode_lines`` gives them."""
    with open(path, "rb") as fh:
        return decode_lines(fh.read(), path)


def decode_lines(data: bytes, source) -> List[str]:
    """The lines of UTF-8 ``data``, split as text mode splits them. A byte
    that is not UTF-8 raises a ValueError naming ``source`` and the line."""
    try:
        return [line.rstrip("\n") for line in io.StringIO(data.decode("utf-8"), newline=None)]
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{source}: line {lineno}: not UTF-8 (byte 0x{data[exc.start]:02x})")


def read_words(path) -> FrozenSet[str]:
    """The lowercased words of a one-word-per-line file; `#` comments and
    blank lines skipped."""
    return frozenset(line.split("#", 1)[0].strip().lower() for line in read_lines(path)) - {""}


class WordEmbeddingTable:
    """Lowercase token -> R^{d_w} map, plus a lowercase stopword set."""

    def __init__(self, dim: int, entries: Dict[str, np.ndarray],
                 stopwords: Optional[Iterable[str]] = None):
        self.dim = int(dim)
        self.entries = entries
        self.stopwords: FrozenSet[str] = frozenset(
            s.lower() for s in (stopwords if stopwords is not None else default_stopwords()))


_DEFAULT_STOPWORDS: Optional[FrozenSet[str]] = None


def default_stopwords() -> FrozenSet[str]:
    global _DEFAULT_STOPWORDS
    if _DEFAULT_STOPWORDS is None:
        _DEFAULT_STOPWORDS = read_words(
            resources.files(__package__).joinpath("data/stopwords.txt"))
    return _DEFAULT_STOPWORDS


def load_word_vectors(path) -> WordEmbeddingTable:
    """Parse whitespace-separated text vectors into a WordEmbeddingTable.

    An optional first line `count dim` (two integer fields) declares the
    number of non-blank lines that follow and the dimension; otherwise the
    dimension is inferred from the first data line. Duplicate tokens
    (case-insensitive) keep their first occurrence. Non-numeric and
    non-finite (nan, inf, float32 overflow) components are rejected with
    their line number.
    """
    entries: Dict[str, np.ndarray] = {}
    count = dim = None
    read = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                declared = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                count, dim = declared
                continue
        token = parts[0].lower()
        try:
            vec = np.array(parts[1:], dtype=np.float32)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: line {lineno}: non-finite vector component")
        if dim is None:
            dim = vec.shape[0]
        if vec.shape[0] != dim:
            raise ValueError(
                f"{path}: line {lineno}: expected {dim} components, got {vec.shape[0]}")
        read += 1
        if token not in entries:
            entries[token] = vec
    if dim is None:
        raise ValueError(f"{path}: empty word-vector file")
    if count is not None and read != count:
        raise ValueError(f"{path}: header declares {count} vectors, read {read} lines")
    return WordEmbeddingTable(dim, entries)


def _mean_of(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """The float32 mean of ``vectors``; the zero vector when there are none."""
    if not vectors:
        return np.zeros(dim, dtype=np.float32)
    return np.mean(np.stack(vectors), axis=0).astype(np.float32)


def encode_cbow(text: str, table: WordEmbeddingTable) -> np.ndarray:
    """Mean vector of in-vocabulary non-stopword tokens.

    Falls back to all in-vocabulary tokens when stopword filtering empties
    the bag, then to the zero vector.
    """
    tokens = tokenize(text)
    in_vocab = [t for t in tokens if t in table.entries]
    content = [t for t in in_vocab if t not in table.stopwords]
    kept = content or in_vocab
    return _mean_of([table.entries[t] for t in kept], table.dim)


def encode_synset_key(lemmas: Sequence[str], definition: str,
                      table: WordEmbeddingTable) -> np.ndarray:
    """Average of the lemma mean and the encoded definition.

    A half that comes out all zero is dropped; only if both are is the key
    the zero vector. Lemmas are matched as whole lowercase tokens,
    duplicates counting toward the mean.
    """
    if not lemmas:
        raise ValueError("encode_synset_key: need at least one lemma")
    lemma_vecs = [table.entries[l.lower()] for l in lemmas if l.lower() in table.entries]
    halves = (_mean_of(lemma_vecs, table.dim), encode_cbow(definition, table))
    return _mean_of([half for half in halves if half.any()], table.dim)
