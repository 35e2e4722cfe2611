"""Word-vector tables and continuous-bag-of-words encoders.

Queries and image keys share one representation, a float32 array: the mean
of word vectors for the in-vocabulary, non-stopword tokens of a text. Synset
keys blend a lemma mean with the encoded definition. A vector whose norm is
below ``NORM_FLOOR``, the zero vector among them, is the one encoding of "no
usable word" (out-of-vocabulary or all-stopword input, or words whose vectors
are zero); it never raises here, and the caller decides what it means.
"""

from __future__ import annotations

import io
import re
from contextlib import suppress
from functools import cache
from importlib import resources
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

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


NORM_FLOOR = 1e-12   # a vector of smaller norm has no direction: "no usable word"


def norms(vectors) -> np.ndarray:
    """Each float32 vector's norm (last axis), bit for bit ``np.linalg.norm``'s."""
    v = np.asarray(vectors, dtype=np.float32)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def usable(vectors) -> np.ndarray:
    """Whether each vector's norm reaches ``NORM_FLOOR``, as ``top_k`` tests a query."""
    return ~(norms(vectors).astype(np.float64) < NORM_FLOOR)


class WordEmbeddingTable:
    """Lowercase token -> R^{d_w} map, plus a lowercase stopword set. ``vectors``
    stacks the vectors in ``rows`` order over a last row of -0.0, which pads
    batched gathers; the read-only ``entries`` maps a word to a view of its row."""

    def __init__(self, dim: int, entries: Dict[str, np.ndarray],
                 stopwords: Optional[Iterable[str]] = None):
        self.dim = int(dim)
        self.rows = {word: i for i, word in enumerate(entries)}
        self.vectors = np.full((len(self.rows) + 1, self.dim), -0.0, dtype=np.float32)
        self.vectors[:-1] = np.reshape(list(entries.values()), (len(self.rows), self.dim))
        self.entries = MappingProxyType(dict(zip(self.rows, self.vectors)))
        self.stopwords: FrozenSet[str] = frozenset(
            s.lower() for s in (stopwords if stopwords is not None else default_stopwords()))


@cache
def default_stopwords() -> FrozenSet[str]:
    return read_words(resources.files(__package__).joinpath("data/stopwords.txt"))


def load_word_vectors(path) -> WordEmbeddingTable:
    """Parse whitespace-separated text vectors into a WordEmbeddingTable.

    An optional first line `count dim` (two integer fields) declares the
    number of non-blank lines that follow and the dimension; otherwise the
    dimension is inferred from the first data line. Duplicate tokens
    (case-insensitive) keep their first occurrence. Non-numeric and
    non-finite (nan, inf, float32 overflow) components are rejected with
    their line number. One ``np.loadtxt`` pass reads the numbers; only a file
    it cannot take whole (a bad line, or ``1_0``) is parsed line by line.
    """
    lines = read_lines(path)
    count = dim = None
    head = lines[0].split() if lines else []
    with suppress(ValueError):
        count, dim = map(int, head) if len(head) == 2 else (None, None)
    body = [(lineno, line.split(None, 1) + [""]) for lineno, line in enumerate(lines, start=1)
            if line.strip()][count is not None:]
    rests, values = [parts[1] for _n, parts in body], np.zeros((0, 0))
    if body and all(rests):   # loadtxt would skip a line of a token alone
        with suppress(ValueError):
            values = np.loadtxt(rests, np.float32, comments=None, ndmin=2)
    if body and (not np.isfinite(values).all() or values.shape[0] != len(body)
                 or (dim is not None and values.shape[1] != dim)):
        values = []
        for lineno, parts in body:
            try:
                vec = np.array(parts[1].split(), dtype=np.float32)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric vector component") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}: line {lineno}: non-finite vector component")
            dim = vec.shape[0] if dim is None else dim
            if vec.shape[0] != dim:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim} components, got {vec.shape[0]}")
            values.append(vec)
    if not body and dim is None:
        raise ValueError(f"{path}: empty word-vector file")
    if count is not None and len(body) != count:
        raise ValueError(f"{path}: header declares {count} vectors, read {len(body)} lines")
    first: Dict[str, np.ndarray] = {}
    for (_n, parts), row in zip(body, values):
        first.setdefault(parts[0].lower(), row)
    return WordEmbeddingTable(len(values[0]) if dim is None else dim, first)


def _means(vectors: np.ndarray, bags: Sequence[Sequence[int]]) -> np.ndarray:
    """The float32 mean of the ``vectors`` rows each bag lists (zero if none): one
    gather padded with the -0.0 last row, one sum over the word axis and a float64
    division by the counts, which for d >= 2 is ``np.mean``'s arithmetic, bit for bit."""
    counts = np.array([len(bag) for bag in bags], dtype=np.intp)
    picks = np.full((len(bags), counts.max(initial=0)), len(vectors) - 1)
    picks[np.arange(picks.shape[1]) < counts[:, None]] = [row for bag in bags for row in bag]
    sums = vectors[picks].sum(axis=1)
    return np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], 0.0) \
        .astype(np.float32)


def encode_cbow(texts: Union[str, Sequence[str]], table: WordEmbeddingTable) -> np.ndarray:
    """Mean vector of in-vocabulary non-stopword tokens.

    Falls back to all in-vocabulary tokens when stopword filtering empties
    the bag, then to the zero vector. A list of texts gives one row each.
    """
    if isinstance(texts, str):
        return encode_cbow([texts], table)[0]
    bags = [[t for t in tokenize(text) if t in table.rows] for text in texts]
    kept = [[t for t in bag if t not in table.stopwords] or bag for bag in bags]
    return _means(table.vectors, [[table.rows[t] for t in bag] for bag in kept])


def encode_synset_key(lemmas: Sequence, definition: Union[str, Sequence[str]],
                      table: WordEmbeddingTable) -> np.ndarray:
    """Average of the lemma mean and the encoded definition, or one key row
    per synset for lists of lemma lists and definitions.

    A half with no usable word is dropped; only if both are is the key the
    zero vector. Lemmas are matched as whole lowercase tokens, duplicates
    counting toward the mean.
    """
    if isinstance(definition, str):
        return encode_synset_key([lemmas], [definition], table)[0]
    if not all(lemmas):
        raise ValueError("encode_synset_key: need at least one lemma")
    bags = [[table.rows[l.lower()] for l in group if l.lower() in table.rows] for group in lemmas]
    halves = np.concatenate([_means(table.vectors, bags), encode_cbow(definition, table),
                             table.vectors[-1:]])
    n, live = len(bags), usable(halves[:-1]).tolist()
    return _means(halves, [[j for j in (i, n + i) if live[j]] for i in range(n)])
