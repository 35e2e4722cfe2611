import numpy as np
import pytest

from groundlm.embeddings import WordEmbeddingTable, load_word_vectors
from groundlm.model import CrossModalModel, ModelConfig
from groundlm.vocab import RESERVED, Vocab


def write_wordvecs(path, entries, header=False):
    """entries: dict word -> 1-D array/list."""
    dim = len(next(iter(entries.values())))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(entries)} {dim}\n")
        for word, vec in entries.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")
    return path


def make_table(tmp_path, entries, name="vecs.txt", **kw) -> WordEmbeddingTable:
    return load_word_vectors(write_wordvecs(tmp_path / name, entries, **kw))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_vocab(extra=("red", "dog", "cat", "sat", "mat", "hat")) -> Vocab:
    return Vocab(list(RESERVED) + list(extra))


def tiny_model(vocab_size=11, seed=0, dtype=np.float32, **overrides) -> CrossModalModel:
    kw = dict(vocab_size=vocab_size, d=8, d_v=4, n_layers_text=1, n_layers_cross=1,
              n_heads=2, max_len=6, k_max=2, n_regions=1)
    kw.update(overrides)
    return CrossModalModel(ModelConfig(**kw), seed=seed, dtype=dtype)


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        dn = f()
        flat[i] = keep
        gflat[i] = (up - dn) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))
