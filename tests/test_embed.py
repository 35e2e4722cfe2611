import importlib
import importlib.util
import pathlib
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundlm
from groundlm.embeddings import (NORM_FLOOR, WordEmbeddingTable, encode_cbow,
                                 encode_synset_key, load_word_vectors,
                                 tokenize)
from groundlm.toydata import ToySpec, generate_grounded_corpus

from conftest import make_table, write_wordvecs

BASE = {"dog": [1.0, 0.0, 0.0], "cat": [0.0, 1.0, 0.0], "house": [0.0, 0.0, 1.0]}


class TestLoader:
    def test_two_tokens_dim_three(self, tmp_path):
        table = make_table(tmp_path, {"a": [1, 2, 3], "b": [4, 5, 6]})
        assert table.dim == 3
        assert len(table.entries) == 2

    def test_header_line_sets_dim(self, tmp_path):
        table = make_table(tmp_path, {"a": list(range(300)), "b": list(range(300))},
                           header=True)
        assert table.dim == 300

    def test_header_count_must_match_lines(self, tmp_path):
        """A header's count is the number of non-blank vector lines after it,
        duplicates included; a file cut short at a line boundary is rejected."""
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1.0 2.0\n\nA 3.0 4.0\nb 5.0 6.0\n")
        assert len(load_word_vectors(path).entries) == 2   # "A" repeats "a" but is a line
        path.write_text("3 2\na 1.0 2.0\nb 5.0 6.0\n")
        with pytest.raises(ValueError) as err:
            load_word_vectors(path)
        assert str(err.value) == f"{path}: header declares 3 vectors, read 2 lines"

    def test_truncated_toy_vectors_rejected(self, tmp_path):
        paths = generate_grounded_corpus(
            ToySpec(vocab_size=40, n_concepts=12, n_examples=30, d_w=8, d_v=6), tmp_path)
        lines = open(paths.word_vectors, encoding="utf-8").readlines()
        assert len(load_word_vectors(paths.word_vectors).entries) == len(lines) - 1
        with open(paths.word_vectors, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-5])
        with pytest.raises(ValueError, match=f"header declares {len(lines) - 1} vectors, "
                                             f"read {len(lines) - 6} lines"):
            load_word_vectors(paths.word_vectors)

    def test_wrong_component_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        with open(path, "w") as fh:
            fh.write("a 1.0 2.0 3.0\n")
            fh.write("b 1.0 2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_word_vectors(path)

    def test_non_numeric_component_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1.0 x\n")
        with pytest.raises(ValueError, match="line 1"):
            load_word_vectors(path)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e40"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"a 1.0 2.0\nb 0.5 {bad}\nc 3.0 4.0\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_word_vectors(path)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_float32_overflow_names_line(self, tmp_path):
        """3.5e38 is a finite double but overflows float32: rejected with its line."""
        path = tmp_path / "bad.txt"
        path.write_text("2 2\na 1.0 2.0\nb 3.5e38 1.0\n")
        with pytest.raises(ValueError) as err:
            load_word_vectors(path)
        assert str(err.value) == f"{path}: line 3: non-finite vector component"

    def test_bad_token_on_last_line_names_it(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1.0 2.0\nb 3.0 4.0\n\nc 5.0 six\n")
        with pytest.raises(ValueError) as err:
            load_word_vectors(path)
        assert str(err.value) == f"{path}: line 4: non-numeric vector component"

    def test_header_count_with_trailing_blank_lines(self, tmp_path):
        """Blank lines after the last vector are not vector lines: the header
        count matches, and a count one higher does not."""
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1.0 2.0\nb 3.0 4.0\n\n  \n\t\n")
        table = load_word_vectors(path)
        assert sorted(table.entries) == ["a", "b"] and table.dim == 2
        path.write_text("3 2\na 1.0 2.0\nb 3.0 4.0\n\n  \n\t\n")
        with pytest.raises(ValueError) as err:
            load_word_vectors(path)
        assert str(err.value) == f"{path}: header declares 3 vectors, read 2 lines"

    def test_numbers_only_python_float_reads_are_accepted(self, tmp_path):
        """An underscore digit group or a non-ASCII digit is a number to
        Python's float, as the line-by-line parse has always read it."""
        path = tmp_path / "v.txt"
        path.write_text("a 1_0 2.0\nb \u0663 -0.0\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert table.entries["a"].tolist() == [10.0, 2.0]
        assert table.entries["b"].tobytes() == np.float32([3.0, -0.0]).tobytes()

    def test_table_stacks_rows_over_a_negative_zero_pad(self, tmp_path):
        table = make_table(tmp_path, {"a": [1, 2], "B": [3, 4], "A": [9, 9]})
        assert table.rows == {"a": 0, "b": 1}
        assert table.vectors.tobytes() == np.float32([[1, 2], [3, 4], [-0.0, -0.0]]).tobytes()
        assert all(np.shares_memory(table.entries[w], table.vectors) for w in table.rows)
        with pytest.raises(TypeError):
            table.entries["c"] = np.zeros(2, dtype=np.float32)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_word_vectors(path)

    def test_duplicate_words_keep_first(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1.0 2.0\na 9.0 9.0\n")
        table = load_word_vectors(path)
        np.testing.assert_allclose(table.entries["a"], [1.0, 2.0])

    def test_loader_lowercases_tokens(self, tmp_path):
        table = make_table(tmp_path, {"DOG": BASE["dog"], "Cat": BASE["cat"]})
        assert sorted(table.entries) == ["cat", "dog"]
        np.testing.assert_allclose(table.entries["dog"], BASE["dog"])


class TestCbow:
    def test_single_word_is_its_vector(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("dog", table)
        assert out.dtype == np.float32 and out.any()
        np.testing.assert_allclose(out, BASE["dog"])

    def test_two_words_hand_mean(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("dog cat", table)
        expected = (np.array(BASE["dog"]) + np.array(BASE["cat"])) / 2.0
        np.testing.assert_allclose(out, expected)

    def test_all_stopword_text_degenerate(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("the of a", table)
        assert out.dtype == np.float32 and out.shape == (3,)
        np.testing.assert_allclose(out, 0.0)

    def test_stopwords_discarded_from_mean(self, tmp_path):
        table = make_table(tmp_path, dict(BASE, the=[9.0, 9.0, 9.0]))
        out = encode_cbow("the dog", table)
        np.testing.assert_allclose(out, BASE["dog"])

    def test_stopword_fallback_when_no_content_word_survives(self, tmp_path):
        # nothing but stopwords is in the table: fall back to in-vocab tokens
        table = make_table(tmp_path, dict(BASE, the=[9.0, 9.0, 9.0]))
        out = encode_cbow("the zzz", table)
        assert out.any()
        np.testing.assert_allclose(out, [9.0, 9.0, 9.0])

    def test_tokenizer_lowercases_and_splits_non_alnum(self):
        assert tokenize("Dog‑cat, HOUSE!") == ["dog", "cat", "house"]

    @given(st.permutations(["dog", "cat", "house"]))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, order):
        table = WordEmbeddingTable(3, {w: np.asarray(v, dtype=np.float32)
                                       for w, v in BASE.items()}, frozenset())
        base = encode_cbow("dog cat house", table)
        out = encode_cbow(" ".join(order), table)
        np.testing.assert_allclose(out, base)

    def test_duplication_shifts_mean_by_multiplicity(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("dog dog cat", table)
        expected = (2 * np.array(BASE["dog"]) + np.array(BASE["cat"])) / 3.0
        np.testing.assert_allclose(out, expected)

    @given(st.floats(0.25, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_table_scaling_linearity(self, factor):
        table = WordEmbeddingTable(3, {w: np.asarray(v, dtype=np.float32)
                                       for w, v in BASE.items()}, frozenset())
        scaled = WordEmbeddingTable(3, {w: factor * np.asarray(v, dtype=np.float32)
                                        for w, v in BASE.items()}, frozenset())
        base = encode_cbow("dog cat", table)
        out = encode_cbow("dog cat", scaled)
        np.testing.assert_allclose(out, factor * base, rtol=1e-5)


def mean_of(vectors, dim):
    """The per-text mean the batched encoders replaced."""
    if not vectors:
        return np.zeros(dim, dtype=np.float32)
    return np.mean(np.stack(vectors), axis=0).astype(np.float32)


def cbow_one_by_one(text, table):
    in_vocab = [t for t in tokenize(text) if t in table.entries]
    content = [t for t in in_vocab if t not in table.stopwords]
    return mean_of([table.entries[t] for t in content or in_vocab], table.dim)


def synset_key_one_by_one(lemmas, definition, table):
    halves = (mean_of([table.entries[l.lower()] for l in lemmas if l.lower() in table.entries],
                      table.dim),
              cbow_one_by_one(definition, table))
    return mean_of([h for h in halves if np.linalg.norm(h) >= NORM_FLOOR], table.dim)


WORDS = ["dog", "cat", "house", "red", "run", "the", "a", "zzz", "qqq"]
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1e-20, -1e-20]),
                      st.floats(-1e3, 1e3, allow_nan=False, width=32))


@st.composite
def tables_and_texts(draw):
    """A table over the first six words (two of them stopwords; "zzz" and
    "qqq" are out of vocabulary) with signed-zero and tiny components, and
    texts that may be empty, stopword-only, out-of-vocabulary or repetitive."""
    dim = draw(st.integers(2, 6))
    entries = {w: np.float32(draw(st.lists(COMPONENT, min_size=dim, max_size=dim)))
               for w in WORDS[:6]}
    if draw(st.booleans()):
        entries["house"] = np.float32([-0.0] * dim)
    table = WordEmbeddingTable(dim, entries, ["the", "a"])
    text = st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join)
    texts = draw(st.lists(text, min_size=1, max_size=8))
    lemmas = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
                           min_size=len(texts), max_size=len(texts)))
    return table, texts, lemmas


@given(tables_and_texts())
@settings(max_examples=300, deadline=None)
def test_batched_encoders_equal_the_per_text_mean_bitwise(case):
    table, texts, lemmas = case
    rows = encode_cbow(texts, table)
    assert rows.dtype == np.float32 and rows.shape == (len(texts), table.dim)
    for text, row in zip(texts, rows):
        assert row.tobytes() == cbow_one_by_one(text, table).tobytes()
        assert encode_cbow(text, table).tobytes() == row.tobytes()
    keys = encode_synset_key(lemmas, texts, table)
    for group, text, key in zip(lemmas, texts, keys):
        assert key.tobytes() == synset_key_one_by_one(group, text, table).tobytes()
        assert encode_synset_key(group, text, table).tobytes() == key.tobytes()


def test_empty_batch_encodes_to_no_rows(tmp_path):
    table = make_table(tmp_path, BASE)
    assert encode_cbow([], table).shape == (0, 3)
    assert encode_synset_key([], [], table).shape == (0, 3)


class TestSynsetKey:
    def test_single_lemma_empty_definition(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_synset_key(["dog"], "", table)
        np.testing.assert_allclose(out, BASE["dog"])

    def test_lemma_and_definition_half_weighted(self, tmp_path):
        table = make_table(tmp_path, dict(BASE, domestic=[2.0, 2.0, 2.0],
                                          animal=[4.0, 0.0, 0.0]))
        out = encode_synset_key(["dog"], "a domestic animal", table)
        cbow = (np.array([2.0, 2.0, 2.0]) + np.array([4.0, 0.0, 0.0])) / 2.0
        expected = 0.5 * np.array(BASE["dog"]) + 0.5 * cbow
        np.testing.assert_allclose(out, expected)

    def test_fully_out_of_vocab_degenerate(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_synset_key(["zzz"], "qqq www", table)
        assert out.shape == (3,) and not out.any()

    def test_degenerate_half_dropped(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_synset_key(["zzz"], "cat", table)
        assert out.any()
        np.testing.assert_allclose(out, BASE["cat"])

    def test_all_zero_half_dropped(self, tmp_path):
        """A half whose words are in the table but whose mean is all zero
        counts as no half: the key is the other half, not half of it."""
        table = make_table(tmp_path, dict(BASE, blank=[0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(encode_synset_key(["blank"], "cat", table),
                                      np.float32(BASE["cat"]))
        np.testing.assert_array_equal(encode_synset_key(["dog"], "blank", table),
                                      np.float32(BASE["dog"]))
        assert not encode_synset_key(["blank"], "blank", table).any()

    def test_empty_lemmas_rejected(self, tmp_path):
        table = make_table(tmp_path, BASE)
        with pytest.raises(ValueError):
            encode_synset_key([], "a dog", table)


def test_renamed_package_copy_reads_its_own_stopwords(tmp_path, monkeypatch):
    """A copy of the package imported under another name (as
    ``tools/ab_steps.py`` imports two checkouts) reads the stop-word list
    shipped beside it, not one found under the name ``groundlm``."""
    pkg_dir = tmp_path / "glm_copy"
    shutil.copytree(pathlib.Path(groundlm.__file__).parent, pkg_dir,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (pkg_dir / "data" / "stopwords.txt").write_text("# changed list\nZebra\n", "utf-8")
    monkeypatch.setitem(sys.modules, "groundlm", None)  # importing it now fails
    spec = importlib.util.spec_from_file_location(
        "glm_copy", pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["glm_copy"] = pkg
    try:
        spec.loader.exec_module(pkg)
        embeddings = importlib.import_module("glm_copy.embeddings")
        table = embeddings.load_word_vectors(write_wordvecs(tmp_path / "v.txt", BASE))
        assert table.stopwords == frozenset({"zebra"})
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "glm_copy"]:
            del sys.modules[name]
