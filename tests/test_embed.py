import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlm.embeddings import (WordEmbeddingTable, encode_cbow,
                                 encode_synset_key, load_word_vectors,
                                 tokenize)

from conftest import make_table

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

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_word_vectors(path)

    def test_duplicate_words_keep_first(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1.0 2.0\na 9.0 9.0\n")
        table = load_word_vectors(path)
        np.testing.assert_allclose(table.get("a"), [1.0, 2.0])

    def test_lookup_is_case_insensitive(self, tmp_path):
        table = make_table(tmp_path, BASE)
        np.testing.assert_allclose(table.get("DOG"), BASE["dog"])


class TestCbow:
    def test_single_word_is_its_vector(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("dog", table)
        assert not out.is_degenerate
        np.testing.assert_allclose(out.values, BASE["dog"])

    def test_two_words_hand_mean(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("dog cat", table)
        expected = (np.array(BASE["dog"]) + np.array(BASE["cat"])) / 2.0
        np.testing.assert_allclose(out.values, expected)

    def test_all_stopword_text_degenerate(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("the of a", table)
        assert out.is_degenerate
        np.testing.assert_allclose(out.values, 0.0)

    def test_stopwords_discarded_from_mean(self, tmp_path):
        table = make_table(tmp_path, dict(BASE, the=[9.0, 9.0, 9.0]))
        out = encode_cbow("the dog", table)
        np.testing.assert_allclose(out.values, BASE["dog"])

    def test_stopword_fallback_when_no_content_word_survives(self, tmp_path):
        # nothing but stopwords is in the table: fall back to in-vocab tokens
        table = make_table(tmp_path, dict(BASE, the=[9.0, 9.0, 9.0]))
        out = encode_cbow("the zzz", table)
        assert not out.is_degenerate
        np.testing.assert_allclose(out.values, [9.0, 9.0, 9.0])

    def test_tokenizer_lowercases_and_splits_non_alnum(self):
        assert tokenize("Dog‑cat, HOUSE!") == ["dog", "cat", "house"]

    @given(st.permutations(["dog", "cat", "house"]))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, order):
        table = WordEmbeddingTable(3, {w: np.asarray(v, dtype=np.float32)
                                       for w, v in BASE.items()}, frozenset())
        base = encode_cbow("dog cat house", table)
        out = encode_cbow(" ".join(order), table)
        np.testing.assert_allclose(out.values, base.values)

    def test_duplication_shifts_mean_by_multiplicity(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_cbow("dog dog cat", table)
        expected = (2 * np.array(BASE["dog"]) + np.array(BASE["cat"])) / 3.0
        np.testing.assert_allclose(out.values, expected)

    @given(st.floats(0.25, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_table_scaling_linearity(self, factor):
        table = WordEmbeddingTable(3, {w: np.asarray(v, dtype=np.float32)
                                       for w, v in BASE.items()}, frozenset())
        scaled = WordEmbeddingTable(3, {w: factor * np.asarray(v, dtype=np.float32)
                                        for w, v in BASE.items()}, frozenset())
        base = encode_cbow("dog cat", table)
        out = encode_cbow("dog cat", scaled)
        np.testing.assert_allclose(out.values, factor * base.values, rtol=1e-5)


class TestSynsetKey:
    def test_single_lemma_empty_definition(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_synset_key(["dog"], "", table)
        np.testing.assert_allclose(out.values, BASE["dog"])

    def test_lemma_and_definition_half_weighted(self, tmp_path):
        table = make_table(tmp_path, dict(BASE, domestic=[2.0, 2.0, 2.0],
                                          animal=[4.0, 0.0, 0.0]))
        out = encode_synset_key(["dog"], "a domestic animal", table)
        cbow = (np.array([2.0, 2.0, 2.0]) + np.array([4.0, 0.0, 0.0])) / 2.0
        expected = 0.5 * np.array(BASE["dog"]) + 0.5 * cbow
        np.testing.assert_allclose(out.values, expected)

    def test_fully_out_of_vocab_degenerate(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_synset_key(["zzz"], "qqq www", table)
        assert out.is_degenerate

    def test_degenerate_half_dropped(self, tmp_path):
        table = make_table(tmp_path, BASE)
        out = encode_synset_key(["zzz"], "cat", table)
        assert not out.is_degenerate
        np.testing.assert_allclose(out.values, BASE["cat"])

    def test_empty_lemmas_rejected(self, tmp_path):
        table = make_table(tmp_path, BASE)
        with pytest.raises(ValueError):
            encode_synset_key([], "a dog", table)
