import numpy as np
import pytest

from groundlm.associate import (AssociationCache, NounLexicon, SynsetEntry,
                                associate_keyword_baseline, associate_object,
                                associate_scene, association_cache_key,
                                build_caption_index, build_synset_index,
                                extract_nouns, load_caption_corpus,
                                load_noun_lexicon, load_synsets)
from groundlm import associate as associate_mod
from groundlm.embeddings import WordEmbeddingTable, encode_cbow
from groundlm.gmm import fit_gmm
from groundlm.index import top_k


def table_of(entries) -> WordEmbeddingTable:
    dim = len(next(iter(entries.values())))
    return WordEmbeddingTable(dim, {w: np.asarray(v, dtype=np.float32)
                                    for w, v in entries.items()},
                              frozenset(["the", "a", "of"]))


class TestNouns:
    LEX = NounLexicon(frozenset({"dog", "cat", "house"}))

    def test_lexicon_words_in_order(self):
        assert extract_nouns("the dog chased a cat", self.LEX) == ["dog", "cat"]

    def test_no_nouns(self):
        assert extract_nouns("run quickly", self.LEX) == []

    def test_duplicates_kept(self):
        assert extract_nouns("dog dog house", self.LEX) == ["dog", "dog", "house"]

    def test_lexicon_file_loader(self, tmp_path):
        path = tmp_path / "nouns.txt"
        path.write_text("Dog\ncat\n\n# comment\n")
        lex = load_noun_lexicon(path)
        assert "dog" in lex.nouns and "cat" in lex.nouns


class TestLoaders:
    def test_caption_corpus_round_trip(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("img1\ta red dog\nimg2\tthe cat\n")
        corpus = load_caption_corpus(path)
        assert corpus == {"img1": "a red dog", "img2": "the cat"}

    def test_caption_corpus_errors_name_lines(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("img1\ta dog\njust-one-field\n")
        with pytest.raises(ValueError, match="line 2"):
            load_caption_corpus(path)
        path.write_text("img1\ta dog\nimg1\tagain\n")
        with pytest.raises(ValueError, match="img1"):
            load_caption_corpus(path)

    def test_synsets_parse(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("s1\tdog,puppy\ta domestic animal\timgA,imgB\n")
        synsets = load_synsets(path)
        assert synsets[0].synset_id == "s1"
        assert synsets[0].lemmas == ["dog", "puppy"]
        assert synsets[0].image_ids == ["imgA", "imgB"]


SCENE_VECS = {"red": [1.0, 0.0, 0.0], "dog": [0.0, 1.0, 0.0], "cat": [0.0, 0.0, 1.0],
              "blue": [0.7, 0.7, 0.0]}


class TestScene:
    def make_index(self, captions):
        table = table_of(SCENE_VECS)
        return build_caption_index(captions, table), table

    def test_self_retrieval_rank_zero(self):
        captions = {"i1": "red dog", "i2": "blue cat", "i3": "cat"}
        index, table = self.make_index(captions)
        assoc = associate_scene("red dog", index, table, 2)
        assert assoc.items[0].image_id == "i1"
        assert assoc.items[0].rank == 0

    def test_k_over_index_size(self):
        captions = {f"i{j}": "red dog" for j in range(10)}
        index, table = self.make_index(captions)
        assert len(associate_scene("dog", index, table, 16)) == 10

    def test_brute_force_oracle_fifty_captions(self, rng):
        words = list(SCENE_VECS)
        captions = {f"i{j:02d}": " ".join(rng.choice(words, size=3)) for j in range(50)}
        index, table = self.make_index(captions)
        query = "red cat"
        out = associate_scene(query, index, table, 7)

        q = encode_cbow(query, table).values
        q = q / np.linalg.norm(q)
        sims, ids = [], []
        for image_id, caption in captions.items():
            key = encode_cbow(caption, table).values
            key = (key / np.linalg.norm(key)).astype(np.float32)
            sims.append(np.float32(key @ q.astype(np.float32)))
            ids.append(image_id)
        order = np.lexsort((np.array(ids), -np.array(sims)))
        assert [it.image_id for it in out.items] == [ids[j] for j in order[:7]]

    def test_mask_token_dropped_before_encoding(self):
        captions = {"i1": "red dog", "i2": "cat"}
        index, table = self.make_index(captions)
        a = associate_scene("red [masked] dog", index, table, 2)
        b = associate_scene("red dog", index, table, 2)
        assert [it.image_id for it in a.items] == [it.image_id for it in b.items]
        assert [it.similarity for it in a.items] == [it.similarity for it in b.items]

    def test_degenerate_query_empty(self):
        index, table = self.make_index({"i1": "red dog"})
        assoc = associate_scene("zzz qqq", index, table, 2)
        assert assoc.is_empty and len(assoc) == 0


OBJ_VECS = {"dog": [1.0, 0.0], "cat": [0.0, 1.0], "animal": [0.5, 0.5]}


class TestObject:
    LEX = NounLexicon(frozenset({"dog", "cat"}))

    def make_index(self, table):
        synsets = [SynsetEntry("s-dog", ["dog"], "dog animal", ["d1", "d2", "d3", "d4"]),
                   SynsetEntry("s-cat", ["cat"], "cat animal", ["c1", "c2", "c3", "c4"])]
        return build_synset_index(synsets, table)

    def test_single_noun_capped_kappa(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        assoc = associate_object("the dog runs", index, table, self.LEX, 4, 2, seed=0)
        assert len(assoc) == 4
        assert {it.image_id for it in assoc.items} <= {"d1", "d2", "d3", "d4"}

    def test_orthogonal_nouns_two_components(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        assoc = associate_object("dog and cat", index, table, self.LEX, 4, 2, seed=0)
        got = {it.image_id for it in assoc.items}
        # each GMM component collapses onto one noun; both synsets contribute
        assert got & {"d1", "d2", "d3", "d4"}
        assert got & {"c1", "c2", "c3", "c4"}
        assert len(assoc) == 4

    def test_single_noun_skips_gmm_exactly(self, monkeypatch):
        """One distinct noun retrieves its own top K without a fit, and a fit
        on that one point could only have nominated the same noun."""
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        point = fit_gmm(np.array([OBJ_VECS["dog"]]), 2, seed=[0, 1])
        assert point.kappa == 1 and point.weights.tolist() == [1.0]
        np.testing.assert_array_equal(point.means[0], OBJ_VECS["dog"])

        def no_fit(*_a, **_kw):
            raise AssertionError("fit_gmm called for a single noun")
        monkeypatch.setattr(associate_mod, "fit_gmm", no_fit)
        assoc = associate_object("the dog and the dog", index, table, self.LEX, 3, 2)
        assert [(it.image_id, it.rank, it.similarity) for it in assoc.items] == \
            [(i, r, s) for r, (i, s) in enumerate(top_k(index, table.entries["dog"], 3))]

    def test_no_nouns_empty(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        assert associate_object("run quickly", index, table, self.LEX, 4, 2, seed=0).is_empty

    def test_kappa_above_k_rejected(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        with pytest.raises(ValueError):
            associate_object("dog", index, table, self.LEX, 2, 5, seed=0)

    def test_kappa_below_one_rejected_for_single_noun(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        with pytest.raises(ValueError, match="kappa"):
            associate_object("dog", index, table, self.LEX, 2, 0, seed=0)

    def test_determinism_across_calls(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        a = associate_object("dog and cat", index, table, self.LEX, 4, 2, seed=9)
        b = associate_object("dog and cat", index, table, self.LEX, 4, 2, seed=9)
        assert [(i.image_id, i.rank, i.similarity) for i in a.items] == \
               [(i.image_id, i.rank, i.similarity) for i in b.items]


class TestKeywordBaseline:
    CAPS = {"A": "red dog in the park", "B": "a red ball", "C": "blue sky"}

    def test_overlap_ordering(self):
        assoc = associate_keyword_baseline("red dog park", self.CAPS, 3)
        assert assoc.items[0].image_id == "A"
        assert assoc.items[0].similarity == 3.0

    def test_zero_overlap_ties_break_by_id(self):
        assoc = associate_keyword_baseline("zzz qqq", self.CAPS, 2)
        assert [it.image_id for it in assoc.items] == ["A", "B"]
        assert all(it.similarity == 0.0 for it in assoc.items)

    def test_tokenless_query_degenerate(self):
        assert associate_keyword_baseline("", self.CAPS, 2).is_empty
        assert associate_keyword_baseline("the of a", self.CAPS, 2).is_empty

    def test_brute_force_oracle_twenty_captions(self, rng):
        words = ["w%d" % j for j in range(12)]
        caps = {f"i{j:02d}": " ".join(rng.choice(words, size=5)) for j in range(20)}
        query = "w0 w3 w7 w11"
        out = associate_keyword_baseline(query, caps, 20)
        qset = set(query.split())
        scored = sorted(((-len(qset & set(c.split())), i) for i, c in caps.items()))
        assert [it.image_id for it in out.items] == [i for _neg, i in scored]

    def test_accepts_precomputed_token_sets(self):
        caps = {"A": {"red", "dog"}, "B": {"blue"}}
        assoc = associate_keyword_baseline("red dog", caps, 1)
        assert assoc.items[0].image_id == "A"


class TestCache:
    def test_round_trip_counters(self):
        cache = AssociationCache()
        key = association_cache_key("scene", "red dog", 4, seed=1)
        assert cache.get(key) is None
        cache.put(key, [("i1", 0.9), ("i2", 0.5)])
        assert cache.get(key) == [("i1", 0.9), ("i2", 0.5)]
        assert cache.misses == 1 and cache.hits == 1

    def test_key_separates_fields(self):
        a = association_cache_key("scene", "x", 4, seed=1)
        assert a != association_cache_key("object", "x", 4, seed=1)
        assert a != association_cache_key("scene", "x", 5, seed=1)
        assert a != association_cache_key("scene", "x", 4, seed=2)
        assert a != association_cache_key("scene", "y", 4, seed=1)

    def test_binary_save_load(self, tmp_path):
        cache = AssociationCache()
        cache.put("k1", [("img1", 0.5)])
        cache.put("k0", [])
        path = tmp_path / "a.glac"
        cache.save(path)
        back = AssociationCache.load(path)
        assert back.get("k1") == [("img1", np.float32(0.5))]
        assert back.get("k0") == []

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "a.glac"
        path.write_bytes(b"XXXX\x01\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            AssociationCache.load(path)
