import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlm.associate import (AssociationCache, SynsetEntry,
                                associate_keyword_baseline, associate_object,
                                associate_scene,
                                build_caption_index, build_synset_index,
                                extract_nouns, load_caption_corpus,
                                load_noun_lexicon, load_synsets)
from groundlm import associate as associate_mod
from groundlm import gmm as gmm_mod
from groundlm.embeddings import WordEmbeddingTable, encode_cbow
from groundlm.gmm import fit_gmm
from groundlm.embeddings import load_word_vectors
from groundlm.index import save_index, top_k
from groundlm.toydata import ToySpec, generate_grounded_corpus


def table_of(entries) -> WordEmbeddingTable:
    dim = len(next(iter(entries.values())))
    return WordEmbeddingTable(dim, {w: np.asarray(v, dtype=np.float32)
                                    for w, v in entries.items()},
                              frozenset(["the", "a", "of"]))


class TestNouns:
    LEX = frozenset({"dog", "cat", "house"})

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
        assert lex == frozenset({"dog", "cat"})


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

    def test_k_over_index_size(self):
        captions = {f"i{j}": "red dog" for j in range(10)}
        index, table = self.make_index(captions)
        assert len(associate_scene("dog", index, table, 16).items) == 10

    def test_brute_force_oracle_fifty_captions(self, rng):
        words = list(SCENE_VECS)
        captions = {f"i{j:02d}": " ".join(rng.choice(words, size=3)) for j in range(50)}
        index, table = self.make_index(captions)
        query = "red cat"
        out = associate_scene(query, index, table, 7)

        q = encode_cbow(query, table)
        q = q / np.linalg.norm(q)
        sims, ids = [], []
        for image_id, caption in captions.items():
            key = encode_cbow(caption, table)
            key = (key / np.linalg.norm(key)).astype(np.float32)
            sims.append(np.float32(key @ q.astype(np.float32)))
            ids.append(image_id)
        order = np.lexsort((np.array(ids), -np.array(sims)))
        assert [it.image_id for it in out.items] == [ids[j] for j in order[:7]]

    def test_degenerate_query_empty(self):
        index, table = self.make_index({"i1": "red dog"})
        assoc = associate_scene("zzz qqq", index, table, 2)
        assert assoc.items == []

    def test_zero_vector_words_query_empty(self):
        """In-vocabulary words whose vectors are all zero, or cancel to zero,
        leave no direction to retrieve with: the association is empty."""
        index, _table = self.make_index({"i1": "red dog"})
        table = table_of(dict(SCENE_VECS, blank=[0.0, 0.0, 0.0], anti=[-1.0, 0.0, 0.0]))
        assert associate_scene("blank zzz blank", index, table, 2).items == []
        assert associate_scene("red anti", index, table, 2).items == []
        assert associate_scene("blank dog", index, table, 2).items[0].image_id == "i1"

    def test_query_below_the_norm_floor_empty(self):
        """A query whose norm is below ``NORM_FLOOR`` but not zero has no
        direction: the association is empty, and ``top_k`` is not reached."""
        index, _table = self.make_index({"i1": "red dog"})
        table = table_of(dict(SCENE_VECS, bird=[1e-20, 0.0, 0.0]))
        assert associate_scene("bird", index, table, 2).items == []
        assert associate_scene(["bird", "dog"], index, table, 2) == \
            [associate_scene("bird", index, table, 2), associate_scene("dog", index, table, 2)]


OBJ_VECS = {"dog": [1.0, 0.0], "cat": [0.0, 1.0], "animal": [0.5, 0.5]}


class TestObject:
    LEX = frozenset({"dog", "cat"})

    def make_index(self, table):
        synsets = [SynsetEntry("s-dog", ["dog"], "dog animal", ["d1", "d2", "d3", "d4"]),
                   SynsetEntry("s-cat", ["cat"], "cat animal", ["c1", "c2", "c3", "c4"])]
        return build_synset_index(synsets, table)

    def test_single_noun_capped_kappa(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        assoc = associate_object("the dog runs", index, table, self.LEX, 4, 2, seed=0)
        assert len(assoc.items) == 4
        assert {it.image_id for it in assoc.items} <= {"d1", "d2", "d3", "d4"}

    def test_orthogonal_nouns_two_components(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        assoc = associate_object("dog and cat", index, table, self.LEX, 4, 2, seed=0)
        got = {it.image_id for it in assoc.items}
        # each GMM component collapses onto one noun; both synsets contribute
        assert got & {"d1", "d2", "d3", "d4"}
        assert got & {"c1", "c2", "c3", "c4"}
        assert len(assoc.items) == 4

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
        assert [(it.image_id, it.similarity) for it in assoc.items] == \
            top_k(index, table.entries["dog"], 3)

    def test_no_nouns_empty(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        assert associate_object("run quickly", index, table, self.LEX, 4, 2, seed=0).items == []

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

    @pytest.mark.parametrize("kappa", [2, 8])
    def test_near_coincident_nouns_follow_the_em_fit(self, monkeypatch, kappa):
        """At kappa >= n the representatives are not always the k-means++
        start order, so the EM cannot be skipped there. Two nouns 1e-7 apart
        converge to two equal-weight components that both nominate one noun,
        whose head ranking then fills all K images; the start order would
        nominate each noun once."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=64)
        a /= np.linalg.norm(a)
        table = table_of({"dog": a, "pup": a + 1e-7 * rng.normal(size=64)})
        nouns = list(table.entries)
        synsets = [SynsetEntry(f"s-{w}", [w], w, [f"{w}{j}" for j in range(16)])
                   for w in nouns]
        index = build_synset_index(synsets, table)
        text, k, seed = "the dog and the pup", 16, 0

        stack = np.stack([table.entries[w] for w in nouns]).astype(np.float64)[None]
        gmm_seed = associate_mod._gmm_seed(seed, text)
        fit = fit_gmm(stack, kappa, seed=[gmm_seed])[0]
        picks = associate_mod._representatives(stack, fit.weights[None], fit.means[None])[0]
        [start] = gmm_mod._kmeanspp(stack, 2, [gmm_seed])
        start_order = [int(np.flatnonzero((stack[0] == c).all(axis=1))[0]) for c in start]
        assert sorted(start_order) == [0, 1] and len(set(picks.tolist())) == 1

        nominated = []
        ranking = associate_mod._noun_ranking

        def recorded(index, vector, k):
            nominated.append(next(w for w, v in table.entries.items() if v is vector))
            return ranking(index, vector, k)
        monkeypatch.setattr(associate_mod, "_noun_ranking", recorded)
        assoc = associate_object(text, index, table, frozenset(nouns), k, kappa,
                                 seed=seed)
        assert nominated == [nouns[j] for j in picks]
        want = [pair for j in picks for pair in top_k(index, table.entries[nouns[j]], k)[:k // 2]]
        assert [(it.image_id, it.similarity) for it in assoc.items] == want

    def test_zero_vector_noun_takes_no_component(self):
        """A noun whose vector is all zero has nothing to retrieve with: it
        is dropped before the fit, so the association equals the one made
        with a table that lacks the noun."""
        without = table_of(OBJ_VECS)
        table = table_of(dict(OBJ_VECS, bird=[0.0, 0.0]))
        index = self.make_index(without)
        lex = frozenset({"dog", "cat", "bird"})
        for text in ["bird dog", "the dog, a bird and a cat", "bird bird"]:
            for kappa in (1, 2):
                want = associate_object(text, index, without, lex, 4, kappa, seed=3)
                got = associate_object(text, index, table, lex, 4, kappa, seed=3)
                assert got.items == want.items
        assert associate_object("bird", index, table, lex, 4, 2).items == []
        assert len(associate_object("bird cat", index, table, lex, 4, 2).items) == 4

    def test_noun_below_the_norm_floor_is_dropped(self):
        """A nonzero noun vector whose norm is below ``NORM_FLOOR`` has no
        direction either: it is dropped as the zero vector is, instead of
        reaching ``top_k`` and stopping the run."""
        without = table_of(OBJ_VECS)
        table = table_of(dict(OBJ_VECS, bird=[1e-20, 0.0]))
        index = self.make_index(without)
        lex = frozenset({"dog", "cat", "bird"})
        assert associate_object("bird dog", index, table, lex, 4, 2, seed=3).items == \
            associate_object("bird dog", index, without, lex, 4, 2, seed=3).items
        assert associate_object("bird", index, table, lex, 4, 2).items == []
        assert associate_object(["bird", "bird dog"], index, table, lex, 4, 2, seed=3) == \
            associate_object(["bird", "dog"], index, without, lex, 4, 2, seed=3)

    def test_determinism_across_calls(self):
        table = table_of(OBJ_VECS)
        index = self.make_index(table)
        a = associate_object("dog and cat", index, table, self.LEX, 4, 2, seed=9)
        b = associate_object("dog and cat", index, table, self.LEX, 4, 2, seed=9)
        assert a.items == b.items

    def test_stacks_of_max_stack_texts_equal_one_call_per_text(self, monkeypatch):
        """600 texts of one distinct-noun count are fit as four stacks of 128
        texts and one of 88, and each association equals its text's own call."""
        rng = np.random.default_rng(5)
        nouns = [f"n{j}" for j in range(6)]
        table = table_of({w: rng.normal(size=4) for w in nouns})
        index = build_synset_index([SynsetEntry(f"s-{w}", [w], w, [f"{w}-{j}" for j in range(5)])
                                    for w in nouns], table)
        lex = frozenset(nouns)
        texts = [" ".join([*rng.choice(nouns, size=3, replace=False), f"w{j}"])
                 for j in range(600)]
        sizes, fit = [], associate_mod.fit_gmm

        def recorded(points, *args, **kwargs):
            sizes.append(len(points))
            return fit(points, *args, **kwargs)
        monkeypatch.setattr(associate_mod, "fit_gmm", recorded)
        stacked = associate_object(texts, index, table, lex, 8, 3, seed=4)
        assert associate_mod.MAX_STACK == 128 and sizes == [128] * 4 + [88]
        for text, got in zip(texts, stacked):
            assert got.items == associate_object(text, index, table, lex, 8, 3, seed=4).items


@pytest.mark.parametrize("run_seed", [0, 1, 2 ** 32 - 1])
def test_gmm_seed_words_seed_as_the_int_list(run_seed):
    """``_gmm_seed``'s uint32 words give ``default_rng`` the stream that the
    list of the two ints gives; the empty text has crc32 0."""
    assert zlib.crc32(b"") == 0
    for text in ["", "the dog and the cat", "zzz"]:
        words = associate_mod._gmm_seed(run_seed, text)
        listed = [run_seed, zlib.crc32(text.encode("utf-8"))]
        assert words.dtype == np.uint32 and words.tolist() == listed
        a, b = np.random.default_rng(words), np.random.default_rng(listed)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random(8).tolist() == b.random(8).tolist()


class TestNounRankings:
    NOUNS = [f"n{j}" for j in range(12)]
    K = 16

    def make_world(self, rng):
        vecs = {w: rng.normal(size=8) for w in self.NOUNS}
        table = table_of(vecs)
        # five images per synset share one key, so every ranking is tie-heavy;
        # ids are shuffled so that id order differs from row order
        ids = [f"img{j:03d}" for j in rng.permutation(60)]
        synsets = [SynsetEntry(f"s{j}", [w], w, ids[5 * j:5 * j + 5])
                   for j, w in enumerate(self.NOUNS)]
        return table, build_synset_index(synsets, table)

    def test_head_of_each_ranking_equals_direct_top_k(self, rng):
        table, index = self.make_world(rng)
        for noun in self.NOUNS:
            vec = table.entries[noun]
            ranked = associate_mod._noun_ranking(index, vec, self.K)
            for kappa in range(1, 9):
                m = -(-self.K // kappa)
                assert ranked[:m] == top_k(index, vec, m), (noun, kappa)
        assert len(index.rankings) == len(self.NOUNS)

    def test_other_vector_or_k_never_gets_a_stale_entry(self, rng):
        table, index = self.make_world(rng)
        vec = table.entries["n0"]
        associate_mod._noun_ranking(index, vec, self.K)
        nudged = vec.copy()
        nudged[0] = np.nextafter(nudged[0], np.float32(np.inf))
        assert associate_mod._noun_ranking(index, nudged, self.K) == \
            top_k(index, nudged, self.K)
        assert associate_mod._noun_ranking(index, vec, 5) == top_k(index, vec, 5)
        other = table.entries["n1"]
        assert associate_mod._noun_ranking(index, other, self.K) == \
            top_k(index, other, self.K)
        assert len(index.rankings) == 4

    def test_one_top_k_per_noun_and_index(self, rng, monkeypatch):
        table, index = self.make_world(rng)
        lexicon = frozenset(self.NOUNS)
        texts = [" ".join(rng.choice(self.NOUNS, size=3)) for _ in range(40)]
        want = [associate_object(t, index, table, lexicon, self.K, 8, seed=2).items
                for t in texts]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].tobytes())
            return top_k(*args, **kwargs)
        monkeypatch.setattr(associate_mod, "top_k", counted)
        fresh = build_synset_index(
            [SynsetEntry(f"s{j}", [w], w, [it.id for it in index.items[5 * j:5 * j + 5]])
             for j, w in enumerate(self.NOUNS)], table)
        for _ in range(2):
            got = [associate_object(t, fresh, table, lexicon, self.K, 8, seed=2).items
                   for t in texts]
            assert got == want
        assert len(calls) == len(set(calls)) == len(fresh.rankings)
        assert 1 < len(calls) <= len(self.NOUNS)

    def batch_texts(self, rng):
        """32 texts: no noun, one noun, a repeated noun, and 2-6 distinct
        nouns, in shuffled order, one of them twice."""
        texts = ["zzz qqq", "n3", "n5 n5 n5"]
        texts += [" ".join(rng.choice(self.NOUNS, size=int(rng.integers(2, 7)), replace=False))
                  for _ in range(28)]
        texts.append(texts[7])
        return [texts[j] for j in rng.permutation(len(texts))]

    def test_list_call_equals_one_call_per_text(self, rng, monkeypatch):
        table, index = self.make_world(rng)
        lexicon = frozenset(self.NOUNS)
        texts = self.batch_texts(rng)
        runs = []
        for batched in (False, True):
            calls = []

            def counted(*args, **kwargs):
                calls.append(args[1].tobytes())
                return top_k(*args, **kwargs)
            monkeypatch.setattr(associate_mod, "top_k", counted)
            fresh = build_synset_index(
                [SynsetEntry(f"s{j}", [w], w, [it.id for it in index.items[5 * j:5 * j + 5]])
                 for j, w in enumerate(self.NOUNS)], table)
            if batched:
                got = associate_object(texts, fresh, table, lexicon, self.K, 8, seed=2)
            else:
                got = [associate_object(t, fresh, table, lexicon, self.K, 8, seed=2)
                       for t in texts]
            runs.append(([a.items for a in got], calls))
        # same associations, and the noun rankings computed in the same order
        assert runs[0] == runs[1]
        assert runs[0][0][texts.index("zzz qqq")] == []


def reference_representatives(vectors, weights, means):
    """The per-fit loop ``associate_object`` ran before it chose for a whole
    noun-count group: (noun index per component, heaviest first; unit vectors)."""
    unit = vectors / np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12)
    chosen = []
    for comp in np.argsort(-weights, kind="stable"):
        mean = means[comp]
        mean_norm = np.linalg.norm(mean)
        chosen.append(0 if mean_norm < 1e-12 else int(np.argmax(unit @ (mean / mean_norm))))
    return chosen, unit


@st.composite
def fitted_groups(draw):
    """A (B, n, d) stack of noun vectors with B fits' weights and means.

    Means come from ``fit_gmm`` itself, from scaled noun vectors (exact
    cosine ties), or are random; some may be zero or below the 1e-12 norm
    cut. Noun vectors may repeat (argmax ties), and weights may tie."""
    b, n, d = draw(st.integers(1, 8)), draw(st.integers(2, 6)), draw(st.integers(1, 70))
    k = min(draw(st.integers(1, 8)), n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vectors = rng.normal(size=(b, n, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    if draw(st.booleans()):
        vectors = vectors[:, rng.integers(draw(st.integers(1, n)), size=n)]
    vectors = np.ascontiguousarray(vectors)
    source = draw(st.sampled_from(["fit", "nouns", "random"]))
    if source == "fit":
        fits = fit_gmm(vectors, k, seed=[[7, j] for j in range(b)])
        weights = np.stack([f.weights for f in fits])
        means = np.stack([f.means for f in fits])
    else:
        weights = rng.integers(1, 4, size=(b, k)) / 4.0
        means = rng.normal(size=(b, k, d))
        if source == "nouns":
            means = vectors[:, rng.integers(n, size=k)] * rng.uniform(0.5, 2.0, size=(b, k, 1))
    flat = rng.random((b, k)) < draw(st.sampled_from([0.0, 0.3]))
    means[flat] *= draw(st.sampled_from([0.0, 1e-14]))
    return vectors, weights, means


@given(fitted_groups())
@settings(max_examples=200, deadline=None)
def test_group_representatives_equal_the_per_fit_choice(case):
    vectors, weights, means = case
    picks = associate_mod._representatives(vectors, weights, means)
    assert picks.shape == weights.shape
    # the identities the group choice rests on: unit vectors from one norm
    # over the stack, and mean norms from one stacked product
    units = vectors / np.maximum(np.linalg.norm(vectors, axis=-1, keepdims=True), 1e-12)
    norms = np.sqrt((means[:, :, None, :] @ means[:, :, :, None])[:, :, 0, 0])
    for b in range(len(vectors)):
        chosen, unit = reference_representatives(vectors[b], weights[b], means[b])
        assert picks[b].tolist() == chosen
        assert units[b].tobytes() == unit.tobytes()
        assert norms[b].tolist() == [np.linalg.norm(mean) for mean in means[b]]


def test_group_representatives_cover_flat_means_and_ties():
    vectors = np.array([[[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]])
    weights = np.array([[0.25, 0.5, 0.25]])
    means = np.array([[[0.0, 0.0], [3.0, 0.0], [1e-13, 0.0]]])
    # heaviest first; a zero or sub-cut mean nominates noun 0; a tie between
    # the two equal nouns goes to the first
    assert associate_mod._representatives(vectors, weights, means).tolist() == [[0, 0, 0]]
    means[0, 1] = [0.0, 1.0]
    assert associate_mod._representatives(vectors, weights, means).tolist() == [[2, 0, 0]]
    assert reference_representatives(vectors[0], weights[0], means[0])[0] == [2, 0, 0]


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
        assert associate_keyword_baseline("", self.CAPS, 2).items == []
        assert associate_keyword_baseline("the of a", self.CAPS, 2).items == []

    def test_brute_force_oracle_twenty_captions(self, rng):
        words = ["w%d" % j for j in range(12)]
        caps = {f"i{j:02d}": " ".join(rng.choice(words, size=5)) for j in range(20)}
        query = "w0 w3 w7 w11"
        out = associate_keyword_baseline(query, caps, 20)
        qset = set(query.split())
        scored = sorted(((-len(qset & set(c.split())), i) for i, c in caps.items()))
        assert [it.image_id for it in out.items] == [i for _neg, i in scored]


class TestCache:
    def test_round_trip_counters(self):
        cache = AssociationCache()
        key = ("scene", "red dog", 4, 8, 1)
        assert cache.get(key) is None
        cache.put(key, [("i1", 0.9), ("i2", 0.5)])
        assert cache.get(key) == [("i1", 0.9), ("i2", 0.5)]
        assert cache.misses == 1 and cache.hits == 1

    def test_key_separates_fields(self):
        cache = AssociationCache()
        base = ("scene", "x", 4, 8, 1)
        cache.put(base, [("i1", 0.9)])
        for other in (("object", "x", 4, 8, 1), ("scene", "y", 4, 8, 1),
                      ("scene", "x", 5, 8, 1), ("scene", "x", 4, 2, 1),
                      ("scene", "x", 4, 8, 2)):
            assert cache.get(other) is None, other
        assert cache.get(base) == [("i1", 0.9)]
        assert (cache.hits, cache.misses, len(cache)) == (1, 5, 1)


# SHA-256 of the VIDX file of each toy bundle's caption and synset index, as
# ``groundlm build-index`` writes it
INDEX_GOLDEN = [
    (ToySpec(seed=0), {
        "caption": "ed3197cd6d0ecc63c854c53e04dff95a81fa984e1ec2f8e92ad60e0dad1ee153",
        "synset": "246f48672c4547619186e6faa1bec9e3fc9da76afed6c1557db488f561df0baa",
    }),
    (ToySpec(seed=5, grounding_strength=0.0, n_regions=2), {
        "caption": "e641f67d34692e55a08abbcf5a8e0262a429f76b42d609f76040190e567b7a06",
        "synset": "c89291ecd53742e272515eec61026b0f92dd508cbb111839d8ed0b917784ad7d",
    }),
]


@pytest.mark.parametrize("spec, digests", INDEX_GOLDEN, ids=["seed0", "seed5-two-regions"])
def test_index_bytes_pinned(tmp_path, spec, digests):
    paths = generate_grounded_corpus(spec, tmp_path / "bundle")
    table = load_word_vectors(paths.word_vectors)
    built = {"caption": build_caption_index(load_caption_corpus(paths.captions), table),
             "synset": build_synset_index(load_synsets(paths.synsets), table)}
    written = {}
    for kind, index in built.items():
        save_index(index, tmp_path / f"{kind}.vidx")
        written[kind] = hashlib.sha256((tmp_path / f"{kind}.vidx").read_bytes()).hexdigest()
    assert written == digests
