import filecmp
import hashlib
import json
import math

import numpy as np
import pytest

from groundlm.index import ImageFeatureStore
from groundlm.toydata import ToySpec, entropy_floors, generate_grounded_corpus
from groundlm.vocab import N_RESERVED, Vocab

SMALL = dict(vocab_size=40, n_concepts=12, n_examples=30, d_w=8, d_v=6,
             n_regions=2, n_fillers_per_caption=3, seed=5)


class TestSpecValidation:
    def test_strength_out_of_range(self):
        with pytest.raises(ValueError, match="grounding_strength"):
            ToySpec(grounding_strength=1.5, **SMALL)
        with pytest.raises(ValueError, match="grounding_strength"):
            ToySpec(grounding_strength=-0.1, **SMALL)

    def test_vocab_too_small_for_concepts(self):
        bad = dict(SMALL)
        bad["vocab_size"] = N_RESERVED + bad["n_concepts"] + 1
        with pytest.raises(ValueError):
            ToySpec(**bad)

    def test_degenerate_dims(self):
        with pytest.raises(ValueError):
            ToySpec(**{**SMALL, "n_examples": 0})
        with pytest.raises(ValueError):
            ToySpec(**{**SMALL, "d_w": 1})

    def test_filler_count_derived(self):
        spec = ToySpec(**SMALL)
        assert spec.n_fillers == 40 - N_RESERVED - 12


class TestBundleShape:
    def test_file_sizes_and_dims(self, tmp_path):
        spec = ToySpec(grounding_strength=1.0, **SMALL)
        paths = generate_grounded_corpus(spec, tmp_path / "bundle")

        vocab_lines = open(paths.vocab).read().splitlines()
        assert len(vocab_lines) == spec.vocab_size
        assert Vocab.load(paths.vocab).id_of("[pad]") == 0

        caption_lines = open(paths.captions).read().splitlines()
        assert len(caption_lines) == spec.n_examples
        assert all(len(line.split("\t")) == 2 for line in caption_lines)
        assert len(open(paths.corpus).read().splitlines()) == spec.n_examples

        wv_lines = open(paths.word_vectors).read().splitlines()
        n_declared, d_declared = map(int, wv_lines[0].split())
        assert n_declared == 2 * spec.n_concepts + spec.n_fillers
        assert d_declared == spec.d_w
        assert len(wv_lines) == 1 + n_declared

        store = ImageFeatureStore(paths.features)
        assert store.count == spec.n_examples
        assert store.n_regions == spec.n_regions
        assert store.feat_dim == spec.d_v

    def test_caption_structure(self, tmp_path):
        spec = ToySpec(grounding_strength=1.0, **SMALL)
        paths = generate_grounded_corpus(spec, tmp_path / "bundle")
        for line in open(paths.captions).read().splitlines():
            _img, caption = line.split("\t")
            words = caption.split()
            assert len(words) == 2 + spec.n_fillers_per_caption
            assert words[0].startswith("c") and words[1].startswith("u")
            assert words[0][1:] == words[1][1:]  # same concept index
            assert all(w.startswith("f") for w in words[2:])

    def test_cue_words_outside_vocab_but_in_vectors(self, tmp_path):
        spec = ToySpec(grounding_strength=1.0, **SMALL)
        paths = generate_grounded_corpus(spec, tmp_path / "bundle")
        vocab_words = set(open(paths.vocab).read().split())
        vector_words = {line.split(" ", 1)[0]
                        for line in open(paths.word_vectors).read().splitlines()[1:]}
        cues = {f"u{i:03d}" for i in range(spec.n_concepts)}
        assert not (cues & vocab_words)
        assert cues <= vector_words

    def test_synsets_and_nouns(self, tmp_path):
        spec = ToySpec(grounding_strength=1.0, **SMALL)
        paths = generate_grounded_corpus(spec, tmp_path / "bundle")
        noun_words = set(open(paths.nouns).read().split())
        assert f"c{0:03d}" in noun_words and f"u{0:03d}" in noun_words
        assert not any(w.startswith("f") for w in noun_words)
        img_ids = set()
        for line in open(paths.synsets).read().splitlines():
            sid, lemmas, _gloss, images = line.split("\t")
            assert sid.startswith("s")
            assert len(lemmas.split(",")) == 2
            img_ids.update(images.split(","))
        assert len(img_ids) == spec.n_examples  # every image belongs to a synset


class TestDeterminismAndStrength:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = ToySpec(grounding_strength=0.5, **SMALL)
        a = generate_grounded_corpus(spec, tmp_path / "a")
        b = generate_grounded_corpus(spec, tmp_path / "b")
        for field in ("captions", "features", "word_vectors", "corpus",
                      "vocab", "synsets", "nouns", "floors"):
            assert filecmp.cmp(getattr(a, field), getattr(b, field),
                               shallow=False), field

    def test_strength_changes_only_images(self, tmp_path):
        clean = generate_grounded_corpus(
            ToySpec(grounding_strength=1.0, **SMALL), tmp_path / "g1")
        noise = generate_grounded_corpus(
            ToySpec(grounding_strength=0.0, **SMALL), tmp_path / "g0")
        for field in ("captions", "word_vectors", "corpus", "vocab",
                      "synsets", "nouns"):
            assert filecmp.cmp(getattr(clean, field), getattr(noise, field),
                               shallow=False), field
        assert not filecmp.cmp(clean.features, noise.features, shallow=False)

    def test_clean_features_cluster_on_concept(self, tmp_path):
        spec = ToySpec(grounding_strength=1.0, **SMALL)
        paths = generate_grounded_corpus(spec, tmp_path / "bundle")
        store = ImageFeatureStore(paths.features)
        concept_of = {}
        for line in open(paths.captions).read().splitlines():
            img, caption = line.split("\t")
            concept_of[img] = caption.split()[0]
        # same-concept images nearly parallel, different-concept ones are not
        by_concept = {}
        for img, c in concept_of.items():
            by_concept.setdefault(c, []).append(store.get(img)[0])
        groups = [v for v in by_concept.values() if len(v) >= 2]
        assert groups, "need at least one repeated concept"
        a, b = groups[0][0], groups[0][1]
        cos_same = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos_same > 0.9


# sha256 of every file generate_grounded_corpus writes, taken from the
# per-record generator that the bulk one replaced
GOLDEN = [
    (ToySpec(seed=0), {
        "captions.tsv": "e72e1de9d3904e32e005eaae629936084fb5b01d8a908a5b1ebd2788c4493db7",
        "corpus.txt": "e45994e92297e570fb18801b2c2bcb5e70fc4a23eba8ffe65f903272534cfbb2",
        "features.vftr": "a6c1e652b180be46fe31e612f512bada4313658448b77790829d675d77936acd",
        "floors.json": "3f37bf4f02e57022ac35fb2e0215061956442f939daa179b67d3fa990c15af3d",
        "nouns.txt": "af5890aba454a8f4aca53d4e9fd9d42a9d7410d3ba03912d4e750a21b6511309",
        "synsets.tsv": "b6028cc2b09149bdbfc1dfa81b8ab382f3e466810f801afdf7d5f4e96933a6c7",
        "vocab.txt": "e6a2ec86f00035361918321af4244a01fe445162f25dc484593242c7705c138d",
        "wordvecs.txt": "e3ed2c7bfe746a48e3b4ecb037f5777a785110fc81e2c19459a761d7f8d516a7",
    }),
    (ToySpec(seed=3, grounding_strength=0.5), {
        "captions.tsv": "ddf57c1f09b632bdf29f022f3f1d7fe7a1f9389359464b0d466486eaaedbfde5",
        "corpus.txt": "078c6d7faef8998b266bc35475ceb8a69d0b79baaabfd33d20b9cf3dae1b7903",
        "features.vftr": "c3baaa974ad18895b3db31993f5a6caee55699a1acf34850cfede747977fcbc1",
        "floors.json": "b5c15c47365fec1f3f8c08ddec2719d05019cf519841558d8ce5bc7e4ece8cef",
        "nouns.txt": "af5890aba454a8f4aca53d4e9fd9d42a9d7410d3ba03912d4e750a21b6511309",
        "synsets.tsv": "f811dc567cedc14e85c2da5d0fc32f8cc1f8f049907dc8666dd03596197171b2",
        "vocab.txt": "e6a2ec86f00035361918321af4244a01fe445162f25dc484593242c7705c138d",
        "wordvecs.txt": "10d9679945ceb85d07f5592de5bb8bea01d8944119cbf212c24f19d2072bf3f5",
    }),
    # no region grounded, two regions an image: the noise-base branch
    (ToySpec(seed=5, grounding_strength=0.0, n_regions=2), {
        "captions.tsv": "be71fd9f10f0c8c039041fb62afd45d8cc198e4d98f4668aff1ca7bd01c19923",
        "corpus.txt": "f012bf95db57305e15bc9aa37837e1da243a9facdb2e800ae4fe93002f3dc290",
        "features.vftr": "26d670f1512071336a50d034dba9097a60b620fc8eb40dc2f03f6d70f9145875",
        "floors.json": "ff89b5fd3c2e912aa0bf0e422d4b527b9f15a9c06031ac32a16d76676239d5cc",
        "nouns.txt": "af5890aba454a8f4aca53d4e9fd9d42a9d7410d3ba03912d4e750a21b6511309",
        "synsets.tsv": "eabf381020c6d4725723b2da872e29720128d7ef3f362434d8bb460b9918cc74",
        "vocab.txt": "e6a2ec86f00035361918321af4244a01fe445162f25dc484593242c7705c138d",
        "wordvecs.txt": "5cd9a5cd710cd722d6edc7b6c82d031798a778ca23dea5474c7df61c9a288c54",
    }),
]


@pytest.mark.parametrize("spec, digests", GOLDEN, ids=["seed0", "seed3-half", "seed5-noise"])
def test_bundle_bytes_pinned(tmp_path, spec, digests):
    generate_grounded_corpus(spec, tmp_path)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == digests


class TestFloors:
    def test_hand_recomputation(self, tmp_path):
        spec = ToySpec(grounding_strength=1.0, **SMALL)
        floors = entropy_floors(spec)
        n_fillers = 40 - N_RESERVED - 12
        share = 1.0 / 4  # concept + 3 fillers, cue is never maskable
        expect_ungrounded = share * math.log(12) + (1 - share) * math.log(n_fillers)
        expect_grounded = (1 - share) * math.log(n_fillers)  # concept fully resolved
        assert floors["ungrounded_ce_floor"] == pytest.approx(expect_ungrounded)
        assert floors["grounded_ce_floor"] == pytest.approx(expect_grounded)
        assert floors["ungrounded_ppl_floor"] == pytest.approx(
            math.exp(expect_ungrounded))

    def test_partial_strength_interpolates(self):
        lo = entropy_floors(ToySpec(grounding_strength=0.0, **SMALL))
        hi = entropy_floors(ToySpec(grounding_strength=1.0, **SMALL))
        mid = entropy_floors(ToySpec(grounding_strength=0.5, **SMALL))
        assert lo["grounded_ce_floor"] == pytest.approx(lo["ungrounded_ce_floor"])
        assert mid["grounded_ce_floor"] == pytest.approx(
            0.5 * (lo["grounded_ce_floor"] + hi["grounded_ce_floor"]))

    def test_floors_json_matches_module(self, tmp_path):
        spec = ToySpec(grounding_strength=0.75, **SMALL)
        paths = generate_grounded_corpus(spec, tmp_path / "bundle")
        blob = json.load(open(paths.floors))
        fresh = entropy_floors(spec)
        for key, val in fresh.items():
            assert blob[key] == pytest.approx(val), key
        assert blob["spec"]["seed"] == spec.seed

    def test_default_scale_floors(self):
        # the shipped defaults: 96 concepts, 923 fillers, 3 fillers/caption
        floors = entropy_floors(ToySpec())
        assert floors["ungrounded_ppl_floor"] == pytest.approx(98.25, abs=0.5)
        assert floors["grounded_ppl_floor"] == pytest.approx(31.4, abs=0.5)
