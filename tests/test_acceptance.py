"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single
``ACCEPTANCE <n> <name>: PASS|FAIL (<measured detail>)`` line
(run with ``pytest -s tests/test_acceptance.py`` to see them).
The trend/null tests train real models and take a few minutes total.
"""

import contextlib
import filecmp
import io
import time

import numpy as np
import pytest

from groundlm.associate import (AssociationCache, build_caption_index,
                                load_caption_corpus)
from groundlm.cli import main as cli_main
from groundlm.embeddings import load_word_vectors
from groundlm.finetune import Task, TaskExample, finetune, spearman
from groundlm.gmm import fit_gmm
from groundlm.index import ImageFeatureStore, build_index, top_k, write_feature_store
from groundlm.model import (CrossModalModel, MaskedBatch, ModelConfig, mask_stream,
                            mask_tokens, masked_lm_loss, masked_region_loss)
from groundlm.optim import Adam
from groundlm.tensor import no_grad
from groundlm.toydata import ToySpec, generate_grounded_corpus
from groundlm.train import (Corpora, Strategy, TrainConfig, _pad_rows, build_batch,
                            encode_stream, evaluate_perplexity, pretrain)
from groundlm.vocab import MASKED_ID, N_RESERVED, RESERVED, Vocab


def check(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"ACCEPTANCE {n} {label}: {detail}"


# -- shared corpora and trained models (criteria 4-6) ---------------------------

TREND_MODEL = dict(d=64, d_v=64, n_layers_text=1, n_layers_cross=1, n_heads=4,
                   max_len=8, k_max=16, n_regions=1)
TREND_TRAIN = dict(batch_size=32, lr=1e-3, max_epochs=1000, max_steps=2000,
                   seed=11, eval_every=100, patience=2, mix_ratio=1.0)
TRAIN_SLICE = slice(0, 1800)
EVAL_SLICE = slice(1800, 2000)
EVAL_SEED = 99


def load_bundle(tmp_path_factory, name: str, strength: float):
    out = tmp_path_factory.mktemp(name)
    paths = generate_grounded_corpus(ToySpec(seed=0, grounding_strength=strength), out)
    vocab = Vocab.load(paths.vocab)
    caption_corpus = load_caption_corpus(paths.captions)
    return {
        "paths": paths,
        "vocab": vocab,
        "store": ImageFeatureStore(paths.features),
        "table": load_word_vectors(paths.word_vectors),
        "texts": [l.rstrip("\n") for l in open(paths.corpus)],
        "paired": list(caption_corpus.items()),
    }


@pytest.fixture(scope="module")
def clean_world(tmp_path_factory):
    return load_bundle(tmp_path_factory, "accept_clean", 1.0)


@pytest.fixture(scope="module")
def null_world(tmp_path_factory):
    return load_bundle(tmp_path_factory, "accept_null", 0.0)


@pytest.fixture(scope="module")
def no_grounding(clean_world, null_world):
    """NoGrounding trained once for both criteria 4 and 5. It reads only the
    corpus and the vocabulary, which the clean and the null bundle share byte
    for byte (images are all that grounding_strength changes); that is checked
    here, so the sharing is not assumed."""
    for name in ("corpus", "vocab"):
        assert filecmp.cmp(getattr(clean_world["paths"], name),
                           getattr(null_world["paths"], name), shallow=False), name
    w = clean_world
    vocab, texts = w["vocab"], w["texts"]
    cfg = ModelConfig(vocab_size=len(vocab), **TREND_MODEL)
    t0 = time.time()
    ng = CrossModalModel(cfg, seed=7)
    pretrain(Strategy("NoGrounding"), Corpora(vocab=vocab, text_only=texts[TRAIN_SLICE]),
             ng, TrainConfig(**TREND_TRAIN))
    ng_ppl = evaluate_perplexity(ng, texts[EVAL_SLICE], vocab, seed=EVAL_SEED,
                                 mode="placeholder")
    return {"ppl": ng_ppl, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def trend(clean_world, no_grounding):
    """NoGrounding / TransferredI2T / AssociativeScene trained on the clean
    corpus under one shared budget, evaluated on the held-out tail. The
    elapsed time includes the shared NoGrounding run."""
    w = clean_world
    vocab, texts, paired, store = w["vocab"], w["texts"], w["paired"], w["store"]
    cfg = ModelConfig(vocab_size=len(vocab), **TREND_MODEL)
    tc = TrainConfig(**TREND_TRAIN)
    t0 = time.time()

    i2t = CrossModalModel(cfg, seed=7)
    pretrain(Strategy("TransferredI2T", k=1),
             Corpora(vocab=vocab, paired=paired[TRAIN_SLICE], store=store), i2t, tc)
    i2t_ppl = evaluate_perplexity(i2t, paired[EVAL_SLICE], vocab, seed=EVAL_SEED,
                                  mode="paired", corpora=Corpora(vocab=vocab, store=store))

    train_captions = dict(paired[TRAIN_SLICE])
    co = Corpora(vocab=vocab, text_only=texts[TRAIN_SLICE], store=store,
                 caption_index=build_caption_index(train_captions, w["table"]),
                 table=w["table"], caption_corpus=train_captions)
    cache = AssociationCache()
    scene = CrossModalModel(cfg, seed=7)
    pretrain(Strategy("AssociativeScene", k=16), co, scene, tc, cache=cache)
    scene_ppl = evaluate_perplexity(scene, texts[EVAL_SLICE], vocab, seed=EVAL_SEED,
                                    mode="scene", corpora=co, k=16, cache=cache)

    return {"ng": no_grounding["ppl"], "i2t": i2t_ppl, "scene": scene_ppl,
            "elapsed": no_grounding["elapsed"] + time.time() - t0}


@pytest.fixture(scope="module")
def null_trend(null_world, no_grounding):
    """Same budget on the corpus whose images are pure noise; NoGrounding,
    which sees no image, is the clean run's."""
    w = null_world
    vocab, paired, store = w["vocab"], w["paired"], w["store"]
    cfg = ModelConfig(vocab_size=len(vocab), **TREND_MODEL)

    i2t = CrossModalModel(cfg, seed=7)
    pretrain(Strategy("TransferredI2T", k=1),
             Corpora(vocab=vocab, paired=paired[TRAIN_SLICE], store=store), i2t,
             TrainConfig(**TREND_TRAIN))
    i2t_ppl = evaluate_perplexity(i2t, paired[EVAL_SLICE], vocab, seed=EVAL_SEED,
                                  mode="paired", corpora=Corpora(vocab=vocab, store=store))
    return {"ng": no_grounding["ppl"], "i2t": i2t_ppl}


# -- criteria -------------------------------------------------------------------


def test_01_gradient_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(0)
    cfg = ModelConfig(vocab_size=11, d=8, d_v=4, n_layers_text=1, n_layers_cross=1,
                      n_heads=2, max_len=6, k_max=2, n_regions=1)
    model = CrossModalModel(cfg, seed=0, dtype=np.float64)

    ids = rng.integers(N_RESERVED, 11, size=(2, 5))
    corrupted, flags = mask_tokens(ids, 0.4, rng, 11)
    regions = rng.normal(size=(2, 1, 4))
    reg_flags = rng.random((2, 1)) < 0.6
    reg_in = np.where(reg_flags[..., None], 0.0, regions)
    if not reg_flags.any():
        reg_flags[0, 0] = True
        reg_in[0, 0] = 0.0
    batch = MaskedBatch(token_ids=corrupted, token_mask_flags=flags,
                        original_tokens=ids, regions=reg_in,
                        original_regions=regions, region_mask_flags=reg_flags)

    def loss_value():
        logits, preds, _cls = model.forward(batch)
        loss = masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags)
        loss = loss + masked_region_loss(preds, batch.original_regions,
                                         batch.region_mask_flags, model)
        return loss

    loss = loss_value()
    for p in model.params.values():
        p.grad = None
    loss.backward()

    h = 1e-5
    worst = 0.0
    pick = np.random.default_rng(1)
    for name, p in sorted(model.params.items()):
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        coords = pick.choice(flat.size, size=min(6, flat.size), replace=False)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + h
            with no_grad():
                up = float(loss_value().data)
            flat[c] = keep - h
            with no_grad():
                down = float(loss_value().data)
            flat[c] = keep
            fd = (up - down) / (2 * h)
            an = float(grad.reshape(-1)[c])
            rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-6)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    check(1, "gradient fidelity", worst < 1e-3 and elapsed < 30,
          f"max rel err {worst:.2e} (<1e-3), {elapsed:.1f}s (<30s)")


def test_02_retrieval_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2)
    mismatches = 0
    for _inst in range(100):
        n = int(rng.integers(20, 10001))
        d = int(rng.integers(2, 65))
        k = int(rng.integers(1, 33))
        keys = rng.normal(size=(n, d)).astype(np.float32)
        if rng.random() < 0.3:  # force exact ties so ordering policy is exercised
            dup = rng.integers(0, n, size=max(2, n // 10))
            keys[dup] = keys[int(dup[0])]
        ids = [f"i{j:05d}" for j in range(n)]
        query = rng.normal(size=d).astype(np.float32)

        index = build_index(zip(ids, keys))
        got = top_k(index, query, k)

        # oracle: same normalization, full sort, similarity desc then id asc
        unit = np.stack([v / np.float32(float(np.linalg.norm(v))) for v in keys])
        q = query / np.float32(float(np.linalg.norm(query)))
        sims = unit @ q.astype(np.float32)
        order = np.lexsort((np.array(ids), -sims))[:k]
        want = [(ids[i], float(sims[i])) for i in order]
        if got != want:
            mismatches += 1
    elapsed = time.time() - t0
    check(2, "retrieval oracle", mismatches == 0 and elapsed < 60,
          f"{mismatches} mismatches over 100 instances, {elapsed:.1f}s (<60s)")


def test_03_gmm_recovery():
    t0 = time.time()
    truth = np.array([[-2.0, 0.0], [2.0, 0.0]])
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng([4000, trial])
        labels = rng.integers(0, 2, size=160)
        pts = truth[labels] + 0.3 * rng.normal(size=(160, 2))
        gmm = fit_gmm(pts, kappa=2, seed=trial)
        hist = gmm.loglik_history
        assert all(b - a >= -1e-9 * max(1.0, abs(a))
                   for a, b in zip(hist, hist[1:])), f"loglik dipped in trial {trial}"
        d_straight = max(np.linalg.norm(gmm.means[0] - truth[0]),
                         np.linalg.norm(gmm.means[1] - truth[1]))
        d_swapped = max(np.linalg.norm(gmm.means[0] - truth[1]),
                        np.linalg.norm(gmm.means[1] - truth[0]))
        if min(d_straight, d_swapped) < 0.2:
            hits += 1
    elapsed = time.time() - t0
    check(3, "gmm recovery", hits >= 95 and elapsed < 60,
          f"{hits}/100 trials within 0.2 (need >=95), loglik monotone, "
          f"{elapsed:.1f}s (<60s)")


def test_04_grounding_benefit_trend(trend):
    r_i2t = trend["i2t"] / trend["ng"]
    r_scene = trend["scene"] / trend["ng"]
    ok = r_i2t <= 0.5 and r_scene <= 0.7 and trend["elapsed"] < 900
    check(4, "grounding benefit trend", ok,
          f"NG {trend['ng']:.2f}, I2T {trend['i2t']:.2f} (ratio {r_i2t:.3f} <=0.5), "
          f"Scene {trend['scene']:.2f} (ratio {r_scene:.3f} <=0.7), "
          f"{trend['elapsed']:.0f}s (<900s)")


def test_05_null_control(null_trend):
    rel = abs(null_trend["i2t"] - null_trend["ng"]) / null_trend["ng"]
    check(5, "null control", rel < 0.05,
          f"NG {null_trend['ng']:.2f} vs I2T-on-noise {null_trend['i2t']:.2f}, "
          f"rel diff {rel:.4f} (<0.05)")


def test_06_placeholder_transfer_contract(clean_world, tmp_path):
    w = clean_world
    vocab, texts, paired, store = w["vocab"], w["texts"], w["paired"], w["store"]
    cfg = ModelConfig(vocab_size=len(vocab), **TREND_MODEL)
    model = CrossModalModel(cfg, seed=7)
    pretrain(Strategy("TransferredBoth", k=1),
             Corpora(vocab=vocab, paired=paired[:400], store=store), model,
             TrainConfig(batch_size=32, lr=1e-3, max_epochs=100, max_steps=120,
                         seed=11, eval_every=60, patience=50, mix_ratio=1.0))

    noise_rng = np.random.default_rng(123)
    noise_path = tmp_path / "noise.vftr"
    write_feature_store(
        noise_path,
        [(img, noise_rng.normal(size=(1, cfg.d_v)).astype(np.float32))
         for img, _ in paired],
        n_regions=1, feat_dim=cfg.d_v)
    assert not filecmp.cmp(noise_path, w["paths"].features, shallow=False)

    eval_texts = texts[EVAL_SLICE][:32]
    rows = [vocab.encode(t, max_len=cfg.max_len) for t in eval_texts]
    outs = []
    for active_store in (store, ImageFeatureStore(noise_path)):
        co = Corpora(vocab=vocab, store=active_store)
        masks = mask_stream(_pad_rows(rows), cfg, np.random.default_rng(5), None)
        batch = build_batch(encode_stream([(None, t) for t in eval_texts], vocab, cfg.max_len),
                            range(len(rows)), model, "placeholder", masks=masks,
                            corpora=co)
        with no_grad():
            logits, _preds, _cls = model.forward(batch)
        outs.append(logits.data.copy())
    identical = np.array_equal(outs[0], outs[1])
    check(6, "placeholder transfer contract", identical,
          "logits bit-identical after swapping the feature store for noise"
          if identical else "logits changed with store contents")


def test_07_masking_statistics():
    rng = np.random.default_rng(7)
    ids = rng.integers(N_RESERVED, 200, size=(800, 128))  # 102400 positions
    corrupted, flags = mask_tokens(ids, 0.15, rng, 200)
    frac = flags.mean()
    n_sel = int(flags.sum())
    to_mask = float(((corrupted == MASKED_ID) & flags).sum()) / n_sel
    unchanged = float(((corrupted == ids) & flags).sum()) / n_sel
    randomized = 1.0 - to_mask - unchanged
    ok = (abs(frac - 0.15) < 0.01 and abs(to_mask - 0.8) < 0.02
          and abs(randomized - 0.1) < 0.02 and abs(unchanged - 0.1) < 0.02)
    check(7, "masking statistics", ok,
          f"{ids.size} positions, rate {frac:.4f} (0.15±0.01), split "
          f"{to_mask:.3f}/{randomized:.3f}/{unchanged:.3f} (0.8/0.1/0.1 ±0.02)")


def test_08_perplexity_calibration():
    words = [f"w{i:02d}" for i in range(95)]
    vocab = Vocab(list(RESERVED) + words)
    assert len(vocab) == 100
    cfg = ModelConfig(vocab_size=100, d=16, d_v=4, n_layers_text=1,
                      n_layers_cross=1, n_heads=2, max_len=8, k_max=2, n_regions=1)
    uniform = CrossModalModel(cfg, seed=0)
    uniform.params["lm_head.W"].data[:] = 0.0
    uniform.params["lm_head.b"].data[:] = 0.0
    rng = np.random.default_rng(8)
    texts = [" ".join(rng.choice(words, size=6)) for _ in range(50)]
    ppl_uniform = evaluate_perplexity(uniform, texts, vocab, seed=7)

    seq = "w01 w02 w03 w04 w05 w06"
    overfit = CrossModalModel(cfg, seed=0)
    opt = Adam(overfit.trainable_params(), lr=3e-3)
    rows = [vocab.encode(seq, max_len=8)] * 32
    stream = encode_stream([(None, seq)] * 32, vocab, 8)
    for step in range(400):
        masks = mask_stream(_pad_rows(rows), cfg, np.random.default_rng([8, step]), None)
        batch = build_batch(stream, range(32), overfit, "placeholder", masks=masks)
        logits, _p, _c = overfit.forward(batch)
        loss = masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags)
        opt.zero_grad()
        loss.backward()
        opt.step()
    ppl_overfit = evaluate_perplexity(overfit, [seq] * 8, vocab, seed=7)
    ok = 95.0 <= ppl_uniform <= 105.0 and ppl_overfit < 1.5
    check(8, "perplexity calibration", ok,
          f"uniform head {ppl_uniform:.2f} (in [95,105]), "
          f"one-sequence overfit {ppl_overfit:.3f} (<1.5)")


def test_09_downstream_probe(clean_world):
    t0 = time.time()
    rho = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    vocab = clean_world["vocab"]
    examples = []
    for j in range(32):
        trigger = j % 2
        examples.append(TaskExample(trigger, f"c{trigger:03d} f001 f002", "f003 f004"))
    task = Task(metric="accuracy", examples=examples, label_set=[0, 1])
    cfg = ModelConfig(vocab_size=len(vocab), d=32, d_v=8, n_layers_text=1,
                      n_layers_cross=1, n_heads=4, max_len=8, k_max=2, n_regions=1)
    model = CrossModalModel(cfg, seed=0)
    report = finetune(model, task, Strategy("NoGrounding"),
                      TrainConfig(batch_size=8, lr=1e-2, max_epochs=60,
                                  max_steps=None, seed=0, val_fraction=0.25),
                      corpora=Corpora(vocab=vocab), n_runs=8)
    elapsed = time.time() - t0
    ok = (report.median >= 0.99 and len(report.runs) == 8
          and abs(rho - 0.8) < 1e-12 and elapsed < 300)
    check(9, "downstream probe", ok,
          f"8-run median acc {report.median:.3f} (>=0.99), "
          f"spearman hand case {rho:.3f} (=0.8), {elapsed:.0f}s (<300s)")


def test_10_cli_reproducibility(tmp_path):
    def toy(out):
        assert cli_main(["make-toy-data", "--out", str(out), "--seed", "3",
                         "--vocab-size", "40", "--n-concepts", "12",
                         "--n-examples", "40", "--d-w", "8", "--d-v", "8"]) == 0

    def index(bundle, out):
        assert cli_main(["build-index", "--kind", "caption",
                         "--input", str(bundle / "captions.tsv"),
                         "--vectors", str(bundle / "wordvecs.txt"),
                         "--out", str(out)]) == 0

    def associate(bundle, queries, out):
        assert cli_main(["associate", "--strategy", "scene",
                         "--queries", str(queries), "--index", str(tmp_path / "a.vidx"),
                         "--vectors", str(bundle / "wordvecs.txt"),
                         "--seed", "0", "--out", str(out)]) == 0

    def train(bundle, model_out, csv_out):
        assert cli_main(["pretrain", "--strategy", "NoGrounding",
                         "--vocab", str(bundle / "vocab.txt"),
                         "--corpus", str(bundle / "corpus.txt"),
                         "--out-model", str(model_out), "--metrics", str(csv_out),
                         "--d", "8", "--d-v", "8", "--n-layers-text", "1",
                         "--n-layers-cross", "1", "--n-heads", "2",
                         "--max-len", "8", "--k-max", "2", "--max-steps", "6",
                         "--max-epochs", "2", "--batch-size", "8",
                         "--mix-ratio", "0.0", "--seed", "0"]) == 0

    def eval_ppl(bundle, model) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["eval-ppl", "--strategy", "NoGrounding",
                             "--vocab", str(bundle / "vocab.txt"),
                             "--corpus", str(bundle / "corpus.txt"),
                             "--model", str(model), "--seed", "7"]) == 0
        return buf.getvalue()

    def tune(bundle, model, task, out):
        assert cli_main(["finetune", "--strategy", "NoGrounding",
                         "--vocab", str(bundle / "vocab.txt"),
                         "--model", str(model), "--task", str(task),
                         "--out-report", str(out), "--runs", "2",
                         "--max-steps", "4", "--max-epochs", "1",
                         "--batch-size", "4", "--val-fraction", "0.25",
                         "--seed", "0"]) == 0

    toy(tmp_path / "t1")
    toy(tmp_path / "t2")
    bundle_files = ["captions.tsv", "features.vftr", "wordvecs.txt", "corpus.txt",
                    "vocab.txt", "synsets.tsv", "nouns.txt", "floors.json"]
    diffs = [f for f in bundle_files
             if not filecmp.cmp(tmp_path / "t1" / f, tmp_path / "t2" / f, shallow=False)]

    bundle = tmp_path / "t1"
    index(bundle, tmp_path / "a.vidx")
    index(bundle, tmp_path / "b.vidx")
    if not filecmp.cmp(tmp_path / "a.vidx", tmp_path / "b.vidx", shallow=False):
        diffs.append("index.vidx")

    queries = tmp_path / "q.txt"
    queries.write_text("c000 f001\nc003 f000\n")
    associate(bundle, queries, tmp_path / "a.jsonl")
    associate(bundle, queries, tmp_path / "b.jsonl")
    if not filecmp.cmp(tmp_path / "a.jsonl", tmp_path / "b.jsonl", shallow=False):
        diffs.append("associate.jsonl")

    train(bundle, tmp_path / "m1.glmc", tmp_path / "m1.csv")
    train(bundle, tmp_path / "m2.glmc", tmp_path / "m2.csv")
    for a, b, tag in ((tmp_path / "m1.glmc", tmp_path / "m2.glmc", "model.glmc"),
                      (tmp_path / "m1.csv", tmp_path / "m2.csv", "metrics.csv")):
        if not filecmp.cmp(a, b, shallow=False):
            diffs.append(tag)

    if eval_ppl(bundle, tmp_path / "m1.glmc") != eval_ppl(bundle, tmp_path / "m1.glmc"):
        diffs.append("eval-ppl stdout")

    task = tmp_path / "task.tsv"
    rows = ["metric=accuracy labels=0,1"]
    for j in range(12):
        rows.append(f"{j % 2}\tc{j % 2:03d} f000 f001")
    task.write_text("\n".join(rows) + "\n")
    tune(bundle, tmp_path / "m1.glmc", task, tmp_path / "r1.json")
    tune(bundle, tmp_path / "m1.glmc", task, tmp_path / "r2.json")
    if not filecmp.cmp(tmp_path / "r1.json", tmp_path / "r2.json", shallow=False):
        diffs.append("finetune report")

    check(10, "cli reproducibility", not diffs,
          "all six commands byte-identical on rerun" if not diffs
          else f"differing outputs: {diffs}")
