"""Pretraining orchestration for the grounding strategies.

Seven strategies share one loop. The ``STRATEGIES`` table says, as data, how
each fills the visual slots, which heads it trains and which examples it reads.
TransferredT2I trains region reconstruction only, on paired examples;
TransferredBoth sums both losses over one forward pass, and its text-only
examples fall back to the placeholder. The Associative strategies fill the
visual slots with the K images retrieved for the masked text; an empty
retrieval falls back to the placeholder.

Everything is deterministic given the config seed: each random stream has its
own generator, ``np.random.default_rng([seed, key])`` (``finetune`` adds key 5,
and its runs' orders use key 1000 + e at their own seeds):

    3 mixing (``mix_corpora``)          1000 + e  epoch e's example order
    4 the validation split              2000 + e  epoch e's text masks
    7 an evaluated stream's text masks  3000 + e  epoch e's region masks
    11 the validation region masks

Every batch is a set of rows of one ``Stream``, encoded once, and takes its rows
of the stream's masks, drawn once in example order: no mask depends on batch size.
An evaluated stream is associated in one call, a training stream one epoch at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .associate import (AssociationCache, CacheKey, associate_keyword_baseline,
                        associate_object, associate_scene)
from .embeddings import WordEmbeddingTable
from .index import ImageFeatureStore, ImageKeyIndex
from .model import (CrossModalModel, MaskedBatch, Masks, ModelConfig, mask_stream,
                    masked_ce_stats, masked_lm_loss, masked_region_loss)
from .optim import Adam
from .vocab import CLS_ID, MASKED_ID, PAD_ID, RESERVED, SEP_ID, Vocab


@dataclass(frozen=True)
class StrategySpec:
    """What one strategy does; plain data, read by every stage that differs."""
    mode: str                # visual side: placeholder, paired, scene, object, keyword
    heads: Tuple[str, ...]   # losses trained: "lm" masks text, "region" masks regions
    stream: str              # examples: "text" (text-only), "paired" or "mixed"
    needs: Tuple[str, ...]   # Corpora fields the strategy cannot run without


STRATEGIES: Dict[str, StrategySpec] = {
    "NoGrounding": StrategySpec("placeholder", ("lm",), "text", ("text_only",)),
    "TransferredI2T": StrategySpec("paired", ("lm",), "mixed", ("paired", "store")),
    "TransferredT2I": StrategySpec("paired", ("region",), "paired", ("paired", "store")),
    "TransferredBoth": StrategySpec("paired", ("lm", "region"), "mixed", ("paired", "store")),
    "AssociativeScene": StrategySpec(
        "scene", ("lm",), "text", ("text_only", "store", "table", "caption_index")),
    "AssociativeObject": StrategySpec(
        "object", ("lm",), "text", ("text_only", "store", "table", "lexicon", "synset_index")),
    "AssociativeKeyword": StrategySpec(
        "keyword", ("lm",), "text", ("text_only", "store", "caption_corpus")),
}

VISUAL_MODES = tuple(dict.fromkeys(spec.mode for spec in STRATEGIES.values()))


@dataclass
class Strategy:
    name: str
    k: int = 16

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.name!r}; choose from {tuple(STRATEGIES)}")
        # K counts the images a row shows: none, its one paired image, or K retrieved
        self.k = {"placeholder": 0, "paired": 1}.get(self.spec.mode, self.k)
        if self.k < 1 and self.spec.mode != "placeholder":
            raise ValueError(f"strategy {self.name} needs K >= 1, got {self.k}")

    @property
    def spec(self) -> StrategySpec:
        return STRATEGIES[self.name]


@dataclass
class TrainConfig:
    batch_size: int = 32
    lr: float = 1e-4
    max_epochs: int = 4
    max_steps: Optional[int] = None
    seed: int = 0
    mix_ratio: float = 0.5
    eval_every: int = 100
    patience: int = 3
    val_fraction: float = 0.1
    kappa: int = 8

    def __post_init__(self):
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError(f"mix_ratio must be in [0, 1], got {self.mix_ratio}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        for name in ("batch_size", "eval_every", "max_epochs", "kappa"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1 or None, got {self.max_steps}")


@dataclass
class Corpora:
    """Everything a strategy might need; validation is per strategy."""
    vocab: Vocab
    text_only: List[str] = field(default_factory=list)
    paired: List[Tuple[str, str]] = field(default_factory=list)  # (image_id, caption)
    store: Optional[ImageFeatureStore] = None
    caption_index: Optional[ImageKeyIndex] = None
    synset_index: Optional[ImageKeyIndex] = None
    table: Optional[WordEmbeddingTable] = None
    lexicon: Optional[FrozenSet[str]] = None
    caption_corpus: Optional[Dict[str, str]] = None


_NEED_TEXT = {
    "text_only": "a non-empty text-only corpus",
    "paired": "a caption-paired corpus",
    "store": "an image feature store",
    "caption_index": "a caption-keyed index",
    "synset_index": "a synset-keyed index",
    "table": "a word-embedding table",
    "lexicon": "a noun lexicon",
    "caption_corpus": "a caption corpus for keyword matching",
}


def require_corpora(strategy: Strategy, corpora: Corpora, fields: Sequence[str]) -> None:
    """Raise naming the first of ``fields`` that ``corpora`` lacks or has empty."""
    for name in fields:
        value = getattr(corpora, name)
        if value is None or (isinstance(value, list) and not value):
            raise ValueError(f"strategy {strategy.name} requires {_NEED_TEXT[name]}")


def validate_strategy_corpora(strategy: Strategy, corpora: Corpora,
                              mix_ratio: float = 0.5) -> None:
    require_corpora(strategy, corpora, strategy.spec.needs)
    if strategy.spec.stream == "mixed" and 0.0 < mix_ratio < 1.0 and not corpora.text_only:
        raise ValueError(f"strategy {strategy.name} requires "
                         "a text-only corpus when mix_ratio is in (0, 1)")


def validate_lookup(strategy: Strategy, corpora: Corpora, k_max: int) -> None:
    """Raise unless K fits a model of ``k_max`` and ``corpora`` holds what the
    strategy's visual side reads: its needs without the training streams, which
    a held-out or probe pass replaces with its own text."""
    if strategy.k > k_max:
        raise ValueError(f"strategy K={strategy.k} exceeds model k_max={k_max}")
    require_corpora(strategy, corpora, [name for name in strategy.spec.needs
                                        if name not in ("text_only", "paired")])


# -- example streams ----------------------------------------------------------

ExampleTuple = Tuple[Optional[str], str]  # (paired image id or None, text)


def mix_corpora(paired: Sequence[Tuple[str, str]], text_only: Sequence[str],
                mix_ratio: float, seed: int) -> List[ExampleTuple]:
    """Deterministic Bernoulli interleave of paired and text-only examples.

    Each of len(paired)+len(text_only) slots draws paired with probability
    ``mix_ratio``; each corpus is consumed round-robin, wrapping as needed.
    """
    if not 0.0 <= mix_ratio <= 1.0:
        raise ValueError(f"mix_ratio must be in [0, 1], got {mix_ratio}")
    if mix_ratio > 0.0 and not paired:
        raise ValueError("mix_corpora: paired corpus required when mix_ratio > 0")
    if mix_ratio < 1.0 and not text_only:
        raise ValueError("mix_corpora: text-only corpus required when mix_ratio < 1")
    if mix_ratio == 1.0:
        return [(image_id, text) for image_id, text in paired]
    if mix_ratio == 0.0:
        return [(None, text) for text in text_only]
    draws = np.random.default_rng([seed, 3]).random(len(paired) + len(text_only)) < mix_ratio
    before = np.cumsum(draws) - draws   # paired examples taken before each slot
    return [paired[p % len(paired)] if take else (None, text_only[(j - p) % len(text_only)])
            for j, (take, p) in enumerate(zip(draws, before))]


def _example_stream(strategy: Strategy, corpora: Corpora,
                    config: TrainConfig) -> List[ExampleTuple]:
    if strategy.spec.stream == "paired":
        return [(image_id, text) for image_id, text in corpora.paired]
    if strategy.spec.stream == "mixed":
        return mix_corpora(corpora.paired, corpora.text_only, config.mix_ratio, config.seed)
    return [(None, text) for text in corpora.text_only]


def _pad_rows(rows: Sequence[Sequence[int]], width: Optional[int] = None) -> np.ndarray:
    width = width or max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


class Stream(NamedTuple):
    """Examples encoded once: id rows padded to ``max_len`` (int64), and raw
    token rows, which keep the out-of-vocabulary words that queries read."""
    examples: Sequence[ExampleTuple]
    ids: np.ndarray
    raw: List[List[str]]


def encode_stream(examples: Sequence[ExampleTuple], vocab: Vocab, max_len: int,
                  texts_b: Optional[Sequence[Optional[str]]] = None) -> Stream:
    """The ``Stream`` of ``examples``; ``texts_b`` holds second sentences or None."""
    encoded = [vocab.encode_with_raw(text, max_len, text_b) for (_img, text), text_b
               in zip(examples, texts_b or [None] * len(examples))]
    return Stream(examples, _pad_rows([ids for ids, _raw in encoded], max_len),
                  [raw for _ids, raw in encoded])


# -- batch construction --------------------------------------------------------


def _query_text(corrupted_row: Sequence[int], flag_row: Sequence[bool],
                raw_row: Sequence[str], vocab: Vocab) -> str:
    """The corrupted text as words: [pad], [cls] and [sep] dropped, selected
    positions shown as their corrupted token ([masked] or a substitute),
    untouched positions as the raw word (preserving out-of-vocabulary words
    that the id row collapses to [unk])."""
    keep = []
    for p, idx in enumerate(corrupted_row):
        if idx in (PAD_ID, CLS_ID, SEP_ID):
            continue
        if flag_row[p]:
            keep.append(vocab.token_of(int(idx)))
        elif p < len(raw_row):
            keep.append(raw_row[p])
    return " ".join(keep)


def associate_query(mode: str, queries: Sequence[str], corpora: Corpora, k: int, kappa: int,
                    seed: int,
                    cache: Optional[AssociationCache] = None) -> List[List[Tuple[str, float]]]:
    """For each query, the ranked (image id, similarity) pairs that the
    scene, object or keyword strategy associates with it; empty when no
    usable word is left.

    ``[masked]`` markers are dropped first, so a result and its cache key
    (mode, query, k, kappa, seed) depend only on the surviving words. The
    cache counts as one-query calls in list order would: a repeat of a query
    that missed earlier in the list is a hit. The misses are associated in
    one call.
    """
    keys = [(mode, " ".join(t for t in query.split() if t.lower() != RESERVED[MASKED_ID]),
             k, kappa, seed) for query in queries]
    found: Dict[CacheKey, Optional[List[Tuple[str, float]]]] = {}
    for key in keys:
        if key not in found:
            found[key] = cache.get(key) if cache is not None else None
        elif cache is not None:
            cache.hits += 1
    missing = [key for key, ranked in found.items() if ranked is None]
    texts = [key[1] for key in missing]
    if mode == "scene":
        assocs = associate_scene(texts, corpora.caption_index, corpora.table, k)
    elif mode == "object":
        assocs = associate_object(texts, corpora.synset_index, corpora.table, corpora.lexicon,
                                  k, min(kappa, k), seed=seed)
    else:
        assocs = [associate_keyword_baseline(text, corpora.caption_corpus, k, table=corpora.table)
                  for text in texts]
    for key, assoc in zip(missing, assocs):
        found[key] = assoc.items
        if cache is not None:
            cache.put(key, found[key])
    return [found[key] for key in keys]


def _fill_visual_slots(batch: MaskedBatch, mode: str, examples: Sequence[ExampleTuple],
                       rankings: Sequence, corpora: Optional[Corpora], cfg: ModelConfig,
                       k: int, region_flags: Optional[np.ndarray] = None) -> MaskedBatch:
    """Give ``batch`` its visual slots: none in placeholder mode, else each
    row's paired image or ranked images gathered from the store, marked in
    ``image_slots`` and zeroed where ``region_flags`` (one per slot) flags an
    image slot. The model lays out ranks, the placeholder and slot validity."""
    if mode == "placeholder":
        return batch
    b_sz = batch.batch_size
    store = corpora.store if corpora is not None else None
    if store is not None and (store.n_regions, store.feat_dim) != (cfg.n_regions, cfg.d_v):
        raise ValueError(f"{store.path}: feature store holds {store.n_regions} "
                         f"{store.feat_dim}-dim regions per image, the model's n_regions "
                         f"is {cfg.n_regions} and d_v is {cfg.d_v}")
    n = cfg.n_regions
    if mode == "paired":
        n_images = 1
        per_example = [[] if image_id is None else [image_id] for image_id, _text in examples]
    else:
        n_images = k
        per_example = [[image_id for image_id, _sim in ranked] for ranked in rankings]

    # image j of row b fills slots j*n .. j*n+n-1
    counts = np.array([len(images) for images in per_example], dtype=np.int64)
    filled = np.arange(n_images) < counts[:, None]
    regions = np.zeros((b_sz, n_images, n, cfg.d_v), dtype=np.float32)
    if counts.any():
        regions[filled] = store.gather([img for images in per_example for img in images])
    regions = regions.reshape(b_sz, n_images * n, cfg.d_v)
    image_slots = np.repeat(filled, n, axis=1)

    if region_flags is None:
        region_flags = np.zeros(image_slots.shape, dtype=bool)
    region_flags = region_flags & image_slots
    masked = regions.copy()
    masked[region_flags] = 0.0

    batch.regions = masked
    batch.original_regions = regions
    batch.region_mask_flags = region_flags
    batch.image_slots = image_slots
    return batch


def build_batch(stream: Stream, rows: Sequence[int], model: CrossModalModel, mode: str, *,
                masks: Masks = Masks(), rankings: Optional[Sequence] = None,
                corpora: Optional[Corpora] = None, k: int = 0,
                heads: Tuple[str, ...] = ("lm", "region")) -> MaskedBatch:
    """The MaskedBatch of ``rows`` of ``stream``, trimmed to its longest row.

    ``mode`` picks the visual side: placeholder (no regions), paired (the
    example's own image), or a retrieval mode, which takes each row's ranked
    images from ``rankings``, a list or dict indexed by stream row. ``masks``
    holds the stream's masks (see ``Masks``). ``heads`` names the model
    outputs the caller reads.
    """
    masks = masks.rows(rows)
    if mode not in ("placeholder", "paired"):
        if rankings is None:
            raise ValueError(f"build_batch: {mode} mode needs the rows' rankings")
        rankings = [rankings[i] for i in rows]
    width = (stream.ids[rows] != PAD_ID).sum(axis=1).max()   # no text token is [pad]
    ids = stream.ids[rows, :width]
    if masks.tokens is None:
        corrupted, flags = ids.copy(), np.zeros(ids.shape, dtype=bool)
    else:   # pad columns are never flagged, so trimming them is exact
        corrupted, flags = masks.tokens[:, :width], masks.token_flags[:, :width]
    batch = MaskedBatch(token_ids=corrupted, token_mask_flags=flags, original_tokens=ids,
                        heads=heads)
    return _fill_visual_slots(batch, mode, [stream.examples[i] for i in rows], rankings,
                              corpora, model.config, k, masks.region_flags)


# -- drawing and evaluating a pass ----------------------------------------------


class Draw(NamedTuple):
    """One pass over rows of ``stream``: the whole stream's masks and, in a
    retrieval mode, the rankings of the rows the pass visits, by stream row."""
    stream: Stream
    masks: Masks
    rankings: Optional[Dict[int, List[Tuple[str, float]]]]


def draw_pass(stream: Stream, rows: Sequence[int], vocab: Vocab, cfg: ModelConfig,
              heads: Tuple[str, ...], text_rng, region_rng, *, mode: str,
              corpora: Optional[Corpora], k: int, kappa: int, seed: int,
              cache: Optional[AssociationCache]) -> Draw:
    """The pass's ``Draw``, the one place masks and rankings are made: text
    masked by ``text_rng`` iff "lm" is in ``heads``, region slots flagged by
    ``region_rng`` iff "region" is, and, in a retrieval mode, ``rows``
    associated under those masks in one ``associate_query`` call, in the given
    order. The placeholder and paired modes associate nothing."""
    if mode not in VISUAL_MODES:
        raise ValueError(f"unknown visual mode {mode!r}")
    region = "region" in heads
    masks = mask_stream(stream.ids, cfg, text_rng if "lm" in heads else None,
                        region_rng if region else None, corpora.store.n_regions if region else 0)
    if mode in ("placeholder", "paired"):
        return Draw(stream, masks, None)
    queries = [_query_text(*row, stream.raw[i], vocab) for i, *row in zip(
        rows, masks.tokens[rows].tolist(), masks.token_flags[rows].tolist())]
    return Draw(stream, masks, dict(zip(rows, associate_query(mode, queries, corpora, k, kappa,
                                                              seed, cache))))


def _held_out(examples: Sequence[ExampleTuple], vocab: Vocab, cfg: ModelConfig,
              heads: Tuple[str, ...], *, seed: int, mode: str, corpora: Optional[Corpora],
              k: int, kappa: int, cache: Optional[AssociationCache]) -> Draw:
    """The draw of a held-out stream of ``examples``, as ``_evaluate`` reads it:
    every row, masked for ``heads`` once, associated in one call."""
    stream = encode_stream(examples, vocab, cfg.max_len)
    return draw_pass(stream, list(range(len(examples))), vocab, cfg, heads,
                     np.random.default_rng([seed, 7]), np.random.default_rng([seed, 11]),
                     seed=seed, mode=mode, corpora=corpora, k=k, kappa=kappa, cache=cache)


def _evaluate(model: CrossModalModel, drawn: Draw, heads: Tuple[str, ...], *, mode: str,
              corpora: Optional[Corpora], k: int,
              batch_size: int) -> Tuple[float, int, float, int]:
    """(masked-token cross-entropy sum, count, region error sum, count) over
    the stream of ``drawn``, a draw for ``heads``, in float64; zeros for a head
    not in ``heads``. The "lm" head reads masked text beside whole regions, the
    "region" head masked regions beside whole text. Each batch is built once."""
    cfg = model.config
    lm, region = "lm" in heads, "region" in heads
    n = len(drawn.stream.ids)
    totals = np.zeros(4)
    with T.no_grad():
        for lo in range(0, n, batch_size):
            batch = build_batch(drawn.stream, range(lo, min(lo + batch_size, n)), model, mode,
                                masks=drawn.masks, rankings=drawn.rankings, corpora=corpora,
                                k=k, heads=heads)
            if lm:
                logits, _preds, _cls = model.forward(
                    replace(batch, regions=batch.original_regions, heads=("lm",)))
                totals[:2] += masked_ce_stats(logits.data, batch.original_tokens,
                                              batch.token_mask_flags)
            if region:
                _logits, preds, _cls = model.forward(
                    replace(batch, token_ids=batch.original_tokens, heads=("region",)))
                flags = batch.region_mask_flags   # masked_lp_loss's row error, in float64
                diff = preds.data.astype(np.float64) - batch.original_regions[flags]
                totals[2:] += ((np.abs(diff) ** cfg.p_norm).sum() / cfg.d_v, flags.sum())
    lm_sum, lm_count, region_sum, region_count = totals.tolist()
    if lm and lm_count == 0:
        raise ValueError("evaluate_perplexity: no masked positions in stream")
    return lm_sum, int(lm_count), region_sum, int(region_count)


def evaluate_perplexity(model: CrossModalModel, examples, vocab: Vocab, *,
                        seed: int, mode: str = "placeholder",
                        corpora: Optional[Corpora] = None, k: int = 16, kappa: int = 8,
                        batch_size: int = 32, cache: Optional[AssociationCache] = None,
                        threads: Optional[int] = None) -> float:
    """Masked-LM perplexity over a fixed, seed-determined masking of ``examples``:
    exp(masked-token cross-entropy sum / count), in float64 over the whole
    stream. The masking does not depend on ``batch_size``, nor does the value,
    to rounding. ``threads`` is accepted and ignored: retrieval is one
    single-threaded scan."""
    examples = [(None, ex) if isinstance(ex, str) else ex for ex in examples]
    if not examples:
        raise ValueError("evaluate_perplexity: empty evaluation stream")
    drawn = _held_out(examples, vocab, model.config, ("lm",), seed=seed, mode=mode,
                      corpora=corpora, k=k, kappa=kappa, cache=cache)
    total, count, _, _ = _evaluate(model, drawn, ("lm",), mode=mode, corpora=corpora, k=k,
                                   batch_size=batch_size)
    return float(np.exp(total / count))


# -- the training loop ----------------------------------------------------------

MetricsRow = Tuple[int, str, str, float]


def training_batches(n: int, config: TrainConfig,
                     seed: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(epoch, indices)`` for each training batch over ``n`` examples.

    Epoch e visits the examples in the order of ``default_rng([seed, 1000 + e])``,
    cut into batches of ``config.batch_size``. The stream ends after
    ``config.max_epochs`` epochs or ``config.max_steps`` batches, whichever
    comes first.
    """
    step = 0
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([seed, 1000 + epoch]).permutation(n)
        for lo in range(0, n, config.batch_size):
            if step == config.max_steps:
                return
            step += 1
            yield epoch, order[lo:lo + config.batch_size]


def write_metrics_csv(rows: Sequence[MetricsRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,split,metric,value\n")
        for step, split, metric, value in rows:
            fh.write(f"{step},{split},{metric},{value!r}\n")


def pretrain(strategy: Strategy, corpora: Corpora, model: CrossModalModel,
             config: TrainConfig, cache: Optional[AssociationCache] = None,
             threads: Optional[int] = None) -> Tuple[CrossModalModel, List[MetricsRow]]:
    """Train ``model`` under one grounding strategy; returns (model, metrics rows).

    The metrics log holds `train/loss` and `val/ppl` rows every
    ``eval_every`` steps, plus `val/region_loss` for the strategies with a
    region loss (it drives the region-only strategy's early stopping). The
    validation stream is evaluated in one pass; `val/ppl` equals
    ``evaluate_perplexity`` over it. ``threads`` is accepted and ignored:
    retrieval is one single-threaded scan.
    """
    validate_strategy_corpora(strategy, corpora, config.mix_ratio)
    validate_lookup(strategy, corpora, model.config.k_max)
    vocab = corpora.vocab
    examples = _example_stream(strategy, corpora, config)
    if not examples:
        raise ValueError("empty example stream")

    order = np.random.default_rng([config.seed, 4]).permutation(len(examples))
    n_val = int(config.val_fraction * len(examples))
    val_examples = [examples[i] for i in order[:n_val]]
    train = encode_stream([examples[i] for i in order[n_val:]], vocab, model.config.max_len)
    if not train.examples:
        raise ValueError("no training examples left after validation split")

    mode, heads = strategy.spec.mode, strategy.spec.heads
    opt = Adam(model.trainable_params(), lr=config.lr)
    metrics: List[MetricsRow] = []
    window: List[float] = []
    step, best, bad_evals = 0, math.inf, 0

    # the split is drawn once, before training: every validation reads the same draw
    association = dict(mode=mode, corpora=corpora, k=strategy.k, kappa=config.kappa,
                       seed=config.seed, cache=cache)
    val = _held_out(val_examples, vocab, model.config, heads, **association) \
        if val_examples else None

    def run_eval() -> bool:
        """Log the train window and validate; True once patience has run out."""
        nonlocal best, bad_evals
        if window:
            metrics.append((step, "train", "loss", float(np.mean(window))))
            window.clear()
        if val is None:
            return False
        lm_sum, lm_count, region_sum, region_count = _evaluate(
            model, val, heads, mode=mode, corpora=corpora, k=strategy.k,
            batch_size=config.batch_size)
        if "lm" in heads:
            ppl = float(np.exp(lm_sum / lm_count))
            metrics.append((step, "val", "ppl", ppl))
        if "region" in heads:
            # the stream's mean row error plus the head's L1 term, as in the loss
            l1 = model.config.l1_coeff * float(np.abs(model.params["region_head.W"].data).sum())
            rloss = region_sum / region_count + l1 if region_count else 0.0
            metrics.append((step, "val", "region_loss", rloss))
        objective = ppl if "lm" in heads else rloss
        best, bad_evals = (objective, 0) if objective < best - 1e-12 else (best, bad_evals + 1)
        return bad_evals >= config.patience

    def steps() -> Iterator[Tuple[np.ndarray, Draw]]:
        """(picks, the epoch's draw) of each step. An epoch is drawn over the rows
        it visits, in visit order, when its first step is reached."""
        for epoch, group in itertools.groupby(
                training_batches(len(train.examples), config, config.seed), lambda s: s[0]):
            picks = [p for _epoch, p in group]
            drawn = draw_pass(train, np.concatenate(picks).tolist(), vocab, model.config, heads,
                              np.random.default_rng([config.seed, 2000 + epoch]),
                              np.random.default_rng([config.seed, 3000 + epoch]), **association)
            yield from ((p, drawn) for p in picks)

    for picks, drawn in steps():
        batch = build_batch(train, picks, model, mode, masks=drawn.masks,
                            rankings=drawn.rankings, corpora=corpora, k=strategy.k, heads=heads)
        logits, preds, _cls = model.forward(batch)
        loss = (masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags)
                if "lm" in heads else None)
        if "region" in heads:
            rl = masked_region_loss(preds, batch.original_regions, batch.region_mask_flags, model)
            loss = rl if loss is None else loss + rl
        window.append(loss.item())
        opt.zero_grad()
        loss.backward()
        opt.step()
        step += 1
        if step % config.eval_every == 0 and run_eval():
            break
    opt.zero_grad()   # the returned model carries no gradients
    if step % config.eval_every:
        run_eval()
    return model, metrics
