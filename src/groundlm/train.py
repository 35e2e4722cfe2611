"""Pretraining orchestration for the grounding strategies.

Seven strategies share one loop. The ``STRATEGIES`` table says, as data, how
each fills the visual slots, which losses apply and which examples it reads:

* NoGrounding          — masked-LM only, placeholder visual slot.
* TransferredI2T       — masked-LM with the paired image attached.
* TransferredT2I       — region reconstruction only; text stays unmasked and
                         text-only examples are skipped.
* TransferredBoth      — both maskings in one forward pass, losses summed;
                         text-only examples fall back to placeholder + LM.
* AssociativeScene / AssociativeObject / AssociativeKeyword
                       — masked-LM where the K retrieved images for the
                         masked text fill the visual slots; empty retrievals
                         fall back to the placeholder.

Everything is deterministic given the config seed: shuffles, masks, mixing,
and GMM inits all derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .associate import (Association, AssociationCache, NounLexicon,
                        associate_keyword_baseline, associate_object,
                        associate_scene, association_cache_key)
from .embeddings import WordEmbeddingTable
from .index import ImageFeatureStore, ImageKeyIndex
from .model import (CrossModalModel, MaskedBatch, mask_regions, mask_tokens,
                    masked_ce_stats, masked_lm_loss, masked_region_loss)
from .optim import Adam
from .vocab import CLS_ID, MASKED_ID, PAD_ID, SEP_ID, Vocab


@dataclass(frozen=True)
class StrategySpec:
    """What one strategy does; plain data, read by every stage that differs."""
    mode: str                # visual side: placeholder, paired, scene, object, keyword
    lm_loss: bool            # mask text and train the masked-token loss
    region_loss: bool        # mask regions and train the region reconstruction loss
    stream: str              # examples: "text" (text-only), "paired" or "mixed"
    needs: Tuple[str, ...]   # Corpora fields the strategy cannot run without


STRATEGIES: Dict[str, StrategySpec] = {
    "NoGrounding": StrategySpec("placeholder", True, False, "text", ("text_only",)),
    "TransferredI2T": StrategySpec("paired", True, False, "mixed", ("paired", "store")),
    "TransferredT2I": StrategySpec("paired", False, True, "paired", ("paired", "store")),
    "TransferredBoth": StrategySpec("paired", True, True, "mixed", ("paired", "store")),
    "AssociativeScene": StrategySpec(
        "scene", True, False, "text", ("text_only", "store", "caption_index", "table")),
    "AssociativeObject": StrategySpec(
        "object", True, False, "text",
        ("text_only", "store", "synset_index", "table", "lexicon")),
    "AssociativeKeyword": StrategySpec(
        "keyword", True, False, "text", ("text_only", "store", "caption_corpus")),
}

VISUAL_MODES = tuple(dict.fromkeys(spec.mode for spec in STRATEGIES.values()))


@dataclass
class Strategy:
    name: str
    k: int = 16

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.name!r}; choose from {tuple(STRATEGIES)}")
        if self.spec.mode == "placeholder":
            self.k = 0
        elif self.k < 1:
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
        if self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size and eval_every must be >= 1")


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
    lexicon: Optional[NounLexicon] = None
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
    rng = np.random.default_rng([seed, 3])
    total = len(paired) + len(text_only)
    draws = rng.random(total) < mix_ratio
    out: List[ExampleTuple] = []
    pi = ti = 0
    for take_paired in draws:
        if take_paired:
            image_id, text = paired[pi % len(paired)]
            out.append((image_id, text))
            pi += 1
        else:
            out.append((None, text_only[ti % len(text_only)]))
            ti += 1
    return out


def _example_stream(strategy: Strategy, corpora: Corpora,
                    config: TrainConfig) -> List[ExampleTuple]:
    if strategy.spec.stream == "paired":
        return [(image_id, text) for image_id, text in corpora.paired]
    if strategy.spec.stream == "mixed":
        return mix_corpora(corpora.paired, corpora.text_only, config.mix_ratio, config.seed)
    return [(None, text) for text in corpora.text_only]


# -- batch construction --------------------------------------------------------


def _pad_rows(rows: Sequence[Sequence[int]]) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _query_text(corrupted_row: np.ndarray, flag_row: np.ndarray,
                raw_row: Sequence[str], vocab: Vocab) -> str:
    """The corrupted text as words: [masked] positions dropped, substituted
    positions shown as their substitute, untouched positions as the raw word
    (preserving out-of-vocabulary words that the id row collapses to [unk])."""
    keep = []
    for p, idx in enumerate(corrupted_row):
        if idx in (PAD_ID, CLS_ID, SEP_ID):
            continue
        if flag_row[p]:
            if idx == MASKED_ID:
                continue
            keep.append(vocab.token_of(int(idx)))
        elif p < len(raw_row):
            keep.append(raw_row[p])
    return " ".join(keep)


def associate_query(mode: str, query: str, corpora: Corpora, k: int, kappa: int,
                    seed: int, threads: Optional[int] = None) -> Association:
    """Run the scene, object or keyword association for one query string."""
    if mode == "scene":
        return associate_scene(query, corpora.caption_index, corpora.table, k,
                               threads=threads)
    if mode == "object":
        return associate_object(query, corpora.synset_index, corpora.table,
                                corpora.lexicon, k, min(kappa, k), seed=seed,
                                threads=threads)
    return associate_keyword_baseline(query, corpora.caption_corpus, k, table=corpora.table)


def _associate_for_row(mode: str, query: str, corpora: Corpora, k: int, kappa: int,
                       assoc_seed: int, cache: Optional[AssociationCache],
                       threads: Optional[int]) -> List[Tuple[str, float]]:
    key = association_cache_key(mode, query, k, assoc_seed)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    assoc = associate_query(mode, query, corpora, k, kappa, assoc_seed, threads)
    ranked = [(it.image_id, it.similarity) for it in assoc.items]
    if cache is not None:
        cache.put(key, ranked)
    return ranked


def build_batch(examples: Sequence[ExampleTuple], token_rows: Sequence[Sequence[int]],
                vocab: Vocab, model: CrossModalModel, mode: str, *,
                raw_rows: Optional[Sequence[Sequence[str]]] = None,
                mask_text_rng: Optional[np.random.Generator] = None,
                mask_region_rng: Optional[np.random.Generator] = None,
                corpora: Optional[Corpora] = None,
                k: int = 0, kappa: int = 8, assoc_seed: int = 0,
                cache: Optional[AssociationCache] = None,
                threads: Optional[int] = None) -> MaskedBatch:
    """Assemble one MaskedBatch for any strategy/eval mode.

    ``mode`` picks the visual side: placeholder (no regions), paired (the
    example's own image), or an association strategy applied to the masked
    text. Text masking happens iff ``mask_text_rng`` is given; region
    masking iff ``mask_region_rng`` is given (paired mode only).
    """
    if mode not in VISUAL_MODES:
        raise ValueError(f"unknown visual mode {mode!r}")
    cfg = model.config
    ids = _pad_rows(token_rows)
    if mask_text_rng is not None:
        corrupted, flags = mask_tokens(ids, cfg.mask_rate, mask_text_rng, cfg.vocab_size)
    else:
        corrupted, flags = ids.copy(), np.zeros(ids.shape, dtype=bool)
    batch = MaskedBatch(token_ids=corrupted, token_mask_flags=flags, original_tokens=ids)
    if mode == "placeholder":
        return batch

    b_sz = ids.shape[0]
    store = corpora.store if corpora is not None else None
    n = store.n_regions if store is not None else cfg.n_regions
    d_v = cfg.d_v
    if mode == "paired":
        n_slots = n
        per_example: List[List[Tuple[int, np.ndarray]]] = []
        for image_id, _text in examples:
            if image_id is None:
                per_example.append([])
            else:
                per_example.append([(0, store.get(image_id))])
    else:
        if raw_rows is None:
            raise ValueError(f"visual mode {mode!r} needs raw_rows to build queries")
        n_slots = k * n
        per_example = []
        for b, (image_id, _text) in enumerate(examples):
            query = _query_text(corrupted[b], flags[b], raw_rows[b], vocab)
            ranked = _associate_for_row(mode, query, corpora, k, kappa, assoc_seed,
                                        cache, threads)
            per_example.append([(rank, store.get(img)) for rank, (img, _s) in enumerate(ranked)])

    regions = np.zeros((b_sz, n_slots, d_v), dtype=np.float32)
    rank_ids = np.zeros((b_sz, n_slots), dtype=np.int64)
    placeholder_slots = np.zeros((b_sz, n_slots), dtype=bool)
    slot_valid = np.zeros((b_sz, n_slots), dtype=bool)
    for b, slots in enumerate(per_example):
        if not slots:
            placeholder_slots[b, 0] = True
            slot_valid[b, 0] = True
            continue
        for j, (rank, rows) in enumerate(slots):
            lo = j * n
            regions[b, lo:lo + n] = rows
            rank_ids[b, lo:lo + n] = rank
            slot_valid[b, lo:lo + n] = True

    if mask_region_rng is not None:
        masked, region_flags = mask_regions(regions, cfg.mask_rate, mask_region_rng)
        region_flags &= slot_valid & ~placeholder_slots
    else:
        masked, region_flags = regions.copy(), np.zeros((b_sz, n_slots), dtype=bool)

    text_valid = ids != PAD_ID
    batch.regions = masked
    batch.original_regions = regions
    batch.region_mask_flags = region_flags
    batch.rank_ids = rank_ids
    batch.placeholder_slots = placeholder_slots
    batch.attention_pad_mask = np.concatenate([text_valid, slot_valid], axis=1)
    return batch


# -- evaluation ----------------------------------------------------------------


def _normalize_examples(examples) -> List[ExampleTuple]:
    out: List[ExampleTuple] = []
    for ex in examples:
        if isinstance(ex, str):
            out.append((None, ex))
        else:
            image_id, text = ex
            out.append((image_id, text))
    return out


def evaluate_perplexity(model: CrossModalModel, examples, vocab: Vocab, *,
                        seed: int, mode: str = "placeholder",
                        corpora: Optional[Corpora] = None, k: int = 16, kappa: int = 8,
                        batch_size: int = 32, cache: Optional[AssociationCache] = None,
                        threads: Optional[int] = None) -> float:
    """Masked-LM perplexity over a fixed, seed-determined masking of ``examples``.

    exp(sum of masked-token cross-entropies / masked-token count), accumulated
    in float64 over the whole stream.
    """
    examples = _normalize_examples(examples)
    if not examples:
        raise ValueError("evaluate_perplexity: empty evaluation stream")
    encoded = [vocab.encode_with_raw(text, model.config.max_len) for _img, text in examples]
    rng = np.random.default_rng([seed, 7])
    total = 0.0
    count = 0
    with T.no_grad():
        for lo in range(0, len(examples), batch_size):
            chunk = examples[lo:lo + batch_size]
            batch = build_batch(chunk, [e[0] for e in encoded[lo:lo + batch_size]],
                                vocab, model, mode,
                                raw_rows=[e[1] for e in encoded[lo:lo + batch_size]],
                                mask_text_rng=rng, corpora=corpora, k=k, kappa=kappa,
                                assoc_seed=seed, cache=cache, threads=threads)
            logits, _preds, _cls = model.forward(batch)
            s, c = masked_ce_stats(logits.data, batch.original_tokens, batch.token_mask_flags)
            total += s
            count += c
    if count == 0:
        raise ValueError("evaluate_perplexity: no masked positions in stream")
    return float(np.exp(total / count))


def _eval_region_objective(model: CrossModalModel, examples: List[ExampleTuple],
                           vocab: Vocab, corpora: Corpora, seed: int,
                           batch_size: int = 32) -> float:
    """Mean region-reconstruction loss under a fixed masking; T2I's val metric."""
    rows = [vocab.encode(text, model.config.max_len) for _img, text in examples]
    rng = np.random.default_rng([seed, 11])
    losses: List[float] = []
    with T.no_grad():
        for lo in range(0, len(examples), batch_size):
            chunk = examples[lo:lo + batch_size]
            batch = build_batch(chunk, rows[lo:lo + batch_size], vocab, model, "paired",
                                mask_region_rng=rng, corpora=corpora)
            _logits, preds, _cls = model.forward(batch)
            loss = masked_region_loss(preds, batch.original_regions,
                                      batch.region_mask_flags, model)
            losses.append(loss.item())
    return float(np.mean(losses)) if losses else 0.0


# -- the training loop ----------------------------------------------------------

MetricsRow = Tuple[int, str, str, float]


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
    ``eval_every`` steps (plus `val/region_loss` for the region-only
    strategy, which also drives its early stopping).
    """
    validate_strategy_corpora(strategy, corpora, config.mix_ratio)
    if strategy.k > model.config.k_max:
        raise ValueError(f"strategy K={strategy.k} exceeds model k_max={model.config.k_max}")
    vocab = corpora.vocab
    stream = _example_stream(strategy, corpora, config)
    if not stream:
        raise ValueError("empty example stream")

    split_rng = np.random.default_rng([config.seed, 4])
    order = split_rng.permutation(len(stream))
    n_val = int(config.val_fraction * len(stream))
    val_examples = [stream[i] for i in order[:n_val]]
    train_examples = [stream[i] for i in order[n_val:]]
    if not train_examples:
        raise ValueError("no training examples left after validation split")
    encoded = [vocab.encode_with_raw(text, model.config.max_len) for _img, text in train_examples]
    train_rows = [e[0] for e in encoded]
    train_raw = [e[1] for e in encoded]

    mode = strategy.spec.mode
    lm_loss_on = strategy.spec.lm_loss
    region_loss_on = strategy.spec.region_loss

    opt = Adam(model.trainable_params(), lr=config.lr)
    metrics: List[MetricsRow] = []
    step = 0
    best = math.inf
    bad_evals = 0
    window: List[float] = []
    stop = False

    def run_eval() -> None:
        nonlocal best, bad_evals, stop
        if window:
            metrics.append((step, "train", "loss", float(np.mean(window))))
            window.clear()
        if not val_examples:
            return
        objective = None
        if lm_loss_on:
            ppl = evaluate_perplexity(
                model, val_examples, vocab, seed=config.seed, mode=mode,
                corpora=corpora, k=strategy.k or 16, kappa=config.kappa,
                batch_size=config.batch_size, cache=cache, threads=threads)
            metrics.append((step, "val", "ppl", ppl))
            objective = ppl
        if region_loss_on:
            rloss = _eval_region_objective(model, val_examples, vocab, corpora,
                                           config.seed, config.batch_size)
            metrics.append((step, "val", "region_loss", rloss))
            if not lm_loss_on:
                objective = rloss
        if objective is None:
            return
        if objective < best - 1e-12:
            best = objective
            bad_evals = 0
        else:
            bad_evals += 1
            if bad_evals >= config.patience:
                stop = True

    last_eval_step = -1
    for epoch in range(config.max_epochs):
        epoch_rng = np.random.default_rng([config.seed, 1000 + epoch])
        mask_rng = np.random.default_rng([config.seed, 2000 + epoch])
        perm = epoch_rng.permutation(len(train_examples))
        for lo in range(0, len(perm), config.batch_size):
            picks = perm[lo:lo + config.batch_size]
            chunk = [train_examples[i] for i in picks]
            rows = [train_rows[i] for i in picks]
            batch = build_batch(
                chunk, rows, vocab, model, mode,
                raw_rows=[train_raw[i] for i in picks],
                mask_text_rng=mask_rng if lm_loss_on else None,
                mask_region_rng=mask_rng if region_loss_on else None,
                corpora=corpora, k=strategy.k, kappa=config.kappa,
                assoc_seed=config.seed, cache=cache, threads=threads)
            logits, preds, _cls = model.forward(batch)
            loss = None
            if lm_loss_on:
                loss = masked_lm_loss(logits, batch.original_tokens, batch.token_mask_flags)
            if region_loss_on:
                rl = masked_region_loss(preds, batch.original_regions,
                                        batch.region_mask_flags, model)
                loss = rl if loss is None else loss + rl
            window.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
            step += 1
            if step % config.eval_every == 0:
                run_eval()
                last_eval_step = step
            if stop or (config.max_steps is not None and step >= config.max_steps):
                stop = True
                break
        if stop:
            break
    if step != last_eval_step:
        run_eval()
    return model, metrics
