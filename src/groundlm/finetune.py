"""Downstream fine-tuning probes over the [cls] representation.

A task is a TSV of labeled sentences (or sentence pairs). Fine-tuning
attaches a fresh classification head to a pretrained model, unfreezes
everything, and trains with cross-entropy (classification) or squared
error (ordinal scores). Transferred strategies run with the placeholder
on the visual side; associative strategies retrieve images live for
every example. The protocol is 8 runs with consecutive seeds, reported
as per-run scores plus their median.
"""

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from .associate import AssociationCache
from .model import CrossModalModel
from .optim import Adam
from .tensor import Tensor, masked_cross_entropy, mean_all, mul, no_grad
from .train import Corpora, Strategy, TrainConfig, build_batch, require_corpora
from .vocab import Vocab


@dataclass
class TaskExample:
    label: object  # int class id (accuracy) or float score (spearman)
    text_a: str
    text_b: Optional[str] = None


@dataclass
class Task:
    metric: str  # "accuracy" | "spearman"
    examples: List[TaskExample]
    label_set: Optional[List[int]] = None  # declared classes, accuracy only


@dataclass
class TaskReport:
    strategy: str
    metric: str
    runs: List[Optional[float]]  # None marks a failed run
    median: float
    config_digest: str
    errors: List[str] = field(default_factory=list)

    def to_json(self) -> Dict:
        return {
            "strategy": self.strategy,
            "metric": self.metric,
            "runs": self.runs,
            "median": self.median,
            "n_runs": len(self.runs),
            "n_completed": sum(1 for r in self.runs if r is not None),
            "config_digest": self.config_digest,
            "errors": self.errors,
        }


def load_task_file(path) -> Task:
    """Parse `label<TAB>text_a[<TAB>text_b]` lines under a key=value header.

    The header must declare `metric=accuracy` or `metric=spearman` and may
    declare the legal class ids as `labels=0,1`. Labels outside a declared
    set are rejected with their line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty task file")
    header = dict(tok.split("=", 1) for tok in lines[0].split() if "=" in tok)
    metric = header.get("metric")
    if metric not in ("accuracy", "spearman"):
        raise ValueError(f"header must declare metric=accuracy|spearman, got {lines[0]!r}")
    label_set = None
    if "labels" in header:
        if metric != "accuracy":
            raise ValueError("labels= declaration only applies to accuracy tasks")
        label_set = sorted(int(t) for t in header["labels"].split(","))
    examples = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"line {n}: expected 2 or 3 tab-separated fields, got {len(parts)}")
        raw_label, text_a = parts[0], parts[1]
        text_b = parts[2] if len(parts) == 3 else None
        if metric == "accuracy":
            try:
                label = int(raw_label)
            except ValueError:
                raise ValueError(f"line {n}: label {raw_label!r} is not an integer class id")
            if label_set is not None and label not in label_set:
                raise ValueError(f"line {n}: label {label} outside declared set {label_set}")
        else:
            try:
                label = float(raw_label)
            except ValueError:
                raise ValueError(f"line {n}: label {raw_label!r} is not a numeric score")
        examples.append(TaskExample(label, text_a, text_b))
    if not examples:
        raise ValueError("task file declares a header but no examples")
    return Task(metric=metric, examples=examples, label_set=label_set)


def spearman(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Rank correlation with average-rank tie handling."""
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise ValueError(f"score vectors must match in length, got {pred.shape} vs {gold.shape}")
    if pred.size < 2:
        raise ValueError("spearman needs at least 2 points")
    if np.all(pred == pred[0]) or np.all(gold == gold[0]):
        raise ValueError("spearman is undefined for a constant score vector")
    rho = _scipy_stats.spearmanr(pred, gold).statistic
    return float(rho)


def _task_rows(examples: Sequence[TaskExample], vocab: Vocab, max_len: int):
    token_rows, raw_rows, pairs = [], [], []
    for ex in examples:
        ids, raw = vocab.encode_with_raw(ex.text_a, max_len, ex.text_b)
        token_rows.append(ids)
        raw_rows.append(raw)
        joined = ex.text_a if ex.text_b is None else ex.text_a + " " + ex.text_b
        pairs.append((None, joined))
    return token_rows, raw_rows, pairs


def _config_digest(strategy: Strategy, task: Task, config: TrainConfig, n_out: int) -> str:
    payload = {
        "strategy": strategy.name, "k": strategy.k, "kappa": config.kappa,
        "metric": task.metric, "n_out": n_out,
        "lr": config.lr, "batch_size": config.batch_size,
        "max_epochs": config.max_epochs, "max_steps": config.max_steps,
        "seed": config.seed, "val_fraction": config.val_fraction,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _forward_scores(model, examples, token_rows, raw_rows, pairs, vocab, mode,
                    corpora, k, kappa, assoc_seed, cache, threads, batch_size):
    """Head outputs for a fixed example list, batched, no masking."""
    out = []
    for lo in range(0, len(examples), batch_size):
        hi = min(lo + batch_size, len(examples))
        batch = build_batch(pairs[lo:hi], token_rows[lo:hi], vocab, model, mode,
                            raw_rows=raw_rows[lo:hi], corpora=corpora, k=k,
                            kappa=kappa, assoc_seed=assoc_seed, cache=cache,
                            threads=threads)
        _, _, cls_vec = model.forward(batch)
        out.append(model.cls_logits(cls_vec).data)
    return np.concatenate(out, axis=0)


def finetune(model: CrossModalModel, task: Task, strategy: Strategy,
             config: TrainConfig, *, corpora: Optional[Corpora] = None,
             eval_examples: Optional[Sequence[TaskExample]] = None,
             n_runs: int = 8, cache: Optional[AssociationCache] = None,
             threads: Optional[int] = None) -> TaskReport:
    """Run the 8-run fine-tuning protocol and report per-run scores + median.

    Run r uses seed config.seed + r for head init and batch order. When
    ``eval_examples`` is omitted, a fixed fraction of the task is held out
    once (same split for every run). The model's weights are restored to
    their entry state afterwards; only the report is kept.
    """
    # task sentences have no image pairings; transferred models keep their
    # pretrained weights but see the placeholder slot here
    mode = "placeholder" if strategy.spec.mode == "paired" else strategy.spec.mode
    if mode != "placeholder" and strategy.k > model.config.k_max:
        raise ValueError(
            f"strategy K={strategy.k} exceeds model k_max={model.config.k_max}")
    if corpora is None or corpora.vocab is None:
        raise ValueError("finetune needs a Corpora carrying the model vocab")
    if mode != "placeholder":
        # task sentences replace the pretraining streams; everything else is needed
        require_corpora(strategy, corpora, [name for name in strategy.spec.needs
                                            if name not in ("text_only", "paired")])
    vocab = corpora.vocab

    if task.metric == "accuracy":
        classes = task.label_set or sorted({ex.label for ex in task.examples})
        class_of = {c: i for i, c in enumerate(classes)}
        n_out = len(classes)
    else:
        classes, class_of = None, None
        n_out = 1

    if eval_examples is None:
        if len(task.examples) < 2:
            raise ValueError("need at least 2 examples to hold out an eval split")
        rng = np.random.default_rng([config.seed, 5])
        perm = rng.permutation(len(task.examples))
        n_val = max(1, int(round(config.val_fraction * len(task.examples))))
        train_ex = [task.examples[i] for i in perm[n_val:]]
        eval_ex = [task.examples[i] for i in perm[:n_val]]
    else:
        train_ex = list(task.examples)
        eval_ex = list(eval_examples)

    max_len = model.config.max_len
    tr_rows, tr_raw, tr_pairs = _task_rows(train_ex, vocab, max_len)
    ev_rows, ev_raw, ev_pairs = _task_rows(eval_ex, vocab, max_len)
    k = strategy.k if mode != "placeholder" else 0
    assoc_seed = config.seed  # retrieval fixed across runs; runs differ by init/order

    if task.metric == "accuracy":
        tr_labels = np.array([class_of[ex.label] for ex in train_ex], dtype=np.int64)
        ev_gold = np.array([class_of[ex.label] for ex in eval_ex], dtype=np.int64)
    else:
        tr_labels = np.array([ex.label for ex in train_ex], dtype=np.float64)
        ev_gold = np.array([ex.label for ex in eval_ex], dtype=np.float64)

    base = {n: (p.data.copy(), p.requires_grad) for n, p in model.params.items()}

    def restore():
        for extra in [n for n in model.params if n not in base]:
            del model.params[extra]
        for name, (arr, req) in base.items():
            p = model.params[name]
            p.data = arr.copy()
            p.grad = None
            p.requires_grad = req

    scores: List[Optional[float]] = []
    errors: List[str] = []
    for r in range(n_runs):
        run_seed = config.seed + r
        try:
            restore()
            model.set_text_encoder_frozen(False)
            model.add_cls_head(n_out, seed=run_seed)
            opt = Adam(model.trainable_params(), lr=config.lr)
            step = 0
            done = False
            for epoch in range(config.max_epochs):
                if done:
                    break
                order = np.random.default_rng([run_seed, 1000 + epoch]).permutation(len(train_ex))
                for lo in range(0, len(order), config.batch_size):
                    picks = order[lo:lo + config.batch_size]
                    batch = build_batch([tr_pairs[i] for i in picks],
                                        [tr_rows[i] for i in picks], vocab, model, mode,
                                        raw_rows=[tr_raw[i] for i in picks],
                                        corpora=corpora, k=k, kappa=config.kappa,
                                        assoc_seed=assoc_seed, cache=cache, threads=threads)
                    _, _, cls_vec = model.forward(batch)
                    logits = model.cls_logits(cls_vec)
                    b_sz = len(picks)
                    if task.metric == "accuracy":
                        loss = masked_cross_entropy(
                            logits.reshape((b_sz, 1, n_out)),
                            tr_labels[picks].reshape(b_sz, 1),
                            np.ones((b_sz, 1), dtype=bool))
                    else:
                        target = Tensor(tr_labels[picks].reshape(b_sz, 1).astype(logits.data.dtype),
                                        requires_grad=False)
                        diff = logits + (-target)
                        loss = mean_all(mul(diff, diff))
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
                    step += 1
                    if config.max_steps is not None and step >= config.max_steps:
                        done = True
                        break
            with no_grad():
                out = _forward_scores(model, eval_ex, ev_rows, ev_raw, ev_pairs, vocab,
                                      mode, corpora, k, config.kappa, assoc_seed,
                                      cache, threads, config.batch_size)
            if task.metric == "accuracy":
                scores.append(float(np.mean(out.argmax(axis=1) == ev_gold)))
            else:
                scores.append(spearman(out[:, 0], ev_gold))
        except Exception as exc:  # a failed run is excluded from the median
            scores.append(None)
            errors.append(f"run {r}: {exc}")
    restore()

    completed = [s for s in scores if s is not None]
    if not completed:
        raise RuntimeError("all fine-tune runs failed; first error: " + errors[0])
    return TaskReport(strategy=strategy.name, metric=task.metric, runs=scores,
                      median=float(statistics.median(completed)),
                      config_digest=_config_digest(strategy, task, config, n_out),
                      errors=errors)
