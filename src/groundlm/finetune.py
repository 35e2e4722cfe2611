"""Downstream fine-tuning probes over the [cls] representation.

A task is a TSV of labeled sentences (or sentence pairs). Fine-tuning
attaches a fresh classification head to a pretrained model, unfreezes
everything, and trains with cross-entropy (classification) or squared
error (ordinal scores). Transferred strategies run with the placeholder
on the visual side; associative strategies retrieve each split's images
once, before the runs. The protocol is 8 runs with consecutive seeds,
reported as per-run scores plus their median.
"""

import copy
import hashlib
import json
import os
import pickle
import signal
import statistics
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .associate import AssociationCache
from .embeddings import read_lines
from .model import CrossModalModel, MaskedBatch
from .optim import Adam
from .tensor import ShapeError, Tensor, masked_cross_entropy, mean_all, mul, no_grad
from .train import (Corpora, Strategy, TrainConfig, _associate_rows, build_batch,
                    encode_stream, training_batches, validate_lookup)


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
    declare the legal class ids, each once, as `labels=0,1`. Labels outside a
    declared set are rejected with their line number.
    """
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty task file")
    at = f"{path}: line 1"
    header = dict(tok.split("=", 1) for tok in lines[0].split() if "=" in tok)
    metric = header.get("metric")
    if metric not in ("accuracy", "spearman"):
        raise ValueError(f"{at}: header must declare metric=accuracy|spearman, got {lines[0]!r}")
    label_set = None
    if "labels" in header:
        if metric != "accuracy":
            raise ValueError(f"{at}: labels= declaration only applies to accuracy tasks")
        try:
            label_set = sorted(int(t) for t in header["labels"].split(","))
        except ValueError:
            raise ValueError(f"{at}: labels={header['labels']} are not integer class ids")
        if len(set(label_set)) < len(label_set):
            raise ValueError(f"{at}: labels={header['labels']} repeat a class id")
    examples = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        at = f"{path}: line {n}"
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"{at}: expected 2 or 3 tab-separated fields, got {len(parts)}")
        raw_label, text_a = parts[0], parts[1]
        text_b = parts[2] if len(parts) == 3 else None
        if metric == "accuracy":
            try:
                label = int(raw_label)
            except ValueError:
                raise ValueError(f"{at}: label {raw_label!r} is not an integer class id")
            if label_set is not None and label not in label_set:
                raise ValueError(f"{at}: label {label} outside declared set {label_set}")
        else:
            try:
                label = float(raw_label)
            except ValueError:
                raise ValueError(f"{at}: label {raw_label!r} is not a numeric score")
        examples.append(TaskExample(label, text_a, text_b))
    if not examples:
        raise ValueError(f"{path}: task file declares a header but no examples")
    return Task(metric=metric, examples=examples, label_set=label_set)


def spearman(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Rank correlation with average-rank tie handling."""
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise ValueError(f"score vectors must match in length, got {pred.shape} vs {gold.shape}")
    if pred.size < 2:
        raise ValueError("spearman needs at least 2 points")
    if np.isnan(pred).any() or np.isnan(gold).any():
        raise ValueError("spearman is undefined for NaN scores")
    if np.all(pred == pred[0]) or np.all(gold == gold[0]):
        raise ValueError("spearman is undefined for a constant score vector")
    # [1, 0], not [0, 1]: the two divide in another order and may differ in
    # the last bit; [1, 0] is what scipy.stats.spearmanr reads
    return float(np.corrcoef(_average_ranks(pred), _average_ranks(gold))[1, 0])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of equal values sharing the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


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


def finetune(model: CrossModalModel, task: Task, strategy: Strategy,
             config: TrainConfig, *, corpora: Optional[Corpora] = None,
             eval_examples: Optional[Sequence[TaskExample]] = None,
             n_runs: int, cache: Optional[AssociationCache] = None,
             threads: Optional[int] = None) -> TaskReport:
    """Run the 8-run fine-tuning protocol and report per-run scores + median.

    Run r uses seed config.seed + r for head init and batch order. When
    ``eval_examples`` is omitted, a fixed fraction of the task is held out
    once (same split for every run). Each run trains a copy; the model
    passed in is never modified. The runs spread over W = min(n_runs, CPUs
    this process may use) processes, one without ``os.fork`` or while other
    threads run: this one runs r = 0 (mod W), W - 1 forked children the other
    residues. Outcomes merge in run order, so the report and
    ``corpora.store.reads`` do not depend on W, and every child is reaped
    before this returns or raises. ``threads`` is accepted and ignored.
    """
    if n_runs < 1:
        raise ValueError(f"finetune needs n_runs >= 1, got {n_runs}")
    # task sentences have no image pairings; transferred models keep their
    # pretrained weights but see the placeholder slot here
    mode = "placeholder" if strategy.spec.mode == "paired" else strategy.spec.mode
    if corpora is None or corpora.vocab is None:
        raise ValueError("finetune needs a Corpora carrying the model vocab")
    if mode != "placeholder":
        validate_lookup(strategy, corpora, model.config.k_max)
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

    def prepare(examples: Sequence[TaskExample]) -> tuple:
        # task sentences pair with no image; runs differ only by init and order
        stream = encode_stream([(None, ex.text_a) for ex in examples], vocab,
                               model.config.max_len, [ex.text_b for ex in examples])
        return stream, _associate_rows(mode, stream.ids, np.zeros_like(stream.ids, dtype=bool),
                                       stream.raw, vocab, corpora, strategy.k, config.kappa,
                                       config.seed, cache)

    if task.metric == "accuracy":
        unseen = sorted({ex.label for ex in eval_ex} - set(classes))
        if unseen:
            raise ValueError(f"eval label {unseen[0]} is not among the task's classes {classes}")
        tr_labels = np.array([class_of[ex.label] for ex in train_ex], dtype=np.int64)
        ev_gold = np.array([class_of[ex.label] for ex in eval_ex], dtype=np.int64)
    else:
        tr_labels = np.array([ex.label for ex in train_ex], dtype=np.float64)
        ev_gold = np.array([ex.label for ex in eval_ex], dtype=np.float64)

    train_split, eval_split = prepare(train_ex), prepare(eval_ex)

    def batch_for(run: CrossModalModel, split, picks) -> MaskedBatch:
        stream, rankings = split   # only the [cls] row is read
        return build_batch(stream, picks, run, mode, rankings=rankings, corpora=corpora,
                           k=strategy.k, heads=())

    def train_and_score(run_seed: int) -> float:
        run = copy.deepcopy(model)
        if "forward" in vars(run) and run.forward is model.forward:
            # a plain-function wrapper on the instance survives the copy still
            # calling the original model; the copy forwards through itself
            del run.forward
        run.set_text_encoder_frozen(False)
        run.add_cls_head(n_out, seed=run_seed)
        opt = Adam(run.trainable_params(), lr=config.lr)
        for _epoch, picks in training_batches(len(train_ex), config, run_seed):
            _, _, cls_vec = run.forward(batch_for(run, train_split, picks))
            logits = run.cls_logits(cls_vec)
            if task.metric == "accuracy":
                loss = masked_cross_entropy(logits, tr_labels[picks])
            else:
                target = Tensor(tr_labels[picks].reshape(-1, 1).astype(logits.data.dtype),
                                requires_grad=False)
                diff = logits + (-target)
                loss = mean_all(mul(diff, diff))
            opt.zero_grad()
            loss.backward()
            opt.step()
        out = []
        with no_grad():
            for lo in range(0, len(eval_ex), config.batch_size):
                picks = range(lo, min(lo + config.batch_size, len(eval_ex)))
                _, _, cls_vec = run.forward(batch_for(run, eval_split, picks))
                out.append(run.cls_logits(cls_vec).data)
        out = np.concatenate(out)
        bad = int(np.count_nonzero(~np.isfinite(out).all(axis=1)))
        if bad:
            # fail the run: a NaN score would make the median depend on run order
            raise ValueError(f"{bad} of {len(out)} eval outputs are not finite")
        if task.metric == "accuracy":
            return float(np.mean(out.argmax(axis=1) == ev_gold))
        return spearman(out[:, 0], ev_gold)

    workers = (min(n_runs, len(os.sched_getaffinity(0))) if hasattr(os, "fork")
               and hasattr(os, "sched_getaffinity") and threading.active_count() == 1 else 1)

    def share(first: int) -> Dict[int, object]:
        # runs first, first + W, ...: a score, a failure message or a fault,
        # which ends the share. Only a failed run (a non-finite loss, gradient
        # or eval output, an undefined Spearman) is left out of the median
        out: Dict[int, object] = {}
        for r in range(first, n_runs, workers):
            try:
                out[r] = train_and_score(config.seed + r)
            except Exception as exc:
                if isinstance(exc, ShapeError) or not isinstance(exc, (FloatingPointError,
                                                                      ValueError)):
                    out[r] = exc
                    break
                out[r] = f"run {r}: {exc}"
        return out

    children = {}   # first run -> (pid, read end of its pipe), per child not yet reaped
    try:
        for first in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:   # the child: send its outcomes and reads, leave by os._exit
                try:
                    reads, got = getattr(corpora.store, "reads", 0), share(first)
                    for r, value in got.items():
                        try:
                            pickle.loads(pickle.dumps(value))
                        except Exception:
                            got[r] = RuntimeError(f"run {r}: {type(value).__name__} cannot "
                                                  f"be pickled: {value}")
                    with open(write_fd, "wb") as fh:
                        pickle.dump((got, getattr(corpora.store, "reads", 0) - reads), fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children[first] = pid, open(read_fd, "rb")
        outcomes = share(0)
        for first, (pid, pipe) in list(children.items()):
            with pipe:
                blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[first]
            if status:
                raise RuntimeError(f"fine-tune runs {list(range(first, n_runs, workers))} ended "
                                   f"with exit status {os.waitstatus_to_exitcode(status)}")
            got, reads = pickle.loads(blob)
            outcomes.update(got)
            if reads:
                corpora.store.reads += reads
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    for r in range(n_runs):   # a fault ends its share: later runs of it have no outcome
        if isinstance(outcomes[r], Exception):
            raise outcomes[r]
    ordered = [outcomes[r] for r in range(n_runs)]
    scores = [None if isinstance(o, str) else o for o in ordered]
    errors = [o for o in ordered if isinstance(o, str)]

    completed = [s for s in scores if s is not None]
    if not completed:
        raise RuntimeError("all fine-tune runs failed; first error: " + errors[0])
    return TaskReport(strategy=strategy.name, metric=task.metric, runs=scores,
                      median=float(statistics.median(completed)),
                      config_digest=_config_digest(strategy, task, config, n_out),
                      errors=errors)
