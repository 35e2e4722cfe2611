"""One user session per workload: set up, pretrain, held-out eval, probe.

A session does what a user of the ``groundlm`` CLI does for one strategy:
generate the toy bundle from the workload seed, load it and build the
strategy's index (``setup``); pretrain for a fixed step budget with in-loop
validation; run a held-out perplexity pass with a fresh ``AssociationCache``
as ``groundlm eval-ppl`` does; and run the 8-run fine-tune probe. Every step
starts only after the previous one finishes (a closed loop with one caller).

All calls into the package go through module attributes (``glm.train.pretrain``
and so on), so that a run with the tracer installed sees them.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from tracer import KERNEL_NAMES

# The acceptance suite's TREND_MODEL shape, shared by every workload.
MODEL_SHAPE = dict(d=64, d_v=64, n_layers_text=1, n_layers_cross=1, n_heads=4,
                   max_len=8, k_max=16, n_regions=1)
BATCH_SIZE = 32
MODEL_SEED = 7
TRAIN_SEED = 11
EVAL_SEED = 99
KAPPA = 8
N_TRAIN = 1800             # captions 0..1799 train and key the index
HELD_OUT = slice(1800, 2000)
PROBE_SLICE = slice(1800, 1960)
PROBE_RUNS = 8
PROBE_STEPS = 10           # fine-tune steps per probe run: two epochs of the task
MIX_RATIO = 0.5            # paired share of the TransferredBoth stream


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    k: int
    mode: str              # visual mode: paired | object
    steps: int             # pretrain step budget
    eval_every: int        # in-loop validation period, in steps
    eval_passes: int       # cold held-out passes per session
    session_s: float       # nominal length of one untraced session, in seconds

    def sessions(self, seconds: float) -> int:
        """How many sessions a run of ``seconds`` makes: fixed by the
        arguments, not by how fast the machine happens to be, so that every
        run of a workload does the same work and peaks at the same memory."""
        return max(1, int(seconds // self.session_s))


# Every session gives at least 100 step samples outside validation, so that a
# p90 has ten samples beyond it. The object budget is two and a half epochs of
# the 1,620 training rows (51 steps each). Pretrain queries that repeat hit
# the cache, more so in each later epoch, so steps get faster epoch by epoch;
# at two and a half epochs the p90 falls inside the first epoch's steps and
# the median inside the second's, not on a boundary between them. The
# held-out pass is repeated, each time with a fresh cache, so that a session
# spends a few seconds on it; the count is fixed so that the work counted is
# too. ``session_s`` is about one untraced session's wall time on a 2-vCPU
# VM, set-ups taken between phases included; a run makes
# ``seconds // session_s`` sessions, so its length follows the machine's
# speed.
#
# There is no AssociativeScene or AssociativeKeyword workload: see "Workloads"
# in README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paired", "TransferredBoth", k=1, mode="paired",
             steps=200, eval_every=50, eval_passes=48, session_s=8),
    Workload("object", "AssociativeObject", k=16, mode="object",
             steps=128, eval_every=64, eval_passes=6, session_s=20),
)}


@dataclass
class World:
    """A loaded bundle: what ``setup`` builds and the session consumes."""
    bundle_dir: str
    corpora: object
    texts: List[str]
    paired: List[tuple]
    floors: dict


@dataclass
class SessionResult:
    setup_s: float
    pretrain_s: float
    train_examples: int
    step_s: List[float]
    eval_s: List[float]
    eval_examples: int
    eval_repeats_agree: bool
    probe_s: float
    final_val_ppl: float
    in_loop_ppl: List[float]
    probe_runs: List[Optional[float]]
    cache_hits: int
    cache_misses: int
    store_reads: int
    layers: Dict[str, float] = field(default_factory=dict)


class StepClock:
    """Timestamps every forward call of one model instance during pretrain.

    A training step is the interval between two consecutive training
    forwards: forward, loss, backward and Adam of one step plus the batch
    build of the next. Intervals with a validation forward (grad disabled)
    inside them are dropped, so validation passes are excluded. This is the
    only hook an untraced run installs: one clock read per forward call.
    """

    def __init__(self, glm, model):
        self.model = model
        self.marks: List[tuple] = []
        self.examples = 0
        forward = model.forward
        grad_enabled = glm.tensor.grad_enabled
        clock = time.perf_counter
        marks = self.marks

        def stamped(batch):
            training = grad_enabled()
            marks.append((clock(), training))
            if training:
                self.examples += batch.batch_size
            return forward(batch)

        model.forward = stamped

    def remove(self) -> None:
        del self.model.forward

    def step_seconds(self) -> List[float]:
        return [b[0] - a[0] for a, b in zip(self.marks, self.marks[1:]) if a[1] and b[1]]


def _traced(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


def setup(glm, workload: Workload, seed: int, bundle_dir: str, tracer=None) -> World:
    """Generate the bundle for ``seed``, load it and build the workload's index."""
    paths = glm.toydata.generate_grounded_corpus(glm.toydata.ToySpec(seed=seed), bundle_dir)
    vocab = glm.vocab.Vocab.load(paths.vocab)
    with open(paths.corpus, encoding="utf-8") as fh:
        texts = [line.rstrip("\n") for line in fh if line.strip()]
    captions = glm.associate.load_caption_corpus(paths.captions)
    paired = list(captions.items())
    store = glm.index.ImageFeatureStore(paths.features)
    table = glm.embeddings.load_word_vectors(paths.word_vectors)
    co = glm.train.Corpora(vocab=vocab, text_only=texts[:N_TRAIN], store=store, table=table)
    if workload.mode == "paired":
        co.paired = paired[:N_TRAIN]
    elif workload.mode == "object":
        co.lexicon = glm.associate.load_noun_lexicon(paths.nouns)
        synsets = glm.associate.load_synsets(paths.synsets)
        co.synset_index = _traced(tracer, "index.build", glm.associate.build_synset_index,
                                  synsets, table, store.offsets)
    with open(paths.floors, encoding="utf-8") as fh:
        floors = json.load(fh)
    return World(bundle_dir, co, texts, paired, floors)


def close(world: World) -> None:
    world.corpora.store.close()
    shutil.rmtree(world.bundle_dir, ignore_errors=True)


def timed_setup(glm, workload: Workload, seed: int, bundle_dir: str, tracer=None):
    t0 = time.perf_counter()
    world = setup(glm, workload, seed, bundle_dir, tracer)
    return world, time.perf_counter() - t0


def probe_task(glm, world: World):
    """Binary concept-parity task over held-out captions (label = concept id mod 2)."""
    ft = glm.finetune
    examples = [ft.TaskExample(int(caption.split()[0][1:]) % 2, caption)
                for _img, caption in world.paired[PROBE_SLICE]]
    return ft.Task(metric="accuracy", examples=examples, label_set=[0, 1])


def gaps_per_session(workload: Workload) -> int:
    """How often ``run_session`` calls ``between``: after pretrain, after
    each held-out pass and after the probe."""
    return workload.eval_passes + 2


def run_session(glm, workload: Workload, seed: int, bundle_dir: str,
                tracer=None, between=None) -> tuple:
    """Run one full session; returns (SessionResult, World). The caller
    checks outputs against the world and then closes it. ``between``, if
    given, is called in the gaps between timed phases (see
    ``gaps_per_session``); the time it takes is not in any phase."""
    between = between or (lambda: None)
    if tracer is not None:
        tracer.reset()
    world, setup_s = timed_setup(glm, workload, seed, bundle_dir, tracer)
    co = world.corpora
    vocab = co.vocab
    cfg = glm.model.ModelConfig(vocab_size=len(vocab), **MODEL_SHAPE)
    model = glm.model.CrossModalModel(cfg, seed=MODEL_SEED)
    strategy = glm.train.Strategy(workload.strategy, k=workload.k)
    train_cfg = glm.train.TrainConfig(
        batch_size=BATCH_SIZE, lr=1e-3, max_epochs=10_000, max_steps=workload.steps,
        seed=TRAIN_SEED, mix_ratio=MIX_RATIO, eval_every=workload.eval_every,
        patience=10_000, kappa=KAPPA)

    pretrain_cache = glm.associate.AssociationCache()
    clock = StepClock(glm, model)
    t0 = time.perf_counter()
    _model, rows = _traced(tracer, "train.pretrain", glm.train.pretrain, strategy, co,
                           model, train_cfg, cache=pretrain_cache, threads=1)
    pretrain_s = time.perf_counter() - t0
    clock.remove()
    if tracer is not None:
        pretrain_children_ms = tracer.ms("train.pretrain") - tracer.self_ms("train.pretrain")
    between()

    # held-out pass, as `groundlm eval-ppl` runs it: cold cache, forward only
    if workload.mode == "paired":
        held_out = world.paired[HELD_OUT]
    else:
        held_out = world.texts[HELD_OUT]
    eval_s, ppls, caches = [], [], [pretrain_cache]

    def held_out_passes(count):
        for _ in range(count):
            caches.append(glm.associate.AssociationCache())
            t0 = time.perf_counter()
            ppls.append(glm.train.evaluate_perplexity(
                model, held_out, vocab, seed=EVAL_SEED, mode=workload.mode, corpora=co,
                k=workload.k, kappa=KAPPA, batch_size=BATCH_SIZE, cache=caches[-1],
                threads=1))
            eval_s.append(time.perf_counter() - t0)
            between()

    # Half of the held-out passes run before the probe and half after it, so
    # that they sample the machine at more moments of the session. The probe
    # leaves the model as it found it; every pass must give the same ppl.
    held_out_passes(workload.eval_passes // 2)
    caches.append(glm.associate.AssociationCache())
    probe_cfg = glm.train.TrainConfig(
        batch_size=BATCH_SIZE, lr=1e-3, max_epochs=10_000,
        max_steps=PROBE_STEPS, seed=TRAIN_SEED, kappa=KAPPA)
    t0 = time.perf_counter()
    report = _traced(tracer, "finetune.finetune", glm.finetune.finetune, model,
                     probe_task(glm, world), strategy, probe_cfg, corpora=co,
                     n_runs=PROBE_RUNS, cache=caches[-1], threads=1)
    probe_s = time.perf_counter() - t0
    between()
    held_out_passes(workload.eval_passes - workload.eval_passes // 2)

    result = SessionResult(
        setup_s=setup_s, pretrain_s=pretrain_s, train_examples=clock.examples,
        step_s=clock.step_seconds(), eval_s=eval_s, eval_examples=len(held_out),
        eval_repeats_agree=len(set(map(repr, ppls))) == 1,
        probe_s=probe_s, final_val_ppl=ppls[0],
        in_loop_ppl=[value for _step, split, metric, value in rows
                     if split == "val" and metric == "ppl"],
        probe_runs=list(report.runs),
        cache_hits=sum(c.hits for c in caches),
        cache_misses=sum(c.misses for c in caches),
        store_reads=co.store.reads)
    if tracer is not None:
        result.layers = layer_metrics(tracer, result, pretrain_children_ms)
    return result, world


def layer_metrics(tracer, result: SessionResult, pretrain_children_ms: float) -> Dict[str, float]:
    """Per-layer numbers of one traced session, named <module>.<function>.<stat>."""
    out: Dict[str, float] = {}
    for k in KERNEL_NAMES:
        out[f"kernels.{k}.calls"] = tracer.calls(f"kernels.{k}")
        out[f"kernels.{k}.ms"] = tracer.ms(f"kernels.{k}")
    for name, stats in (
            ("tensor.backward", ("ms", "self_ms")),
            ("model.forward", ("ms", "self_ms")),
            ("model.loss", ("ms",)),
            ("optim.step", ("self_ms",)),
            ("index.top_k", ("calls", "self_ms")),
            ("embeddings.encode_synset_key", ("calls", "ms")),
            ("vocab.encode", ("calls", "ms")),
            ("gmm.fit_gmm", ("calls", "ms")),
            ("associate.object", ("calls", "self_ms")),
            ("index.store_get", ("calls", "ms")),
            ("train.build_batch", ("calls", "self_ms")),
            ("index.build", ("ms",)),
            ("toydata.generate", ("ms",)),
            ("train.pretrain", ("ms", "self_ms")),
            ("train.evaluate_perplexity", ("calls", "ms"))):
        for stat in stats:
            out[f"{name}.{stat}"] = getattr(tracer, stat)(name)
    out["finetune.run_ms"] = tracer.ms("finetune.finetune") / PROBE_RUNS
    lookups = result.cache_hits + result.cache_misses
    out["associate.cache.hits"] = result.cache_hits
    out["associate.cache.misses"] = result.cache_misses
    out["associate.cache.hit_ratio"] = result.cache_hits / lookups if lookups else 0.0
    out["trace.pretrain_coverage"] = pretrain_children_ms / tracer.ms("train.pretrain")
    return out
