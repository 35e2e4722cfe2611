"""Interleaved A/B timing of two groundlm checkouts in one process.

    python3 tools/ab_steps.py --a CHECKOUT_A --b CHECKOUT_B \\
        [--workload paired|object] [--seed N] [--steps N] [--eval-passes N] [--probes N]
    python3 tools/ab_steps.py --a CHECKOUT_A --b CHECKOUT_B --setups N \\
        [--workload paired|object] [--seed N]

Each checkout's ``src/groundlm`` is imported under its own package name
(``glm_a``, ``glm_b``), and both build the same session as
``perfbench/session.py`` does: its bundle, model shape, batch size, seeds
and training budget, read from that file. The two pretrains then run in
lockstep, one training step of A, then one of B, and so on; after them the
held-out perplexity passes alternate the same way, and then, with ``--probes
N``, N calls per side of perfbench's fine-tune probe (``finetune.finetune``
with the session's task, runs and steps). Host speed drifts by tens
of percent over minutes on small VMs, and each pair of neighbouring steps
sees about the same host, so the per-pair ratios cancel the drift that
separate benchmark runs cannot. Running a checkout against itself (A/A)
shows the noise floor.

Both checkouts are imported into one process, so a change that acts on the
whole process, such as an allocator policy set at import, reaches both
sides: once one side's import sets it, the other side runs under it too, so
its B/A reads about 1.0 here whatever it does. Measure such a change in
separate processes (``perfbench/run.py`` pairs of the two checkouts).

The whole comparison runs twice: once with A imported, built and started
first, once with B first. In A/A runs the eval-pass B/A of one order has
read from 0.88 to 1.04, so each order's B/A is printed, and their geometric
mean cancels the part of that bias which follows position. The rest still
reached 0.91 in one object A/A run, so an eval-pass ratio that close to 1
is noise. The step ratios have a floor too: an object A/A run at seed 17
read a step B/A geometric mean of 0.820, and two A/B runs of code whose
training was bitwise equal read 0.924 and 0.933. So this tool cannot size
an object step change below about 20%.

A step is timed as perfbench times it: from one training forward to the
next, so forward, loss, backward and Adam of one step plus the batch build
of the next; steps with an in-loop validation pass inside are dropped.

Prints, for each order, the median step, eval-pass and probe times of each
side and the B/A ratios, and each side's sum of step intervals with its B/A;
then the geometric mean of the two orders' B/A of medians (and of sums), and
whether the final parameters and the held-out perplexity are bitwise equal.
BLAS runs on one thread, as in perfbench.

The sum of steps is the lockstep view of perfbench's
``train_examples_per_s``. The median step says what a typical step costs,
but work that runs in a few steps only is not in it: object pretraining
associates its rows once per epoch, when the epoch's first step is reached,
so on the object workload 3 of the 128 steps carry all of training's
association, and a change to association shows in the sum, not in the median.

With ``--setups N`` it times perfbench's set-up instead (``session.setup``:
write the bundle, load it and build the workload's index), alternating
single set-ups of A and B, N of each side with A first and then N with B
first. It prints each side's median set-up ms and the B/A of medians for
each order, their geometric mean, and whether the two sides wrote
byte-identical bundle files, built byte-identical word-vector tables (each
word and its float32 vector, in table order) and, on the object workload,
synset indexes whose ``save_index`` files are byte-identical.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True   # import perfbench/session.py without writing beside it
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import session as S  # noqa: E402

MODULES = ("associate", "embeddings", "finetune", "index", "kernels", "model",
           "optim", "tensor", "toydata", "train", "vocab")


def load_checkout(checkout: str, alias: str):
    """Import ``checkout/src/groundlm`` as the package ``alias``."""
    pkg_dir = os.path.join(os.path.abspath(checkout), "src", "groundlm")
    init = os.path.join(pkg_dir, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no groundlm package under {pkg_dir}")
    spec = importlib.util.spec_from_file_location(alias, init,
                                                  submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    for name in MODULES:
        importlib.import_module(f"{alias}.{name}")
    # a checkout that predates reading the stop-word list as a resource of its
    # own package reads it from the package named "groundlm"; fill its cache
    # with this copy standing in for that name
    sys.modules["groundlm"] = pkg
    try:
        pkg.embeddings.default_stopwords()
    finally:
        del sys.modules["groundlm"]
    return pkg


class Side:
    """One checkout's session: its world, model and pretrain arguments."""

    def __init__(self, glm, workload, seed: int, steps: int, work_dir: str):
        self.glm = glm
        self.world = S.setup(glm, workload, seed, work_dir)
        vocab = self.world.corpora.vocab
        cfg = glm.model.ModelConfig(vocab_size=len(vocab), **S.MODEL_SHAPE)
        self.model = glm.model.CrossModalModel(cfg, seed=S.MODEL_SEED)
        self.strategy = glm.train.Strategy(workload.strategy, k=workload.k)
        self.train_cfg = glm.train.TrainConfig(
            batch_size=S.BATCH_SIZE, lr=1e-3, max_epochs=10_000, max_steps=steps,
            seed=S.TRAIN_SEED, mix_ratio=S.MIX_RATIO, eval_every=workload.eval_every,
            patience=10_000, kappa=S.KAPPA)
        self.step_s = []      # None marks a step with a validation pass inside
        self.evals = []       # seconds of each held-out pass
        self.probes = []      # seconds of each probe
        self.ppls = set()     # repr of each held-out pass's perplexity

    def pretrain(self):
        self.glm.train.pretrain(self.strategy, self.world.corpora, self.model,
                                self.train_cfg, cache=self.glm.associate.AssociationCache())

    def eval_pass(self, workload) -> tuple:
        held_out = self.world.paired[S.HELD_OUT] if workload.mode == "paired" \
            else self.world.texts[S.HELD_OUT]
        t0 = time.perf_counter()
        ppl = self.glm.train.evaluate_perplexity(
            self.model, held_out, self.world.corpora.vocab, seed=S.EVAL_SEED,
            mode=workload.mode, corpora=self.world.corpora, k=workload.k, kappa=S.KAPPA,
            batch_size=S.BATCH_SIZE, cache=self.glm.associate.AssociationCache())
        return time.perf_counter() - t0, ppl

    def probe(self) -> float:
        """Seconds of one probe, called as ``session.run_session`` calls it."""
        glm = self.glm
        cfg = glm.train.TrainConfig(batch_size=S.BATCH_SIZE, lr=1e-3, max_epochs=10_000,
                                    max_steps=S.PROBE_STEPS, seed=S.TRAIN_SEED, kappa=S.KAPPA)
        t0 = time.perf_counter()
        glm.finetune.finetune(self.model, S.probe_task(glm, self.world), self.strategy, cfg,
                              corpora=self.world.corpora, n_runs=S.PROBE_RUNS,
                              cache=glm.associate.AssociationCache())
        return time.perf_counter() - t0


def lockstep_pretrain(sides) -> None:
    """Run both pretrains in threads that hand one baton over at every
    training forward, so that exactly one of them runs at any time."""
    turn = [threading.Semaphore(0), threading.Semaphore(0)]
    done = [False, False]

    def run(i: int) -> None:
        side, other = sides[i], 1 - i
        forward = side.model.forward
        grad_enabled = side.glm.tensor.grad_enabled
        state = {"start": None, "validated": False}

        def stamped(batch):
            if not grad_enabled():
                state["validated"] = True
                return forward(batch)
            if state["start"] is not None:
                elapsed = time.perf_counter() - state["start"]
                side.step_s.append(None if state["validated"] else elapsed)
            turn[other].release()
            if not done[other]:
                turn[i].acquire()
            state["start"], state["validated"] = time.perf_counter(), False
            return forward(batch)

        turn[i].acquire()
        side.model.forward = stamped
        try:
            side.pretrain()
        finally:
            del side.model.forward
            done[i] = True
            turn[other].release()

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    turn[0].release()
    for t in threads:
        t.join()


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def alternate(sides, n: int, run) -> None:
    """``run`` each of the two ``sides`` ``n`` times, in the order first,
    second, second, first, first, second ..."""
    for k in range(2 * n):
        run(sides[k % 2 if k // 2 % 2 == 0 else 1 - k % 2])


def run_order(checkouts, first: int, workload, seed: int, steps: int, passes: int,
              probes: int, tmp: str) -> list:
    """Import, build and run both sides, side ``first`` first at every turn;
    returns the sides as [A, B]."""
    order = (first, 1 - first)
    sides = [None, None]
    try:
        for i in order:
            alias = f"glm_{'ab'[i]}{first}"
            sides[i] = Side(load_checkout(checkouts[i], alias), workload, seed, steps,
                            os.path.join(tmp, alias))
        ordered = [sides[i] for i in order]
        lockstep_pretrain(ordered)

        def eval_pass(side):
            secs, ppl = side.eval_pass(workload)
            side.evals.append(secs)
            side.ppls.add(repr(ppl))
        alternate(ordered, passes, eval_pass)
        alternate(ordered, probes, lambda side: side.probes.append(side.probe()))
    finally:
        for side in sides:
            if side is not None:
                S.close(side.world)
    return sides


def bundle_files(bundle_dir: str) -> dict:
    """File name -> bytes of every file in a bundle directory."""
    out = {}
    for name in sorted(os.listdir(bundle_dir)):
        with open(os.path.join(bundle_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def built_bytes(glm, world, path: str) -> dict:
    """The bytes of what a set-up built from its bundle: the word-vector
    table, and the synset index as ``save_index`` writes it to ``path``."""
    table = world.corpora.table
    built = {"table": b"".join(word.encode("utf-8") + b"\0" + np.asarray(vec, "<f4").tobytes()
                               for word, vec in table.entries.items())}
    if world.corpora.synset_index is not None:
        glm.index.save_index(world.corpora.synset_index, path)
        with open(path, "rb") as fh:
            built["index"] = fh.read()
    return built


def compare_setups(checkouts, workload, seed: int, n: int, tmp: str) -> None:
    """Alternate ``n`` set-ups of each side in each order and print the times."""
    sides = [load_checkout(checkout, f"glm_{'ab'[i]}") for i, checkout in enumerate(checkouts)]
    bundles = [None, None]
    built = [None, None]
    ratios = []
    print(f"workload {workload.name} ({workload.strategy}), bundle seed {seed}, "
          f"{n} set-ups per side and order")
    for first in (0, 1):
        secs = [[], []]
        for _ in range(n):
            for i in (first, 1 - first):
                bundle_dir = os.path.join(tmp, f"setup_{'ab'[i]}")
                world, elapsed = S.timed_setup(sides[i], workload, seed, bundle_dir)
                secs[i].append(elapsed)
                if bundles[i] is None:
                    bundles[i] = bundle_files(bundle_dir)
                    built[i] = built_bytes(sides[i], world, os.path.join(tmp, f"index_{'ab'[i]}"))
                S.close(world)
        (qa, qb), wins = map(quartiles, secs), sum(b < a for a, b in zip(*secs))
        ratios.append(qb[1] / qa[1])
        print(f"{'AB'[first]} first: set-up ms  A p25/p50/p75 {qa[0]*1e3:.2f}/{qa[1]*1e3:.2f}/"
              f"{qa[2]*1e3:.2f}  B {qb[0]*1e3:.2f}/{qb[1]*1e3:.2f}/{qb[2]*1e3:.2f}"
              f"  B/A of medians {ratios[-1]:.3f}  B faster in {wins}/{n} pairs")
    print(f"set-up B/A of medians, geometric mean of both orders "
          f"{math.sqrt(ratios[0] * ratios[1]):.3f}")
    print(f"bundle files byte-identical: {bundles[0] == bundles[1]} "
          f"({len(bundles[0])} files A, {len(bundles[1])} files B)")
    tables = [b["table"] for b in built]
    print(f"word-vector tables byte-identical: {tables[0] == tables[1]} "
          f"({len(tables[0])} bytes A, {len(tables[1])} bytes B)")
    if "index" in built[0]:
        indexes = [b["index"] for b in built]
        print(f"synset index save_index bytes identical: {indexes[0] == indexes[1]} "
              f"({len(indexes[0])} bytes A, {len(indexes[1])} bytes B)")
    else:
        print("synset index save_index bytes: none built (no synset index on this workload)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", required=True, help="checkout A (the base)")
    p.add_argument("--b", required=True, help="checkout B (the change)")
    p.add_argument("--workload", choices=sorted(S.WORKLOADS), default="paired")
    p.add_argument("--seed", type=int, default=0, help="toy bundle seed")
    p.add_argument("--steps", type=int, default=None, help="pretrain steps (workload's)")
    p.add_argument("--eval-passes", type=int, default=None, help="held-out passes per side")
    p.add_argument("--probes", type=int, default=0,
                   help="fine-tune probes per side and order, after the eval passes")
    p.add_argument("--setups", type=int, default=0,
                   help="time N set-ups per side and order instead of steps")
    args = p.parse_args(argv)
    workload = S.WORKLOADS[args.workload]
    if args.setups == 1:
        p.error("--setups needs at least 2 set-ups per side and order")
    if args.setups > 0:
        with tempfile.TemporaryDirectory() as tmp:
            compare_setups((args.a, args.b), workload, args.seed, args.setups, tmp)
        return 0
    steps = args.steps or workload.steps
    passes = args.eval_passes if args.eval_passes is not None else workload.eval_passes

    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_order((args.a, args.b), first, workload, args.seed, steps, passes,
                          args.probes, tmp) for first in (0, 1)]

    print(f"workload {workload.name} ({workload.strategy}), bundle seed {args.seed}, "
          f"{steps} steps, {passes} eval passes and {args.probes} probes per side and order")
    print(f"A {os.path.abspath(args.a)}\nB {os.path.abspath(args.b)}")
    ratios = {"step": [], "eval pass": [], "probe": [], "step sum": []}
    for first, (a, b) in enumerate(runs):
        pairs = [(x, y) for x, y in zip(a.step_s, b.step_s) if x is not None and y is not None]
        print(f"{'AB'[first]} first: {len(pairs)} timed step pairs")
        if pairs:
            sums = [sum(side) for side in zip(*pairs)]
            ratios["step sum"].append(sums[1] / sums[0])
            print(f"  step sum  s   A {sums[0]:.3f}  B {sums[1]:.3f}  B/A {sums[1] / sums[0]:.3f}")
        for label, xs, ys in (("step", [x for x, _ in pairs], [y for _, y in pairs]),
                              ("eval pass", a.evals, b.evals), ("probe", a.probes, b.probes)):
            if len(xs) < 2:
                continue
            qa, qb = quartiles(xs), quartiles(ys)
            pair_ratios = sorted(y / x for x, y in zip(xs, ys))
            ratios[label].append(qb[1] / qa[1])
            print(f"  {label:9s} ms  A p25/p50/p75 {qa[0]*1e3:.2f}/{qa[1]*1e3:.2f}/"
                  f"{qa[2]*1e3:.2f}  B {qb[0]*1e3:.2f}/{qb[1]*1e3:.2f}/{qb[2]*1e3:.2f}"
                  f"  B/A of medians {qb[1] / qa[1]:.3f}"
                  f"  median pair ratio {statistics.median(pair_ratios):.3f}"
                  f"  B faster in {sum(r < 1 for r in pair_ratios)}/{len(pair_ratios)} pairs")
    for label, both in ratios.items():
        if len(both) == 2:
            of = "sums" if label == "step sum" else "medians"
            print(f"{label:9s} B/A of {of}, geometric mean of both orders "
                  f"{math.sqrt(both[0] * both[1]):.3f}")
    models = [side.model for run in runs for side in run]
    names = list(models[0].params)
    same_params = all(list(m.params) == names for m in models) and all(
        m.params[n].data.tobytes() == models[0].params[n].data.tobytes()
        for m in models for n in names)
    ppls = [set.union(*(run[i].ppls for run in runs)) for i in (0, 1)]
    print(f"final parameters bitwise equal: {same_params}")
    print(f"held-out ppl A {sorted(ppls[0])} B {sorted(ppls[1])}; "
          f"equal: {ppls[0] == ppls[1] and len(ppls[0]) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
