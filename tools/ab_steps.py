"""Interleaved A/B timing of two groundlm checkouts in one process.

    python3 tools/ab_steps.py --a CHECKOUT_A --b CHECKOUT_B \\
        [--workload paired|object] [--seed N] [--steps N] [--eval-passes N]

Each checkout's ``src/groundlm`` is imported under its own package name
(``glm_a``, ``glm_b``), and both build the same session as
``perfbench/session.py`` does: its bundle, model shape, batch size, seeds
and training budget, read from that file. The two pretrains then run in
lockstep, one training step of A, then one of B, and so on; after them the
held-out perplexity passes alternate the same way. Host speed drifts by tens
of percent over minutes on small VMs, and each pair of neighbouring steps
sees about the same host, so the per-pair ratios cancel the drift that
separate benchmark runs cannot. Running a checkout against itself (A/A)
shows the noise floor.

A step is timed as perfbench times it: from one training forward to the
next, so forward, loss, backward and Adam of one step plus the batch build
of the next; steps with an in-loop validation pass inside are dropped.

Prints the median step and eval-pass times of each side, the B/A ratios,
and whether the final parameters and the held-out perplexity are bitwise
equal. BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GLM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

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

    def pretrain(self):
        self.glm.train.pretrain(self.strategy, self.world.corpora, self.model,
                                self.train_cfg, cache=self.glm.associate.AssociationCache(),
                                threads=1)

    def eval_pass(self, workload) -> tuple:
        held_out = self.world.paired[S.HELD_OUT] if workload.mode == "paired" \
            else self.world.texts[S.HELD_OUT]
        t0 = time.perf_counter()
        ppl = self.glm.train.evaluate_perplexity(
            self.model, held_out, self.world.corpora.vocab, seed=S.EVAL_SEED,
            mode=workload.mode, corpora=self.world.corpora, k=workload.k, kappa=S.KAPPA,
            batch_size=S.BATCH_SIZE, cache=self.glm.associate.AssociationCache(), threads=1)
        return time.perf_counter() - t0, ppl


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", required=True, help="checkout A (the base)")
    p.add_argument("--b", required=True, help="checkout B (the change)")
    p.add_argument("--workload", choices=sorted(S.WORKLOADS), default="paired")
    p.add_argument("--seed", type=int, default=0, help="toy bundle seed")
    p.add_argument("--steps", type=int, default=None, help="pretrain steps (workload's)")
    p.add_argument("--eval-passes", type=int, default=None, help="held-out passes per side")
    args = p.parse_args(argv)
    workload = S.WORKLOADS[args.workload]
    steps = args.steps or workload.steps
    passes = args.eval_passes if args.eval_passes is not None else workload.eval_passes

    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side(load_checkout(path, alias), workload, args.seed, steps,
                      os.path.join(tmp, alias))
                 for path, alias in ((args.a, "glm_a"), (args.b, "glm_b"))]
        try:
            lockstep_pretrain(sides)
            evals = [[], []]
            ppls = [set(), set()]
            for k in range(2 * passes):
                i = k % 2 if k // 2 % 2 == 0 else 1 - k % 2   # A B B A A B ...
                secs, ppl = sides[i].eval_pass(workload)
                evals[i].append(secs)
                ppls[i].add(repr(ppl))
        finally:
            for side in sides:
                S.close(side.world)

    a, b = sides
    pairs = [(x, y) for x, y in zip(a.step_s, b.step_s) if x is not None and y is not None]
    names = list(a.model.params)
    same_params = names == list(b.model.params) and all(
        a.model.params[n].data.tobytes() == b.model.params[n].data.tobytes() for n in names)
    print(f"workload {workload.name} ({workload.strategy}), bundle seed {args.seed}, "
          f"{steps} steps, {len(pairs)} timed step pairs, {passes} eval passes per side")
    print(f"A {os.path.abspath(args.a)}\nB {os.path.abspath(args.b)}")
    for label, xs, ys in (("step", [x for x, _ in pairs], [y for _, y in pairs]),
                          ("eval pass", evals[0], evals[1])):
        if len(xs) < 2:
            continue
        qa, qb = quartiles(xs), quartiles(ys)
        ratios = sorted(y / x for x, y in zip(xs, ys))
        print(f"{label:9s} ms  A p25/p50/p75 {qa[0]*1e3:.2f}/{qa[1]*1e3:.2f}/{qa[2]*1e3:.2f}"
              f"  B {qb[0]*1e3:.2f}/{qb[1]*1e3:.2f}/{qb[2]*1e3:.2f}"
              f"  B/A of medians {qb[1] / qa[1]:.3f}"
              f"  median pair ratio {statistics.median(ratios):.3f}"
              f"  B faster in {sum(r < 1 for r in ratios)}/{len(ratios)} pairs")
    print(f"final parameters bitwise equal: {same_params}")
    print(f"held-out ppl A {sorted(ppls[0])} B {sorted(ppls[1])}; "
          f"equal: {ppls[0] == ppls[1] and len(ppls[0]) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
