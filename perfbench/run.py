"""groundlm benchmark: one full user session per workload, end to end and per layer.

    python3 perfbench/run.py --workload {paired,object} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from that
checkout's ``src/``. The workload seed makes the toy bundle
(``ToySpec(seed=N)``); everything else is fixed. A run makes a fixed
number of whole sessions (see ``session.py``), as many as fit in
``--seconds`` at the workload's nominal session length, at least one, and
reports figures over all of them.

``--trace 0`` prints the end-to-end metrics, measured with no tracing
wrappers installed. ``--trace 1`` runs the first half of the sessions
untraced, then installs the tracer (``tracer.py``) for the rest, at least
one each, and prints the per-layer metrics plus ``trace.overhead``, the
traced over the untraced training throughput.

Every run checks its outputs (``checks.py``). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment and
a readable summary, including the error rate.
"""

from __future__ import annotations

import os

# One thread for BLAS and for the package's own retrieval pool, set before
# numpy loads. On these small matrices more BLAS threads were no faster.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GLM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import checks as ck  # noqa: E402
import environment  # noqa: E402
import report  # noqa: E402
from session import WORKLOADS, close, gaps_per_session, run_session  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 40       # set-ups per run that setup_s is the median of
MIN_COVERAGE = 0.95


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import groundlm from this checkout's src/, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "groundlm", "__init__.py")):
        raise SystemExit(f"error: no groundlm package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    glm = importlib.import_module("groundlm")
    for name in ("associate", "embeddings", "finetune", "index", "kernels", "model",
                 "optim", "tensor", "toydata", "train", "vocab"):
        importlib.import_module(f"groundlm.{name}")
    if not os.path.abspath(glm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported groundlm from {glm.__file__}, not {SRC}")
    return glm


def main(argv=None) -> int:
    args = parse_args(argv)
    glm = import_program()
    workload = WORKLOADS[args.workload]
    digest = ck.source_digest(SRC, HERE)
    env = environment.record(glm, ROOT, workload.name, args.seed, digest)
    checks = ck.Checks()
    for lib, n in env["blas_threads"].items():
        checks.check(n == int(THREADS), f"{lib} runs {n} threads, expected {THREADS}")

    n = workload.sessions(args.seconds)
    n_untraced, n_traced = (n, 0) if args.trace == 0 else (max(1, n // 2), max(1, n - n // 2))
    units = report.declared_units(ROOT, "end_to_end" if args.trace == 0 else "per_layer")
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    # setup_s is an end-to-end metric: only untraced runs sample it
    setups = report.SetupSampler(glm, workload, args.seed, scratch,
                                 max(0, SETUP_SAMPLES - n) if args.trace == 0 else 0,
                                 n_untraced * gaps_per_session(workload))
    untraced, traced, fingerprints = [], [], []

    def sessions(out, count, tracer=None, between=None):
        for _ in range(count):
            result, world = run_session(glm, workload, args.seed,
                                        os.path.join(scratch, "bundle"), tracer, between)
            try:
                ck.check_session(glm, workload, world, result, checks)
            finally:
                close(world)
            out.append(result)
            fingerprints.append(ck.fingerprint(result))

    try:
        Tracer.assert_clean(glm)
        sessions(untraced, n_untraced, between=setups)
        Tracer.assert_clean(glm)
        if n_traced:
            tracer = Tracer()
            tracer.install(glm)
            try:
                sessions(traced, n_traced, tracer)
            finally:
                tracer.remove()
            Tracer.assert_clean(glm)
            for r in traced:
                coverage = r.layers["trace.pretrain_coverage"]
                checks.check(coverage >= MIN_COVERAGE,
                             f"traced spans cover {coverage:.3f} of pretrain wall time")
        ck.check_repeats(fingerprints,
                         os.path.join(WORK, "records", f"{workload.name}-seed{args.seed}.json"),
                         digest, checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace == 0:
        metrics = report.end_to_end(untraced, setups.samples, checks, units)
    else:
        metrics = report.per_layer(traced, untraced, units)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} are not "
                         f"both measured and declared in BENCHMARK.json")
    print("env " + json.dumps(env, sort_keys=True))
    report.print_summary(workload, args, untraced, traced, metrics, checks)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
