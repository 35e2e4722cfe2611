"""Where one groundlm command spends its time, function by function.

    python3 tools/trace_run.py --out TRACE.json [--checkout CHECKOUT] -- COMMAND [ARGS...]

for example

    python3 tools/trace_run.py --out pretrain.trace.json -- pretrain \\
        --strategy AssociativeObject --vocab b/vocab.txt --corpus b/corpus.txt ...

Imports ``CHECKOUT/src/groundlm`` (by default this checkout's), installs the
benchmark's tracer (``perfbench/tracer.py``, loaded from its file and only
read) on every function it lists, runs ``groundlm.cli.main(COMMAND ARGS)``
once and removes the tracer again. It then writes, as JSON, the command's
argv, exit code and wall ms, and for each traced name its call count, total
ms and self ms (total minus the time of traced calls made inside it). The
command writes its own outputs as an untraced run would; only the trace
file is new. BLAS runs on one thread, as in the benchmark. The tool exits
with the command's exit code.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")
MODULES = ("associate", "cli", "embeddings", "finetune", "index", "kernels", "model",
           "optim", "tensor", "toydata", "train", "vocab")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_checkout(checkout: str):
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "groundlm", "__init__.py")):
        raise SystemExit(f"error: no groundlm package under {src}")
    sys.path.insert(0, src)
    glm = importlib.import_module("groundlm")
    for name in MODULES:
        importlib.import_module(f"groundlm.{name}")
    return glm


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file the trace is written to")
    p.add_argument("--checkout", default=ROOT, help="checkout to import (default: this one)")
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="the groundlm command line, after --")
    args = p.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        p.error("no groundlm command given")
    glm = import_checkout(args.checkout)
    tracer = load_tracer().Tracer()

    tracer.install(glm)
    t0 = time.perf_counter()
    try:
        code = glm.cli.main(command)
    finally:
        wall_ms = 1e3 * (time.perf_counter() - t0)
        tracer.remove()
    targets = {name: {"calls": tracer.calls(name), "ms": tracer.ms(name),
                      "self_ms": tracer.self_ms(name)}
               for name in sorted(tracer.stats)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"argv": command, "checkout": os.path.abspath(args.checkout),
                   "exit_code": code, "wall_ms": wall_ms, "targets": targets},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
