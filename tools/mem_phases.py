"""Traced memory of one perfbench session, phase by phase.

    python3 tools/mem_phases.py [--checkout CHECKOUT] [--workload paired|object] [--seed N]

Imports ``CHECKOUT/src/groundlm`` (by default this checkout's) and runs one
session exactly as ``perfbench/session.py`` builds it, read from that file
and not changed, under ``tracemalloc``. The phases are the session's own:
set-up (bundle, index and model, up to the first training step), pretrain
(in-loop validation included), the held-out passes and the fine-tune probe.
For each it prints the traced peak while it ran and the memory still held
when it ended, in MiB; held-out passes are reported together, with the
largest peak of any one pass and the memory held after the last. numpy
reports its array buffers to ``tracemalloc``, so these are the bytes the
session's arrays and objects hold, not the process RSS that perfbench's
``peak_rss_mb`` reads. Tracing slows the session several times over; the
figures do not depend on speed. BLAS runs on one thread, as in perfbench.

The probe's runs spread over forked worker processes (one per usable CPU),
whose memory neither ``tracemalloc`` nor perfbench's ``peak_rss_mb`` (the
calling process's own peak RSS) sees. The probe line therefore also prints
the largest worker's peak RSS, which the kernel reports for the reaped
children of this process (``RUSAGE_CHILDREN``). That figure is kept across
``exec``, so it starts at the largest child the launching shell reaped; a
probe whose workers stay below it prints that starting figure instead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True   # import perfbench/session.py without writing beside it
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import session as S  # noqa: E402

MIB = 1 << 20


def import_checkout(checkout: str):
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "groundlm", "__init__.py")):
        raise SystemExit(f"error: no groundlm package under {src}")
    sys.path.insert(0, src)
    glm = importlib.import_module("groundlm")
    for name in ("associate", "embeddings", "finetune", "index", "kernels", "model",
                 "optim", "tensor", "toydata", "train", "vocab"):
        importlib.import_module(f"groundlm.{name}")
    return glm


class PhaseMeter:
    """Wraps the session's top-level calls into the package and records, per
    phase, the call count, the largest traced peak of a call and the traced
    memory when the last call returned. A call made inside another phase's
    call (pretrain's validation passes) belongs to the outer phase."""

    def __init__(self):
        self.rows = {}        # phase -> [calls, peak bytes, held bytes]
        self.depth = 0

    def close_setup(self) -> None:
        if not self.rows:     # set-up runs from the session's start to its first phase
            held, peak = tracemalloc.get_traced_memory()
            self.rows["set-up"] = [1, peak, held]

    def wrap(self, module, attr: str, phase: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.close_setup()
            tracemalloc.reset_peak()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                held, peak = tracemalloc.get_traced_memory()
                row = self.rows.setdefault(phase, [0, 0, 0])
                row[0] += 1
                row[1] = max(row[1], peak)
                row[2] = held

        setattr(module, attr, measured)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", default=ROOT, help="checkout to import (default: this one)")
    p.add_argument("--workload", choices=sorted(S.WORKLOADS), default="object")
    p.add_argument("--seed", type=int, default=0, help="toy bundle seed")
    args = p.parse_args(argv)
    workload = S.WORKLOADS[args.workload]
    glm = import_checkout(args.checkout)

    inherited_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss   # KiB on Linux
    meter = PhaseMeter()
    meter.wrap(glm.train, "pretrain", "pretrain")
    meter.wrap(glm.train, "evaluate_perplexity", "held-out")
    meter.wrap(glm.finetune, "finetune", "probe")
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            result, world = S.run_session(glm, workload, args.seed, os.path.join(tmp, "bundle"))
            S.close(world)
        finally:
            tracemalloc.stop()

    print(f"workload {workload.name} ({workload.strategy}), bundle seed {args.seed}, "
          f"checkout {os.path.abspath(args.checkout)}")
    print(f"{'phase':10s} {'calls':>5s} {'peak MiB':>9s} {'held at end MiB':>16s}")
    worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for phase in ("set-up", "pretrain", "held-out", "probe"):
        calls, peak, held = meter.rows[phase]
        line = f"{phase:10s} {calls:5d} {peak / MIB:9.2f} {held / MIB:16.2f}"
        if phase == "probe":
            line += (f"   largest worker peak RSS {worker_kib / 1024:.1f} MiB"
                     if worker_kib > inherited_kib else
                     f"   no worker peak RSS above the inherited {inherited_kib / 1024:.1f} MiB")
        print(line)
    session_peak = max(peak for _calls, peak, _held in meter.rows.values())
    print(f"session peak {session_peak / MIB:.2f} MiB; final held-out ppl "
          f"{result.final_val_ppl!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
