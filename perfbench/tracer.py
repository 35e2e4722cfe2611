"""Per-layer call tracing for the benchmark, installed from outside the package.

Every traced function is replaced, at the module or class attribute its
callers look it up through, by a wrapper that counts calls and adds up total
and self time under one metric name. Self time is a call's duration minus the
time its traced children took. Calls are aggregated rather than kept as one
span each, so that functions called hundreds of times per step (``store.get``,
``adam_update``) cost about a microsecond apiece.

``Tracer.install`` patches; ``Tracer.remove`` restores every original and
checks that none of the wrappers is still reachable.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

# (dotted module or class path inside groundlm, attribute, metric name).
# A function imported by name into another module is patched where it is
# called from, so one call goes through exactly one wrapper.
KERNEL_NAMES = ("layernorm_forward", "layernorm_backward", "gelu_forward",
                "gelu_backward", "softmax_forward", "softmax_backward",
                "masked_ce_forward", "masked_ce_backward", "adam_update",
                "scatter_add_rows", "gmm_estep")

TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("toydata", "generate_grounded_corpus", "toydata.generate"),
    ("vocab.Vocab", "encode_with_raw", "vocab.encode"),
    ("associate", "encode_synset_key", "embeddings.encode_synset_key"),
    ("associate", "top_k", "index.top_k"),
    ("index.ImageFeatureStore", "get", "index.store_get"),
    ("associate", "fit_gmm", "gmm.fit_gmm"),
    ("train", "associate_object", "associate.object"),
    ("model.CrossModalModel", "forward", "model.forward"),
    ("train", "masked_lm_loss", "model.loss"),
    ("train", "masked_region_loss", "model.loss"),
    ("finetune", "masked_cross_entropy", "model.loss"),
    ("tensor.Tensor", "backward", "tensor.backward"),
    ("optim.Adam", "step", "optim.step"),
    ("train", "build_batch", "train.build_batch"),
    ("finetune", "build_batch", "train.build_batch"),
    ("train", "evaluate_perplexity", "train.evaluate_perplexity"),
) + tuple(("kernels.active", k, f"kernels.{k}") for k in KERNEL_NAMES)


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Aggregated call counts, total and self seconds per metric name."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}   # name -> [calls, total_s, self_s]
        self._stack: List[List[float]] = []       # child seconds of each open call
        self._patches: List[Tuple[object, str, object, object]] = []

    def reset(self) -> None:
        for row in self.stats.values():
            row[0] = row[1] = row[2] = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once under a span named ``name`` (for calls the
        benchmark makes itself)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, package) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner_path, attr, name in TARGETS:
            owner = _resolve(package, owner_path)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, wrapper))

    def remove(self) -> None:
        """Restore every patched attribute and check no wrapper is left."""
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)
        leftover = [attr for owner, attr, original, wrapper in self._patches
                    if (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr)) is not original]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"tracing wrappers still installed on {leftover}")

    @staticmethod
    def assert_clean(package) -> None:
        """Raise if any traced attribute of ``package`` is a wrapper."""
        for owner_path, attr, _name in TARGETS:
            owner = _resolve(package, owner_path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if hasattr(fn, "__wrapped__"):
                raise RuntimeError(f"{owner_path}.{attr} is wrapped in an untraced run")

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def ms(self, name: str) -> float:
        return 1e3 * self.stats.get(name, (0, 0.0))[1]

    def self_ms(self, name: str) -> float:
        return 1e3 * self.stats.get(name, (0, 0.0, 0.0))[2]
