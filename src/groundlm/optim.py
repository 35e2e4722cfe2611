"""Adam optimizer with bias correction, over one flat parameter arena.

``Adam`` copies its named parameters, all of one dtype, into one flat
``arena`` and rebinds each ``p.data`` to its view; the moments ``m`` and
``v``, a gradient arena and two scratch arrays have the same length, and
``spans`` maps each name to its slice (as ZeRO flattens its buffers,
arXiv 1910.02054). The epsilon sits outside the square root, so the very
first step moves each weight by lr * g / (|g| + eps), i.e. almost exactly lr
in magnitude wherever the gradient is nonzero.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from . import kernels
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-4):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.lr = lr
        self.t = 0
        self.spans: Dict[str, slice] = {}
        n = 0
        for name, p in self.params.items():
            self.spans[name] = slice(n, n + p.data.size)
            n += p.data.size
        self.arena = np.empty(n, dtype)
        self.grad, self.m, self.v = np.zeros(n, dtype), np.zeros(n, dtype), np.zeros(n, dtype)
        self.scratch = (np.empty(n, dtype), np.empty(n, dtype))
        self._slots = []   # (name, tensor, its arena view, its gradient view, span)
        for name, p in self.params.items():
            span = self.spans[name]
            view = self.arena[span].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._slots.append((name, p, view, self.grad[span].reshape(view.shape), span))

    def step(self) -> None:
        """Apply one bias-corrected update to every trainable parameter.

        Gradients come from the ``.grad`` slots populated by ``backward()``;
        parameters without a gradient this step are left untouched (and keep
        stale moments, which is fine because their m/v only decay).
        """
        self.t += 1
        runs: List[List[int]] = []   # [start, stop) of consecutive parameters with a gradient
        for name, p, view, gview, span in self._slots:
            if p.data is not view:
                raise ValueError(f"parameter '{name}' was rebound after the optimizer was built")
            if not p.requires_grad or p.grad is None:
                continue
            if np.shape(p.grad) != view.shape:
                raise ValueError(f"gradient shape {np.shape(p.grad)} != parameter shape "
                                 f"{view.shape} for '{name}'")
            gview[...] = p.grad
            if runs and runs[-1][1] == span.start:
                runs[-1][1] = span.stop
            else:
                runs.append([span.start, span.stop])
        for lo, hi in runs:
            if not np.isfinite(self.grad[lo:hi]).all():
                bad = next(name for name, span in self.spans.items() if lo <= span.start < hi
                           and not np.isfinite(self.grad[span]).all())
                raise FloatingPointError(f"non-finite gradient for parameter '{bad}'")
        for lo, hi in runs:
            kernels.active.adam_update(
                self.arena[lo:hi], self.grad[lo:hi], self.m[lo:hi], self.v[lo:hi],
                self.t, self.lr, BETA1, BETA2, EPS,
                self.scratch[0][lo:hi], self.scratch[1][lo:hi])

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
