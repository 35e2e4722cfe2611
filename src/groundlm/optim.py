"""Adam optimizer with bias correction.

One ``Adam`` holds a fixed dict of named parameters, the step count ``t``
and the first and second moments ``m`` and ``v`` per parameter name, which
the ``adam_update`` kernel updates in place. The epsilon sits outside the
square root, so the very first step moves each weight by lr * g / (|g| + eps),
i.e. almost exactly lr in magnitude wherever the gradient is nonzero.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from . import kernels
from .tensor import Tensor


class Adam:
    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}

    def step(self) -> None:
        """Apply one bias-corrected update to every trainable parameter.

        Gradients come from the ``.grad`` slots populated by ``backward()``;
        parameters without a gradient this step are left untouched (and keep
        stale moments, which is fine because their m/v only decay).
        """
        self.t += 1
        kern = kernels.active
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = np.asarray(p.grad)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for '{name}'")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            kern.adam_update(
                p.data.reshape(-1),
                np.ascontiguousarray(g, dtype=p.data.dtype).reshape(-1),
                self.m[name].reshape(-1),
                self.v[name].reshape(-1),
                self.t, self.lr, self.beta1, self.beta2, self.eps,
            )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
