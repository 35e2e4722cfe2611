"""Adam optimizer with bias correction.

Moments are kept per parameter name and updated in place by the
``adam_update`` kernel. The epsilon sits outside the square root, so the
very first step moves each weight by lr * g / (|g| + eps), i.e. almost
exactly lr in magnitude wherever the gradient is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from . import kernels
from .tensor import Tensor


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], state: AdamState,
              grads: Optional[Mapping[str, np.ndarray]] = None) -> None:
    """Apply one bias-corrected Adam update to every trainable parameter.

    Gradients default to the ``.grad`` slots populated by ``backward()``;
    parameters without a gradient this step are left untouched (and keep
    stale moments, which is fine because their m/v only decay).
    """
    if state.lr <= 0:
        raise ValueError(f"lr must be positive, got {state.lr}")
    state.step += 1
    kern = kernels.active
    for name, p in params.items():
        if not p.requires_grad:
            continue
        g = grads.get(name) if grads is not None else p.grad
        if g is None:
            continue
        g = np.asarray(g)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        kern.adam_update(
            p.data.reshape(-1),
            np.ascontiguousarray(g, dtype=p.data.dtype).reshape(-1),
            state.m[name].reshape(-1),
            state.v[name].reshape(-1),
            state.step, state.lr, state.beta1, state.beta2, state.eps,
        )


class Adam:
    """Convenience wrapper binding an AdamState to a fixed parameter dict."""

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)

    def step(self) -> None:
        adam_step(self.params, self.state)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
