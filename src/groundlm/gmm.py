"""Diagonal-covariance Gaussian mixtures fit with EM.

Object association uses it to cluster the word vectors of a text's distinct
nouns; each component nominates one noun, whose ranking retrieves images.
Internals run in float64 regardless of the caller's dtype; with a fixed seed
the fit is bit-identical run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import kernels

VARIANCE_FLOOR = 1e-6
MAX_ITER = 200
REL_TOL = 1e-6


@dataclass
class GmmModel:
    kappa: int
    means: np.ndarray        # (kappa, d)
    variances: np.ndarray    # (kappa, d), diagonal
    weights: np.ndarray      # (kappa,), sums to 1
    loglik: float
    loglik_history: List[float] = field(default_factory=list)
    n_iter: int = 0


def _kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a center; pick any unchosen
            remaining = [i for i in range(n) if i not in chosen]
            nxt = int(rng.choice(remaining))
        else:
            nxt = int(rng.choice(n, p=d2 / total))
            if nxt in chosen:
                remaining = [i for i in range(n) if i not in chosen]
                nxt = int(rng.choice(remaining))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[chosen].copy()


def fit_gmm(points, kappa: int, seed: int) -> GmmModel:
    """EM fit of a kappa-component diagonal GMM; kappa is capped at n."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array (n, d), got shape {pts.shape}")
    n, d = pts.shape
    if n < 1:
        raise ValueError("need at least one point")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    k = min(kappa, n)
    rng = np.random.default_rng(seed)

    means = _kmeanspp(pts, k, rng)
    global_var = pts.var(axis=0)
    variances = np.maximum(np.tile(global_var, (k, 1)), VARIANCE_FLOOR)
    weights = np.full(k, 1.0 / k)

    kern = kernels.active
    history: List[float] = []
    prev = -np.inf
    it = 0
    for it in range(1, MAX_ITER + 1):
        resp, loglik = kern.gmm_estep(pts, means, variances, np.log(weights))
        history.append(float(loglik))
        nk = resp.sum(axis=0)
        weights = nk / n
        safe_nk = np.maximum(nk, 1e-12)
        means = (resp.T @ pts) / safe_nk[:, None]
        second = (resp.T @ (pts * pts)) / safe_nk[:, None]
        variances = np.maximum(second - means * means, VARIANCE_FLOOR)
        if np.isfinite(prev) and abs(loglik - prev) < REL_TOL * max(abs(prev), 1.0):
            prev = loglik
            break
        prev = loglik

    if not np.isfinite(prev):
        raise FloatingPointError("GMM log-likelihood diverged")
    return GmmModel(kappa=k, means=means, variances=variances, weights=weights,
                    loglik=float(prev), loglik_history=history, n_iter=it)
