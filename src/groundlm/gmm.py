"""Diagonal-covariance Gaussian mixtures fit with EM.

Object association uses it to cluster the word vectors of a text's distinct
nouns; each component nominates one noun, whose ranking retrieves images.
Internals run in float64 regardless of the caller's dtype; with a fixed seed
the fit is bit-identical run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

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
        if len(chosen) == n - 1 and np.isfinite(total):
            # one index is left, and a draw could return only it: its p is
            # exactly 1.0, or it is all of `remaining`; fit_gmm discards rng
            # after the start. A non-finite total keeps the draw, which raises
            # on NaN.
            nxt = next(i for i in range(n) if i not in chosen)
        elif total <= 0:
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


def fit_gmm(points, kappa: int, seed) -> Union[GmmModel, List[GmmModel]]:
    """EM fit of a kappa-component diagonal GMM; kappa is capped at n.

    ``points`` is one (n, d) set, fit with ``seed``, or a (B, n, d) stack of
    B sets, fit with the B seeds in ``seed`` and returned as a list. The
    stack runs one EM loop; each fit leaves it at its own convergence
    iteration, and every fit equals the one-set fit of its own points.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    single = pts.ndim == 2
    if single:
        pts, seeds = pts[None], [seed]
    elif pts.ndim == 3:
        seeds = list(seed)
        if len(seeds) != pts.shape[0]:
            raise ValueError(f"{pts.shape[0]} point sets need as many seeds, got {len(seeds)}")
    else:
        raise ValueError(f"points must be an (n, d) array or a (B, n, d) stack, "
                         f"got shape {pts.shape}")
    n = pts.shape[1]
    if n < 1 or not seeds:
        raise ValueError("need at least one point")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    k = min(kappa, n)

    means = np.stack([_kmeanspp(p, k, np.random.default_rng(s)) for p, s in zip(pts, seeds)])
    global_var = pts.var(axis=1)
    variances = np.maximum(np.repeat(global_var[:, None, :], k, axis=1), VARIANCE_FLOOR)
    weights = np.full((len(seeds), k), 1.0 / k)

    # stack positions of the fits still iterating; a fit that stops is stored
    # and its rows leave the working arrays
    live = np.arange(len(seeds))
    fits: List[Optional[GmmModel]] = [None] * len(seeds)
    histories: List[List[float]] = [[] for _ in seeds]
    kern = kernels.active
    prev = np.full(len(seeds), -np.inf)
    for it in range(1, MAX_ITER + 1):
        resp, loglik = kern.gmm_estep(pts, means, variances, np.log(weights))
        for b, ll in zip(live, loglik.tolist()):
            histories[b].append(ll)
        nk = resp.sum(axis=1)
        weights = nk / n
        safe_nk = np.maximum(nk, 1e-12)
        resp_t = resp.transpose(0, 2, 1)
        means = (resp_t @ pts) / safe_nk[:, :, None]
        second = (resp_t @ (pts * pts)) / safe_nk[:, :, None]
        variances = np.maximum(second - means * means, VARIANCE_FLOOR)
        converged = np.abs(loglik - prev) < REL_TOL * np.maximum(np.abs(prev), 1.0)
        done = (np.isfinite(prev) & converged) | (it == MAX_ITER)
        for j in np.flatnonzero(done):
            b = live[j]
            if not np.isfinite(loglik[j]):
                raise FloatingPointError("GMM log-likelihood diverged")
            fits[b] = GmmModel(kappa=k, means=means[j], variances=variances[j],
                               weights=weights[j], loglik=float(loglik[j]),
                               loglik_history=histories[b], n_iter=it)
        keep = ~done
        live, pts, means, variances, weights, prev = (
            live[keep], pts[keep], means[keep], variances[keep], weights[keep], loglik[keep])
        if not live.size:
            break
    return fits[0] if single else fits
