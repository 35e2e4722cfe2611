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


def _kmeanspp(pts: np.ndarray, k: int, seeds) -> np.ndarray:
    """The (B, k, d) k-means++ starts of a (B, n, d) stack, read from one distance table;
    set b draws from ``default_rng(seeds[b])`` and picks bitwise what it would alone."""
    n = pts.shape[1]
    table = np.stack([((pts - pts[:, c, None]) ** 2).sum(axis=2) for c in range(n)], axis=1)
    picks = []
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        chosen = [int(rng.integers(n))]
        d2 = table[b, chosen[0]]
        while len(chosen) < k:
            total = d2.sum()
            if len(chosen) == n - 1 and np.isfinite(total):
                # the last index needs no draw; a non-finite total draws and raises on NaN
                nxt = next(i for i in range(n) if i not in chosen)
            elif total <= 0:
                # all remaining points coincide with a center; pick any unchosen
                nxt = int(rng.choice([i for i in range(n) if i not in chosen]))
            else:
                nxt = int(rng.choice(n, p=d2 / total))
                if nxt in chosen:
                    nxt = int(rng.choice([i for i in range(n) if i not in chosen]))
            chosen.append(nxt)
            d2 = np.minimum(d2, table[b, nxt])
        picks.append(chosen)
    return np.take_along_axis(pts, np.array(picks)[:, :, None], axis=1)


def fit_gmm(points, kappa: int, seed) -> Union[GmmModel, List[GmmModel]]:
    """EM fit of a kappa-component diagonal GMM; kappa is capped at n.

    ``points`` is one (n, d) set, fit with ``seed``, or a (B, n, d) stack of
    B sets, fit with the B seeds in ``seed`` and returned as a list. The
    stack shares one k-means++ distance table and one EM loop, which each fit
    leaves at its own convergence; every fit equals the one-set fit of its points.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim not in (2, 3):
        raise ValueError(f"points must be an (n, d) array or a (B, n, d) stack, "
                         f"got shape {pts.shape}")
    single = pts.ndim == 2
    pts, seeds = (pts[None], [seed]) if single else (pts, list(seed))
    if len(seeds) != len(pts):
        raise ValueError(f"{len(pts)} point sets need as many seeds, got {len(seeds)}")
    n = pts.shape[1]
    if n < 1 or not seeds:
        raise ValueError("need at least one point")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    k = min(kappa, n)

    means = _kmeanspp(pts, k, seeds)
    variances = np.maximum(np.repeat(pts.var(axis=1)[:, None, :], k, axis=1), VARIANCE_FLOOR)
    weights = np.full((len(seeds), k), 1.0 / k)
    sq = pts * pts

    # stack positions of the fits still iterating; a fit's rows leave when it stops
    live = np.arange(len(seeds))
    fits: List[Optional[GmmModel]] = [None] * len(seeds)
    logliks = []   # (live, loglik) of each iteration
    prev = np.full(len(seeds), -np.inf)
    for it in range(1, MAX_ITER + 1):
        resp, loglik = kernels.active.gmm_estep(pts, means, variances, np.log(weights))
        logliks.append((live, loglik))
        nk = resp.sum(axis=1)
        weights = nk / n
        safe_nk = np.maximum(nk, 1e-12)[:, :, None]
        resp_t = resp.transpose(0, 2, 1)
        means = (resp_t @ pts) / safe_nk
        variances = np.maximum((resp_t @ sq) / safe_nk - means * means, VARIANCE_FLOOR)
        converged = np.abs(loglik - prev) < REL_TOL * np.maximum(np.abs(prev), 1.0)
        done = (np.isfinite(prev) & converged) | (it == MAX_ITER)
        prev = loglik
        if done.any():
            if not np.isfinite(loglik[done]).all():
                raise FloatingPointError("GMM log-likelihood diverged")
            for j in np.flatnonzero(done):
                fits[live[j]] = GmmModel(kappa=k, means=means[j], variances=variances[j],
                                         weights=weights[j], loglik=float(loglik[j]), n_iter=it)
            live, pts, sq, means, variances, weights, prev = (
                a[~done] for a in (live, pts, sq, means, variances, weights, prev))
            if not live.size:
                break
    history = np.empty((len(seeds), it))
    for t, (rows, loglik) in enumerate(logliks):
        history[rows, t] = loglik
    for fit, row in zip(fits, history):
        fit.loglik_history = row[:fit.n_iter].tolist()
    return fits[0] if single else fits
