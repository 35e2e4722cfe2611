"""Hot numeric kernels, in NumPy.

Matrix multiplication is deliberately *not* here: BLAS already wins, and the
autodiff layer's ``linear`` and ``attention`` ops call ``np.matmul``
directly. These kernels cover the elementwise and row-wise loops around it:
layer norm, GELU, softmax (inside ``attention``), masked cross-entropy, Adam
updates, the row scatter-add of embedding and ``take_rows`` gradients (a 1-D
``np.add.at`` over flat element indices where ids repeat) and the
Gaussian-mixture E-step.

Callers look every kernel up through the ``active`` namespace at call time
(``kernels.active.gelu_forward(x)``), so one kernel can be swapped for a
wrapper without touching its call sites.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

INV_SQRT2 = 0.7071067811865476
INV_SQRT_2PI = 0.3989422804014327

# erf(x) = x P(x^2) / Q(x^2) on x clipped to [-4, 4], beyond which float32 erf
# is +-1: the odd rational Eigen and XLA use for float32, coefficients from
# the highest power down. Over every float32 its largest absolute error
# against scipy's float32 erf is 2^-21, at x = 3.2697 (``tools/erf_scan.py``).
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))
_ERF_CLIP = np.float32(4.0)
_math_erf = np.frompyfunc(math.erf, 1, 1)


def _layernorm_forward(x, gain, bias, eps):
    """Row-wise layer norm over the last axis of a 2-D array.

    Returns (y, xhat, rstd); xhat/rstd are cached for the backward pass.
    """
    n = x.shape[1]
    centred = x - x.sum(axis=1, keepdims=True) / n
    var = (centred * centred).sum(axis=1) / n
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = centred * rstd[:, None]
    y = xhat * gain + bias
    return y, xhat, rstd


def _layernorm_backward(dy, xhat, rstd, gain):
    n = dy.shape[1]
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    m1 = dxhat.sum(axis=1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=1, keepdims=True) / n
    dx = (dxhat - m1 - xhat * m2) * rstd[:, None]
    return dx, dgain, dbias


def _erf(z):
    """erf of a float array, elementwise; a float32 ``z`` is overwritten.

    float32 runs the rational above in float32, in place, keeping NaN, the
    sign of zero and +-1 at +-inf. Every other dtype (the float64 models of
    the gradient tests) calls ``math.erf`` per element.
    """
    if z.dtype != np.float32:
        return np.asarray(_math_erf(z), dtype=z.dtype)
    np.clip(z, -_ERF_CLIP, _ERF_CLIP, out=z)
    z2 = z * z
    p = z2 * _ERF_P[0]
    p += _ERF_P[1]
    for c in _ERF_P[2:]:
        p *= z2
        p += c
    p *= z
    q = np.multiply(z2, _ERF_Q[0], out=z)
    q += _ERF_Q[1]
    for c in _ERF_Q[2:]:
        q *= z2
        q += c
    return np.divide(p, q, out=q)


def _gelu_forward(x):
    """Returns (y, 1 + erf(x / sqrt 2)); the second is cached for backward."""
    onepe = _erf(x * INV_SQRT2)
    onepe += 1.0
    return 0.5 * x * onepe, onepe


def _gelu_backward(dy, x, onepe):
    cdf = 0.5 * onepe
    pdf = np.exp(-0.5 * x * x) * INV_SQRT_2PI
    return dy * (cdf + x * pdf)


def _softmax_forward(x):
    """Row-wise softmax of a 2-D array, shifted by the row max (taken down a transposed copy)."""
    shifted = x - np.ascontiguousarray(x.T).max(axis=0)[:, None]
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(dy, y):
    inner = (dy * y).sum(axis=1, keepdims=True)
    return y * (dy - inner)


def _masked_ce_forward(logits, targets):
    """Per-row cross-entropy of already-gathered masked rows.

    logits: (M, V) rows for the M masked positions, targets: (M,) ids.
    Returns (losses (M,), probs (M, V)); probs are cached for backward.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1)
    probs = e / z[:, None]
    rows = np.arange(logits.shape[0])
    losses = np.log(z) - shifted[rows, targets]
    return losses, probs


def _masked_ce_backward(probs, targets, scale):
    dlogits = probs * scale
    rows = np.arange(probs.shape[0])
    dlogits[rows, targets] -= scale
    return dlogits


def _adam_update(param, grad, m, v, t, lr, beta1, beta2, eps, s1, s2):
    """One bias-corrected Adam step, in place on param/m/v (flat arrays); the
    temporaries of ``lr * (m / c1) / (sqrt(v / c2) + eps)`` go to scratch s1, s2."""
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=s1)
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=s1)
    v += np.multiply(s1, grad, out=s1)
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    np.divide(m, c1, out=s1)
    s1 *= lr
    np.divide(v, c2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    param -= np.divide(s1, s2, out=s1)


def _scatter_add_rows(table, ids, rows):
    """table[ids[i]] += rows[i] with repeated ids accumulated; ``table`` is C-contiguous."""
    if np.bincount(ids).max(initial=0) <= 1:   # no repeats: np.add.at's bits, far faster
        table[ids] += rows
    else:   # flat element indices: 2-D np.add.at's order per element, so its bits, ~4x faster
        d = table.shape[1]
        np.add.at(table.reshape(-1), (ids[:, None] * d + np.arange(d)).reshape(-1), rows.reshape(-1))


def _gmm_estep(points, means, variances, log_weights):
    """Log responsibilities and log-likelihood for diagonal GMMs.

    points: (..., n, d), means/variances: (..., k, d), log_weights: (..., k),
    with the same leading axes, one mixture each. Returns (resp (..., n, k)
    responsibilities, loglik (...) per mixture).
    """
    diff = points[..., :, None, :] - means[..., None, :, :]
    quad = (diff * diff / variances[..., None, :, :]).sum(axis=-1)
    logdet = np.log(variances).sum(axis=-1)
    d = points.shape[-1]
    logp = log_weights[..., None, :] - 0.5 * (quad + logdet[..., None, :]
                                               + d * math.log(2.0 * math.pi))
    top = logp.max(axis=-1, keepdims=True)
    lse = top[..., 0] + np.log(np.exp(logp - top).sum(axis=-1))
    resp = np.exp(logp - lse[..., None])
    return resp, lse.sum(axis=-1)


active = SimpleNamespace(
    name="numpy",
    layernorm_forward=_layernorm_forward,
    layernorm_backward=_layernorm_backward,
    gelu_forward=_gelu_forward,
    gelu_backward=_gelu_backward,
    softmax_forward=_softmax_forward,
    softmax_backward=_softmax_backward,
    masked_ce_forward=_masked_ce_forward,
    masked_ce_backward=_masked_ce_backward,
    adam_update=_adam_update,
    scatter_add_rows=_scatter_add_rows,
    gmm_estep=_gmm_estep,
)


def backend_name() -> str:
    return active.name
