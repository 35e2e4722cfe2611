import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from groundlm import kernels

KERNEL_NAMES = ("layernorm_forward", "layernorm_backward", "gelu_forward",
                "gelu_backward", "softmax_forward", "softmax_backward",
                "masked_ce_forward", "masked_ce_backward", "adam_update",
                "scatter_add_rows", "gmm_estep")


def test_active_exposes_every_kernel():
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels.active, name)), name
    assert kernels.backend_name() == "numpy"


def test_softmax_symmetry():
    out = kernels.active.softmax_forward(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_sum_to_one(row):
    out = kernels.active.softmax_forward(np.array([row], dtype=np.float64))
    assert abs(out.sum() - 1.0) < 1e-6
    assert np.all(out >= 0)


def reference_gelu_forward(x):
    return 0.5 * x * (1.0 + erf(x * kernels.INV_SQRT2))


def reference_gelu_backward(dy, x):
    cdf = 0.5 * (1.0 + erf(x * kernels.INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * kernels.INV_SQRT_2PI
    return dy * (cdf + x * pdf)


def test_gelu_reuses_forward_erf_bitwise(rng):
    tiny = np.finfo(np.float32).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.inf, -np.inf,
                        4.5, -4.5, 6.0, -9.0, 40.0, -40.0, 1e30, -1e30], dtype=np.float32)
    for x in (rng.normal(size=(64, 48)).astype(np.float32),
              (3 * rng.normal(size=(7, 33))).astype(np.float32),
              special.reshape(3, 5)):
        dy = rng.normal(size=x.shape).astype(np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            y, onepe = kernels.active.gelu_forward(x)
            want_y = reference_gelu_forward(x)
            want_dx = reference_gelu_backward(dy, x)
            got_dx = kernels.active.gelu_backward(dy, x, onepe)
        assert y.dtype == want_y.dtype and got_dx.dtype == want_dx.dtype
        np.testing.assert_array_equal(y, want_y)
        np.testing.assert_array_equal(got_dx, want_dx)
        assert np.array_equal(np.signbit(y), np.signbit(want_y))


def reference_layernorm_forward(x, gain, bias, eps):
    mean = x.mean(axis=1)
    var = x.var(axis=1)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[:, None]) * rstd[:, None]
    return xhat * gain + bias, xhat, rstd


def reference_layernorm_backward(dy, xhat, rstd, gain):
    dxhat = dy * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * rstd[:, None], (dy * xhat).sum(axis=0), dy.sum(axis=0)


def test_layernorm_matches_mean_var_reference_bitwise(rng):
    # sum / n rounds exactly as numpy's mean and var do, in either dtype
    for dtype in (np.float32, np.float64):
        for t in range(1, 25):
            for d in (1, 3, 8, 64, 257):
                scale = 10.0 ** rng.uniform(-3, 3)
                x = ((rng.normal(size=(t, d)) + rng.normal() * 3) * scale).astype(dtype)
                gain, bias = rng.normal(size=(2, d)).astype(dtype)
                dy = rng.normal(size=(t, d)).astype(dtype)
                got = kernels.active.layernorm_forward(x, gain, bias, 1e-5)
                want = reference_layernorm_forward(x, gain, bias, 1e-5)
                got += kernels.active.layernorm_backward(dy, want[1], want[2], gain)
                want += reference_layernorm_backward(dy, want[1], want[2], gain)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (dtype, t, d)
