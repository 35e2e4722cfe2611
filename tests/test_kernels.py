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


def test_gelu_reuses_forward_erf_bitwise(rng):
    tiny = np.finfo(np.float32).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.inf, -np.inf, np.nan,
                        4.0, -4.0, 4.5, -4.5, 9.0, -40.0, 1e30, -1e30], dtype=np.float32)
    for dtype in (np.float32, np.float64):
        for x in (rng.normal(size=(64, 48)).astype(dtype),
                  (3 * rng.normal(size=(7, 33))).astype(dtype),
                  special.astype(dtype)):
            dy = rng.normal(size=x.shape).astype(dtype)
            with np.errstate(invalid="ignore", over="ignore"):
                y, onepe = kernels.active.gelu_forward(x)
                got_dx = kernels.active.gelu_backward(dy, x, onepe)
                z = x * kernels.INV_SQRT2
                e = kernels._erf(z.copy())
                want_y = 0.5 * x * (1.0 + e)
                # backward reads the forward's 1 + erf, not a recomputed one
                cdf = 0.5 * (1.0 + e)
                pdf = np.exp(-0.5 * x * x) * kernels.INV_SQRT_2PI
                want_dx = dy * (cdf + x * pdf)
            assert y.dtype == onepe.dtype == got_dx.dtype == dtype
            np.testing.assert_array_equal(onepe, 1.0 + e)
            np.testing.assert_array_equal(y, want_y)
            np.testing.assert_array_equal(got_dx, want_dx)
            # odd, sign of zero kept, NaN kept, +-1 at +-inf (float32: beyond +-4)
            np.testing.assert_array_equal(kernels._erf(-z), -e)
            assert np.array_equal(np.signbit(e), np.signbit(z))
            assert np.array_equal(np.isnan(e), np.isnan(z))
            saturated = np.abs(z) >= (4.0 if dtype == np.float32 else np.inf)
            np.testing.assert_array_equal(e[saturated], np.sign(z[saturated]))


def float32_scan(step):
    """Every ``step``-th float32 bit pattern with |x| <= 4.5, both signs."""
    top = np.float32(4.5).view(np.uint32)
    x = np.arange(0, top + 1, step, dtype=np.uint32).view(np.float32)
    return np.concatenate([x, -x])


def test_float32_erf_within_2_pow_minus_21_of_scipy():
    # the rational differs from scipy in most values, by at most 2^-21; its
    # largest error over every float32 is at x = 3.2697 (tools/erf_scan.py)
    worst = np.float32(3.2697).view(np.uint32)
    near = np.arange(worst - 2**16, worst + 2**16, dtype=np.uint32).view(np.float32)
    x = np.concatenate([float32_scan(4096), near, -near])
    got = kernels._erf(x.copy())
    assert got.dtype == np.float32
    err = np.abs(got.astype(np.float64) - erf(x).astype(np.float64))
    assert err.max() <= 2.0**-21, (err.max(), x[err.argmax()])


@given(st.floats(-40, 40))
@settings(max_examples=300, deadline=None)
def test_float64_erf_within_4_ulp_of_scipy(value):
    x = np.array([value, value / 8, value * 1e-6])
    got = kernels._erf(x)
    want = erf(x)
    assert got.dtype == np.float64
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


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


def test_scatter_add_rows_matches_add_at_bitwise(rng):
    """With or without repeated ids, the kernel leaves the bits ``np.add.at``
    leaves, on a table that already holds values and on an empty id list."""
    for ids in ([4, 0, 7, 2], [4, 0, 4, 2, 0, 4], []):
        ids = np.array(ids, dtype=np.int64)
        table = rng.normal(size=(8, 5)).astype(np.float32)
        rows = rng.normal(size=(len(ids), 5)).astype(np.float32)
        want = table.copy()
        np.add.at(want, ids, rows)
        kernels.active.scatter_add_rows(table, ids, rows)
        assert table.tobytes() == want.tobytes(), ids
