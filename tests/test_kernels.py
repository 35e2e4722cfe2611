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
