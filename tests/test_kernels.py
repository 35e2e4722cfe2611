import ctypes
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import groundlm
from groundlm import kernels

SRC = str(pathlib.Path(groundlm.__file__).resolve().parent.parent)

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


def scatter_cases(rng, draws=26):
    """(table, ids, rows) cases for ``scatter_add_rows``: random ids with
    repeats, unique ids, no ids, and the training ids: object rank ids (16
    ranks tiled over 32 rows), paired ids (32 zeros) and a token batch whose
    first column is one ``[cls]`` id. Tables already hold values, and both
    tables and rows carry -0.0."""
    for dtype in (np.float32, np.float64):
        for _ in range(draws):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 70))
            tokens = rng.integers(0, n, size=(32, 8))
            tokens[:, 0] = n // 2
            for ids in (rng.integers(0, n, size=int(rng.integers(2, 300))),
                        rng.permutation(n)[:int(rng.integers(1, n + 1))],
                        np.zeros(0, dtype=np.int64),
                        np.tile(np.arange(n), 32),
                        np.zeros(32, dtype=np.int64),
                        tokens.reshape(-1)):
                table = rng.normal(size=(n, d)).astype(dtype)
                rows = rng.normal(size=(len(ids), d)).astype(dtype)
                table[rng.random(table.shape) < 0.2] = -0.0
                rows[rng.random(rows.shape) < 0.2] = -0.0
                yield table, ids.astype(np.int64), rows


def test_scatter_add_rows_matches_add_at_bitwise(rng):
    """With or without repeated ids, the kernel leaves the bits the 2-D
    ``np.add.at`` leaves, over 312 random cases."""
    count = 0
    for table, ids, rows in scatter_cases(rng):
        want = table.copy()
        np.add.at(want, ids, rows)
        kernels.active.scatter_add_rows(table, ids, rows)
        assert table.tobytes() == want.tobytes(), (table.dtype, table.shape, ids)
        count += 1
    assert count == 312


def test_pin_malloc_sets_both_thresholds_and_passes_over_a_libc_without_mallopt():
    calls = []
    libc = SimpleNamespace(mallopt=lambda *args: calls.append(args))
    groundlm._pin_malloc(libc)
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    groundlm._pin_malloc(SimpleNamespace())
    code = (f"import ctypes, sys, types; sys.path.insert(0, {SRC!r}); "
            "ctypes.pythonapi = types.SimpleNamespace(); import groundlm; print(groundlm.__version__)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == groundlm.__version__


# The object step's heap cycle: one ~600 KiB buffer freed (which lifts glibc's
# adaptive thresholds to just above it), then three such buffers taken and
# freed per cycle. The minor faults of 20 cycles after a first are printed.
FAULT_LOOP = """
import resource, sys
sys.path.insert(0, {src!r})
import numpy as np
if {pin}:
    import groundlm
n = 600 * 1024 // 8
first = np.ones(n)
del first

def cycle():
    buffers = [np.ones(n) for _ in range(3)]
    del buffers

cycle()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


@pytest.mark.skipif(not hasattr(ctypes.pythonapi, "mallopt"), reason="no mallopt in this libc")
def test_importing_groundlm_keeps_freed_buffers_resident():
    def faults(pin):
        out = subprocess.run([sys.executable, "-c", FAULT_LOOP.format(src=SRC, pin=pin)],
                             capture_output=True, text=True, check=True, timeout=120)
        return int(out.stdout)

    pinned, unpinned = faults(True), faults(False)
    assert pinned < 50, pinned
    assert unpinned >= 10 * max(pinned, 50), (pinned, unpinned)
