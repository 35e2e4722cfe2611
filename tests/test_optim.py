import numpy as np
import pytest

from groundlm import kernels
from groundlm.optim import Adam
from groundlm.tensor import Tensor


def make_param(values, name="p"):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True, name=name)


def test_zero_gradient_leaves_params_unchanged():
    p = make_param([1.0, -2.0])
    p.grad = np.zeros(2)
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert opt.t == 1


def test_first_step_magnitude_closed_form():
    # with zero moment history, one step moves by lr*g/(|g|+eps)
    g = 0.37
    lr = 0.05
    p = make_param([1.0])
    p.grad = np.array([g])
    Adam({"p": p}, lr=lr).step()
    expected = 1.0 - lr * g / (abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)


def test_hundred_steps_descend_quadratic():
    p = make_param([1.0])
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(100):
        p.grad = 2.0 * p.data  # d/dx x^2
        opt.step()
    assert abs(p.data[0]) < 0.1


def test_non_finite_gradient_aborts_naming_param():
    p = make_param([1.0], name="lm_head.W")
    p.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError, match="lm_head.W"):
        Adam({"lm_head.W": p}, lr=0.1).step()


def test_shape_mismatch_rejected():
    p = make_param([1.0, 2.0])
    p.grad = np.zeros(3)
    with pytest.raises(ValueError):
        Adam({"p": p}, lr=0.1).step()


def test_lr_must_be_positive():
    for lr in (0.0, -1e-3):
        with pytest.raises(ValueError, match="lr must be positive"):
            Adam({"p": make_param([1.0])}, lr=lr)


def test_frozen_and_gradless_params_skipped():
    frozen = make_param([5.0], name="frozen")
    frozen.requires_grad = False
    frozen.grad = np.ones(1)
    missing = make_param([7.0], name="missing")
    missing.grad = None
    opt = Adam({"frozen": frozen, "missing": missing}, lr=0.5)
    opt.step()
    assert frozen.data[0] == 5.0 and missing.data[0] == 7.0
    assert not opt.m.any() and not opt.v.any()


def test_step_and_zero_grad():
    p = make_param([1.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] < 1.0
    opt.zero_grad()
    assert p.grad is None


def test_moments_persist_across_steps():
    # second step with the same gradient moves less than 2x the first
    p = make_param([1.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    after_one = p.data[0]
    p.grad = np.array([1.0])
    opt.step()
    assert opt.t == 2
    assert opt.m[opt.spans["p"]].all() and opt.v[opt.spans["p"]].all()
    assert p.data[0] < after_one


def reference_adam_step(params, state, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam the arena replaces: one update per parameter
    with a gradient, lazily created moments, the kernel's expression order."""
    for name, p in params.items():
        if not p.requires_grad or p.grad is None:
            continue
        g = np.ascontiguousarray(p.grad, dtype=p.data.dtype)
        m, v = state.setdefault(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def param_set(dtype, seed):
    rng = np.random.default_rng(seed)
    shapes = [("a", (3, 4)), ("b", (5,)), ("c", (2, 3, 2)), ("d", (7,)), ("e", (4, 1)),
              ("f", (6,))]
    return {name: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=name != "d",
                         name=name) for name, shape in shapes}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_arena_matches_per_parameter_adam_bitwise(dtype):
    arena_params, ref_params = param_set(dtype, 0), param_set(dtype, 0)
    opt = Adam(arena_params, lr=0.01)
    state = {}
    rng = np.random.default_rng(1)
    # gradless at the start, in the middle, at the end and everywhere; "d" is frozen
    gradless = [(), ("a",), ("c",), ("f",), ("a", "b"), ("e", "f"), ("a", "c", "f"),
                ("a", "b", "c", "d", "e", "f")]
    for step in range(20):
        skip = gradless[step % len(gradless)]
        for name in arena_params:
            g = None if name in skip else (rng.normal(size=arena_params[name].shape)
                                           * 10.0 ** rng.uniform(-4, 2)).astype(dtype)
            arena_params[name].grad = g
            ref_params[name].grad = None if g is None else g.copy()
        opt.step()
        reference_adam_step(ref_params, state, step + 1, lr=0.01)
        for name in arena_params:
            got, want = arena_params[name].data, ref_params[name].data
            assert got.dtype == want.dtype and np.array_equal(got, want), (step, name)
    for name, (m, v) in state.items():
        assert np.array_equal(opt.m[opt.spans[name]], m.reshape(-1))
        assert np.array_equal(opt.v[opt.spans[name]], v.reshape(-1))
    assert not opt.m[opt.spans["d"]].any()


def test_one_kernel_call_per_contiguous_run(monkeypatch):
    params = param_set(np.float32, 0)
    opt = Adam(params, lr=0.01)
    calls = []
    update = kernels.active.adam_update

    def counted(param, *args):
        calls.append(param.size)
        return update(param, *args)

    monkeypatch.setattr(kernels.active, "adam_update", counted)
    for name, p in params.items():
        p.grad = np.ones(p.shape, dtype=np.float32)
    opt.step()   # "d" is frozen: runs a..c and e..f
    assert calls == [12 + 5 + 12, 4 + 6]
    calls.clear()
    params["b"].grad = params["f"].grad = None
    opt.step()   # runs a, c, e
    assert calls == [12, 12, 4]
    calls.clear()
    params["d"].requires_grad = True
    for p in params.values():
        p.grad = np.ones(p.shape, dtype=np.float32)
    opt.step()
    assert calls == [sum(p.data.size for p in params.values())]


def test_parameters_become_views_of_the_arena():
    params = param_set(np.float64, 0)
    before = {name: p.data.copy() for name, p in params.items()}
    opt = Adam(params, lr=0.1)
    for name, p in params.items():
        assert np.shares_memory(p.data, opt.arena) and np.array_equal(p.data, before[name])
        assert p.data.flags.c_contiguous


def test_rebound_parameter_rejected():
    p = make_param([1.0, 2.0])
    opt = Adam({"p": p}, lr=0.1)
    p.data = np.array([1.0, 2.0])
    p.grad = np.ones(2)
    with pytest.raises(ValueError, match="rebound"):
        opt.step()


def test_mixed_dtypes_rejected():
    with pytest.raises(ValueError, match="one dtype"):
        Adam({"a": make_param([1.0]),
              "b": Tensor(np.ones(1, dtype=np.float32), requires_grad=True)}, lr=0.1)


def test_non_finite_gradient_names_first_bad_param_and_updates_nothing():
    params = param_set(np.float64, 0)
    before = {name: p.data.copy() for name, p in params.items()}
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = np.ones(p.shape)
    params["c"].grad[0, 0, 0] = np.inf
    params["f"].grad[0] = np.nan
    with pytest.raises(FloatingPointError, match="'c'"):
        opt.step()
    assert all(np.array_equal(p.data, before[name]) for name, p in params.items())
