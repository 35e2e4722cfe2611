import numpy as np
import pytest

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
    Adam({"p": p}, lr=lr, eps=1e-8).step()
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
    assert opt.m == {} and opt.v == {}


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
    assert "p" in opt.m and "p" in opt.v
    assert p.data[0] < after_one
