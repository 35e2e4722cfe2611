import weakref

import numpy as np
import pytest

from groundlm import kernels
from groundlm import tensor as tensor_mod
from groundlm.tensor import (ShapeError, Tensor, attention, concat, embedding,
                             gelu, l1_norm, layernorm, linear,
                             masked_cross_entropy, masked_lp_loss, mean_all,
                             mul, no_grad, sum_all, take_rows)

from conftest import central_diff, max_rel_err, rel_err


def t64(arr, requires_grad=True, name=None):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad, name=name)


def reference_attention(qkv, bias, n_heads):
    """Plain-numpy multi-head attention: split heads, scaled scores, max-shifted
    softmax over keys, weighted values, heads joined again."""
    b_sz, t, width = qkv.shape
    d = width // 3
    dh = d // n_heads
    heads = qkv.reshape(b_sz, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = heads[0], heads[1], heads[2]
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * np.asarray(1.0 / np.sqrt(dh), qkv.dtype)
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    return np.matmul(att, v).transpose(0, 2, 1, 3).reshape(b_sz, t, d)


def key_padding_bias(valid, dtype):
    return np.where(valid[:, None, None, :], 0.0, -1e9).astype(dtype)


class TestForwardExamples:
    def test_layernorm_constant_vector_is_zero(self):
        x = t64([[3.0, 3.0, 3.0, 3.0]])
        out = layernorm(x, t64(np.ones(4)), t64(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
    def test_attention_matches_numpy_reference_bitwise(self, rng, n_heads, padded):
        qkv = rng.normal(size=(3, 5, 3 * 16)).astype(np.float32)
        valid = np.ones((3, 5), dtype=bool)
        valid[1, 3:] = valid[2, 1:] = False
        bias = key_padding_bias(valid, np.float32) if padded else None
        got = attention(Tensor(qkv), bias, n_heads).data
        want = reference_attention(qkv, bias, n_heads)
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)


class TestBackwardExamples:
    def test_sum_gradient_is_ones(self):
        x = t64([1.0, 2.0, 3.0])
        sum_all(x).backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = t64([2.0])
        mul(x, x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_two_layer_net_matches_finite_differences(self, rng):
        w1 = t64(rng.normal(size=(5, 7)), name="w1")
        b1 = t64(rng.normal(size=(7,)), name="b1")
        w2 = t64(rng.normal(size=(7, 3)), name="w2")
        x = t64(rng.normal(size=(4, 5)), requires_grad=False)

        b2 = t64(rng.normal(size=(3,)), name="b2")

        def forward():
            out = linear(gelu(linear(x, w1, b1)), w2, b2)
            return mean_all(mul(out, out))

        def loss_value():
            return forward().data.item()

        forward().backward()
        for p in (w1, b1, w2, b2):
            fd = central_diff(loss_value, p.data)
            assert rel_err(p.grad, fd) < 1e-4


class TestBackwardConsumesGraph:
    """backward() unlinks each interior node once it has pushed its gradient:
    what no caller holds is freed during the walk, and the graph cannot be
    walked again."""

    def two_layer(self, rng):
        w1 = t64(rng.normal(size=(5, 7)), name="w1")
        b1 = t64(rng.normal(size=(7,)), name="b1")
        w2 = t64(rng.normal(size=(7, 3)), name="w2")
        b2 = t64(rng.normal(size=(3,)), name="b2")
        x = t64(rng.normal(size=(4, 5)), requires_grad=False)
        hidden = gelu(linear(x, w1, b1))
        out = linear(hidden, w2, b2)
        return hidden, out, mean_all(mul(out, out)), (w1, b1, w2, b2)

    def test_unheld_activation_is_freed(self, rng):
        hidden, out, loss, _ = self.two_layer(rng)
        ref = weakref.ref(hidden.data)
        del hidden                       # now only the graph holds the gelu output
        assert ref() is not None
        loss.backward()
        assert ref() is None
        assert out.grad is not None and out._parents == ()

    def test_second_backward_raises(self, rng):
        _, _, loss, params = self.two_layer(rng)
        loss.backward()
        grads = [p.grad.copy() for p in params]
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        for p, g in zip(params, grads):
            np.testing.assert_array_equal(p.grad, g)

    def test_new_graph_on_consumed_tensor_raises(self, rng):
        hidden, _, loss, _ = self.two_layer(rng)
        loss.backward()
        assert hidden.grad is not None   # a held interior tensor keeps its grad
        with pytest.raises(RuntimeError, match="consumed"):
            mean_all(mul(hidden, 2.0)).backward()


# central-difference oracles for each differentiable op kind


def check_op(build, params, tol=1e-4):
    """build() -> scalar Tensor using the live param arrays."""
    loss = build()
    loss.backward()
    grads = [p.grad.copy() for p in params]
    for p, g in zip(params, grads):
        fd = central_diff(lambda: build().data.item(), p.data)
        assert rel_err(g, fd) < tol, f"gradient mismatch for {p.name}"


class TestOpGradients:
    def test_add_broadcast(self, rng):
        a = t64(rng.normal(size=(3, 4)), name="a")
        b = t64(rng.normal(size=(4,)), name="b")
        check_op(lambda: sum_all(mul(a + b, a + b)), [a, b])

    def test_mul_broadcast(self, rng):
        a = t64(rng.normal(size=(2, 3, 4)), name="a")
        b = t64(rng.normal(size=(1, 3, 1)), name="b")
        check_op(lambda: sum_all(mul(a, b)), [a, b])

    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 5)], ids=["2d", "3d"])
    def test_linear(self, rng, shape):
        x = t64(rng.normal(size=shape), name="x")
        w = t64(rng.normal(size=(5, 3)), name="w")
        b = t64(rng.normal(size=(3,)), name="b")
        check_op(lambda: sum_all(mul(linear(x, w, b), linear(x, w, b))), [x, w, b])

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("padded, rows", [(False, None), (True, None), (False, 1),
                                              (True, 1), (False, 2), (True, 2)],
                             ids=["unpadded", "padded", "unpadded-rows1", "padded-rows1",
                                  "unpadded-rows2", "padded-rows2"])
    def test_attention(self, rng, n_heads, padded, rows):
        """The full op, and the first query row or all but the last two (T = 4)."""
        qkv = t64(rng.normal(size=(2, 4, 3 * 4)), name="qkv")
        weight = rng.normal(size=(2, rows or 4, 4))
        valid = np.array([[True, True, True, False], [True, True, False, False]])
        bias = key_padding_bias(valid, np.float64) if padded else None
        check_op(lambda: sum_all(mul(attention(qkv, bias, n_heads, rows), weight)), [qkv])

    def test_reshape_slice_concat(self, rng):
        a = t64(rng.normal(size=(2, 6)), name="a")
        b = t64(rng.normal(size=(2, 6)), name="b")

        def build():
            joined = concat([a.reshape((2, 2, 3)), b.reshape((2, 2, 3))], axis=1)
            sliced = joined[:, 1:3, :]
            return sum_all(mul(sliced, sliced))

        check_op(build, [a, b])

    @pytest.mark.parametrize("key", [np.array([0, 0, 2]), (slice(None), [1, 1, 0])],
                             ids=["rows", "columns"])
    def test_repeated_index_array_slice_sums_gradients(self, rng, key):
        a = t64(rng.normal(size=(3, 3)), name="a")
        check_op(lambda: sum_all(mul(a[key], a[key])), [a])
        a.grad = None
        a[key].sum().backward()
        expected = np.zeros((3, 3))
        np.add.at(expected, key, 1.0)
        np.testing.assert_array_equal(a.grad, expected)

    def test_gelu(self, rng):
        b = t64(rng.normal(size=(3, 5)), name="b")
        check_op(lambda: sum_all(mul(gelu(b), gelu(b))), [b])

    def test_softmax_layernorm(self, rng):
        a = rng.normal(size=(4, 6))
        dy = rng.normal(size=(4, 6))
        y = kernels.active.softmax_forward(a)
        fd = central_diff(lambda: float((kernels.active.softmax_forward(a) * dy).sum()), a)
        assert rel_err(kernels.active.softmax_backward(dy, y), fd) < 1e-4
        x = t64(rng.normal(size=(4, 6)), name="x")
        g = t64(rng.normal(size=(6,)), name="g")
        c = t64(rng.normal(size=(6,)), name="c")
        check_op(lambda: sum_all(mul(layernorm(x, g, c), layernorm(x, g, c))), [x, g, c])

    def test_embedding(self, rng):
        table = t64(rng.normal(size=(7, 4)), name="table")
        ids = np.array([[0, 3, 6], [2, 2, 5]])
        check_op(lambda: sum_all(mul(embedding(table, ids), embedding(table, ids))), [table])

    def test_take_rows(self, rng):
        """A row picked twice gets both gradients; a row not picked gets zero."""
        x = t64(rng.normal(size=(2, 3, 4)), name="x")
        picks = np.array([0, 4, 0, 5, 2])
        weight = rng.normal(size=(5, 4))
        check_op(lambda: sum_all(mul(mul(take_rows(x, picks), take_rows(x, picks)), weight)),
                 [x])
        rows = x.data.reshape(-1, 4)
        grad = x.grad.reshape(-1, 4)
        np.testing.assert_allclose(grad[0], 2 * rows[0] * (weight[0] + weight[2]), rtol=1e-12)
        assert not grad[[1, 3]].any()

    def test_masked_cross_entropy(self, rng):
        logits = t64(rng.normal(size=(3, 5)), name="logits")
        targets = np.array([1, 3, 4])
        check_op(lambda: masked_cross_entropy(logits, targets), [logits])

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_masked_lp_loss(self, rng, p):
        preds = t64(rng.normal(size=(3, 4)), name="preds")
        target = rng.normal(size=(3, 4))
        check_op(lambda: masked_lp_loss(preds, target, p=p), [preds])

    def test_l1_norm(self, rng):
        w = t64(rng.normal(size=(3, 4)), name="w")
        w.data[np.abs(w.data) < 0.1] = 0.3  # keep away from the |.| kink
        check_op(lambda: l1_norm(w), [w])


class TestErrorsAndModes:
    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError) as err:
            linear(t64(np.ones((2, 3))), t64(np.ones((4, 5))), t64(np.zeros(5)))
        msg = str(err.value)
        assert "linear" in msg and "(2, 3)" in msg and "(4, 5)" in msg

    def test_backward_requires_scalar(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ValueError):
            (x + x).backward()

    def test_non_finite_loss_raises(self):
        x = t64([np.inf])
        with pytest.raises(FloatingPointError):
            sum_all(x).backward()

    def test_no_grad_blocks_graph(self):
        x = t64([1.0, 2.0])
        with no_grad():
            y = mul(x, x)
        assert y._parents == ()
        assert not y.requires_grad

    def test_embedding_id_range_check(self):
        table = t64(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            embedding(table, np.array([[0, 3]]))

    def test_masked_ce_needs_a_flag(self):
        logits = t64(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            masked_cross_entropy(logits, np.zeros(0, dtype=np.int64))

    def test_gradients_accumulate_across_reuse(self):
        x = t64([3.0])
        (mul(x, x) + mul(x, x)).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_shared_gradient_array_is_never_mutated(self, rng):
        # out = (h + h) + h hands one gradient array to both operands of each
        # add; accumulating into h must leave the other operand's .grad as it was
        a = t64(rng.normal(size=(3, 4)), name="a")
        w = t64(rng.normal(size=(3, 4)), requires_grad=False)
        c = rng.normal(size=(3, 4))
        h = mul(a, w)
        s = h + h
        out = s + h
        mul(out, c).sum().backward()
        np.testing.assert_array_equal(s.grad, c)
        np.testing.assert_array_equal(out.grad, c)
        np.testing.assert_array_equal(h.grad, c + c + c)
        np.testing.assert_array_equal(a.grad, (c + c + c) * w.data)
        assert s.grad is not h.grad

    def test_first_gradient_kept_in_c_order(self, rng):
        left = t64(rng.normal(size=(4, 2)), name="left")
        right = t64(rng.normal(size=(4, 3)), name="right")
        mul(concat([left, right], axis=1), 2.0).sum().backward()   # hands on column slices
        assert left.grad.flags.c_contiguous and right.grad.flags.c_contiguous
        np.testing.assert_array_equal(left.grad, np.full((4, 2), 2.0))


class TestRowRestrictedOps:
    """``attention`` with ``rows`` computes those query rows only. Its output
    and its gradient agree to rounding with those of the full op whose
    upstream gradient is zero beyond the kept rows: each product runs at the
    row count read, and BLAS may round a row by the row count. float32 at the
    object workload's shape: 8 text rows of 24, d = 64."""

    B, S, L, D = 4, 24, 8, 64
    TOL = 1e-5   # max-abs error over max-abs value, float32

    def upstream(self, rng, width):
        u = rng.normal(size=(self.B, self.S, width)).astype(np.float32)
        u[:, self.L:] = 0.0
        return u

    @pytest.mark.parametrize("n_out", [64, 256])
    def test_linear_on_the_kept_rows(self, rng, n_out):
        x = rng.normal(size=(self.B, self.S, self.D)).astype(np.float32)
        w = rng.normal(size=(self.D, n_out)).astype(np.float32)
        b = rng.normal(size=(n_out,)).astype(np.float32)
        u = self.upstream(rng, n_out)
        full = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        full_out = linear(*full)
        mul(full_out, u).sum().backward()
        cut = [Tensor(a, requires_grad=True) for a in (x[:, :self.L].copy(), w, b)]
        out = linear(*cut)
        mul(out, u[:, :self.L]).sum().backward()
        assert out.shape == (self.B, self.L, n_out)
        assert max_rel_err(out.data, full_out.data[:, :self.L]) < self.TOL
        assert max_rel_err(cut[0].grad, full[0].grad[:, :self.L]) < self.TOL
        assert max_rel_err(cut[1].grad, full[1].grad) < self.TOL
        assert max_rel_err(cut[2].grad, full[2].grad) < self.TOL

    @pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
    def test_attention_with_rows(self, rng, padded):
        qkv = rng.normal(size=(self.B, self.S, 3 * self.D)).astype(np.float32)
        valid = np.ones((self.B, self.S), dtype=bool)
        valid[1, 20:] = valid[2, 3:8] = valid[3, 9:] = False
        bias = key_padding_bias(valid, np.float32) if padded else None
        u = self.upstream(rng, self.D)
        full = Tensor(qkv, requires_grad=True)
        full_out = attention(full, bias, 4)
        mul(full_out, u).sum().backward()
        cut = Tensor(qkv, requires_grad=True)
        out = attention(cut, bias, 4, rows=self.L)
        mul(out, u[:, :self.L]).sum().backward()
        assert out.shape == (self.B, self.L, self.D)
        assert max_rel_err(out.data, full_out.data[:, :self.L]) < self.TOL
        assert max_rel_err(cut.grad, full.grad) < self.TOL
        assert not cut.grad[:, self.L:, :self.D].any()   # dq beyond the kept rows

    def test_attention_products_run_at_the_kept_rows(self, rng, monkeypatch):
        """No product of the forward or the backward forms a T x T block."""
        shapes = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b):
                out = np.matmul(a, b)
                shapes.append(out.shape)
                return out
        monkeypatch.setattr(tensor_mod, "np", RecordingNumpy())
        qkv = Tensor(rng.normal(size=(self.B, self.S, 3 * self.D)).astype(np.float32),
                     requires_grad=True)
        out = attention(qkv, None, 4, rows=self.L)
        mul(out, self.upstream(rng, self.D)[:, :self.L]).sum().backward()
        dh = self.D // 4
        assert shapes == [(self.B, 4, self.L, self.S), (self.B, 4, self.L, dh),   # forward
                          (self.B, 4, self.L, self.S), (self.B, 4, self.L, dh),   # datt, dq
                          (self.B, 4, dh, self.S), (self.B, 4, self.S, dh)]       # dk, dv
