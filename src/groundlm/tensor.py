"""Minimal reverse-mode autodiff over NumPy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced. Calling
``backward()`` on a scalar walks the recorded graph once in reverse
topological order, consuming it, and accumulates gradients into every
reachable tensor with ``requires_grad=True``. Leaves with ``requires_grad=False`` (frozen
parameters, constants, masks) prune the graph behind them.

A transformer layer is a few coarse nodes rather than a chain of generic
ones: ``linear`` is one weight product plus bias, and ``attention`` takes the
fused query/key/value projection to the attention context in one node, with a
hand-derived backward. Given a query row count, ``attention`` computes those
rows only, and ``take_rows`` gathers rows, so a block forms just the rows a
loss reads; the loss ops take those rows, not full tensors and their flags.
The matrix products go straight to ``np.matmul``, each at the row count it
reads, so restricted rows agree with the same rows of the full op to
rounding, not bit for bit. The row-wise hot paths (gelu, softmax, layer norm,
the fused loss ops) run on the kernels in :mod:`groundlm.kernels`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import kernels

LAYERNORM_EPS = 1e-5


class ShapeError(ValueError):
    """Operands do not conform to the operation's shape contract."""


_GRAD_ENABLED = True


def grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _consumed(_grad):
    raise RuntimeError("backward through a graph that an earlier backward() consumed")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, name=None, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw array data, not another Tensor")
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = self.name or self._op
        return f"Tensor({tag}, shape={self.data.shape}, grad={self.requires_grad})"

    # -- graph --------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every trainable tensor reachable from a scalar.

        The walk consumes the graph: an interior tensor keeps its ``data``
        and ``grad``, but loses its links to its inputs, and a later
        ``backward()`` that reaches it raises ``RuntimeError``.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if not np.isfinite(self.data):
            raise FloatingPointError(f"non-finite loss value {float(self.data)!r}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # Popping drops the walk's reference to each node, and unlinking a
        # node once it has pushed its gradient frees its backward closure and
        # the activations that closure saved, so an interior tensor that no
        # caller holds is gone as soon as the walk has passed it.
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._parents = ()
                node._backward = _consumed

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __getitem__(self, key):
        return take_slice(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _node(data, parents, backward, op) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out._op = op
    else:
        out._op = op
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    # The first gradient is kept by reference (copied only when not in C
    # order, so every matmul that reads it sees a copy's layout and rounds
    # alike) and later ones are added out of place, so an array handed to
    # two operands is never mutated.
    if t.grad is None:
        g = np.asarray(g)
        t.grad = g if g.flags.c_contiguous else g.copy()
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic ------------------------------------------------------------


def add(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _as_tensor(b, a)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), backward, "add")


def mul(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _as_tensor(b, a)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward, "mul")


def reshape(x: Tensor, shape):
    old = x.shape
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(old))

    return _node(data, (x,), backward, "reshape")


def take_slice(x: Tensor, key):
    data = x.data[key]
    fancy = not np.may_share_memory(data, x.data)   # a copy, so the key holds an index array

    def backward(g):
        full = np.zeros_like(x.data)
        if fancy:   # which may pick an entry twice: each pick adds its gradient
            np.add.at(full, key, g)
        else:
            full[key] = g
        _accumulate(x, full)

    return _node(data, (x,), backward, "slice")


def concat(parts, axis=0):
    parts = list(parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backward(g):
        offset = 0
        for p, s in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + s)
            _accumulate(p, g[tuple(idx)])
            offset += s

    return _node(data, tuple(parts), backward, "concat")


def sum_all(x: Tensor):
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.full_like(x.data, g))

    return _node(data, (x,), backward, "sum")


def mean_all(x: Tensor):
    n = x.data.size
    data = np.asarray(x.data.mean(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.full_like(x.data, float(g) / n))

    return _node(data, (x,), backward, "mean")


# -- neural ops ------------------------------------------------------------


def gelu(x: Tensor):
    kern = kernels.active
    data, onepe = kern.gelu_forward(x.data)

    def backward(g):
        _accumulate(x, kern.gelu_backward(g, x.data, onepe))

    return _node(data, (x,), backward, "gelu")


def linear(x: Tensor, w: Tensor, b: Tensor):
    """``x @ w + b`` for a (n_in, n_out) weight and an (n_out,) bias, as one node."""
    n_in, n_out = w.shape
    if x.shape[-1] != n_in or b.shape != (n_out,):
        raise ShapeError(f"linear: input {x.shape}, weight {w.shape} and bias {b.shape} "
                         f"do not conform")
    data = np.matmul(x.data, w.data) + b.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, np.matmul(g, np.ascontiguousarray(w.data.T)))
        if w.requires_grad:
            _accumulate(w, np.matmul(x.data.reshape(-1, n_in).T, g.reshape(-1, n_out)))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(data, (x, w, b), backward, "linear")


def attention(qkv: Tensor, bias, n_heads: int, rows=None):
    """Multi-head scaled dot-product self-attention, from the fused projection.

    qkv: (B, T, 3d), laid out as [q | k | v] with the heads side by side in
    each third; bias: an additive (B, 1, 1, T) key bias ndarray, or None.
    Returns the (B, T, d) context with the heads side by side. The backward
    is the hand-derived one (FlashAttention's Algorithm 4 without the
    tiling) and writes dq, dk and dv into one (3, B, H, T, dh) array.

    With ``rows``, only the first ``rows`` queries attend: the (B, rows, d)
    context, and every query-side product forward and backward, cover those
    rows alone, while keys and values cover all T; dq is zero beyond them."""
    b_sz, t, width = qkv.shape
    if width % (3 * n_heads):
        raise ShapeError(f"attention: width {width} does not split into q, k and v "
                         f"of {n_heads} heads")
    kern = kernels.active
    d = width // 3
    dh = d // n_heads
    heads = qkv.data.reshape(b_sz, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = heads
    q = q[:, :, :rows]
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=qkv.dtype)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
    if bias is not None:
        scores = scores + bias
    att = kern.softmax_forward(np.ascontiguousarray(scores.reshape(-1, t))).reshape(scores.shape)
    r = att.shape[2]
    data = np.matmul(att, v).transpose(0, 2, 1, 3).reshape(b_sz, r, d)

    def backward(g):
        dctx = np.ascontiguousarray(g.reshape(b_sz, r, n_heads, dh).transpose(0, 2, 1, 3))
        datt = np.matmul(dctx, np.swapaxes(v, -1, -2))
        dscores = kern.softmax_backward(datt.reshape(-1, t), att.reshape(-1, t))
        dscores = dscores.reshape(att.shape) * scale
        dheads = np.empty_like(heads)   # laid out like qkv, so the reshape below is free
        dheads[0, :, :, :r] = np.matmul(dscores, k)
        dheads[0, :, :, r:] = 0.0
        dheads[1] = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), dscores), -1, -2)
        dheads[2] = np.matmul(np.swapaxes(att, -1, -2), dctx)
        _accumulate(qkv, dheads.transpose(1, 3, 0, 2, 4).reshape(qkv.shape))

    return _node(data, (qkv,), backward, "attention")


def layernorm(x: Tensor, gain: Tensor, bias: Tensor):
    """Layer norm over the last axis with learned gain/bias."""
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layernorm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {x.shape[-1]}"
        )
    kern = kernels.active
    d = x.shape[-1]
    flat = np.ascontiguousarray(x.data.reshape(-1, d))
    y, xhat, rstd = kern.layernorm_forward(flat, gain.data, bias.data, LAYERNORM_EPS)

    def backward(g):
        g2 = np.ascontiguousarray(g.reshape(-1, d))
        dx, dgain, dbias = kern.layernorm_backward(g2, xhat, rstd, gain.data)
        _accumulate(x, dx.reshape(x.shape))
        _accumulate(gain, dgain)
        _accumulate(bias, dbias)

    return _node(y.reshape(x.shape), (x, gain, bias), backward, "layernorm")


def embedding(table: Tensor, ids: np.ndarray):
    """Row lookup: out[..., :] = table[ids[...]]."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding: id out of range for table with {table.shape[0]} rows")
    data = table.data[ids]

    def backward(g):
        if not table.requires_grad:
            return
        full = np.zeros_like(table.data)
        rows = np.ascontiguousarray(g.reshape(-1, table.shape[1]))
        kernels.active.scatter_add_rows(full, ids.reshape(-1).astype(np.int64), rows)
        _accumulate(table, full)

    return _node(data, (table,), backward, "embedding")


def take_rows(x: Tensor, picks: np.ndarray):
    """The (len(picks), d) rows at ``picks`` of ``x`` viewed as (-1, d); a row
    picked twice receives both gradients."""
    d = x.shape[-1]
    data = x.data.reshape(-1, d)[picks]

    def backward(g):
        full = np.zeros((x.data.size // d, d), dtype=x.data.dtype)
        kernels.active.scatter_add_rows(full, picks, g)
        _accumulate(x, full.reshape(x.shape))

    return _node(data, (x,), backward, "take_rows")


def masked_cross_entropy(logits: Tensor, targets: np.ndarray):
    """Mean cross-entropy of (M, V) logit rows, such as a model's rows at the
    masked positions, against their (M,) target ids. Raises if M is 0."""
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    if tgt.size == 0:
        raise ValueError("masked_cross_entropy: no masked positions in batch")
    kern = kernels.active
    losses, probs = kern.masked_ce_forward(np.ascontiguousarray(logits.data), tgt)
    data = np.asarray(losses.mean(), dtype=logits.data.dtype)

    def backward(g):
        _accumulate(logits, kern.masked_ce_backward(probs, tgt, float(g) / tgt.size))

    return _node(data, (logits,), backward, "masked_ce")


def masked_lp_loss(preds: Tensor, targets: np.ndarray, p: float):
    """Mean over (M, d) prediction rows of sum(|pred - target|^p) / d."""
    if preds.shape[0] == 0:
        raise ValueError("masked_lp_loss: no masked rows in batch")
    diff = preds.data - targets
    denom = diff.size
    data = np.asarray((np.abs(diff) ** p).sum() / denom, dtype=preds.data.dtype)

    def backward(g):
        local = p * np.abs(diff) ** (p - 1.0) * np.sign(diff)
        _accumulate(preds, (local * (float(g) / denom)).astype(preds.dtype, copy=False))

    return _node(data, (preds,), backward, "masked_lp")


def l1_norm(w: Tensor):
    data = np.asarray(np.abs(w.data).sum(), dtype=w.data.dtype)

    def backward(g):
        _accumulate(w, float(g) * np.sign(w.data))

    return _node(data, (w,), backward, "l1_norm")
