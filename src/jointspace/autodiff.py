"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``DiffValue`` records one node of a computation graph: a float64 array plus
the parents and vector-Jacobian product needed for the backward sweep.  Every
primitive computes its forward value eagerly and registers an analytic VJP.
``backward`` runs one reverse topological sweep from a scalar loss and
populates ``grad`` on every reachable node exactly once.

The engine is deliberately small: its primitives are plain functions (a
``DiffValue`` has no operator overloads), exactly what the attention layers
and loss terms need.  Arithmetic and shape: ``add``, ``sub``, ``neg``,
``mul``, ``matmul``, ``transpose``, ``concat``, ``reshape``.  Indexing:
``gather_rows``, and ``attend``, the one node in which both attention
branches end.  Elementwise: ``tanh``, ``exp``, ``log``, ``abs_``,
``pow_const``, ``sigmoid``, ``softplus``.  Reductions: ``sum_``, ``mean_``,
``vector_norm``.  The ball operations are their own fused nodes in
``poincare``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DiffValue",
    "as_diff",
    "backward",
    "finite_diff_check",
    "add", "sub", "mul", "neg", "matmul", "transpose",
    "concat", "reshape", "RowIndex", "as_row_index", "gather_rows", "attend",
    "tanh", "exp", "log", "abs_", "pow_const", "sigmoid", "softplus",
    "sum_", "mean_", "vector_norm",
]

Array = np.ndarray

LEAKY_SLOPE = 0.2     # negative slope of the attention logits' leaky ReLU


class DiffValue:
    """A node in the differentiable computation record."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, _parents: tuple = (), _vjp=None):
        self.value: Array = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"DiffValue(shape={self.value.shape}, leaf={self._vjp is None})"


def as_diff(x) -> DiffValue:
    return x if isinstance(x, DiffValue) else DiffValue(x)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> DiffValue:
    a, b = as_diff(a), as_diff(b)
    out = a.value + b.value
    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)
    return DiffValue(out, (a, b), vjp)


def sub(a, b) -> DiffValue:
    a, b = as_diff(a), as_diff(b)
    out = a.value - b.value
    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)
    return DiffValue(out, (a, b), vjp)


def neg(a) -> DiffValue:
    a = as_diff(a)
    return DiffValue(-a.value, (a,), lambda g: (-g,))


def mul(a, b) -> DiffValue:
    a, b = as_diff(a), as_diff(b)
    out = a.value * b.value
    def vjp(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))
    return DiffValue(out, (a, b), vjp)


def matmul(a, b) -> DiffValue:
    a, b = as_diff(a), as_diff(b)
    out = a.value @ b.value
    def vjp(g):
        return g @ b.value.T, a.value.T @ g
    return DiffValue(out, (a, b), vjp)


def transpose(a) -> DiffValue:
    a = as_diff(a)
    return DiffValue(a.value.T, (a,), lambda g: (g.T,))


def concat(parts: Sequence) -> DiffValue:
    """Join ``parts`` along the first axis; backward slices the rows apart."""
    parts = [as_diff(p) for p in parts]
    out = np.concatenate([p.value for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.value.shape[0] for p in parts])
    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))
    return DiffValue(out, tuple(parts), vjp)


def reshape(a, shape: tuple[int, ...]) -> DiffValue:
    a = as_diff(a)
    old = a.value.shape
    return DiffValue(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# Indexing and attention aggregation
# ---------------------------------------------------------------------------

class RowIndex:
    """Read-only int64 row indices ``idx`` that keep their flat offsets.

    ``flat(width)`` is ``idx[:, None] * width + arange(width)``, raveled: where
    a scatter of rows ``width`` wide sums into.  ``flat(width, column)`` is
    ``idx * width + column``.  Each is built on first use and kept; width 1
    is ``idx`` itself.  A graph's attention edges
    (``WeightedGraph.attention_index``) so build their offsets once, while a
    plain array given to ``gather_rows``, ``attend`` or ``_scatter_rows`` is
    wrapped afresh on each call.
    """

    __slots__ = ("idx", "_flat")

    def __init__(self, idx):
        self.idx = np.asarray(idx, dtype=np.int64).view()
        self.idx.setflags(write=False)
        self._flat: dict[tuple[int, int | None], Array] = {}

    def flat(self, width: int, column: int | None = None) -> Array:
        if width == 1 and column is None:
            return self.idx
        key = (width, column)
        offsets = self._flat.get(key)
        if offsets is None:
            if column is None:
                offsets = (self.idx[:, None] * width + np.arange(width)).ravel()
            else:
                offsets = self.idx * width + column
            offsets.setflags(write=False)
            self._flat[key] = offsets
        return offsets


def as_row_index(idx) -> RowIndex:
    return idx if isinstance(idx, RowIndex) else RowIndex(idx)


def _scatter_rows(rows: Array, idx, n: int) -> Array:
    """Sum ``rows[i]`` into row ``idx[i]`` of an ``(n,) + rows.shape[1:]`` zero array.

    One ``np.bincount`` over the flat (row, column) offsets of ``idx``, a
    ``RowIndex`` or an array, at the width of the rows.  ``bincount`` adds in
    input order, as ``np.add.at`` does, so the sums are bitwise the same.
    """
    tail = rows.shape[1:]
    width = math.prod(tail)
    flat = as_row_index(idx).flat(width)
    out = np.bincount(flat, weights=rows.ravel(), minlength=n * width)
    return out.reshape((n,) + tail)


def gather_rows(a, idx) -> DiffValue:
    """Select ``a[idx]`` along the first axis; backward scatter-adds.

    ``idx`` is an index array or a ``RowIndex``, whose kept flat offsets the
    backward scatter reuses.  Here and in ``attend``, ``np.take`` gathers the
    rows: the same copy as ``a[idx]`` at about half its cost on (E, d) rows.
    """
    a = as_diff(a)
    idx = as_row_index(idx)
    out = np.take(a.value, idx.idx, axis=0)
    return DiffValue(out, (a,),
                     lambda g: (_scatter_rows(g, idx, a.value.shape[0]),))


def attend(e, values, src, dst, num_segments: int,
           mask: Array | None = None) -> DiffValue:
    """Graph-attention aggregation of ``values`` along edges ``src -> dst``.

    ``alpha = softmax(leaky_relu(e, LEAKY_SLOPE))`` within each destination's edges,
    times ``mask`` when given (dropout), weights the rows ``values[src]``;
    their sums per destination pass through ELU.  One node, parents
    ``(e, values)``, with a closed-form VJP.  ``src`` and ``dst`` are index
    arrays or ``RowIndex``es; the three scatter-adds, one forward and two in
    the VJP, read the flat offsets a ``RowIndex`` keeps.
    """
    e, values = as_diff(e), as_diff(values)
    src, dst = as_row_index(src), as_row_index(dst)
    at_dst = dst.idx
    x, hs = e.value, np.take(values.value, src.idx, axis=0)
    s = np.where(x > 0.0, x, LEAKY_SLOPE * x)
    mx = np.full(num_segments, -np.inf)
    np.maximum.at(mx, at_dst, s)
    ex = np.exp(s - mx[at_dst])
    alpha = ex / _scatter_rows(ex, dst, num_segments)[at_dst]
    w = alpha if mask is None else alpha * mask
    agg = _scatter_rows(w[:, None] * hs, dst, num_segments)
    ex_agg = np.exp(np.minimum(agg, 0.0))
    out = np.where(agg > 0.0, agg, ex_agg - 1.0)
    def vjp(g):
        gm = np.take(g * np.where(agg > 0.0, 1.0, ex_agg), at_dst, axis=0)
        g_values = _scatter_rows(gm * w[:, None], src, values.value.shape[0])
        g_alpha = (gm * hs).sum(axis=1)
        if mask is not None:
            g_alpha = g_alpha * mask
        dot = _scatter_rows(g_alpha * alpha, dst, num_segments)
        g_e = alpha * (g_alpha - dot[at_dst]) * np.where(x > 0.0, 1.0, LEAKY_SLOPE)
        return g_e, g_values
    return DiffValue(out, (e, values), vjp)


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------

def tanh(a) -> DiffValue:
    a = as_diff(a)
    out = np.tanh(a.value)
    return DiffValue(out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a) -> DiffValue:
    a = as_diff(a)
    out = np.exp(a.value)
    return DiffValue(out, (a,), lambda g: (g * out,))


def log(a) -> DiffValue:
    a = as_diff(a)
    return DiffValue(np.log(a.value), (a,), lambda g: (g / a.value,))


def abs_(a) -> DiffValue:
    a = as_diff(a)
    return DiffValue(np.abs(a.value), (a,), lambda g: (g * np.sign(a.value),))


def pow_const(a, p: float) -> DiffValue:
    """a ** p for constant p; domain a >= 0 when p is non-integer."""
    a = as_diff(a)
    out = np.power(a.value, p)
    def vjp(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = p * np.power(a.value, p - 1.0)
        d = np.where(np.isfinite(d), d, 0.0)
        return (g * d,)
    return DiffValue(out, (a,), vjp)


def _logistic(x) -> Array:
    """1 / (1 + exp(-x)) from one ``exp`` of -|x|, so it never overflows."""
    e = np.exp(-np.abs(x))
    q = 1.0 + e
    return np.where(x >= 0.0, 1.0 / q, e / q)


def sigmoid(a) -> DiffValue:
    a = as_diff(a)
    out = _logistic(a.value)
    return DiffValue(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a) -> DiffValue:
    """log(1 + exp(x)) computed stably; gradient is the logistic function."""
    a = as_diff(a)
    x = a.value
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return DiffValue(out, (a,), lambda g: (g * _logistic(x),))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def sum_(a, axis: int | None = None, keepdims: bool = False) -> DiffValue:
    a = as_diff(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).astype(np.float64),)
    return DiffValue(out, (a,), vjp)


def mean_(a) -> DiffValue:
    """Mean over all elements."""
    a = as_diff(a)
    return mul(sum_(a), 1.0 / a.value.size)


def vector_norm(a) -> DiffValue:
    """Euclidean norm of each row, kept as a column; subgradient 0 at zero rows."""
    a = as_diff(a)
    out = np.sqrt(np.sum(a.value * a.value, axis=-1, keepdims=True))
    return DiffValue(out, (a,), lambda g: (g * a.value / np.maximum(out, 1e-15),))


# ---------------------------------------------------------------------------
# Backward sweep and gradient checking
# ---------------------------------------------------------------------------

def _toposort(root: DiffValue) -> list[DiffValue]:
    order: list[DiffValue] = []
    visited: set[int] = set()
    stack: list[tuple[DiffValue, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(loss: DiffValue) -> None:
    """Populate ``grad`` on every node reachable from a scalar loss.

    Gradient buffers are made lazily: a node's first contribution is kept as
    is and later ones are added out of place, because some VJPs return views
    of their input (``reshape``, ``transpose``, ``concat``).  So every VJP
    returns, per parent, ``None`` or an array of exactly that parent's shape,
    and gradients may share memory: read them, never write into them.  A node
    nothing flows into runs no VJP and ends with zeros.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is not None:
                parent.grad = g if parent.grad is None else parent.grad + g
    for node in order:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)


def finite_diff_check(loss_fn: Callable[[], DiffValue],
                      params: Sequence[DiffValue],
                      h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` must rebuild the computation from the same ``params`` leaves.
    Relative error uses max(|analytic|, |fd|, 1e-5) as denominator so
    coordinates with negligible gradient are compared on an absolute scale.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError("h must lie in [1e-6, 1e-4]")
    loss = loss_fn()
    backward(loss)
    analytic = [np.array(p.grad, copy=True) for p in params]
    worst = 0.0
    for p, grads in zip(params, analytic):
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + h
            up = float(loss_fn().value)
            p.value[idx] = orig - h
            down = float(loss_fn().value)
            p.value[idx] = orig
            fd = (up - down) / (2.0 * h)
            a = float(grads[idx])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            worst = max(worst, rel)
    return worst
