"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``DiffValue`` records one node of a computation graph: a float64 array plus
the parents and vector-Jacobian product needed for the backward sweep.  Every
primitive computes its forward value eagerly and registers an analytic VJP.
``backward`` runs one reverse topological sweep from a scalar loss and
populates ``grad`` on every reachable node exactly once.  The sweep consumes
the tape: each VJP closure is released once it has run, values, parents and
grads are kept, and a second sweep over the same nodes raises.

The engine is deliberately small: its primitives are plain functions (a
``DiffValue`` has no operator overloads), exactly what the attention layers
and the composite loss need.  Arithmetic: ``add``, ``sub``, ``mul``.
Attention: ``attend``, the one node in which both attention branches end; it
reads a graph's attention edges and adds the self loops in closed form, as
elementwise terms after the edge sums.  Reduction: ``mean_``.  Every other
step is a fused node built as a ``DiffValue`` directly, with a numpy forward
and a closed-form VJP: the two ball operations in ``poincare``, each layer
step (linear map, attention logits, selection weights, mix) in ``layers``
and each loss term in ``objectives``.  Row-wise dot products on the tape
(the ball kernel, ``attend``, the fusion's mix) go through one ``einsum``
helper, ``_row_dot``.  The primitives wrap a plain array argument in a leaf.
The fused steps that read a layer's input (the linear map and the edge
distance) treat a plain array as a constant instead: it gets no parent and
no gradient, so backward does no work for the input features.
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
    "add", "sub", "mul",
    "RowIndex", "as_row_index", "attend",
    "mean_",
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


def _row_dot(x: Array, y: Array) -> Array:
    """Row-wise dot products with the last axis kept; rows broadcast.

    ``einsum`` sums each row without building the ``(rows, d)`` product that
    ``np.sum(x * y, axis=-1, keepdims=True)`` builds, in about a quarter of
    its time on ``(5472, 16)`` rows.
    """
    return np.einsum("...i,...i->...", x, y)[..., None]


def _logistic(x) -> Array:
    """1 / (1 + exp(-x)) from one ``exp`` of -|x|, so it never overflows."""
    e = np.exp(-np.abs(x))
    q = 1.0 + e
    return np.where(x >= 0.0, 1.0 / q, e / q)


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


def mul(a, b) -> DiffValue:
    a, b = as_diff(a), as_diff(b)
    out = a.value * b.value
    def vjp(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))
    return DiffValue(out, (a, b), vjp)


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
    plain array given to ``_scatter_rows`` is wrapped afresh on each call.
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
    ``RowIndex`` or an array, at the width of the rows.  ``rows`` may be
    fewer than ``idx``: they scatter by its leading entries, whose offsets
    are a prefix of the kept ones.  ``bincount`` adds in input order, as
    ``np.add.at`` does, so the sums are bitwise the same.
    """
    tail = rows.shape[1:]
    width = math.prod(tail)
    flat = as_row_index(idx).flat(width)[:rows.size]
    out = np.bincount(flat, weights=rows.ravel(), minlength=n * width)
    return out.reshape((n,) + tail)


def attend(e, values, g, mask: Array | None = None) -> DiffValue:
    """Graph-attention aggregation of ``values`` over the attention edges of
    ``g``, a ``WeightedGraph``.

    ``alpha = softmax(leaky_relu(e, LEAKY_SLOPE))`` within each destination's
    edges, times ``mask`` when given (dropout), weights the rows
    ``values[src]``; their sums per destination pass through ELU.  ``e`` and
    ``mask`` run over ``g.attention_index``: the 2m edge rows, then the n self
    loops in node order.  The row gather, the weighted products and the
    scatter-adds (``np.bincount`` over the index's kept flat offsets) run on
    the 2m edge rows only.  A node's self loop reads its own row, so the
    loops enter as ``(n, d)`` elementwise terms added after the edge sums;
    ``bincount`` adds in input order and the loops come last in the index,
    so every sum is bitwise a scatter over all 2m + n rows.  One node,
    parents ``(e, values)``, with a closed-form VJP.
    """
    e, values = as_diff(e), as_diff(values)
    src, dst = g.attention_index
    n, k = g.num_nodes, 2 * g.num_edges
    at_dst = dst.idx[:k]
    x, v = e.value, values.value
    hs = np.take(v, src.idx[:k], axis=0)
    s = np.where(x > 0.0, x, LEAKY_SLOPE * x)
    mx = np.full(n, -np.inf)
    np.maximum.at(mx, at_dst, s[:k])
    np.maximum(mx, s[k:], out=mx)
    ex = np.exp(s - mx[dst.idx])
    alpha = ex / (_scatter_rows(ex[:k], dst, n) + ex[k:])[dst.idx]
    w = alpha if mask is None else alpha * mask
    agg = _scatter_rows(w[:k, None] * hs, dst, n) + w[k:, None] * v
    ex_agg = np.exp(np.minimum(agg, 0.0))
    out = np.where(agg > 0.0, agg, ex_agg - 1.0)
    def vjp(grad):
        g_agg = grad * np.where(agg > 0.0, 1.0, ex_agg)
        gm = np.take(g_agg, at_dst, axis=0)
        g_values = _scatter_rows(gm * w[:k, None], src, n) + g_agg * w[k:, None]
        g_alpha = np.concatenate([_row_dot(gm, hs), _row_dot(g_agg, v)])[:, 0]
        if mask is not None:
            g_alpha = g_alpha * mask
        ga = g_alpha * alpha
        dot = _scatter_rows(ga[:k], dst, n) + ga[k:]
        g_e = alpha * (g_alpha - dot[dst.idx]) * np.where(x > 0.0, 1.0, LEAKY_SLOPE)
        return g_e, g_values
    return DiffValue(out, (e, values), vjp)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def mean_(a) -> DiffValue:
    """Mean over all elements, as ``a.sum() * (1 / size)``."""
    a = as_diff(a)
    inv = 1.0 / a.value.size
    return DiffValue(a.value.sum() * inv, (a,), lambda g: (np.full(a.value.shape, g * inv),))


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


def _consumed(grad):
    """Stands in for a VJP that a backward sweep has run and released."""
    raise RuntimeError("this tape was consumed by an earlier backward: its VJPs "
                       "ran once and were released; build the loss again")


def backward(loss: DiffValue) -> None:
    """Populate ``grad`` on every node reachable from a scalar loss.

    The sweep consumes the tape: each node's VJP closure, and the forward
    intermediates only it holds, is released as soon as it has run, and
    ``_consumed`` takes its place, so a second sweep over the same nodes
    raises before it touches a gradient.  Values, parents and every node's
    ``grad`` are kept.
    Gradient buffers are made lazily: a node's first contribution is kept as
    is and later ones are added out of place, because some VJPs return views
    of their input or one array for two parents.
    So every VJP returns, per parent, ``None`` or an array of exactly that
    parent's shape, and gradients may share memory: read them, never write
    into them.  A node nothing flows into runs no VJP and ends with zeros.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
    order = _toposort(loss)
    if any(node._vjp is _consumed for node in order):
        _consumed(None)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        vjp = node._vjp
        if vjp is None:
            continue
        node._vjp = _consumed
        if node.grad is None:
            continue
        for parent, g in zip(node._parents, vjp(node.grad)):
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
