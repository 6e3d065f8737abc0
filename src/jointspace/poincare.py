"""Numerically hardened Poincare ball kernel at constant negative curvature c.

Points live in the open ball {x in R^n : c * ||x||^2 < 1}.  Each formula is
written once over rows (trailing feature axis): projection and exp/log at the
origin are radial maps x * s(sqrt(c) ||x||) that supply only s and ds/du;
Mobius addition has one closed form (callers compose the matrix action
exp_0(W log_0(x)) from the maps); the geodesic distance is its own closed form
over row dot products, with no Mobius sum.  The ``BallPoint`` functions and the
``d_*`` tape operations share this kernel.  Each tape operation is one autodiff
node per radial map, Mobius addition or edge distance, with closed-form
gradients in the inputs and in the curvature (a ``DiffValue`` when trained).
Ball-valued results are projected back to norm at most (1 - margin) / sqrt(c);
atanh inputs are clipped below 1 so boundary blow-up cannot occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue

__all__ = [
    "PROJECTION_MARGIN", "BallPoint",
    "mobius_add", "exp_origin", "log_origin", "hyp_distance", "project_to_ball",
    "d_exp_origin", "d_log_origin", "d_mobius_add", "d_edge_distance",
]

PROJECTION_MARGIN = 1e-5
_ATANH_MAX = 1.0 - 1e-15
_MIN_NORM = 1e-15


def _check_curvature(c: float) -> None:
    """Raise ``ValueError`` unless ``c`` is a positive, finite curvature."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"curvature must be positive and finite, got {c}")


@dataclass(frozen=True, eq=False)
class BallPoint:
    """A validated point of the ball of curvature ``c``, whose radius is 1/sqrt(c)."""

    coords: np.ndarray
    c: float = 1.0

    def __post_init__(self) -> None:
        _check_curvature(self.c)
        coords = np.asarray(self.coords, dtype=np.float64)
        object.__setattr__(self, "coords", coords)
        limit = (1.0 - PROJECTION_MARGIN) / math.sqrt(self.c)
        if np.linalg.norm(coords) > limit * (1.0 + 1e-12):
            raise ValueError("point lies outside the ball margin")

    def _check_compatible(self, other: "BallPoint") -> None:
        if self.coords.shape != other.coords.shape:
            raise ValueError("dimension mismatch between ball points")
        if self.c != other.c:
            raise ValueError("curvature mismatch between ball points")


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products with the last axis kept; rows broadcast.

    ``einsum`` sums each row without building the ``(rows, d)`` product that
    ``np.sum(x * y, axis=-1, keepdims=True)`` builds, in about a quarter of
    its time on ``(5472, 16)`` rows.
    """
    return np.einsum("...i,...i->...", x, y)[..., None]


def _sq_norm(x: np.ndarray) -> np.ndarray:
    return _row_dot(x, x)


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_norm(x))


# ---------------------------------------------------------------------------
# Radial maps x * s(u), u = sqrt(c) ||x||: each scale returns (s(u), ds/du)
# ---------------------------------------------------------------------------

def _project_scale(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min(1, r/u) with r = 1 - margin: rows beyond the margin move onto it."""
    r = 1.0 - PROJECTION_MARGIN
    over = u > r
    safe = np.maximum(u, _MIN_NORM)
    return np.where(over, r / safe, 1.0), np.where(over, -r / (safe * safe), 0.0)


def _exp_scale(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh(u)/u, followed by the projection of the image (scaled norm tanh u)."""
    safe = np.maximum(u, _MIN_NORM)
    th = np.tanh(safe)
    a = th / safe
    da = (safe * (1.0 - th * th) - th) / (safe * safe)
    p, dp = _project_scale(th)
    return a * p, da * p + a * dp * (1.0 - th * th)


def _log_scale(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """atanh(min(u, 1 - 1e-15))/u."""
    safe = np.maximum(u, _MIN_NORM)
    w = np.minimum(safe, _ATANH_MAX)
    at = np.arctanh(w)
    ds = np.where(safe < _ATANH_MAX, w / (1.0 - w * w) - at, -at) / (safe * safe)
    return at / safe, ds


def _radial(x: np.ndarray, c: float, scale) -> tuple[np.ndarray, tuple]:
    """Apply the radial map row-wise; also return what its gradient needs."""
    sqrt_c = math.sqrt(c)
    norm = _norm(x)
    s, ds = scale(sqrt_c * norm)
    return x * s, (x, norm, s, ds, sqrt_c)


def _radial_grad(g: np.ndarray, x, norm, s, ds, sqrt_c) -> tuple[np.ndarray, float]:
    """VJP of x * s(u) in x and in c, using du/dx = sqrt(c) x/||x||, du/dc = u/(2c)."""
    k = ds * _row_dot(g, x)
    gx = s * g + (k * sqrt_c / np.maximum(norm, _MIN_NORM)) * x
    return gx, float(np.sum(k * norm)) / (2.0 * sqrt_c)


# ---------------------------------------------------------------------------
# Mobius addition and the composed operations
# ---------------------------------------------------------------------------

def _mobius_add_parts(x: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, tuple]:
    """x (+)_c y = (a x + b y) / den, projected; also return the intermediates."""
    x2 = _sq_norm(x)
    y2 = _sq_norm(y)
    xy = _row_dot(x, y)
    a = 1.0 + 2.0 * c * xy + c * y2
    b = 1.0 - c * x2
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    safe = np.maximum(den, _MIN_NORM)
    r = (a * x + b * y) / safe
    out, proj = _radial(r, c, _project_scale)
    return out, (x, y, c, x2, y2, xy, a, b, den, safe, r, proj)


def _mobius_add_grad(g: np.ndarray, x, y, c, x2, y2, xy, a, b, den, safe, r,
                     proj) -> tuple[np.ndarray, np.ndarray, float]:
    """VJP of Mobius addition in x, y and c, at the broadcast row shape."""
    g_r, g_c = _radial_grad(g, *proj)
    g_num = g_r / safe
    g_den = np.where(den > _MIN_NORM,
                     -_row_dot(g_r, r) / safe, 0.0)
    g_a = _row_dot(g_num, x)
    g_b = _row_dot(g_num, y)
    g_xy = 2.0 * c * (g_a + g_den)
    g_x = a * g_num + g_xy * y + 2.0 * c * (c * y2 * g_den - g_b) * x
    g_y = b * g_num + g_xy * x + 2.0 * c * (g_a + c * x2 * g_den) * y
    g_c += float(np.sum(g_a * (2.0 * xy + y2) - g_b * x2
                        + 2.0 * g_den * (xy + c * x2 * y2)))
    return g_x, g_y, g_c


def _distance_parts(x: np.ndarray, y: np.ndarray, c: float,
                    x2: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(2/sqrt(c)) atanh(sqrt(c) ||-x (+)_c y||) per row, with the last axis kept.

    ``x2`` and ``y2`` are the rows' squared norms, ``_sq_norm`` of ``x`` and
    ``y``; a caller whose rows repeat gathers them from one norm per point.
    No Mobius sum is formed: ||-x (+)_c y||^2 = ||x - y||^2 / den with
    den = 1 - 2c<x,y> + c^2 ||x||^2 ||y||^2, read here in its equal form
    (1 - c||x||^2)(1 - c||y||^2) + c||x - y||^2, a sum of two terms that are
    positive in the ball, which keeps close pairs near the boundary accurate.
    Clipping sqrt(c) ||-x (+)_c y|| at 1 - margin is the projection of the
    sum; identical rows give exactly 0.
    """
    diff = x - y
    s2 = _sq_norm(diff)
    a = 1.0 - c * x2
    b = 1.0 - c * y2
    den = np.maximum(a * b + c * s2, _MIN_NORM)
    sqrt_c = math.sqrt(c)
    n = np.sqrt(s2 / den)
    u = sqrt_c * n
    out = (2.0 / sqrt_c) * np.arctanh(np.minimum(u, 1.0 - PROJECTION_MARGIN))
    return out, (x, y, c, diff, x2, y2, a, b, den, n, u, out)


def _distance_grad(g: np.ndarray, x, y, c, diff, x2, y2, a, b, den, n, u,
                   out) -> tuple[np.ndarray, np.ndarray, float]:
    """VJP of the distance in x, y and c.

    Rows clipped at the margin or at distance 0 pass nothing to x and y, and
    u < 1 makes a * b > 0 on the others.
    """
    active = (n > 0.0) & (u <= 1.0 - PROJECTION_MARGIN)
    g_on = np.where(active, g, 0.0)
    t = g_on / np.where(active, n * den, 1.0)
    gn = g_on * n
    a = np.where(active, a, 1.0)
    b = np.where(active, b, 1.0)
    g_x = 2.0 * t * diff + (2.0 * c / a) * gn * x
    g_y = (2.0 * c / b) * gn * y - 2.0 * t * diff
    g_c = float(np.sum(gn * (1.0 / c + x2 / a + y2 / b) - g * out / (2.0 * c)))
    return g_x, g_y, g_c


# ---------------------------------------------------------------------------
# Public operations on validated points
# ---------------------------------------------------------------------------

def project_to_ball(v: np.ndarray, c: float = 1.0) -> BallPoint:
    """Rescale any vector into the ball margin; interior points pass through."""
    _check_curvature(c)   # before the map, whose sqrt(c) a bad c would break
    return BallPoint(_radial(np.asarray(v, dtype=np.float64), c, _project_scale)[0], c)


def mobius_add(x: BallPoint, y: BallPoint) -> BallPoint:
    """Mobius addition x (+)_c y, projected back to the ball margin."""
    x._check_compatible(y)
    return BallPoint(_mobius_add_parts(x.coords, y.coords, x.c)[0], x.c)


def exp_origin(v: np.ndarray, c: float = 1.0) -> BallPoint:
    """Exponential map at the origin: tanh(sqrt(c)||v||) * v / (sqrt(c)||v||)."""
    _check_curvature(c)
    return BallPoint(_radial(np.asarray(v, dtype=np.float64), c, _exp_scale)[0], c)


def log_origin(y: BallPoint) -> np.ndarray:
    """Logarithmic map at the origin: atanh(sqrt(c)||y||) * y / (sqrt(c)||y||)."""
    return _radial(y.coords, y.c, _log_scale)[0]


def hyp_distance(x: BallPoint, y: BallPoint) -> float | np.ndarray:
    """Geodesic distance (2/sqrt(c)) * atanh(sqrt(c) || -x (+)_c y ||)."""
    x._check_compatible(y)
    x2, y2 = _sq_norm(x.coords), _sq_norm(y.coords)
    out = np.squeeze(_distance_parts(x.coords, y.coords, x.c, x2, y2)[0], axis=-1)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Tape operations on row arrays (curvature may itself be a DiffValue)
# ---------------------------------------------------------------------------

def _c_value(c) -> float:
    return float(c.value) if isinstance(c, DiffValue) else float(c)


def _ball_node(value: np.ndarray, inputs: tuple, c, vjp) -> DiffValue:
    """Tape node over ``inputs`` plus the curvature when it is a DiffValue.

    ``vjp`` returns one gradient per input followed by the curvature's, a
    float that the tape receives as an array of the curvature's shape.
    """
    if isinstance(c, DiffValue):
        def with_c(g):
            *grads, g_c = vjp(g)
            return (*grads, np.full(c.shape, g_c))
        return DiffValue(value, inputs + (c,), with_c)
    return DiffValue(value, inputs, lambda g: vjp(g)[:-1])


def _radial_node(x, c, scale) -> DiffValue:
    x = ad.as_diff(x)
    out, parts = _radial(x.value, _c_value(c), scale)
    return _ball_node(out, (x,), c, lambda g: _radial_grad(g, *parts))


def d_exp_origin(v, c) -> DiffValue:
    """Row-wise exponential map at the origin, projected to the margin."""
    return _radial_node(v, c, _exp_scale)


def d_log_origin(y, c) -> DiffValue:
    """Row-wise logarithmic map at the origin."""
    return _radial_node(y, c, _log_scale)


def d_mobius_add(x, y, c) -> DiffValue:
    """Row-wise Mobius addition; ``y`` may be one row broadcast over ``x``."""
    x, y = ad.as_diff(x), ad.as_diff(y)
    out, parts = _mobius_add_parts(x.value, y.value, _c_value(c))

    def vjp(g):
        g_x, g_y, g_c = _mobius_add_grad(g, *parts)
        return ad._unbroadcast(g_x, x.shape), ad._unbroadcast(g_y, y.shape), g_c
    return _ball_node(out, (x, y), c, vjp)


def d_edge_distance(x, g, c) -> DiffValue:
    """Geodesic distance along each attention edge of ``g``, flat, in one node.

    The tape's one distance, in ``g.attention_index`` order: the m edges
    u -> v, the m edges v -> u, then the n self loops.  ``_distance_parts``
    is bitwise symmetric (its difference row only changes sign), so it runs
    once per undirected edge, with dst = v and src = u, and the value goes to
    both directions; self loops get +0.0 and no gradient.  Squared norms are
    computed once per node.  The VJP adds the two directions' upstream
    gradients, runs ``_distance_grad`` on the m rows and sums its u and v
    rows into ``x`` with one ``np.bincount`` over the kept flat offsets of
    the first 2m source indices, which are ``[u, v]``.
    """
    x = ad.as_diff(x)
    src, dst = g.attention_index
    n, m = g.num_nodes, g.num_edges
    u, v = src.idx[:m], dst.idx[:m]
    x2 = _sq_norm(x.value)
    d, parts = _distance_parts(np.take(x.value, v, axis=0), np.take(x.value, u, axis=0),
                               _c_value(c), np.take(x2, v, axis=0),
                               np.take(x2, u, axis=0))
    out = np.zeros(src.idx.shape[0])
    out[:m] = out[m:2 * m] = d[:, 0]

    def vjp(grad):
        g_v, g_u, g_c = _distance_grad((grad[:m] + grad[m:2 * m])[:, None], *parts)
        width = x.shape[1]
        g_x = np.bincount(src.flat(width)[:2 * m * width],
                          weights=np.concatenate([g_u, g_v]).ravel(),
                          minlength=n * width)
        return g_x.reshape(n, width), g_c
    return _ball_node(out, (x,), c, vjp)
