"""Numerically hardened Poincare ball kernel at constant negative curvature c.

Points live in the open ball {x in R^n : c * ||x||^2 < 1}.  Each formula is
written once over rows (trailing feature axis): projection and exp/log at the
origin are radial maps x * s(sqrt(c) ||x||) that supply only s and ds/du;
Mobius addition has one closed form (callers compose the matrix action
exp_0(W log_0(x)) from the maps); the geodesic distance is its own closed form
over row dot products, with no Mobius sum.  The ``BallPoint`` functions and the
two tape operations share this kernel, each one autodiff node on tangent
rows: ``d_bias_messages``, HGAT's bias step log_0(exp_0(t) (+)_c exp_0(b)),
and ``d_edge_distance``, the distance between the exp_0 images of edge
endpoints.  Their gradients are closed-form in the inputs and in the
curvature (a ``DiffValue`` when trained); a plain array input is a constant
and gets none.  Ball-valued results are projected back to norm at most
(1 - margin) / sqrt(c); atanh inputs are clipped below 1 so boundary blow-up
cannot occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffValue, _row_dot, _scatter_rows

__all__ = [
    "PROJECTION_MARGIN", "BallPoint",
    "mobius_add", "exp_origin", "log_origin", "hyp_distance", "project_to_ball",
    "d_bias_messages", "d_edge_distance",
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


def _project_log_scale(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log_0 of the projected point as one scale, p(u) l(u p(u)), with p the
    projection's scale and l the log map's; u p(u) lies below the atanh clip."""
    p, dp = _project_scale(u)
    l, dl = _log_scale(u * p)
    return p * l, dp * l + p * dl * (p + u * dp)


def _radial(x: np.ndarray, c: float, scale) -> tuple[np.ndarray, tuple]:
    """Apply the radial map row-wise; also return what its gradient needs."""
    sqrt_c = math.sqrt(c)
    norm = _norm(x)
    s, ds = scale(sqrt_c * norm)
    return x * s, (x, norm, s, ds, sqrt_c)


def _radial_grad(g: np.ndarray, x, norm, s, ds, sqrt_c,
                 want_x: bool = True) -> tuple[np.ndarray | None, float]:
    """VJP of x * s(u) in x (``None`` unless ``want_x``) and in c, using
    du/dx = sqrt(c) x/||x||, du/dc = u/(2c)."""
    k = ds * _row_dot(g, x)
    g_c = float(np.sum(k * norm)) / (2.0 * sqrt_c)
    if not want_x:
        return None, g_c
    return s * g + (k * sqrt_c / np.maximum(norm, _MIN_NORM)) * x, g_c


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
                   out) -> tuple[np.ndarray, float]:
    """VJP of the distance in y and x, stacked in that order as one
    ``(2,) + diff.shape`` array, and in c.

    Rows clipped at the margin or at distance 0 pass nothing to x and y, and
    u < 1 makes a * b > 0 on the others.
    """
    active = (n > 0.0) & (u <= 1.0 - PROJECTION_MARGIN)
    g_on = np.where(active, g, 0.0)
    t = g_on / np.where(active, n * den, 1.0)
    gn = g_on * n
    a = np.where(active, a, 1.0)
    b = np.where(active, b, 1.0)
    td = 2.0 * t * diff
    g_yx = np.empty((2,) + diff.shape)
    g_y, g_x = g_yx
    np.multiply((2.0 * c / b) * gn, y, out=g_y)
    g_y -= td
    np.multiply((2.0 * c / a) * gn, x, out=g_x)
    g_x += td
    g_c = float(np.sum(gn * (1.0 / c + x2 / a + y2 / b) - g * out / (2.0 * c)))
    return g_yx, g_c


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


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, DiffValue) else np.asarray(x, dtype=np.float64)


def _ball_node(value: np.ndarray, inputs: tuple, c, vjp) -> DiffValue:
    """Tape node over the ``DiffValue``s among ``inputs`` and the curvature when
    it is one, or a leaf when there are none.  ``vjp`` returns one gradient per
    input, ``None`` for a plain array (a constant, whose gradient it does not
    compute), then the curvature's float."""
    trained = isinstance(c, DiffValue)
    parents = tuple(x for x in inputs if isinstance(x, DiffValue)) + ((c,) if trained else ())
    if not parents:
        return DiffValue(value)

    def node_vjp(g):
        *grads, g_c = vjp(g)
        grads = [gr for gr, x in zip(grads, inputs) if isinstance(x, DiffValue)]
        return grads + [np.full(c.shape, g_c)] if trained else grads
    return DiffValue(value, parents, node_vjp)


def d_bias_messages(t, b, c) -> DiffValue:
    """HGAT's bias step log_0(exp_0(t) (+)_c exp_0(b)) per row of ``t``, as one node.

    ``b`` is one vector, mapped once to y = exp_0(b).  The row's projected exp
    image is X = s_x t, so the Mobius sum X (+)_c y is r = alpha t + beta y,
    whose row scalars come from ||t||^2 and <t, y> alone; its projection to
    the margin and the log map are one radial scale of r
    (``_project_log_scale``).  The VJP runs the same chain back in row
    scalars, in closed form in t, b and c.
    """
    cv, tv = _c_value(c), _value(t)
    sqrt_c = math.sqrt(cv)
    y, y_parts = _radial(_value(b), cv, _exp_scale)
    tt, ty, y2 = _sq_norm(tv), (tv @ y)[:, None], float(y @ y)
    nt = np.sqrt(tt)
    sx, dsx = _exp_scale(sqrt_c * nt)
    x2, xy = sx * sx * tt, sx * ty
    a = 1.0 + 2.0 * cv * xy + cv * y2
    den = 1.0 + 2.0 * cv * xy + cv * cv * x2 * y2
    safe = np.maximum(den, _MIN_NORM)
    alpha, beta = a * sx / safe, (1.0 - cv * x2) / safe
    r = alpha * tv + beta * y
    out, parts = _radial(r, cv, _project_log_scale)

    def vjp(g):
        # Mobius addition's VJP (``_mobius_add_grad``) with its row dots on X
        # read as s_x times those on t, then exp_0's at t and at b.
        g_r, g_c = _radial_grad(g, *parts)
        gr_t = _row_dot(g_r, tv)
        g_a = sx * gr_t / safe
        g_b = (g_r @ y)[:, None] / safe
        g_den = np.where(den > _MIN_NORM, -_row_dot(g_r, r) / safe, 0.0)
        g_xy = 2.0 * cv * (g_a + g_den)
        k_x = 2.0 * cv * (cv * y2 * g_den - g_b)        # g_X = (a/den) g_r + g_xy y + k_x X
        k_t = dsx * ((a / safe) * gr_t + g_xy * ty + k_x * sx * tt)   # ds_x <g_X, t>
        g_c += float(np.sum(g_a * (2.0 * xy + y2) - g_b * x2
                            + 2.0 * g_den * (xy + cv * x2 * y2)))
        g_c += float(np.sum(k_t * nt)) / (2.0 * sqrt_c)
        g_t = None
        if isinstance(t, DiffValue):
            g_t = (alpha * g_r + (sx * sx * k_x + k_t * sqrt_c / np.maximum(nt, _MIN_NORM)) * tv
                   + (sx * g_xy) * y)
        g_y = (beta[:, 0] @ g_r + (g_xy * sx)[:, 0] @ tv
               + 2.0 * cv * float(np.sum(g_a + cv * x2 * g_den)) * y)
        g_bias, g_cb = _radial_grad(g_y, *y_parts, isinstance(b, DiffValue))
        return g_t, g_bias, g_c + g_cb
    return _ball_node(out, (t, b), c, vjp)


def d_edge_distance(z, g, c) -> DiffValue:
    """Geodesic distance between the ball points exp_0(z) along each attention
    edge of ``g``, flat, in one node.

    The tape's one distance, in ``g.attention_index`` order: the m edges
    u -> v, the m edges v -> u, then the n self loops.  ``z`` holds tangent
    rows, which the node maps with ``_radial(z, c, _exp_scale)``.
    ``_distance_parts`` is bitwise symmetric (its difference row only changes
    sign), so it runs once per undirected edge, with dst = v and src = u, and
    the value goes to both directions; self loops get +0.0 and no gradient.
    Squared norms are computed once per node.  The VJP adds the two
    directions' upstream gradients, runs ``_distance_grad`` on the m rows,
    whose u and v rows come as one ``(2m, d)`` array, sums them into the ball
    points with one ``np.bincount`` over the kept flat offsets of the first 2m
    source indices, which are ``[u, v]``, and then runs ``_radial_grad``.
    """
    src, dst = g.attention_index
    n, m = g.num_nodes, g.num_edges
    u, v = src.idx[:m], dst.idx[:m]
    cv = _c_value(c)
    x, exp_parts = _radial(_value(z), cv, _exp_scale)
    x2 = _sq_norm(x)
    d, parts = _distance_parts(np.take(x, v, axis=0), np.take(x, u, axis=0), cv,
                               np.take(x2, v, axis=0), np.take(x2, u, axis=0))
    out = np.zeros(src.idx.shape[0])
    out[:m] = out[m:2 * m] = d[:, 0]

    def vjp(grad):
        g_uv, g_c = _distance_grad((grad[:m] + grad[m:2 * m])[:, None], *parts)
        g_x = _scatter_rows(g_uv.reshape(2 * m, x.shape[1]), src, n)
        g_z, g_cz = _radial_grad(g_x, *exp_parts, isinstance(z, DiffValue))
        return g_z, g_c + g_cz
    return _ball_node(out, (z,), c, vjp)
