"""Loss terms, decoders and the composite training objective.

Each loss term is one tape node: its forward is the term's numpy formula and
its VJP is closed-form.  The alignment term compares the model's per-node
selection weights against the normalized geometric profile with a 1-D
p-Wasserstein distance computed by rank-pairing sorted samples; the sort
permutation is treated as constant by the backward pass, and the run's
diagnostics read the same formula as a float.  A non-uniformity term pushes
each node's selection weight pair away from (0.5, 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue
from .hyperbolicity import HyperbolicityProfile

__all__ = [
    "LossWeights",
    "COMPARISON_MODES",
    "wasserstein_1d",
    "unif_reference",
    "normalize_delta",
    "non_uniformity_loss",
    "cross_entropy_nc",
    "fermi_dirac_prob",
    "lp_loss",
    "overall_loss",
]

COMPARISON_MODES = ("distribution", "pairwise", "mean")

# Fermi-Dirac edge decoder P(edge) = 1 / (exp((d - FERMI_R) / FERMI_T) + 1).
FERMI_R, FERMI_T = 2.0, 1.0


@dataclass(frozen=True)
class LossWeights:
    """Balancing factors for the extra loss terms and the Wasserstein order."""

    omega_nu: float = 0.0
    omega_was: float = 0.0
    p: float = 2.0

    def __post_init__(self) -> None:
        for name in ("omega_nu", "omega_was"):
            v = getattr(self, name)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and nonnegative")
        _check_order(self.p)


def _check_order(p: float) -> None:
    """Raise ``ValueError`` unless ``p`` is a Wasserstein order: finite and >= 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"Wasserstein order p must be finite and >= 1, got {p}")


# ---------------------------------------------------------------------------
# 1-D Wasserstein
# ---------------------------------------------------------------------------

def wasserstein_1d(a, b, p: float = 2.0):
    """p-Wasserstein distance between two 1-D sample lists of equal length.

    The lists are paired by rank after sorting, which realizes the optimal
    coupling between equal-size empirical distributions.  Each list must be a
    non-empty flat vector, and lists of unequal length raise ``ValueError``
    naming both sizes.  ``p`` must be finite and at least 1.

    A float for an array ``a``; for a DiffValue ``a``, the same value as one
    tape node differentiable in ``a``: the sort permutation is fixed (stable,
    so ties break by index) and the p-th root takes subgradient 0 when the
    distance is exactly zero.
    """
    _check_order(p)
    on_tape = isinstance(a, DiffValue)
    x = a.value if on_tape else np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, v in (("a", x), ("b", b)):
        if v.ndim != 1 or v.size == 0:
            who = "differentiable path expects" if on_tape else "wasserstein_1d expects"
            raise ValueError(f"{who} a non-empty flat vector as {name}, got shape {v.shape}")
    if x.size != b.size:
        raise ValueError(f"need equal sample counts, got {x.size} and {b.size}")
    perm = np.argsort(x, kind="stable")
    gap = np.take(x, perm) - np.sort(b)
    dist = np.abs(gap)
    inv = 1.0 / x.size
    mean_pow = np.power(dist, p).sum() * inv
    value = np.power(mean_pow, 1.0 / p)
    if not on_tape:
        return float(value)

    def vjp(g):
        if mean_pow == 0.0:
            return (np.zeros(x.size),)
        g_pow = g * _power_slope(mean_pow, 1.0 / p) * inv
        g_gap = g_pow * _power_slope(dist, p) * np.sign(gap)
        return (ad._scatter_rows(g_gap, perm, x.size),)
    return DiffValue(value, (a,), vjp)


def _power_slope(x, e: float):
    """The slope e * x**(e - 1) of x**e, taken as 0 where it is not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = e * np.power(x, e - 1.0)
    return np.where(np.isfinite(slope), slope, 0.0)


def unif_reference(m: int) -> np.ndarray:
    """Uniform[0, 1] reference realized as m quantile-midpoint samples."""
    if m < 1:
        raise ValueError("need at least one reference sample")
    return (np.arange(1, m + 1) - 0.5) / m


# ---------------------------------------------------------------------------
# Geometric profile normalization
# ---------------------------------------------------------------------------

def normalize_delta(profile: HyperbolicityProfile) -> np.ndarray:
    """Scale profile values into [0, 1] by the maximum, ordered by node id.

    Dividing by the max (rather than min-max) keeps value 0 meaning "fully
    tree-like", matching the semantics of a selection weight near 0.  An
    all-zero profile maps to all zeros.
    """
    if not profile.per_node:
        raise ValueError("profile is empty")
    vals = profile.values_by_node()
    top = vals.max()
    return vals / top if top > 0 else np.zeros_like(vals)


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------

def _ids(x, what: str, bound: int, shape: tuple[int | None, ...]) -> np.ndarray:
    """``x`` as int64, once it is an integer array of ``shape`` (``None``: any
    length) whose entries lie in [0, ``bound``); else ``ValueError`` naming the fault."""
    a = np.asarray(x)
    if (a.dtype.kind not in "iu" or a.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, a.shape))):
        raise ValueError(f"{what} must be an integer array of shape "
                         f"{str(shape).replace('None', 'm')}, got {a.dtype} of shape {a.shape}")
    if a.min() < 0 or a.max() >= bound:
        at = tuple(int(i) for i in np.argwhere((a < 0) | (a >= bound))[0])
        raise ValueError(f"{what}[{', '.join(map(str, at))}] = {a[at]} is "
                         f"outside [0, {bound})")
    return a.astype(np.int64, copy=False)


def non_uniformity_loss(beta_r, beta_d) -> DiffValue:
    """Negative mean of (beta_r^2 + beta_d^2); in [-1, -0.5], minimized at 0/1.

    Each weight is a parent twice, once per factor of its square, and takes
    the two halves of its gradient as two values, as from a product node.
    """
    beta_r, beta_d = ad.as_diff(beta_r), ad.as_diff(beta_d)
    r, d = beta_r.value, beta_d.value
    squares = r * r + d * d
    inv = 1.0 / squares.size

    def vjp(g):
        scale = -g * inv
        half_r, half_d = scale * r, scale * d
        return half_r, half_r, half_d, half_d
    return DiffValue(-(squares.sum() * inv), (beta_r, beta_r, beta_d, beta_d), vjp)


def cross_entropy_nc(logits, labels, mask) -> DiffValue:
    """Mean negative log-softmax probability of the true class over a node mask.

    ``mask`` holds node ids (rows of ``logits``) and ``labels`` one class id
    (column of ``logits``) per node.
    """
    logits = ad.as_diff(logits)
    n, num_classes = logits.shape
    if np.asarray(mask).size == 0:
        raise ValueError("mask must be non-empty")
    mask = _ids(mask, "mask", n, (None,))
    labels = _ids(labels, "labels", num_classes, (n,))[mask]
    rows = np.arange(mask.size)
    picked = np.take(logits.value, mask, axis=0)
    centered = picked - picked.max(axis=1, keepdims=True)
    ex = np.exp(centered)
    total = ex.sum(axis=1, keepdims=True)
    log_probs = centered[rows, labels] - np.log(total)[:, 0]
    inv = 1.0 / mask.size

    def vjp(g):
        g_true = -g * inv
        g_rows = (-g_true / total) * ex
        g_rows[rows, labels] += g_true
        return (ad._scatter_rows(g_rows, mask, n),)
    return DiffValue(-(log_probs.sum() * inv), (logits,), vjp)


def fermi_dirac_prob(d) -> np.ndarray:
    """Edge probability of each distance, strictly decreasing in it, in (0, 1)."""
    return ad._logistic((FERMI_R - np.asarray(d, dtype=np.float64)) / FERMI_T)


def _pair_distances(z: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row differences ``z[u] - z[v]`` of the pairs (u, v) and their Euclidean norms."""
    diff = np.take(z, pairs[:, 0], axis=0) - np.take(z, pairs[:, 1], axis=0)
    return diff, np.sqrt(np.sum(diff * diff, axis=-1))


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow; its slope is the logistic function."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def lp_loss(z, pos_edges, neg_edges) -> DiffValue:
    """Binary cross-entropy of the decoder over positive and negative pairs.

    Written with softplus so saturated probabilities stay finite, with
    x = (d - FERMI_R) / FERMI_T: -log P = softplus(x), -log (1 - P) = softplus(-x).
    Distances are Euclidean on the fused output embeddings; a pair at
    distance 0 takes subgradient 0.  Each edge set is an ``(m, 2)`` integer
    array of node ids.
    """
    z = ad.as_diff(z)
    n = z.shape[0]
    if np.asarray(pos_edges).size == 0 or np.asarray(neg_edges).size == 0:
        raise ValueError("both edge sets must be non-empty")
    sets = []     # per edge set: pairs, row differences, distances, sign, softplus input
    for what, edges, sign in (("positive pairs", pos_edges, 1.0),
                              ("negative pairs", neg_edges, -1.0)):
        pairs = _ids(edges, what, n, (None, 2))
        diff, d = _pair_distances(z.value, pairs)
        sets.append((pairs, diff, d, sign, sign * ((d - FERMI_R) * (1.0 / FERMI_T))))
    terms = np.concatenate([_softplus(x) for *_, x in sets])
    inv = 1.0 / terms.size

    def vjp(g):
        grad = None
        for pairs, diff, d, sign, x in sets:
            g_d = sign * ((g * inv) * ad._logistic(x)) * (1.0 / FERMI_T)
            g_diff = g_d[:, None] * diff / np.maximum(d, 1e-15)[:, None]
            for end, g_end in ((pairs[:, 0], g_diff), (pairs[:, 1], -g_diff)):
                part = ad._scatter_rows(g_end, end, n)
                grad = part if grad is None else grad + part
        return (grad,)
    return DiffValue(terms.sum() * inv, (z,), vjp)


def overall_loss(task: DiffValue,
                 beta_record: list[tuple[DiffValue, DiffValue]],
                 mu_samples: np.ndarray,
                 weights: LossWeights,
                 comparison_mode: str = "distribution") -> DiffValue:
    """Composite objective: task + omega_nu * L_nu + omega_was * alignment.

    The extra terms are computed per layer and averaged across layers.  A
    weight of exactly 0 removes its term from the computation entirely, so the
    ablated runs match a build without those terms to machine precision.
    Comparison modes: "distribution" (sorted rank pairing), "pairwise"
    (elementwise mean squared error without sorting), "mean" (squared
    difference of means).
    """
    if comparison_mode not in COMPARISON_MODES:
        raise ValueError(f"comparison_mode must be one of {COMPARISON_MODES}")
    if not beta_record:
        raise ValueError("beta record is empty")
    loss = task
    num_layers = float(len(beta_record))
    if weights.omega_nu > 0.0:
        nu_terms = [non_uniformity_loss(br, bd) for br, bd in beta_record]
        nu = nu_terms[0]
        for t in nu_terms[1:]:
            nu = ad.add(nu, t)
        loss = ad.add(loss, ad.mul(nu, weights.omega_nu / num_layers))
    if weights.omega_was > 0.0:
        mu = np.asarray(mu_samples, dtype=np.float64)
        terms = []
        for br, _ in beta_record:
            if br.value.size != mu.size:
                raise ValueError("beta and profile sample counts differ")
            if comparison_mode == "distribution":
                terms.append(wasserstein_1d(br, mu, weights.p))
            elif comparison_mode == "pairwise":
                diff = ad.sub(br, mu)
                terms.append(ad.mean_(ad.mul(diff, diff)))
            else:
                gap = ad.sub(ad.mean_(br), float(mu.mean()))
                terms.append(ad.mul(gap, gap))
        was = terms[0]
        for t in terms[1:]:
            was = ad.add(was, t)
        loss = ad.add(loss, ad.mul(was, weights.omega_was / num_layers))
    return loss
