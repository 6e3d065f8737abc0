"""Loss terms, decoders and the composite training objective.

The alignment term compares the model's per-node selection weights against
the normalized geometric profile with a 1-D p-Wasserstein distance computed
by rank-pairing sorted samples; the sort permutation is treated as constant
by the backward pass.  A non-uniformity term pushes each node's selection
weight pair away from (0.5, 0.5).
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
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"Wasserstein order p must be finite and >= 1, got {self.p}")


# ---------------------------------------------------------------------------
# 1-D Wasserstein
# ---------------------------------------------------------------------------

def wasserstein_1d(a, b, p: float = 2.0):
    """p-Wasserstein distance between two 1-D sample lists of equal length.

    The lists are paired by rank after sorting, which realizes the optimal
    coupling between equal-size empirical distributions.  Lists of unequal
    length raise ``ValueError`` naming both sizes.

    If ``a`` is a DiffValue the result is differentiable in ``a``: the sort
    permutation is fixed (stable, so ties break by index) and the p-th root
    takes subgradient 0 when the distance is exactly zero.
    """
    if isinstance(a, DiffValue):
        return _wasserstein_diff(a, b, p)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("sample lists must be non-empty")
    if a.size != b.size:
        raise ValueError(f"need equal sample counts, got {a.size} and {b.size}")
    diffs = np.abs(np.sort(a) - np.sort(b))
    return float(np.mean(diffs ** p) ** (1.0 / p))


def _wasserstein_diff(a: DiffValue, b, p: float) -> DiffValue:
    if a.value.ndim != 1 or a.value.size == 0:
        raise ValueError("differentiable path expects a non-empty flat vector")
    b_sorted = np.sort(np.asarray(b, dtype=np.float64))
    if b_sorted.size != a.value.size:
        raise ValueError(f"need equal sample counts, got {a.value.size} and {b_sorted.size}")
    perm = np.argsort(a.value, kind="stable")
    a_sorted = ad.gather_rows(a, perm)
    mean_pow = ad.mean_(ad.pow_const(ad.abs_(ad.sub(a_sorted, b_sorted)), p))
    if float(mean_pow.value) == 0.0:
        # Identical sorted lists: the distance is 0 and we take subgradient 0.
        return ad.mul(mean_pow, 0.0)
    return ad.pow_const(mean_pow, 1.0 / p)


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

def non_uniformity_loss(beta_r, beta_d) -> DiffValue:
    """Negative mean of (beta_r^2 + beta_d^2); in [-1, -0.5], minimized at 0/1."""
    beta_r, beta_d = ad.as_diff(beta_r), ad.as_diff(beta_d)
    return ad.neg(ad.mean_(ad.add(ad.mul(beta_r, beta_r), ad.mul(beta_d, beta_d))))


def cross_entropy_nc(logits, labels, mask) -> DiffValue:
    """Mean negative log-softmax probability of the true class over a node mask."""
    logits = ad.as_diff(logits)
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    labels = np.asarray(labels, dtype=np.int64)[mask]
    num_classes = logits.shape[1]
    picked = ad.gather_rows(logits, mask)
    shift = picked.value.max(axis=1, keepdims=True)  # constant, cancels in grad
    centered = ad.sub(picked, shift)
    lse = ad.log(ad.sum_(ad.exp(centered), axis=1, keepdims=True))
    log_probs = ad.sub(centered, lse)
    onehot = np.zeros((mask.size, num_classes))
    onehot[np.arange(mask.size), labels] = 1.0
    return ad.neg(ad.mean_(ad.sum_(ad.mul(log_probs, onehot), axis=1)))


def fermi_dirac_prob(d) -> np.ndarray:
    """Edge probability of each distance, strictly decreasing in it, in (0, 1)."""
    return ad._logistic((FERMI_R - np.asarray(d, dtype=np.float64)) / FERMI_T)


def _pair_distances(z: DiffValue, pairs: np.ndarray) -> DiffValue:
    diff = ad.sub(ad.gather_rows(z, pairs[:, 0]), ad.gather_rows(z, pairs[:, 1]))
    return ad.reshape(ad.vector_norm(diff), (pairs.shape[0],))


def lp_loss(z, pos_edges, neg_edges) -> DiffValue:
    """Binary cross-entropy of the decoder over positive and negative pairs.

    Written with softplus so saturated probabilities stay finite, with
    x = (d - FERMI_R) / FERMI_T: -log P = softplus(x), -log (1 - P) = softplus(-x).
    Distances are Euclidean on the fused output embeddings.
    """
    z = ad.as_diff(z)
    pos = np.asarray(pos_edges, dtype=np.int64)
    neg = np.asarray(neg_edges, dtype=np.int64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both edge sets must be non-empty")
    x_pos = ad.mul(ad.sub(_pair_distances(z, pos), FERMI_R), 1.0 / FERMI_T)
    x_neg = ad.mul(ad.sub(_pair_distances(z, neg), FERMI_R), 1.0 / FERMI_T)
    terms = ad.concat([ad.softplus(x_pos), ad.softplus(ad.neg(x_neg))])
    return ad.mean_(terms)


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
