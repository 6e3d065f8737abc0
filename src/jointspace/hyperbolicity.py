"""Four-point hyperbolicity of finite path metrics.

For a quadruple (x, y, z, t) the defect

    tau = max(0, [d(x,y) + d(z,t) - max(d(x,z) + d(y,t), d(z,y) + d(x,t))] / 2)

is the least slack making the four-point condition hold for that tuple.  The
worst-case variant ``delta_inf`` is the supremum of tau over vertex quadruples
and the average variant ``delta_one`` is the expectation over uniform ordered
quadruples drawn with replacement.  Local profiles apply either variant to the
path metric of each node's k-hop induced subgraph.

Quadruples range over vertices only; interior points of edges are not
enumerable and vertex restriction matches how the histograms are normally
produced.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import DistanceMatrix, WeightedGraph, k_hop_subgraph, shortest_paths

__all__ = [
    "CrossComponentError",
    "ExactLimitExceeded",
    "HyperbolicityProfile",
    "EmpiricalDistribution",
    "Histogram",
    "four_point_tau",
    "is_tree_metric",
    "delta_inf",
    "delta_one_exact",
    "delta_one_sampled",
    "local_profile",
    "to_distribution",
    "histogram",
    "profile_to_json",
    "profile_from_json",
]

DEFAULT_EXACT_LIMIT = 60
DEFAULT_NUM_SAMPLES = 100_000
_SAMPLE_CHUNK = 8192


class CrossComponentError(ValueError):
    """Raised when a quadruple spans more than one connected component."""


class ExactLimitExceeded(ValueError):
    """Raised when the exact average-variant enumeration would be too large."""


@dataclass(frozen=True)
class HyperbolicityProfile:
    """Per-node local hyperbolicity values over k-hop subgraphs."""

    per_node: dict[int, float]
    k: int
    mode: str  # "inf" or "one"

    def __post_init__(self) -> None:
        if self.mode not in ("inf", "one"):
            raise ValueError(f"mode must be 'inf' or 'one', got {self.mode!r}")
        if any(v < 0 for v in self.per_node.values()):
            raise ValueError("hyperbolicity values must be nonnegative")

    def values_by_node(self) -> np.ndarray:
        """Values ordered by node id."""
        return np.array([self.per_node[v] for v in sorted(self.per_node)])


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample list representing an empirical distribution."""

    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("empirical distribution needs at least one sample")
        object.__setattr__(self, "samples", tuple(sorted(float(s) for s in self.samples)))


@dataclass(frozen=True)
class Histogram:
    """Half-open bins [edge_i, edge_{i+1}) with per-bin counts."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w") as fh:
            fh.write("bin_left,bin_right,count\n")
            for i, c in enumerate(self.counts):
                fh.write(f"{self.bin_edges[i]},{self.bin_edges[i + 1]},{c}\n")


# ---------------------------------------------------------------------------
# Quadruple defect
# ---------------------------------------------------------------------------

def four_point_tau(dm: DistanceMatrix, x: int, y: int, z: int, t: int) -> float:
    """Four-point defect of one ordered quadruple (repeats allowed)."""
    ids = (x, y, z, t)
    for a in ids:
        for b in ids:
            if not dm.reachable[a, b]:
                raise CrossComponentError(
                    f"nodes {a} and {b} lie in different components")
    d = dm.d
    s1 = d[x, y] + d[z, t]
    s2 = d[x, z] + d[y, t]
    s3 = d[z, y] + d[x, t]
    return max(0.0, (s1 - max(s2, s3)) / 2.0)


def _require_connected(dm: DistanceMatrix) -> None:
    if not dm.connected:
        raise CrossComponentError(
            "metric spans multiple components; restrict to one component first")


@functools.lru_cache(maxsize=128)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``, shared by every metric of size n."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


# ---------------------------------------------------------------------------
# Tree-metric certificate
# ---------------------------------------------------------------------------

def is_tree_metric(dm: DistanceMatrix) -> bool:
    """Exact zero-hyperbolicity certificate via based Gromov products.

    With gp[x,y] = (d[x,w] + d[y,w] - d[x,y]) / 2 at a fixed base w, the
    condition gp[x,y] >= min(gp[x,z], gp[z,y]) for all x, y, z holds with zero
    slack iff the metric embeds in a real tree, in which case every four-point
    defect is zero.  Cost is O(n^3) vectorized, far below quadruple
    enumeration, so this is used as a fast path by the delta computations.
    """
    _require_connected(dm)
    n = dm.num_nodes
    if n < 3:
        return True
    d = dm.d
    gp = (d[0, :][:, None] + d[0, :][None, :] - d) / 2.0
    for z in range(n):
        lower = np.minimum.outer(gp[:, z], gp[z, :])
        if (lower - gp).max() > 0.0:
            return False
    return True


# ---------------------------------------------------------------------------
# Worst-case variant
# ---------------------------------------------------------------------------

def delta_inf(dm: DistanceMatrix) -> float:
    """Supremum of the four-point defect over all vertex quadruples.

    Computed as max(0, (S1 - S2) / 2) over unordered quadruples, where
    S1 >= S2 >= S3 are the three pairwise-sum pairings; this equals the
    supremum of tau over ordered tuples (tuples with repeats never exceed it).
    The enumeration walks pair-pairs with the farthest pair outermost, prunes
    with tau <= min(d(p1), d(p2)) / 2 and stops early once the diameter / 2
    upper bound is attained.
    """
    _require_connected(dm)
    n = dm.num_nodes
    if n < 4:
        return 0.0
    if is_tree_metric(dm):
        return 0.0
    d = dm.d

    iu, ju = _pair_indices(n)
    pd = d[iu, ju]
    order = np.argsort(-pd, kind="stable")
    iu, ju, pd = iu[order], ju[order], pd[order]
    num_pairs = pd.shape[0]

    diam_cap = pd[0] / 2.0
    best = 0.0
    for a in range(num_pairs - 1):
        if pd[a] / 2.0 <= best:
            break
        # Inner pairs are sorted descending; ones with pd <= 2*best cannot win.
        cut = int(np.searchsorted(-pd, -2.0 * best, side="left"))
        if cut <= a + 1:
            break
        x, y = int(iu[a]), int(ju[a])
        bi, bj = iu[a + 1:cut], ju[a + 1:cut]
        cand = pd[a] + pd[a + 1:cut] - np.maximum(
            d[x, bi] + d[y, bj], d[x, bj] + d[y, bi])
        m = cand.max() / 2.0
        if m > best:
            best = float(m)
            if best >= diam_cap:
                break
    return max(0.0, best)


# ---------------------------------------------------------------------------
# Average variant
# ---------------------------------------------------------------------------

def delta_one_exact(dm: DistanceMatrix,
                    exact_limit: int = DEFAULT_EXACT_LIMIT) -> float:
    """Mean four-point defect over all n^4 ordered vertex quadruples.

    Tuples with a repeated vertex have zero defect and each distinct
    unordered quadruple accounts for 24 ordered tuples, 8 per pairing, of
    which only the largest-sum pairing contributes.  The mean therefore
    reduces to 8/n^4 times the sum of max(0, (S_p - max others) / 2) over
    unordered disjoint pair-pairs, which is what is enumerated here.
    """
    _require_connected(dm)
    n = dm.num_nodes
    if n > exact_limit:
        raise ExactLimitExceeded(
            f"n={n} exceeds exact enumeration limit {exact_limit}; "
            "use delta_one_sampled instead")
    if n < 4:
        return 0.0
    if is_tree_metric(dm):
        return 0.0
    d = dm.d
    iu, ju = _pair_indices(n)
    pd = d[iu, ju]
    num_pairs = pd.shape[0]

    total = 0.0
    block = max(1, (1 << 21) // max(num_pairs, 1))
    for start in range(0, num_pairs, block):
        stop = min(start + block, num_pairs)
        bi, bj, bd = iu[start:stop], ju[start:stop], pd[start:stop]
        cross1 = d[np.ix_(bi, iu)].copy()
        cross1 += d[bj, :][:, ju]
        cross2 = d[np.ix_(bi, ju)]
        cross2 = cross2 + d[bj, :][:, iu]
        cand = bd[:, None] + pd[None, :] - np.maximum(cross1, cross2)
        # Keep strictly-upper pair indices so each unordered pairing counts once;
        # pairings sharing a vertex contribute nonpositive candidates anyway.
        cols = np.arange(num_pairs)[None, :]
        rows = np.arange(start, stop)[:, None]
        np.clip(cand, 0.0, None, out=cand)
        cand[cols <= rows] = 0.0
        total += float(cand.sum())
    return 4.0 * total / float(n) ** 4


def delta_one_sampled(dm: DistanceMatrix,
                      num_samples: int = DEFAULT_NUM_SAMPLES,
                      seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of the mean defect over uniform ordered quadruples.

    Returns (estimate, standard error).  Samples are drawn in fixed-size
    chunks from counter-based Philox streams keyed by (seed, chunk index), so
    the result is independent of how chunks are scheduled across workers.
    """
    _require_connected(dm)
    if num_samples < 100:
        raise ValueError("num_samples must be at least 100")
    n = dm.num_nodes
    d = dm.d
    total = 0.0
    total_sq = 0.0
    drawn = 0
    chunk_index = 0
    while drawn < num_samples:
        m = min(_SAMPLE_CHUNK, num_samples - drawn)
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        idx = rng.integers(0, n, size=(4, m))
        x, y, z, t = idx
        s1 = d[x, y] + d[z, t]
        s2 = d[x, z] + d[y, t]
        s3 = d[z, y] + d[x, t]
        tau = np.maximum(0.0, (s1 - np.maximum(s2, s3)) / 2.0)
        total += float(tau.sum())
        total_sq += float((tau * tau).sum())
        drawn += m
        chunk_index += 1
    mean = total / num_samples
    var = max(0.0, (total_sq - num_samples * mean * mean) / max(num_samples - 1, 1))
    return mean, math.sqrt(var / num_samples)


# ---------------------------------------------------------------------------
# Local profiles and distributions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _node_ids(n: int) -> tuple[int, ...]:
    """``tuple(range(n))``, shared by every profile of an n-node graph."""
    return tuple(range(n))


def local_profile(g: WeightedGraph, k: int, mode: str = "inf",
                  exact_limit: int = DEFAULT_EXACT_LIMIT,
                  num_samples: int = DEFAULT_NUM_SAMPLES,
                  seed: int = 0) -> HyperbolicityProfile:
    """Per-node hyperbolicity of each k-hop induced subgraph's path metric.

    Distances are computed within the subgraph, not the ambient graph.  Nodes
    whose subgraph has fewer than 4 vertices get value 0 (all quadruples
    degenerate).  In "one" mode, subgraphs above ``exact_limit`` fall back to
    the sampled estimator with a seed derived from (seed, node).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("inf", "one"):
        raise ValueError(f"mode must be 'inf' or 'one', got {mode!r}")
    per_node: dict[int, float] = {}
    # Keys come from one shared tuple per graph size, and each distinct value
    # is stored as one float object (profiles repeat few values, multiples of
    # 1/2 on integer weights), so a profile a caller keeps costs little more
    # than its dict.
    shared: dict[float, float] = {}
    for v in _node_ids(g.num_nodes):
        sub, _ = k_hop_subgraph(g, v, k)
        if sub.num_nodes < 4:
            value = 0.0
        else:
            dm = shortest_paths(sub)
            if mode == "inf":
                value = delta_inf(dm)
            elif sub.num_nodes <= exact_limit:
                # delta_one_exact certifies tree metrics itself.
                value = delta_one_exact(dm, exact_limit)
            elif is_tree_metric(dm):
                value = 0.0
            else:
                value, _ = delta_one_sampled(dm, num_samples,
                                             seed=seed * 1_000_003 + v)
        per_node[v] = shared.setdefault(value, value)
    return HyperbolicityProfile(per_node=per_node, k=k, mode=mode)


def to_distribution(profile: HyperbolicityProfile) -> EmpiricalDistribution:
    """Empirical distribution (sorted samples) of a profile's values."""
    if not profile.per_node:
        raise ValueError("profile is empty")
    return EmpiricalDistribution(samples=tuple(profile.per_node.values()))


def histogram(dist: EmpiricalDistribution, bin_width: float = 0.5) -> Histogram:
    """Histogram with half-open bins anchored at 0.

    The default width 0.5 suits integer-weighted graphs, where defects are
    multiples of 1/2.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    samples = np.asarray(dist.samples)
    nbins = int(samples.max() // bin_width) + 1
    idx = np.minimum((samples // bin_width).astype(int), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    edges = tuple(i * bin_width for i in range(nbins + 1))
    return Histogram(bin_edges=edges, counts=tuple(int(c) for c in counts))


def profile_to_json(profile: HyperbolicityProfile) -> str:
    return json.dumps({
        "k": profile.k,
        "mode": profile.mode,
        "delta": {str(v): profile.per_node[v] for v in sorted(profile.per_node)},
    })


def profile_from_json(text: str) -> HyperbolicityProfile:
    obj = json.loads(text)
    return HyperbolicityProfile(
        per_node={int(k): float(v) for k, v in obj["delta"].items()},
        k=int(obj["k"]),
        mode=obj["mode"],
    )
