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
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import DistanceMatrix, WeightedGraph, _k_hop_balls, _path_metric_stack
# Not called here: perfbench's tracer looks these two up on this module.
from .graphs import k_hop_subgraph, shortest_paths  # noqa: F401

__all__ = [
    "DELTA_MODES",
    "MAX_HISTOGRAM_BINS",
    "CrossComponentError",
    "ExactLimitExceeded",
    "HyperbolicityProfile",
    "Histogram",
    "is_tree_metric",
    "delta_inf",
    "delta_one_exact",
    "delta_one_sampled",
    "local_profile",
    "histogram",
    "profile_to_json",
    "profile_from_json",
]

DELTA_MODES = ("inf", "one")
DEFAULT_EXACT_LIMIT = 60
DEFAULT_NUM_SAMPLES = 100_000
_SAMPLE_CHUNK = 8192
# Elements in one stacked array: a chunk of equal-size balls holds at most this
# many distances (or one ball, if larger), and one block of the pruned pair walk
# at most this many candidates.  Large enough that numpy's per-call overhead is
# shared by dozens of small balls; small enough that the temporaries (64 KB
# each) add little to the peak memory of a caller that keeps many profiles.
_STACK_ELEMENTS = 1 << 13
# Centers whose k-hop balls ``local_profile`` extracts together: enough to share
# numpy's per-call overhead, few enough that the block's arrays stay small.
_CENTER_BLOCK = 128
# Most bins ``histogram`` builds; a width that would need more is rejected.
MAX_HISTOGRAM_BINS = 10**6


class CrossComponentError(ValueError):
    """Raised when a metric spans more than one connected component."""


class ExactLimitExceeded(ValueError):
    """Raised when the exact average-variant enumeration would be too large."""


class _NodeValues(Mapping):
    """Read-only ``node -> value`` mapping over one float64 array for nodes 0..n-1."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    def __getitem__(self, node) -> float:
        try:
            i = operator.index(node)
        except TypeError:
            raise KeyError(node) from None
        if not 0 <= i < self.array.shape[0]:
            raise KeyError(node)
        return float(self.array[i])

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.array.shape[0]))

    def __len__(self) -> int:
        return self.array.shape[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, _NodeValues):
            return bool(np.array_equal(self.array, other.array))
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(zip(range(len(self)), self.array.tolist())))


def _node_array(per_node: Mapping) -> np.ndarray:
    """Read-only float64 array of ``per_node``, whose keys must be exactly 0..n-1."""
    if isinstance(per_node, _NodeValues):
        return per_node.array
    n = len(per_node)
    expected = range(n)
    if any(node not in expected for node in per_node):
        missing = next(i for i in expected if i not in per_node)
        unexpected = next(node for node in per_node if node not in expected)
        raise ValueError(f"profile nodes must be exactly 0..{n - 1}: "
                         f"no value for node {missing}, unexpected node {unexpected!r}")
    values = np.array([per_node[i] for i in expected], dtype=np.float64)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class HyperbolicityProfile:
    """Per-node local hyperbolicity values over k-hop subgraphs.

    ``per_node`` may be given as any mapping whose keys are exactly the node
    ids 0..n-1; it is stored as a read-only mapping over one float64 array,
    which ``values_by_node`` returns without copying.  ``k`` is an int >= 1,
    not a bool.
    """

    per_node: Mapping[int, float]
    k: int
    mode: str  # "inf" or "one"

    def __post_init__(self) -> None:
        if self.mode not in DELTA_MODES:
            raise ValueError(f"mode must be 'inf' or 'one', got {self.mode!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        values = _node_array(self.per_node)
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError("hyperbolicity values must be finite and nonnegative")
        object.__setattr__(self, "per_node", _NodeValues(values))

    def values_by_node(self) -> np.ndarray:
        """Read-only values ordered by node id (the profile's own array)."""
        return self.per_node.array


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
# Shared metric helpers
# ---------------------------------------------------------------------------

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
    enumeration.  This is ``_tree_mask`` on a stack of one; ``delta_inf`` and
    ``local_profile`` run that same kernel on whole stacks before enumerating.
    """
    _require_connected(dm)
    if dm.num_nodes < 3:
        return True
    return bool(_tree_mask(dm.d[None])[0])


def _tree_mask(d: np.ndarray) -> np.ndarray:
    """``is_tree_metric`` of each metric in a ``(B, n, n)`` stack, as a bool array.

    Metrics leave the stack at the first ``z`` that violates the condition,
    so non-tree metrics cost little more than a certified tree.
    """
    tree = np.ones(d.shape[0], dtype=bool)
    open_ = np.arange(d.shape[0])
    gp = (d[:, 0, :, None] + d[:, 0, None, :] - d) / 2.0
    lower = np.empty_like(gp)
    for z in range(d.shape[1]):
        np.minimum(gp[:, :, z, None], gp[:, None, z, :], out=lower)
        bad = (lower > gp).any(axis=(1, 2))
        if bad.any():
            tree[open_[bad]] = False
            open_, gp = open_[~bad], gp[~bad]
            if not open_.size:
                break
            lower = np.empty_like(gp)
    return tree


# ---------------------------------------------------------------------------
# Worst-case variant
# ---------------------------------------------------------------------------

def delta_inf(dm: DistanceMatrix) -> float:
    """Supremum of the four-point defect over all vertex quadruples.

    Computed as max(0, (S1 - S2) / 2) over unordered quadruples, where
    S1 >= S2 >= S3 are the three pairwise-sum pairings; this equals the
    supremum of tau over ordered tuples (tuples with repeats never exceed it).
    This is ``_delta_inf_stack`` on a stack of one: a tree certificate, then
    a walk over pairs of pairs, farthest first, in which every candidate
    evaluated is a lower bound and a pruning lemma bounds the others.
    """
    _require_connected(dm)
    if dm.num_nodes < 4:
        return 0.0
    return float(_delta_inf_stack(dm.d[None])[0])


def _delta_inf_stack(d: np.ndarray) -> np.ndarray:
    """``delta_inf`` of each connected metric in a ``(B, n, n)`` stack, n >= 4.

    Pairs are sorted by distance, farthest first.  Any pair-pair (a, c) gives
    d(a) + d(c) less the larger other pairing sum of its quadruple: twice the
    quadruple's defect if its own sum is the largest, else <= 0, so every
    evaluated candidate is a lower bound.  The rest are bounded by tau <=
    min(d(p1), d(p2)) / 2 (Cohen, Coudert and Lancin, ACM JEA 2015): only
    columns c below ``cut``, the number of pairs farther apart than 2 * best,
    can beat best.  Tree metrics, certified by ``_tree_mask``, get 0.  The
    others walk in lockstep: each block evaluates rows a..a+R-1 of every live
    metric against columns a+1 .. max(cut)-1, R filling ``_STACK_ELEMENTS``
    candidates.  A metric stops once ``cut <= a + 1`` or best reaches half
    its diameter, which bounds every defect, so it gets its exact maximum
    whatever else is in the stack.
    """
    out = np.zeros(d.shape[0])
    walking = np.flatnonzero(~_tree_mask(d))
    if not walking.size:
        return out
    d = d[walking] if walking.size < d.shape[0] else d
    n = d.shape[1]
    flat = d.reshape(-1)
    iu, ju = _pair_indices(n)
    pd = d[:, iu, ju]
    order = np.argsort(-pd, axis=1, kind="stable")
    pd = pd.ravel()[order + np.arange(0, pd.size, iu.size)[:, None]].reshape(pd.shape)
    xs, ys = iu[order], ju[order]  # endpoints of each metric's sorted pairs
    base = np.arange(0, flat.size, n * n)[:, None, None]  # offset of the metric in flat
    cut = (pd > 0.0).sum(axis=1)
    best, cap = np.zeros(walking.size), pd[:, 0] / 2.0
    a = 0  # first row of the next block, the same for every metric
    while True:
        keep = (cut > a + 1) & (best < cap)
        if not keep.all():
            out[walking[~keep]] = best[~keep]
            if not keep.any():
                return out
            walking, base, xs, ys, pd, cut, best, cap = (
                v[keep] for v in (walking, base, xs, ys, pd, cut, best, cap))
        hi = int(cut.max())
        rows = max(1, min(hi - a - 1, _STACK_ELEMENTS // (walking.size * (hi - a - 1))))
        r, c = slice(a, a + rows), slice(a + 1, hi)
        x, y = xs[:, r, None] * n + base, ys[:, r, None] * n + base  # rows d[x], d[y]
        bi, bj = xs[:, None, c], ys[:, None, c]
        idx = x + bi
        s1 = flat[idx]
        np.add(y, bj, out=idx)
        s1 += flat[idx]
        np.add(x, bj, out=idx)
        s2 = flat[idx]
        np.add(y, bi, out=idx)
        s2 += flat[idx]
        np.maximum(s1, s2, out=s1)
        np.add(pd[:, r, None], pd[:, None, c], out=s2)
        m = np.subtract(s2, s1, out=s1).reshape(walking.size, -1).max(axis=1) / 2.0
        rose = np.flatnonzero((m > best) & (m < cap))  # cut only matters below cap
        np.maximum(best, m, out=best)
        cut[rose] = (pd[rose] > 2.0 * best[rose, None]).sum(axis=1)
        a += rows


# ---------------------------------------------------------------------------
# Average variant
# ---------------------------------------------------------------------------

def delta_one_exact(dm: DistanceMatrix,
                    exact_limit: int = DEFAULT_EXACT_LIMIT) -> float:
    """Mean four-point defect over all n^4 ordered vertex quadruples.

    This is ``_delta_one_stack`` on a stack of one, so a metric the tree
    certificate accepts gets exactly 0, float-weighted ones included, and
    not round-off noise.
    """
    _require_connected(dm)
    n = dm.num_nodes
    if n > exact_limit:
        raise ExactLimitExceeded(
            f"n={n} exceeds exact enumeration limit {exact_limit}; "
            "use delta_one_sampled instead")
    if n < 4:
        return 0.0
    return float(_delta_one_stack(dm.d[None])[0])


def _delta_one_stack(d: np.ndarray) -> np.ndarray:
    """``delta_one_exact`` of each connected metric in a ``(B, n, n)`` stack, n >= 4.

    An unordered quadruple stands for 24 ordered tuples, 8 per pairing, and
    only the 8 of the largest pairing sum S1 have a positive defect,
    (S1 - S2) / 2 against the second largest; tuples with a repeat have none.
    So the mean is 4/n^4 times the sum of S1 - S2 over a < b < c < e.  Tree
    metrics, certified by ``_tree_mask``, get 0.  The others loop over b,
    taking all a < b at once against the pairs c < e above b, a suffix of
    ``_pair_indices``.  Each metric's sum runs in C order over its own rows,
    so it is the same whatever else is in the stack.
    """
    out = np.zeros(d.shape[0])
    live = np.flatnonzero(~_tree_mask(d))
    if not live.size:
        return out
    d = d[live]
    n = d.shape[1]
    iu, ju = _pair_indices(n)
    total = np.zeros(live.size)
    for b in range(1, n - 2):
        start = int(np.searchsorted(iu, b + 1))  # the first pair above b
        c, e = iu[start:], ju[start:]
        ab_ce = np.add(d[:, :b, b, None], d[:, None, c, e], order="C")
        ac_be = np.add(d[:, :b, c], d[:, None, b, e], order="C")
        ae_bc = np.add(d[:, :b, e], d[:, None, b, c], order="C")
        top = np.maximum(ab_ce, ac_be)
        mid = np.minimum(ab_ce, ac_be, out=ab_ce)
        np.maximum(mid, np.minimum(top, ae_bc, out=ac_be), out=mid)
        np.maximum(top, ae_bc, out=top)
        top -= mid
        total += top.reshape(live.size, -1).sum(axis=1)
    out[live] = 4.0 * total / float(n) ** 4
    return out


def delta_one_sampled(dm: DistanceMatrix,
                      num_samples: int = DEFAULT_NUM_SAMPLES,
                      seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of the mean defect over uniform ordered quadruples.

    Returns (estimate, standard error).  Samples are drawn in fixed-size
    chunks from counter-based Philox streams keyed by (seed, chunk index), so
    the result depends only on ``seed`` and ``num_samples``.
    One generator serves every chunk: setting its state to the chunk's key
    and a zero counter starts the stream ``Philox(key=...)`` would, without
    the OS entropy each construction draws and the key then overrides.
    """
    _require_connected(dm)
    if num_samples < 100:
        raise ValueError("num_samples must be at least 100")
    n = dm.num_nodes
    d = dm.d.ravel()
    total = 0.0
    total_sq = 0.0
    drawn = 0
    chunk_index = 0
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    while drawn < num_samples:
        m = min(_SAMPLE_CHUNK, num_samples - drawn)
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                      "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}
        idx = rng.integers(0, n, size=(4, m))
        x, y, z, t = idx
        xn, yn, zn = x * n, y * n, z * n
        s1 = d[xn + y] + d[zn + t]
        s2 = d[xn + z] + d[yn + t]
        s3 = d[zn + y] + d[xn + t]
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

def local_profile(g: WeightedGraph, k: int, mode: str = "inf",
                  exact_limit: int = DEFAULT_EXACT_LIMIT,
                  seed: int = 0) -> HyperbolicityProfile:
    """Per-node hyperbolicity of each k-hop induced subgraph's path metric.

    Distances are computed within the subgraph, not the ambient graph.  Nodes
    whose subgraph has fewer than 4 vertices get value 0 (all quadruples
    degenerate).  The balls come from one array breadth-first search per
    block of centers (``_ball_stacks``) and are processed in stacks of equal
    size: one Floyd-Warshall, one tree certificate and one kernel per stack
    (the pruned far-pair walk for "inf", the exact quadruple sum for "one"),
    each giving every ball exactly the value a call on that ball alone
    gives.  In "one" mode, non-tree balls above ``exact_limit`` nodes go one
    by one to the sampled estimator: ``DEFAULT_NUM_SAMPLES`` draws, seeded by (seed, node).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in DELTA_MODES:
        raise ValueError(f"mode must be 'inf' or 'one', got {mode!r}")
    values = np.zeros(g.num_nodes)
    for centers, d in _ball_stacks(g, k):
        if mode == "inf":
            values[centers] = _delta_inf_stack(d)
        elif d.shape[1] <= exact_limit:
            values[centers] = _delta_one_stack(d)
        else:
            for i in np.flatnonzero(~_tree_mask(d)):
                v = int(centers[i])  # an np.int64 would make the seed overflow its uint64 mask
                values[v], _ = delta_one_sampled(
                    DistanceMatrix(d[i]), DEFAULT_NUM_SAMPLES, seed=seed * 1_000_003 + v)
    values.setflags(write=False)
    return HyperbolicityProfile(per_node=_NodeValues(values), k=k, mode=mode)


def _ball_stacks(g: WeightedGraph, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(centers, d)``: the path metrics of the k-hop balls of ``centers``.

    Balls come from ``_k_hop_balls``, ``_CENTER_BLOCK`` centers at a time.
    Balls of fewer than 4 nodes are skipped.  The rest are grouped by node
    count n, and each group is cut into ``(B, n, n)`` stacks of at most
    ``_STACK_ELEMENTS`` distances, which ``_path_metric_stack`` fills straight
    from the edge arrays; a stack is yielded as soon as it fills.  A group
    waiting for more balls holds arrays of its own edges only, not views of a
    whole block's.
    """
    pending: dict[int, tuple] = {}  # n -> (centers, edges per ball, u, v, w)
    for start in range(0, g.num_nodes, _CENTER_BLOCK):
        centers = np.arange(start, min(start + _CENTER_BLOCK, g.num_nodes))
        offsets, _, (ball, u, v, w) = _k_hop_balls(g, centers, k)
        sizes = np.diff(offsets)
        per_ball = np.bincount(ball, minlength=centers.size)
        for n in (np.flatnonzero(np.bincount(sizes)[4:]) + 4).tolist():
            sel = sizes == n
            on = sel[ball]
            group = (centers[sel], per_ball[sel], u[on], v[on], w[on])
            if n in pending:
                group = tuple(map(np.concatenate, zip(pending.pop(n), group)))
            cap = max(1, _STACK_ELEMENTS // (n * n))
            while group[0].size >= cap:
                head, group = _split(group, cap)
                yield _stack(n, *head)
            if group[0].size:
                pending[n] = group
    for n, group in pending.items():
        yield _stack(n, *group)


def _split(group: tuple, count: int) -> tuple[tuple, tuple]:
    """The first ``count`` balls of a group and the rest."""
    centers, per_ball, u, v, w = group
    cut = int(per_ball[:count].sum())
    return ((centers[:count], per_ball[:count], u[:cut], v[:cut], w[:cut]),
            (centers[count:], per_ball[count:], u[cut:], v[cut:], w[cut:]))


def _stack(n: int, centers, per_ball, u, v, w) -> tuple[np.ndarray, np.ndarray]:
    ball = np.repeat(np.arange(centers.size), per_ball)
    return centers, _path_metric_stack(centers.size, n, ball, u, v, w)


def histogram(values, bin_width: float = 0.5) -> Histogram:
    """Counts of nonnegative ``values``, in any order, in half-open bins from 0.

    ``values`` is typically ``profile.values_by_node()``.  The default width
    0.5 suits integer-weighted graphs, where defects are multiples of 1/2.
    A width that would need more than ``MAX_HISTOGRAM_BINS`` (10**6) bins to
    reach the largest value raises ``ValueError`` naming the width.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be finite and positive, got {bin_width}")
    samples = np.asarray(values, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("histogram needs at least one value")
    bad = np.flatnonzero(~(np.isfinite(samples) & (samples >= 0)))
    if bad.size:
        raise ValueError("histogram values must be finite and nonnegative, "
                         f"got {samples[bad[0]]} at position {bad[0]}")
    top = samples.max() // bin_width
    if top >= MAX_HISTOGRAM_BINS:
        raise ValueError(f"bin_width {bin_width} needs more than {MAX_HISTOGRAM_BINS} "
                         f"bins to reach {samples.max()}")
    nbins = int(top) + 1
    idx = np.minimum((samples // bin_width).astype(int), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    edges = tuple(i * bin_width for i in range(nbins + 1))
    return Histogram(bin_edges=edges, counts=tuple(int(c) for c in counts))


def profile_to_json(profile: HyperbolicityProfile) -> str:
    return json.dumps({
        "k": profile.k,
        "mode": profile.mode,
        "delta": {str(v): x for v, x in enumerate(profile.values_by_node().tolist())},
    })


def profile_from_json(text: str) -> HyperbolicityProfile:
    """Read ``profile_to_json`` output; any other shape raises ``ValueError``.

    Nothing is coerced: ``k`` must be an int, each node id written as
    ``str(int)`` writes it, and each node value an int or float.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("delta"), dict):
        raise ValueError("profile JSON must be an object whose 'delta' is an object")
    for v, x in obj["delta"].items():
        if not (v.isdecimal() and str(int(v)) == v):
            raise ValueError(f"profile JSON: {v!r} is not a node id")
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"profile JSON: node {v} has value {x!r}, not a number")
    try:
        per_node = {int(v): float(x) for v, x in obj["delta"].items()}
        return HyperbolicityProfile(per_node=per_node, k=obj.get("k"), mode=obj.get("mode"))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"profile JSON: {exc}") from exc
