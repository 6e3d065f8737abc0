"""Shared builders and independent oracles used across the test suite.

The oracles here deliberately re-derive results by brute force (full
enumeration, exhaustive couplings) so they stay independent of the library
code paths they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from jointspace.graphs import DistanceMatrix, WeightedGraph, shortest_paths
from jointspace.hyperbolicity import delta_inf


def cycle_graph(n: int, w: float = 1.0) -> WeightedGraph:
    return WeightedGraph(num_nodes=n,
                         edges=tuple((i, (i + 1) % n, w) for i in range(n)))


def path_graph(n: int, weights=None) -> WeightedGraph:
    if weights is None:
        weights = [1.0] * (n - 1)
    return WeightedGraph(num_nodes=n,
                         edges=tuple((i, i + 1, weights[i]) for i in range(n - 1)))


def star_graph(leaves: int) -> WeightedGraph:
    return WeightedGraph(num_nodes=leaves + 1,
                         edges=tuple((0, i, 1.0) for i in range(1, leaves + 1)))


def random_tree(rng: np.random.Generator, n: int) -> WeightedGraph:
    """Uniform random-attachment tree with unit weights."""
    edges = tuple((int(rng.integers(0, i)), i, 1.0) for i in range(1, n))
    return WeightedGraph(num_nodes=n, edges=edges)


def random_connected_graph(rng: np.random.Generator, n: int, p: float = 0.45,
                           w_lo: float = 0.5, w_hi: float = 2.0) -> WeightedGraph:
    """Random weighted graph forced connected by a random spanning path."""
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges[(i, j)] = float(rng.uniform(w_lo, w_hi))
    perm = rng.permutation(n)
    for a, b in zip(perm[:-1], perm[1:]):
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[(int(key[0]), int(key[1]))] = float(rng.uniform(w_lo, w_hi))
    return WeightedGraph(num_nodes=n,
                         edges=tuple((u, v, w) for (u, v), w in edges.items()))


def random_halfint_graph(rng: np.random.Generator, n: int,
                         p: float = 0.45) -> WeightedGraph:
    """Random connected graph with half-integer weights.

    Path sums of half-integers are exact in binary floating point, so both
    the library and the naive oracle compute dust-free values and bit-exact
    comparisons are meaningful.
    """
    choices = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges[(i, j)] = float(rng.choice(choices))
    perm = rng.permutation(n)
    for a, b in zip(perm[:-1], perm[1:]):
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[(int(key[0]), int(key[1]))] = float(rng.choice(choices))
    return WeightedGraph(num_nodes=n,
                         edges=tuple((u, v, w) for (u, v), w in edges.items()))


def two_core(g: WeightedGraph) -> tuple[list[int], tuple]:
    """The 2-core of ``g`` by a plain loop: its node ids, ascending, and its edges.

    Nodes of degree 0 or 1 among those left are removed, round by round,
    until none is left; the edges between the rest are renumbered by
    position in the id list and keep their order in ``g.edges``.
    """
    alive = set(range(g.num_nodes))
    while True:
        degree = dict.fromkeys(alive, 0)
        for a, b, _ in g.edges:
            if a in alive and b in alive:
                degree[a] += 1
                degree[b] += 1
        low = {v for v, deg in degree.items() if deg <= 1}
        if not low:
            break
        alive -= low
    ids = sorted(alive)
    new = {v: i for i, v in enumerate(ids)}
    return ids, tuple((new[a], new[b], w) for a, b, w in g.edges if a in new and b in new)


def core_delta_inf(g: WeightedGraph) -> float:
    """``delta_inf`` of the path metric of ``g``'s 2-core, found by ``two_core``."""
    ids, edges = two_core(g)
    if len(ids) < 4:
        return 0.0
    return delta_inf(shortest_paths(WeightedGraph(len(ids), edges)))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def naive_delta_inf(dm: DistanceMatrix) -> float:
    """Unpruned enumeration over unordered quadruples, median by sorting."""
    d = dm.d
    n = d.shape[0]
    best = 0.0
    for x, y, z, t in itertools.combinations(range(n), 4):
        sums = sorted((d[x, y] + d[z, t], d[x, z] + d[y, t], d[x, t] + d[y, z]))
        tau = (sums[2] - sums[1]) / 2.0
        if tau > best:
            best = tau
    return best


def ordered_sup_tau(dm: DistanceMatrix) -> float:
    """Supremum of the ordered-tuple defect over all n^4 tuples (vectorized)."""
    d = dm.d
    n = d.shape[0]
    best = 0.0
    idx = np.arange(n)
    for x in range(n):
        for y in range(n):
            s1 = d[x, y] + d  # (z, t) grid
            s2 = d[x, :][:, None] + d[y, :][None, :]
            s3 = d[y, :][:, None] + d[x, :][None, :]
            tau = (s1 - np.maximum(s2, s3)) / 2.0
            best = max(best, float(tau.max()))
    return max(0.0, best)


def ordered_mean_tau(dm: DistanceMatrix) -> float:
    """Mean ordered-tuple defect over all n^4 tuples (vectorized)."""
    d = dm.d
    n = d.shape[0]
    total = 0.0
    for x in range(n):
        for y in range(n):
            s1 = d[x, y] + d
            s2 = d[x, :][:, None] + d[y, :][None, :]
            s3 = d[y, :][:, None] + d[x, :][None, :]
            tau = np.maximum(0.0, (s1 - np.maximum(s2, s3)) / 2.0)
            total += float(tau.sum())
    return total / float(n) ** 4


def exhaustive_coupling_wasserstein(a, b, p: float) -> float:
    """Optimal transport between equal-size empirical distributions by
    enumerating all permutation couplings."""
    a, b = list(a), list(b)
    assert len(a) == len(b) <= 8
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        cost = sum(abs(a[i] - b[j]) ** p for i, j in enumerate(perm)) / len(a)
        best = min(best, cost)
    return best ** (1.0 / p)
