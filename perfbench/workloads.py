"""The benchmark workloads: seeded inputs, one measured operation, output checks.

A workload turns a seed into inputs (``setup``), runs one user-level
operation on them (``run``: a whole ``local_profile`` or a whole ``train``),
says how much work the operation did (``work``), tells whether two outputs
are the same (``same``) and checks an output against an independent
reference (``check``).  Library functions are looked up on their modules at
call time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jointspace import graphs, hyperbolicity, training
from jointspace.graphs import WeightedGraph

CHECKED_NODES = 32     # seeded node sample compared with the naive oracle
SAMPLED_TOLERANCE = 5  # standard errors allowed between sampled and exact values


def lattice_tree_graph(rows: int, cols: int, weights: tuple[float, ...],
                       rng: np.random.Generator, depth: int = 5) -> WeightedGraph:
    """A rows x cols lattice glued to the root of tree(3, depth) at a seeded lattice node.

    Each lattice edge weight is drawn from ``weights``; tree edges and the glue
    edge keep unit weight.
    """
    lattice = graphs.generate_lattice(rows, cols)
    drawn = rng.choice(np.asarray(weights, dtype=np.float64), size=lattice.num_edges)
    lattice = WeightedGraph(
        lattice.num_nodes,
        tuple((u, v, float(w)) for (u, v, _), w in zip(lattice.edges, drawn)))
    glue = int(rng.integers(lattice.num_nodes))
    return graphs.generate_combined(lattice, graphs.generate_tree(3, depth), (glue, 0))


# ---------------------------------------------------------------------------
# Naive four-point oracle
# ---------------------------------------------------------------------------

def naive_delta(d: np.ndarray) -> tuple[float, float]:
    """(max, mean) of the four-point defect over all n^4 ordered vertex quadruples."""
    n = d.shape[0]
    worst, total = 0.0, 0.0
    for x in range(n):
        # Axes are (y, z, t) for the fixed x.
        s1 = d[x][:, None, None] + d[None, :, :]     # d(x,y) + d(z,t)
        s2 = d[x][None, :, None] + d[:, None, :]     # d(x,z) + d(y,t)
        s3 = d[:, :, None] + d[x][None, None, :]     # d(z,y) + d(x,t)
        tau = np.maximum(0.0, (s1 - np.maximum(s2, s3)) / 2.0)
        worst = max(worst, float(tau.max()))
        total += float(tau.sum())
    return worst, total / float(n) ** 4


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileState:
    graph: WeightedGraph
    seed: int


@dataclass(frozen=True)
class ProfileWorkload:
    """``local_profile`` of a lattice glued to a tree."""

    rows: int
    cols: int
    weights: tuple[float, ...]
    k: int
    mode: str
    exact_limit: int = hyperbolicity.DEFAULT_EXACT_LIMIT

    def setup(self, seed: int, workdir: Path) -> ProfileState:
        g = lattice_tree_graph(self.rows, self.cols, self.weights,
                               np.random.default_rng(seed))
        # Warm-up: the same code paths on a small graph of the same family.
        small = lattice_tree_graph(4, 4, self.weights, np.random.default_rng(seed), depth=2)
        self._profile(small, seed)
        return ProfileState(g, seed)

    def _profile(self, g: WeightedGraph, seed: int):
        return hyperbolicity.local_profile(g, self.k, self.mode,
                                           exact_limit=self.exact_limit, seed=seed)

    def run(self, state: ProfileState):
        return self._profile(state.graph, state.seed)

    def work(self, out) -> int:
        return len(out.per_node)

    def same(self, a, b) -> bool:
        return a == b

    def check(self, state: ProfileState, out) -> tuple[bool, float]:
        """Compare a seeded node sample with the naive oracle.

        Returns (all agree, share that agrees).  Exactly computed values must
        equal the oracle; sampled ``one`` values must lie within
        ``SAMPLED_TOLERANCE`` standard errors of ``delta_one_exact``.
        """
        g = state.graph
        rng = np.random.default_rng([state.seed, 1])
        nodes = rng.choice(g.num_nodes, size=min(CHECKED_NODES, g.num_nodes),
                           replace=False)
        agree = sum(self._node_agrees(g, int(v), out.per_node[int(v)])
                    for v in nodes)
        return agree == len(nodes), agree / len(nodes)

    def _node_agrees(self, g: WeightedGraph, v: int, value: float) -> bool:
        sub, _ = graphs.k_hop_subgraph(g, v, self.k)
        if sub.num_nodes < 4:
            return value == 0.0
        dm = graphs.shortest_paths(sub)
        worst, mean = naive_delta(dm.d)
        if self.mode == "inf":
            return value == worst
        if sub.num_nodes <= self.exact_limit or mean == 0.0:
            return math.isclose(value, mean, rel_tol=1e-9, abs_tol=1e-12)
        exact = hyperbolicity.delta_one_exact(dm, exact_limit=sub.num_nodes)
        _, se = hyperbolicity.delta_one_sampled(dm, seed=v)
        return (math.isclose(exact, mean, rel_tol=1e-9, abs_tol=1e-12)
                and abs(value - exact) <= SAMPLED_TOLERANCE * se)


@dataclass(frozen=True)
class TrainState:
    graph: WeightedGraph
    config: training.TrainConfig


@dataclass(frozen=True)
class TrainWorkload:
    """``train`` with early stopping disabled and the profile read from the cache."""

    task: str
    epochs: int
    dropout: float

    def graph(self, seed: int) -> WeightedGraph:
        if self.task == "lp":
            return training.synthetic_lp_tree(depth=6, seed=seed)
        rng = np.random.default_rng(seed)
        g = lattice_tree_graph(30, 30, (1.0,), rng)
        labels = (np.arange(g.num_nodes) >= 900).astype(np.int64)  # lattice 0, tree 1
        features = rng.normal(size=(g.num_nodes, 16))
        features[np.arange(g.num_nodes), labels] += 1.0
        return g.with_features(features).with_labels(labels)

    def setup(self, seed: int, workdir: Path) -> TrainState:
        cfg = training.TrainConfig(
            task=self.task, layers=2, hidden=16, dropout=self.dropout,
            max_epochs=self.epochs, patience=self.epochs + 1, seed=seed,
            cache_dir=str(workdir / "profile-cache"))
        g = self.graph(seed)
        # Warm-up: one epoch, which also writes the profile cache.
        training.train(g, dataclasses.replace(cfg, max_epochs=1))
        return TrainState(g, cfg)

    def run(self, state: TrainState):
        return training.train(state.graph, state.config)

    def work(self, out) -> int:
        return out.epochs_run

    def same(self, a, b) -> bool:
        return (dataclasses.replace(a, wall_time=0.0)
                == dataclasses.replace(b, wall_time=0.0))

    def check(self, state: TrainState, out) -> tuple[bool, float]:
        """Loss finite in every epoch; the quality figure is the test metric."""
        finite = all(math.isfinite(x) for x in out.loss_trace)
        return finite and math.isfinite(out.test_metric), out.test_metric


WORKLOADS = {
    "profile-inf": ProfileWorkload(30, 30, (1.0,), k=2, mode="inf"),
    "profile-avg": ProfileWorkload(20, 20, (1.0, 2.0), k=3, mode="one", exact_limit=20),
    "train-nc": TrainWorkload("nc", epochs=50, dropout=0.3),
    "train-lp": TrainWorkload("lp", epochs=100, dropout=0.0),
}
