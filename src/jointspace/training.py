"""Training loop with early stopping, evaluation metrics, a multi-seed runner.

One run precomputes the geometric profile of the graph, trains the model
full-batch with adaptive moment estimation, early-stops on the validation
metric, restores the best checkpoint and reports test performance plus the
learned-hyperbolicity diagnostics.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .graphs import (WeightedGraph, graph_hash, sample_non_edges, split_edges,
                     split_nodes)
from .hyperbolicity import (DELTA_MODES, HyperbolicityProfile, local_profile,
                            profile_from_json, profile_to_json)
from .layers import JointSpaceGNN
from .objectives import (COMPARISON_MODES, LossWeights, _pair_distances,
                         cross_entropy_nc, fermi_dirac_prob, lp_loss,
                         normalize_delta, overall_loss, unif_reference,
                         wasserstein_1d)

__all__ = [
    "MAX_MODEL_SIZE",
    "MAX_ACTIVATION_ELEMENTS",
    "TrainingDiverged",
    "TrainConfig",
    "RunReport",
    "Adam",
    "mu_profile",
    "train",
    "evaluate_nc",
    "evaluate_lp",
    "run_seeds",
    "synthetic_nc_graph",
    "synthetic_lp_tree",
]

_MIN_CURVATURE = 1e-4
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Largest ``layers``, ``hidden`` and ``q_dim`` a config may ask for: a larger
# value fails here, by name, not in numpy's allocation or a float overflow.
MAX_MODEL_SIZE = 2**16
# Largest activation array a layer may need (512 MiB of float64): E x width
# over the message graph's E attention edges, and n x q_dim in the fusion.
MAX_ACTIVATION_ELEMENTS = 2**26


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite."""


def _is_number(x, kinds=(int, float)) -> bool:
    """Whether ``x`` is an instance of ``kinds`` other than a bool; unless
    ``kinds`` is ``int``, it must also convert to a finite float."""
    return (isinstance(x, kinds) and not isinstance(x, bool)
            and (kinds is int or abs(x) <= sys.float_info.max))


def _tuples(x):
    """``x`` with every list in it, at any depth, turned into a tuple."""
    if isinstance(x, list):
        return tuple(_tuples(v) for v in x)
    if isinstance(x, dict):
        return {k: _tuples(v) for k, v in x.items()}
    return x


class _JsonRecord:
    """JSON codec of a dataclass: ``to_json`` writes ``asdict``, ``from_json`` reads it.

    ``from_json`` turns JSON arrays back into tuples, at any depth.  A
    non-object, unknown keys and missing required keys raise ``ValueError``
    naming the keys and the record, which each subclass names in ``_json_name``.
    """

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"{cls._json_name} JSON must be an object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls._json_name} keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in obj
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing {cls._json_name} keys: {', '.join(missing)}")
        return cls(**_tuples(obj))


@dataclass(frozen=True)
class TrainConfig(_JsonRecord):
    """Everything one training run depends on; JSON round-trippable."""

    _json_name = "config"

    task: str = "nc"                      # "nc" or "lp"
    layers: int = 2
    hidden: int = 16
    lr: float = 0.01
    dropout: float = 0.0
    omega_nu: float = 0.1
    omega_was: float = 0.1
    k: int = 2                            # hop radius for the geometric profile
    q_dim: int = 16
    curvature: float = 1.0
    trainable_curvature: bool = False
    patience: int = 100
    max_epochs: int = 1000
    seed: int = 0
    split_fractions: tuple[float, float, float] | None = None
    comparison_mode: str = "distribution"  # "distribution" | "pairwise" | "mean"
    metric: str = "accuracy"              # "accuracy" | "f1" (nc); lp uses AUC
    delta_mode: str = "inf"
    weight_decay: float = 0.0
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        # A bool, int or float field must hold the type of its default.
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind is bool and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
            if kind is int and not _is_number(value, int):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if kind is float and not _is_number(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        fr = self.split_fractions
        if fr is not None and not (isinstance(fr, tuple) and len(fr) == 3
                                   and all(_is_number(x) for x in fr)):
            raise ValueError("split_fractions must be null or three finite numbers, "
                             f"got {fr!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(f"cache_dir must be a string, got {self.cache_dir!r}")
        for name, choices in (("task", ("nc", "lp")),
                              ("comparison_mode", COMPARISON_MODES),
                              ("metric", ("accuracy", "f1")),
                              ("delta_mode", DELTA_MODES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {', '.join(choices)}; "
                                 f"got {getattr(self, name)!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        for name in ("layers", "hidden", "lr", "k", "q_dim", "curvature",
                     "patience", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("layers", "hidden", "q_dim"):
            if getattr(self, name) > MAX_MODEL_SIZE:
                raise ValueError(f"{name} must be at most {MAX_MODEL_SIZE}, "
                                 f"got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name in ("omega_nu", "omega_was", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        if self.split_fractions is not None:
            return self.split_fractions
        return (0.6, 0.2, 0.2) if self.task == "nc" else (0.85, 0.05, 0.10)


@dataclass(frozen=True)
class RunReport(_JsonRecord):
    """Outcome of one training run; test metric comes from the best-val checkpoint."""

    _json_name = "run report"

    best_val_metric: float
    test_metric: float
    epoch_of_best: int
    epochs_run: int
    loss_trace: tuple[float, ...]
    beta_samples: tuple[tuple[float, ...], ...]   # per layer, per node
    w2_nu_unif: float
    w2_nu_mu: float
    config: dict
    wall_time: float

    def __post_init__(self) -> None:
        for name in ("best_val_metric", "test_metric", "w2_nu_unif", "w2_nu_mu",
                     "wall_time"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, "
                                 f"got {getattr(self, name)!r}")
        for name in ("epoch_of_best", "epochs_run"):
            if not _is_number(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (isinstance(self.loss_trace, tuple)
                and all(_is_number(x) for x in self.loss_trace)):
            raise ValueError("loss_trace must be a list of finite numbers")
        rows = self.beta_samples
        if not (isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
                and len({len(r) for r in rows}) <= 1
                and all(_is_number(b) and 0.0 <= b <= 1.0 for r in rows for b in r)):
            raise ValueError("beta_samples must be equal-length rows of numbers "
                             "in [0, 1]")
        if not isinstance(self.config, dict):
            raise ValueError(f"config must be an object, got {self.config!r}")
        # The config must parse as a TrainConfig, which names a bad field; {} is
        # the default config.
        TrainConfig.from_json(json.dumps(self.config))


class Adam:
    """Adaptive moment estimation over DiffValue leaves."""

    def __init__(self, params: list[ad.DiffValue], lr: float = 0.01,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr, self.weight_decay = lr, weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - _ADAM_BETA1 ** self.t
        b2c = 1.0 - _ADAM_BETA2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            self.m[i] = _ADAM_BETA1 * self.m[i] + (1.0 - _ADAM_BETA1) * g
            self.v[i] = _ADAM_BETA2 * self.v[i] + (1.0 - _ADAM_BETA2) * g * g
            p.value = p.value - self.lr * (self.m[i] / b1c) / (
                np.sqrt(self.v[i] / b2c) + _ADAM_EPS)


# ---------------------------------------------------------------------------
# The cached geometric profile
# ---------------------------------------------------------------------------

def mu_profile(g: WeightedGraph, k: int, mode: str = "inf",
               cache_dir: str | None = None) -> HyperbolicityProfile:
    """Local profile of the graph, cached on disk keyed by (hash, k, mode).

    The cache file is written to a temporary file in the same directory and
    renamed into place, so a reader never sees a half-written profile.  A
    cached profile of another ``k`` or ``mode``, or one that does not hold
    one value for each node 0..n-1 of ``g``, raises ``ValueError`` naming
    the file.
    """
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"{graph_hash(g)}_k{k}_{mode}.json"
        if cache_path.exists():
            try:
                profile = profile_from_json(cache_path.read_text())
            except ValueError as exc:
                raise ValueError(f"profile cache {cache_path}: {exc}") from exc
            if (profile.k, profile.mode) != (k, mode):
                raise ValueError(f"profile cache {cache_path}: holds k={profile.k} "
                                 f"mode={profile.mode!r}, but k={k} mode={mode!r} "
                                 "was asked for")
            if len(profile.per_node) != g.num_nodes:
                raise ValueError(f"profile cache {cache_path}: {len(profile.per_node)} "
                                 f"values for a graph of {g.num_nodes} nodes")
            return profile
    profile = local_profile(g, k, mode)
    if cache_path is not None:
        text = profile_to_json(profile)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, cache_path)
        except BaseException:
            os.unlink(tmp)
            raise
    return profile


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def evaluate_nc(logits: np.ndarray, labels: np.ndarray, mask,
                metric: str = "accuracy") -> float:
    """Accuracy or F1 over the masked nodes.

    F1 is the binary positive-class score for 2 classes; otherwise it is
    micro-averaged, which for single-label predictions equals accuracy.
    """
    if metric not in ("accuracy", "f1"):
        raise ValueError("metric must be 'accuracy' or 'f1'")
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    preds = np.argmax(np.asarray(logits), axis=1)[mask]
    truth = np.asarray(labels)[mask]
    classes = np.unique(np.asarray(labels)) if metric == "f1" else ()
    if len(classes) == 2:
        positive = int(classes.max())
        tp = float(np.sum((preds == positive) & (truth == positive)))
        fp = float(np.sum((preds == positive) & (truth != positive)))
        fn = float(np.sum((preds != positive) & (truth == positive)))
        return 2.0 * tp / max(2.0 * tp + fp + fn, 1e-12)
    return float(np.mean(preds == truth))


def evaluate_lp(scores: np.ndarray, truth: np.ndarray) -> float:
    """ROC-AUC via the rank statistic; tied scores get average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    num_pos = int(truth.sum())
    num_neg = truth.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise ValueError("AUC needs both positive and negative examples")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    # Runs of equal scores; != keeps equal infinities together and each NaN apart.
    start = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    count = np.diff(np.append(start, s.size))
    ranks = np.empty(truth.size)
    ranks[order] = np.repeat(start + (count - 1) / 2.0 + 1.0, count)
    pos_rank_sum = float(ranks[truth].sum())
    return (pos_rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class _Best:
    """Best validation point so far and the parameters it was scored at."""

    metric: float = -math.inf
    loss: float = math.inf
    epoch: int = 0
    state: dict[str, np.ndarray] | None = None

    def update(self, scored: tuple[float, float], epoch: int,
               model: JointSpaceGNN) -> None:
        # A strictly better metric improves; an equal metric with strictly
        # lower validation loss also counts (small validation sets saturate).
        metric, loss = scored
        if metric > self.metric or (metric == self.metric and loss < self.loss):
            self.metric, self.loss, self.epoch = metric, loss, epoch
            self.state = model.state_dict()


def train(g: WeightedGraph, cfg: TrainConfig, return_model: bool = False):
    """Train one model; returns a RunReport, or ``(report, model)``.

    A graph without features trains on the n-wide one-hot ``np.eye(n)``.  A
    run whose layer activations would exceed ``MAX_ACTIVATION_ELEMENTS`` is
    rejected before anything large is built: the one-hot, the model or the
    profile.  The geometric profile is computed once, after the model, so
    the model's parameter bound is also checked first.  Validation is checked
    every epoch; training stops ``patience`` epochs after the last strict
    improvement or at ``max_epochs``, whichever is first, and the test metric
    is evaluated only at the restored best checkpoint.  One branch on the task
    sets the seeded split of ``cfg.fractions``, the message graph (for link
    prediction, the training edges only), the training task loss and
    ``score``, which returns a part's metric and that same task loss on it;
    the loss breaks ties in the validation metric.

    Each epoch's validation scores the parameters its optimizer step wrote.
    At ``dropout == 0`` the next epoch's training forward runs at exactly
    those parameters with no mask and no rng draw, so validation is read from
    that forward's output and only the last epoch runs an eval forward of its
    own.  With dropout, every epoch runs one.  After the restore, one eval
    forward gives both the test metric and the recorded selection weights.
    """
    t_start = time.monotonic()
    if cfg.task == "nc":
        if g.labels is None:
            raise ValueError("node classification requires labels on the graph")
        labels = g.labels
        negative = np.flatnonzero(labels < 0)
        if negative.size:
            v = int(negative[0])
            raise ValueError(f"node {v} has negative label {int(labels[v])}; "
                             "labels must be class ids >= 0")
        out_dim = int(labels.max()) + 1
        if out_dim > MAX_MODEL_SIZE:
            v = int(np.argmax(labels))
            raise ValueError(f"node {v} has label {int(labels[v])}; class ids must "
                             f"be below MAX_MODEL_SIZE ({MAX_MODEL_SIZE})")
        split = split_nodes(g, cfg.fractions, cfg.seed)
        msg_graph = g

        def task_loss(z, rng):
            return cross_entropy_nc(z, labels, split.train)

        def score(z, part):
            mask = getattr(split, part)
            return (evaluate_nc(z.value, labels, mask, cfg.metric),
                    float(cross_entropy_nc(z, labels, mask).value))
    else:
        split = split_edges(g, cfg.fractions, cfg.seed)
        out_dim = cfg.hidden
        msg_graph = WeightedGraph(num_nodes=g.num_nodes,
                                  edges=tuple(g.edges[i] for i in split.train))
        pos = {part: g.edge_index[getattr(split, part)] for part in ("train", "val", "test")}
        neg = {"val": split.val_neg, "test": split.test_neg}

        def task_loss(z, rng):
            return lp_loss(z, pos["train"], sample_non_edges(g, len(pos["train"]), rng))

        def score(z, part):
            pairs = (pos[part], neg[part])
            probs = [fermi_dirac_prob(_pair_distances(z, e).value) for e in pairs]
            truth = np.concatenate([np.ones(len(pairs[0])), np.zeros(len(pairs[1]))])
            return (evaluate_lp(np.concatenate(probs), truth),
                    float(lp_loss(z, *pairs).value))

    # Attention runs over both directions of each edge plus a self loop per node.
    num_attention = 2 * msg_graph.num_edges + msg_graph.num_nodes
    in_dim = g.num_nodes if g.features is None else g.features.shape[1]
    width = max(in_dim, cfg.hidden, out_dim)
    if max(num_attention * width, g.num_nodes * cfg.q_dim) > MAX_ACTIVATION_ELEMENTS:
        raise ValueError(
            f"a layer over {num_attention} attention edges at width {width} "
            f"({num_attention * width} elements) and {g.num_nodes} nodes at q_dim "
            f"{cfg.q_dim} ({g.num_nodes * cfg.q_dim} elements) is beyond "
            f"MAX_ACTIVATION_ELEMENTS ({MAX_ACTIVATION_ELEMENTS})")
    features = np.eye(g.num_nodes) if g.features is None else g.features
    model = JointSpaceGNN(
        in_dim=in_dim, hidden_dim=cfg.hidden, out_dim=out_dim,
        num_layers=cfg.layers, q_dim=cfg.q_dim, curvature=cfg.curvature,
        trainable_curvature=cfg.trainable_curvature, seed=cfg.seed)
    profile = mu_profile(msg_graph, cfg.k, cfg.delta_mode, cfg.cache_dir)
    mu = normalize_delta(profile)
    weights = LossWeights(cfg.omega_nu, cfg.omega_was)
    opt = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)

    forward_is_eval = cfg.dropout == 0.0
    loss_trace: list[float] = []
    best = _Best()
    for epoch in range(1, cfg.max_epochs + 1):
        rng_epoch = np.random.default_rng([cfg.seed, epoch])
        out, record = model.forward(msg_graph, features, training=True,
                                    dropout=cfg.dropout, rng=rng_epoch)
        if forward_is_eval and epoch > 1:
            # The previous epoch's validation, before this epoch's step.
            best.update(score(out.z, "val"), epoch - 1, model)
            if epoch - 1 - best.epoch >= cfg.patience:
                break
        loss = overall_loss(task_loss(out.z, rng_epoch),
                            [(r.beta_r, r.beta_d) for r in record],
                            mu, weights, cfg.comparison_mode)
        loss_value = float(loss.value)
        if not math.isfinite(loss_value):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        ad.backward(loss)
        opt.step()
        if cfg.trainable_curvature:
            for lp in model.layers:
                lp.hgat.curvature.value = np.maximum(
                    lp.hgat.curvature.value, _MIN_CURVATURE)
        loss_trace.append(loss_value)

        if not forward_is_eval or epoch == cfg.max_epochs:
            # Scored inline, so no name holds the eval tape into the next epoch.
            best.update(score(model.forward(msg_graph, features, training=False)[0].z,
                              "val"), epoch, model)
            if epoch - best.epoch >= cfg.patience:
                break
    del out, record, loss   # free the last training tape

    if best.state is not None:
        model.load_state_dict(best.state)
    out, record = model.forward(msg_graph, features, training=False)
    test_metric, _ = score(out.z, "test")
    beta_samples = tuple(tuple(float(b) for b in r.beta_r.value) for r in record)
    w2_unif, w2_mu = _beta_diagnostics(beta_samples, mu)

    report = RunReport(
        best_val_metric=float(best.metric),
        test_metric=float(test_metric),
        epoch_of_best=best.epoch,
        epochs_run=len(loss_trace),
        loss_trace=tuple(loss_trace),
        beta_samples=beta_samples,
        w2_nu_unif=w2_unif,
        w2_nu_mu=w2_mu,
        config=asdict(cfg),
        wall_time=time.monotonic() - t_start,
    )
    if return_model:
        return report, model
    return report


# ---------------------------------------------------------------------------
# Diagnostics and seeds
# ---------------------------------------------------------------------------

def _beta_diagnostics(beta_samples, mu: np.ndarray) -> tuple[float, float]:
    """Distance of the learned selection weights from uniform and from the profile.

    Per-node weights from the first two layers (all layers for shallower
    models) are averaged before comparing.
    """
    betas = np.asarray(beta_samples[:2])
    avg = betas.mean(axis=0)
    w2_unif = wasserstein_1d(avg, unif_reference(avg.size), 2.0)
    w2_mu = wasserstein_1d(avg, mu, 2.0)
    return float(w2_unif), float(w2_mu)


def run_seeds(g: WeightedGraph, cfg: TrainConfig, seeds: list[int]) -> dict:
    """Repeat a configuration across seeds; report mean and std of the metrics."""
    if not seeds:
        raise ValueError("need at least one seed")
    reports = [train(g, replace(cfg, seed=s)) for s in seeds]
    tests = np.array([r.test_metric for r in reports])
    vals = np.array([r.best_val_metric for r in reports])
    return {
        "seeds": list(seeds),
        "test_mean": float(tests.mean()),
        "test_std": float(tests.std(ddof=1)) if len(seeds) > 1 else 0.0,
        "val_mean": float(vals.mean()),
        "val_std": float(vals.std(ddof=1)) if len(seeds) > 1 else 0.0,
        "reports": reports,
    }


# ---------------------------------------------------------------------------
# Synthetic task
# ---------------------------------------------------------------------------

def synthetic_nc_graph(seed: int = 0) -> WeightedGraph:
    """Reference combined graph with planted two-class labels.

    Lattice nodes are class 0 and tree nodes class 1; features are 8-wide
    class indicators plus N(0, 0.4**2) noise, so the task is learnable but
    not trivial.
    """
    from .graphs import reference_combined_graph

    g = reference_combined_graph()
    labels = np.array([0] * 25 + [1] * 15, dtype=np.int64)
    rng = np.random.default_rng(seed)
    features = rng.normal(scale=0.4, size=(g.num_nodes, 8))
    features[np.arange(g.num_nodes), labels] += 1.0
    return g.with_features(features).with_labels(labels)


def synthetic_lp_tree(depth: int = 4, seed: int = 0) -> WeightedGraph:
    """Balanced binary tree with planar-layout coordinates as node features.

    Each node's 8 features are N(0, 0.05**2) noise, and the leading two also
    hold its position in a radial drawing of the tree (radius = depth, angle
    = center of its subtree's angular wedge), so features correlate with
    proximity the way attribute vectors do in real link-prediction benchmarks.
    """
    from .graphs import generate_tree

    g = generate_tree(2, depth)
    n = g.num_nodes
    children: dict[int, list[int]] = {v: [] for v in range(n)}
    depths = np.zeros(n, dtype=np.int64)
    for u, v, _ in g.edges:
        children[u].append(v)
        depths[v] = depths[u] + 1

    coords = np.zeros((n, 2))
    def place(v: int, lo: float, hi: float) -> None:
        angle = (lo + hi) / 2.0
        r = float(depths[v])
        coords[v] = (r * math.cos(angle), r * math.sin(angle))
        kids = children[v]
        for i, ch in enumerate(kids):
            width = (hi - lo) / len(kids)
            place(ch, lo + i * width, lo + (i + 1) * width)
    place(0, 0.0, 2.0 * math.pi)

    rng = np.random.default_rng(seed)
    features = rng.normal(scale=0.05, size=(n, 8))
    features[:, :2] += coords
    return g.with_features(features)
