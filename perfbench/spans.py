"""In-memory span tracing of jointspace layers, installed from outside the library.

``Tracer.install`` replaces public functions at the module attributes their
callers look up (``hyperbolicity.delta_inf``, ``layers.hgat_forward``, ...)
with wrappers that record one span per call: name, start, end and parent.
``Tracer.uninstall`` puts the originals back.  Spans stay in memory until
``Tracer.write`` dumps them.

Besides timing, the wrappers count work where it happens: k-hop ball sizes
and which estimator settled each ball, tree-certificate hits, profile-cache
hits and the number of autodiff tape nodes each branch records.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from jointspace import autodiff, graphs, hyperbolicity, layers, training

# (module or class, attribute, span name).  A function imported by name into
# another module is patched in every module that calls it, under one span name.
WRAPPED = (
    (hyperbolicity, "local_profile", "hyperbolicity.local_profile"),
    (training, "local_profile", "hyperbolicity.local_profile"),
    (hyperbolicity, "k_hop_subgraph", "graphs.k_hop_subgraph"),
    (hyperbolicity, "shortest_paths", "graphs.shortest_paths"),
    (hyperbolicity, "is_tree_metric", "hyperbolicity.is_tree_metric"),
    (hyperbolicity, "delta_inf", "hyperbolicity.delta_inf"),
    (hyperbolicity, "delta_one_exact", "hyperbolicity.delta_one_exact"),
    (hyperbolicity, "delta_one_sampled", "hyperbolicity.delta_one_sampled"),
    (training, "train", "training.train"),
    (training, "mu_profile", "training.mu_profile"),
    (layers, "joint_space_forward", None),  # named by its training flag
    (layers, "gat_forward", "layers.gat_forward"),
    (layers, "hgat_forward", "layers.hgat_forward"),
    (layers, "fusion_forward", "layers.fusion_forward"),
    (autodiff, "backward", "autodiff.backward"),
    (training, "overall_loss", "objectives.overall_loss"),
    (training, "lp_loss", "objectives.lp_loss"),
    (training, "sample_non_edges", "graphs.sample_non_edges"),
    (graphs, "sample_non_edges", "graphs.sample_non_edges"),
    (training.Adam, "step", "training.Adam.step"),
)

LAYERS = (
    "graphs.k_hop_subgraph",
    "graphs.shortest_paths",
    "hyperbolicity.is_tree_metric",
    "hyperbolicity.delta_inf",
    "hyperbolicity.delta_one_exact",
    "hyperbolicity.delta_one_sampled",
    "hyperbolicity.local_profile",
    "training.train",
    "training.mu_profile",
    "layers.forward_train",
    "layers.forward_eval",
    "layers.gat_forward",
    "layers.hgat_forward",
    "layers.fusion_forward",
    "autodiff.backward",
    "objectives.overall_loss",
    "objectives.lp_loss",
    "graphs.sample_non_edges",
    "training.Adam.step",
)

BALL_KINDS = ("degenerate", "tree", "exact", "sampled")

# How a ball's estimator call settles the ball when no tree certificate did.
_SETTLES = {
    "hyperbolicity.delta_inf": "exact",
    "hyperbolicity.delta_one_exact": "exact",
    "hyperbolicity.delta_one_sampled": "sampled",
}


def tape_size(outputs, inputs=()) -> int:
    """Tape nodes reachable from ``outputs`` through ``_parents``, not entering ``inputs``."""
    stop = {id(x) for x in inputs}
    seen: set[int] = set()
    stack = [o for o in outputs if isinstance(o, autodiff.DiffValue)]
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Span recorder plus the work counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.tree_checks = Counter()          # certificate result -> count
        self.cache = Counter()                # "hit" / "miss" -> count
        self.balls: list[list] = []           # [nodes, edges, kind]
        self.tape: dict[str, int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name or ("layers.forward_train" if kwargs.get("training")
                                 else "layers.forward_eval")
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span_name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent)
            self._count(span_name, index, args, kwargs, result)
            return result
        return traced

    # -- work counters ----------------------------------------------------

    def _count(self, name, index, args, kwargs, result) -> None:
        if name == "graphs.k_hop_subgraph":
            sub = result[0]
            kind = "degenerate" if sub.num_nodes < 4 else None
            self.balls.append([sub.num_nodes, sub.num_edges, kind])
        elif name == "hyperbolicity.is_tree_metric":
            self.tree_checks[bool(result)] += 1
            if result and self.balls and self.balls[-1][2] is None:
                self.balls[-1][2] = "tree"
        elif name in _SETTLES:
            if self.balls and self.balls[-1][2] is None:
                self.balls[-1][2] = _SETTLES[name]
        elif name == "training.mu_profile":
            child_names = {s[0] for s in self.spans[index + 1:] if s[3] == index}
            self.cache["miss" if "hyperbolicity.local_profile" in child_names
                       else "hit"] += 1
        elif name == "layers.gat_forward" and kwargs.get("training"):
            if "gat" not in self.tape:
                self.tape["gat"] = tape_size([result], args[:1])
        elif name == "layers.hgat_forward" and kwargs.get("training"):
            if "hgat" not in self.tape:
                self.tape["hgat"] = tape_size(result, args[:1])
        elif name == "autodiff.backward" and "total" not in self.tape:
            self.tape["total"] = tape_size(args[:1])

    # -- reduction --------------------------------------------------------

    def self_times(self) -> tuple[Counter, defaultdict]:
        """Per span name: call count and self time (duration minus direct children)."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return calls, self_s

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; calls and self time are per workload operation."""
        calls, self_s = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (calls[name] / ops, "count")
            out[f"{name}.self_s"] = (self_s[name] / ops, "s")
        out["hyperbolicity.is_tree_metric.hit_ratio"] = (
            _ratio(self.tree_checks[True], sum(self.tree_checks.values())), "ratio")
        out["training.mu_profile.cache_hit_ratio"] = (
            _ratio(self.cache["hit"], sum(self.cache.values())), "ratio")
        for branch in ("gat", "hgat", "total"):
            out[f"autodiff.tape_nodes.{branch}"] = (float(self.tape.get(branch, 0)), "count")
        n_balls = len(self.balls)
        out["balls.nodes_mean"] = (_ratio(sum(b[0] for b in self.balls), n_balls), "count")
        out["balls.edges_mean"] = (_ratio(sum(b[1] for b in self.balls), n_balls), "count")
        kinds = Counter(b[2] for b in self.balls)
        for kind in BALL_KINDS:
            out[f"balls.share_{kind}"] = (_ratio(kinds[kind], n_balls), "ratio")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write(self, path: Path, header: dict) -> None:
        """Dump the header and every span as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
