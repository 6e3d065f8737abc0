"""Weighted undirected graphs: ingestion, path metric, subgraphs, generators, splits.

Graphs are simple (no self-loops, no parallel edges) with strictly positive
edge weights.  Node ids are dense integers ``0..num_nodes-1``.  All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import RowIndex

__all__ = [
    "MAX_NODES",
    "MAX_TOTAL_WEIGHT",
    "GraphValidationError",
    "EdgeListParseError",
    "SplitError",
    "WeightedGraph",
    "DistanceMatrix",
    "SplitSpec",
    "EdgeSplitSpec",
    "load_edge_list",
    "load_features_csv",
    "load_labels_csv",
    "save_edge_list",
    "shortest_paths",
    "k_hop_subgraph",
    "generate_lattice",
    "generate_tree",
    "generate_combined",
    "reference_combined_graph",
    "split_nodes",
    "split_edges",
    "graph_hash",
]


# Largest node count and total edge weight of a graph; see ``WeightedGraph``.
MAX_NODES = 2**24
MAX_TOTAL_WEIGHT = 1e150


class GraphValidationError(ValueError):
    """Raised when a graph violates the simple-graph invariants."""


class EdgeListParseError(ValueError):
    """Raised for faulty input files; names the file and any offending line."""


class SplitError(ValueError):
    """Raised when a split cannot give every part at least one element."""


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected simple graph with positive edge weights.

    ``num_nodes`` may not exceed ``MAX_NODES`` (2**24), or a
    ``GraphValidationError`` names it: every node gets rows in dense per-node
    arrays (adjacency offsets, features, labels, profiles), so a stray huge
    id would otherwise allocate without bound, and the ball search's
    ``(center, node)`` keys, below n**2 = 2**48, stay exact in int64.
    ``edges`` holds canonicalized ``(u, v, w)`` triples with ``u < v``, whose
    total weight T may not exceed ``MAX_TOTAL_WEIGHT`` (1e150), or a
    ``GraphValidationError`` names T.  So no distance overflows: a shortest
    path is at most T, a sum of two (a relaxation, a four-point pairing) at
    most 2T, a four-point defect at most T, and a sampled defect's square at
    most 1e300, finite summed over up to 1e8 samples.
    ``features`` is an optional ``(num_nodes, dim)`` float matrix and
    ``labels`` an optional ``(num_nodes,)`` integer class vector.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise GraphValidationError("graph needs at least one node")
        if self.num_nodes > MAX_NODES:
            raise GraphValidationError(f"num_nodes must be at most {MAX_NODES}, "
                                       f"got {self.num_nodes}")
        canon = []
        seen: set[tuple[int, int]] = set()
        total = 0.0
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise GraphValidationError(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise GraphValidationError(f"edge ({u},{v}) outside node range")
            if not (0 < w < math.inf):
                raise GraphValidationError(f"edge ({u},{v}) has weight {w}; "
                                           "weights must be finite and positive")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphValidationError(f"duplicate edge ({u},{v})")
            seen.add(key)
            canon.append((key[0], key[1], w))
            total += w
        if total > MAX_TOTAL_WEIGHT:
            raise GraphValidationError(f"total edge weight {total} exceeds "
                                       f"{MAX_TOTAL_WEIGHT}")
        object.__setattr__(self, "edges", tuple(canon))
        if self.features is not None:
            f = np.asarray(self.features, dtype=np.float64)
            if f.ndim != 2 or f.shape[0] != self.num_nodes:
                raise GraphValidationError("features must be (num_nodes, dim)")
            f.setflags(write=False)
            object.__setattr__(self, "features", f)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (self.num_nodes,):
                raise GraphValidationError("labels must have one entry per node")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Read-only ``(num_edges, 2)`` int64 array of the ``(u, v)`` endpoints."""
        index = np.array([(u, v) for u, v, _ in self.edges],
                         dtype=np.int64).reshape(-1, 2)
        index.setflags(write=False)
        return index

    @cached_property
    def edge_weight(self) -> np.ndarray:
        """Read-only ``(num_edges,)`` float64 array of the weights of ``edges``."""
        weight = np.array([w for _, _, w in self.edges], dtype=np.float64)
        weight.setflags(write=False)
        return weight

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only adjacency in compressed rows: ``(indptr, upper, neighbor, weight)``.

        Row u, ``neighbor[indptr[u]:indptr[u + 1]]``, lists the neighbors
        below u and then, from ``upper[u]`` on, those above u, each part in
        the order of ``edges``.  ``weight`` holds the matching edge weights.
        """
        ends = self.edge_index
        src, dst = ends.ravel(), ends[:, ::-1].ravel()  # each edge from both ends
        above = dst > src
        order = np.argsort(2 * src + above, kind="stable")  # keeps edge order in a part
        n = self.num_nodes
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        upper = indptr[:-1] + np.bincount(src[~above], minlength=n)
        neighbor = dst[order]
        weight = np.repeat(self.edge_weight, 2)[order]
        for a in (indptr, upper, neighbor, weight):
            a.setflags(write=False)
        return indptr, upper, neighbor, weight

    @cached_property
    def attention_index(self) -> tuple[RowIndex, RowIndex]:
        """``(src, dst)`` indices of the directed edges that attention runs over.

        Each undirected edge contributes both directions, all ``u -> v`` in
        the order of ``edges`` and then all ``v -> u``, and every node ends
        with a self loop, so no neighborhood is empty.  The index arrays are
        read-only int64.  Each ``RowIndex`` keeps the flat offsets of every
        row width it is scattered at, so they are built once per graph and
        freed with it.
        """
        u, v = self.edge_index.T
        loops = np.arange(self.num_nodes, dtype=np.int64)
        return (RowIndex(np.concatenate([u, v, loops])),
                RowIndex(np.concatenate([v, u, loops])))

    @cached_property
    def edge_keys(self) -> frozenset[tuple[int, int]]:
        """The ``(u, v)`` endpoint pairs of ``edges``, as a set for membership tests."""
        return frozenset((u, v) for u, v, _ in self.edges)

    def with_features(self, features: np.ndarray) -> "WeightedGraph":
        return replace(self, features=features)

    def with_labels(self, labels: np.ndarray) -> "WeightedGraph":
        return replace(self, labels=labels)

    def scaled(self, s: float) -> "WeightedGraph":
        """Same topology with every edge weight multiplied by ``s > 0``."""
        if s <= 0:
            raise GraphValidationError("scale factor must be positive")
        return replace(self, edges=tuple((u, v, w * s) for u, v, w in self.edges))


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs path distances with an explicit +inf sentinel for unreachable pairs.

    ``d`` is kept as a read-only view, so the caller's own array stays writable.
    """

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=np.float64).view()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def num_nodes(self) -> int:
        return self.d.shape[0]

    @property
    def connected(self) -> bool:
        return bool(np.isfinite(self.d).all())


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """Disjoint train/val/test index sets over nodes or edges, as read-only int64 arrays."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass(frozen=True, eq=False)
class EdgeSplitSpec(SplitSpec):
    """Edge split (indices into ``graph.edges``) plus ``(m, 2)`` sampled non-edge negatives."""

    val_neg: np.ndarray
    test_neg: np.ndarray


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def load_edge_list(path: str | Path, remap_ids: bool = False) -> WeightedGraph:
    """Parse a whitespace-separated edge list (``u v`` or ``u v w`` per line).

    Lines starting with ``#`` and blank lines are skipped.  Missing weights
    default to 1.  Node ids must be dense ``0..n-1`` unless ``remap_ids`` is
    set, in which case arbitrary integer ids are remapped in sorted order.
    A graph fault (a self-loop, a duplicate edge, a bad weight) names the file.
    """
    path = Path(path)
    raw_edges: list[tuple[int, int, float]] = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (2, 3):
            raise EdgeListParseError(
                f"{path.name}:{lineno}: expected 'u v [w]', got {stripped!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise EdgeListParseError(f"{path.name}:{lineno}: {exc}") from exc
        if not remap_ids and min(u, v) < 0:
            raise EdgeListParseError(f"{path.name}:{lineno}: negative node id "
                                     f"{min(u, v)} (use remap_ids for sparse ids)")
        if not remap_ids and max(u, v) >= MAX_NODES:
            raise EdgeListParseError(f"{path.name}:{lineno}: node id {max(u, v)} "
                                     f"is not below MAX_NODES ({MAX_NODES})")
        raw_edges.append((u, v, w))
    if not raw_edges:
        raise EdgeListParseError(f"{path.name}: no edges found")

    ids = sorted({u for u, _, _ in raw_edges} | {v for _, v, _ in raw_edges})
    if remap_ids:
        remap = {old: new for new, old in enumerate(ids)}
        raw_edges = [(remap[u], remap[v], w) for u, v, w in raw_edges]
        num_nodes = len(ids)
    else:
        num_nodes = ids[-1] + 1
    try:
        return WeightedGraph(num_nodes=num_nodes, edges=tuple(raw_edges))
    except GraphValidationError as exc:
        raise EdgeListParseError(f"{path.name}: {exc}") from exc


def _read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file; other bytes raise ``ValueError`` naming it."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            return list(fh)
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"{Path(path).name}: not UTF-8 text ({exc})") from exc


def save_edge_list(g: WeightedGraph, path: str | Path) -> None:
    """Write edges as ``u v`` (unit weight) or ``u v w`` lines."""
    with Path(path).open("w") as fh:
        for u, v, w in g.edges:
            if w == 1.0:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {w!r}\n")


def load_features_csv(path: str | Path) -> np.ndarray:
    """Load node features from a CSV with header ``node_id,f0,...,fk``.

    Every id from 0 to the largest one must have exactly one row, with as
    many fields as the header.
    """
    by_id = _read_csv_by_id(path, float)
    n = _dense_id_count(path, by_id)
    out = np.zeros((n, len(by_id[0])))
    for i, vals in by_id.items():
        out[i] = vals
    return out


def load_labels_csv(path: str | Path) -> np.ndarray:
    """Load node labels from a CSV with header ``node_id,label``.

    Every id from 0 to the largest one must have exactly one row.
    """
    by_id = _read_csv_by_id(path, _int64, width=2)
    out = np.zeros(_dense_id_count(path, by_id), dtype=np.int64)
    for i, (lab,) in by_id.items():
        out[i] = lab
    return out


def _int64(text: str) -> int:
    """``int(text)``, which must fit in int64."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"label {value} is outside int64")
    return value


def _dense_id_count(path: str | Path, by_id: dict[int, object]) -> int:
    """``max id + 1``, after checking that the ids are exactly ``0..max``."""
    name, lowest, n = Path(path).name, min(by_id), max(by_id) + 1
    if lowest < 0:
        raise EdgeListParseError(f"{name}: negative node id {lowest}")
    if len(by_id) != n:
        first = next(i for i in range(n) if i not in by_id)
        raise EdgeListParseError(f"{name}: no row for node {first}")
    return n


def _read_csv_by_id(path: str | Path, convert,
                    width: int | None = None) -> dict[int, list]:
    """Map each data row's integer id to its converted values.

    Rows must have ``width`` fields (default: the header's, at least 2).  A
    short or long row, a value ``convert`` rejects, a non-finite value (``nan``
    or ``inf``) and a repeated id raise ``EdgeListParseError`` naming the file
    and line.
    """
    path = Path(path)
    lines = [(no, ln.strip()) for no, ln in enumerate(_read_lines(path), start=1)
             if ln.strip()]
    if len(lines) < 2:
        raise EdgeListParseError(f"{path.name}: expected header plus data rows")
    header = lines[0][1].split(",")
    width = width or max(len(header), 2)
    by_id: dict[int, list] = {}
    for lineno, line in lines[1:]:
        where, fields = f"{path.name}:{lineno}", line.split(",")
        if len(fields) != width:
            raise EdgeListParseError(
                f"{where}: expected {width} fields, got {len(fields)} in {line!r}")
        try:
            i, vals = int(fields[0]), [convert(x) for x in fields[1:]]
        except ValueError as exc:
            raise EdgeListParseError(f"{where}: {exc}") from exc
        bad = next((x for x in vals if not math.isfinite(x)), None)
        if bad is not None:
            raise EdgeListParseError(f"{where}: non-finite value {bad}")
        if i in by_id:
            raise EdgeListParseError(f"{where}: repeated node id {i}")
        by_id[i] = vals
    return by_id


# ---------------------------------------------------------------------------
# Path metric
# ---------------------------------------------------------------------------

def shortest_paths(g: WeightedGraph) -> DistanceMatrix:
    """Exact all-pairs shortest-path distances under the weighted path metric.

    One dense Floyd-Warshall pass (``_path_metric_stack`` on a stack of one,
    filled from ``edge_index`` and ``edge_weight``): O(n^3) time and O(n^2)
    memory, meant for small graphs.  Unreachable pairs get a +inf sentinel.
    """
    u, v = g.edge_index.T
    return DistanceMatrix(_path_metric_stack(1, g.num_nodes, 0, u, v, g.edge_weight)[0])


def _path_metric_stack(count: int, n: int, b, u, v, w) -> np.ndarray:
    """Path metrics of a stack of ``count`` n-node graphs given as edge arrays.

    Edge i joins nodes ``u[i]`` and ``v[i]`` of graph ``b[i]`` with weight
    ``w[i]``; ``b`` may be one int for a stack of one.  Returns a
    ``(count, n, n)`` array built by one vectorized Floyd-Warshall sweep over
    the whole stack: n ``np.minimum`` calls in all.  Each matrix gets exactly
    the floats a separate pass would give it.  Sums are exact on integer and
    half-integer weights, and every matrix stays exactly symmetric because
    float addition commutes.
    """
    dist = np.full((count, n, n), math.inf)
    dist[b, u, v] = w
    dist[b, v, u] = w
    diag = np.arange(n)
    dist[:, diag, diag] = 0.0
    for m in range(n):
        np.minimum(dist, dist[:, :, m, None] + dist[:, None, m, :], out=dist)
    return dist


# ---------------------------------------------------------------------------
# Subgraphs
# ---------------------------------------------------------------------------

def k_hop_subgraph(g: WeightedGraph, v: int, k: int) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Induced subgraph on nodes within ``k`` edge hops of ``v``.

    Hops are counted by edge count even on weighted graphs; weights only shape
    the metric.  Returns the subgraph (edges only, no features or labels) plus
    the old-id table indexed by new id (ascending old ids).  This is
    ``_k_hop_balls`` on one center: after the graph's cached ``csr``, the cost
    depends on the ball, not on the whole graph.
    """
    if not (0 <= v < g.num_nodes):
        raise GraphValidationError(f"node {v} out of range")
    if k < 0:
        raise GraphValidationError("hop count must be >= 0")
    _, keep, (_, a, b, w) = _k_hop_balls(g, np.array([v]), k)
    sub = WeightedGraph(num_nodes=keep.size,
                        edges=tuple(zip(a.tolist(), b.tolist(), w.tolist())))
    return sub, tuple(keep.tolist())


def _k_hop_balls(g: WeightedGraph, centers: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The k-hop balls of the nodes ``centers``, found together.

    Returns ``(offsets, nodes, (ball, u, v, w))``.  Ball i holds the sorted
    node ids ``nodes[offsets[i]:offsets[i + 1]]``.  Its induced edges are the
    entries with ``ball == i``: ``u < v`` are positions in that sorted list
    (the ball's own ids) and ``w`` the weight.  Edges come grouped by ball,
    then by ``u``, and each node's edges in the order of ``edges``.

    One breadth-first search runs from every center at once over
    ``(center, node)`` keys, ``i * num_nodes + node`` for ball i, which stay
    sorted: each hop gathers the frontier's neighbors from ``csr`` and one
    sort drops the keys already reached.  Every array is as long as the
    balls' total size or their total degree, so the cost depends on the
    balls, not on the whole graph.
    """
    indptr, upper, neighbor, weight = g.csr
    n = g.num_nodes
    keys = np.arange(centers.size) * n + centers
    frontier = keys
    for _ in range(k):
        node = frontier % n
        pos, counts = _spans(indptr[node], indptr[node + 1])
        reached = np.repeat(frontier - node, counts)
        reached += neighbor[pos]
        del node, pos
        # Even tags mark keys already in the balls, odd ones new arrivals;
        # after the sort the first tag of each key says which it is.
        tags = np.concatenate((keys << 1, (reached << 1) | 1))
        del reached
        tags.sort()
        first = np.ones(tags.size, dtype=bool)
        np.not_equal(tags[1:] >> 1, tags[:-1] >> 1, out=first[1:])
        tags = tags[first]
        keys = tags >> 1
        frontier = keys[(tags & 1).astype(bool)]
        if not frontier.size:
            break
    slot, nodes = np.divmod(keys, n)
    offsets = np.zeros(centers.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot, minlength=centers.size), out=offsets[1:])
    # Each member's edges to higher node ids, kept where that node is a member too.
    pos, counts = _spans(upper[nodes], indptr[nodes + 1])
    target = np.repeat(keys - nodes, counts)
    target += neighbor[pos]
    j = np.searchsorted(keys, target)
    np.minimum(j, keys.size - 1, out=j)
    inside = keys[j] == target
    del target
    member = np.repeat(np.arange(keys.size), counts)[inside]
    j, pos = j[inside], pos[inside]
    ball = slot[member]
    start = offsets[ball]
    member -= start
    j -= start
    return offsets, nodes, (ball, member, j, weight[pos])


def _spans(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``starts[i]..stops[i] - 1`` of every span i, in order, and the lengths."""
    counts = stops - starts
    ends = np.cumsum(counts)
    pos = np.repeat(starts - ends + counts, counts)
    pos += np.arange(pos.size)
    return pos, counts


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def generate_lattice(rows: int, cols: int) -> WeightedGraph:
    """Grid graph with 4-neighbor connectivity and unit weights."""
    if rows < 2 or cols < 2:
        raise GraphValidationError("lattice needs rows >= 2 and cols >= 2")
    if rows * cols > MAX_NODES:
        raise GraphValidationError(f"a {rows}x{cols} lattice has more than "
                                   f"MAX_NODES ({MAX_NODES}) nodes")
    edges = []
    for r in range(rows):
        for col in range(cols):
            i = r * cols + col
            if col + 1 < cols:
                edges.append((i, i + 1, 1.0))
            if r + 1 < rows:
                edges.append((i, i + cols, 1.0))
    return WeightedGraph(num_nodes=rows * cols, edges=tuple(edges))


def generate_tree(branching: int, depth: int) -> WeightedGraph:
    """Balanced rooted tree with the given branching factor and depth, unit weights."""
    if branching < 1:
        raise GraphValidationError("branching must be >= 1")
    if depth < 0:
        raise GraphValidationError("depth must be >= 0")
    # Capped depth: a tree of branching >= 2 and depth MAX_NODES.bit_length()
    # already has more than MAX_NODES nodes.
    size = (depth + 1 if branching == 1 else
            (branching ** (min(depth, MAX_NODES.bit_length()) + 1) - 1) // (branching - 1))
    if size > MAX_NODES:
        raise GraphValidationError(f"a tree of branching {branching} and depth "
                                   f"{depth} has more than MAX_NODES ({MAX_NODES}) nodes")
    edges = []
    next_id = 1
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id, 1.0))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return WeightedGraph(num_nodes=next_id, edges=tuple(edges))


def generate_combined(lattice: WeightedGraph, tree: WeightedGraph,
                      glue: tuple[int, int]) -> WeightedGraph:
    """Disjoint union of two graphs bridged by one unit-weight edge.

    ``glue`` names a lattice node and a tree node (tree ids are offset by the
    lattice size in the result).
    """
    lat_node, tree_node = glue
    if not (0 <= lat_node < lattice.num_nodes):
        raise GraphValidationError(f"glue node {lat_node} not in first graph")
    if not (0 <= tree_node < tree.num_nodes):
        raise GraphValidationError(f"glue node {tree_node} not in second graph")
    off = lattice.num_nodes
    edges = list(lattice.edges)
    edges.extend((u + off, v + off, w) for u, v, w in tree.edges)
    edges.append((lat_node, tree_node + off, 1.0))
    return WeightedGraph(num_nodes=off + tree.num_nodes, edges=tuple(edges))


def reference_combined_graph() -> WeightedGraph:
    """Documented reference construction mixing flat and branching structure.

    A 5x5 unit lattice (nodes 0..24) corner-glued at node 0 to the root of a
    depth-3 binary tree (nodes 25..39): 40 nodes, 55 edges, connected.  All
    synthetic tests and examples use this graph.
    """
    return generate_combined(generate_lattice(5, 5), generate_tree(2, 3), (0, 0))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def _split_counts(total: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    if any(f <= 0 for f in fractions):
        raise SplitError("all fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise SplitError("fractions must sum to 1")
    n_train = round(fractions[0] * total)
    n_val = round(fractions[1] * total)
    n_test = total - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise SplitError(
            f"population of {total} too small for fractions {fractions}")
    return n_train, n_val, n_test


def split_nodes(g: WeightedGraph, fractions: tuple[float, float, float],
                seed: int) -> SplitSpec:
    """Seed-deterministic disjoint node split covering all nodes."""
    n_train, n_val, _ = _split_counts(g.num_nodes, fractions)
    perm = np.random.default_rng(seed).permutation(g.num_nodes)
    perm.setflags(write=False)
    return SplitSpec(train=perm[:n_train], val=perm[n_train:n_train + n_val],
                     test=perm[n_train + n_val:])


def split_edges(g: WeightedGraph, fractions: tuple[float, float, float],
                seed: int) -> EdgeSplitSpec:
    """Seed-deterministic disjoint edge split plus non-edge negatives.

    Negatives for the val/test sets are drawn uniformly from non-edges by
    ``sample_non_edges``, one per held-out positive.
    """
    m = g.num_edges
    n_train, n_val, n_test = _split_counts(m, fractions)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    perm.setflags(write=False)
    return EdgeSplitSpec(train=perm[:n_train], val=perm[n_train:n_train + n_val],
                         test=perm[n_train + n_val:],
                         val_neg=sample_non_edges(g, n_val, rng),
                         test_neg=sample_non_edges(g, n_test, rng))


def sample_non_edges(g: WeightedGraph, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform rejection sample of ``count`` distinct non-edges (u < v), in draw
    order, as a read-only ``(count, 2)`` int64 array."""
    n = g.num_nodes
    present = g.edge_keys
    max_non = n * (n - 1) // 2 - len(present)
    if count > max_non:
        raise SplitError(f"requested {count} non-edges but only {max_non} exist")
    chosen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < count:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in present or key in chosen:
            continue
        chosen.add(key)
        out.append(key)
    pairs = np.array(out, dtype=np.int64).reshape(-1, 2)
    pairs.setflags(write=False)
    return pairs


def graph_hash(g: WeightedGraph) -> str:
    """Stable content hash of the topology and weights (not features/labels)."""
    h = hashlib.sha256()
    h.update(str(g.num_nodes).encode())
    for u, v, w in g.edges:
        h.update(f"{u},{v},{w!r};".encode())
    return h.hexdigest()[:16]
