"""Attention layers on both geometries and the per-node space-selection fusion.

One model layer runs a Euclidean graph-attention block and a hyperbolic
graph-attention block side by side on the same tangent-space embedding, then
fuses their two tangent-space outputs per node with a learned two-way softmax.
The Euclidean selection weight beta_r of each node is the model's
hyperbolicity score and is recorded per layer for the alignment and
non-uniformity losses.

The layers hold no ball arithmetic: the hyperbolic branch calls the two tape
operations of ``poincare`` (its bias step and its edge distance), whose
forward values are the ball kernel's and whose gradients are closed-form.
Layer one's input features stay a plain array: the steps that read them (the
linear maps and the edge distance) record no parent for them and compute no
gradient into them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import poincare as pc
from .autodiff import DiffValue
from .graphs import WeightedGraph

__all__ = [
    "MAX_PARAMETERS",
    "GATParams",
    "HGATParams",
    "FusionParams",
    "LayerParams",
    "LayerOutput",
    "init_layer_params",
    "gat_forward",
    "hgat_forward",
    "fusion_forward",
    "joint_space_forward",
    "JointSpaceGNN",
    "save_params_json",
    "load_params_json",
]

# Largest parameter count of a ``JointSpaceGNN`` (512 MiB of float64): each
# width may be within its own bound while their products are not.
MAX_PARAMETERS = 2**26

# ---------------------------------------------------------------------------
# Parameter containers and initialization
# ---------------------------------------------------------------------------

@dataclass
class GATParams:
    W: DiffValue          # (out, in)
    a: DiffValue          # (2*out,)


@dataclass
class HGATParams:
    W: DiffValue          # (out, in)
    b: DiffValue          # (out,), mapped into the ball by exp at the origin
    a: DiffValue          # (2*out,)
    curvature: DiffValue | float  # positive; a tape leaf only when trained


@dataclass
class FusionParams:
    M: DiffValue          # (q_dim, hidden)
    b: DiffValue          # (q_dim,)
    q: DiffValue          # (q_dim,)


@dataclass
class LayerParams:
    gat: GATParams
    hgat: HGATParams
    fusion: FusionParams


@dataclass
class LayerOutput:
    """Fused embeddings plus the per-node selection weights of one layer."""

    z: DiffValue          # (n, hidden)
    beta_r: DiffValue     # (n,), Euclidean selection weight in (0, 1)
    beta_d: DiffValue     # (n,), hyperbolic counterpart; beta_r + beta_d = 1


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def init_layer_params(rng: np.random.Generator, in_dim: int, out_dim: int,
                      q_dim: int, curvature: float = 1.0,
                      trainable_curvature: bool = False) -> LayerParams:
    gat = GATParams(
        W=DiffValue(_glorot(rng, (out_dim, in_dim))),
        a=DiffValue(_glorot(rng, (2 * out_dim,))),
    )
    hgat = HGATParams(
        W=DiffValue(_glorot(rng, (out_dim, in_dim))),
        b=DiffValue(np.zeros(out_dim)),
        a=DiffValue(_glorot(rng, (2 * out_dim,))),
        curvature=(DiffValue(float(curvature)) if trainable_curvature
                   else float(curvature)),
    )
    fusion = FusionParams(
        M=DiffValue(_glorot(rng, (q_dim, out_dim))),
        b=DiffValue(np.zeros(q_dim)),
        q=DiffValue(_glorot(rng, (q_dim,))),
    )
    return LayerParams(gat=gat, hgat=hgat, fusion=fusion)


def _parameter_count(dims: list[int], q_dim: int) -> int:
    """Elements ``init_layer_params`` draws for the layers dims[i] -> dims[i + 1]."""
    return sum(2 * d_out * d_in + (5 + q_dim) * d_out + 2 * q_dim
               for d_in, d_out in zip(dims, dims[1:]))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def _linear(x, W) -> DiffValue:
    """``x @ W.T`` as one node, whose VJP is ``g @ W`` and ``(x.T @ g).T``; a
    plain array ``x`` is a constant, and ``W`` is then the only parent."""
    W = ad.as_diff(W)
    if not isinstance(x, DiffValue):
        xv = np.asarray(x, dtype=np.float64)
        return DiffValue(xv @ W.value.T, (W,), lambda g: ((xv.T @ g).T,))
    xv, Wv = x.value, W.value
    return DiffValue(xv @ Wv.T, (x, W), lambda g: (g @ Wv, (xv.T @ g).T))


def _attention_logits(h, a, src, dst) -> DiffValue:
    """Per-edge a^T [h_dst || h_src] as a flat vector, from per-node scores.

    The logit splits as a_1^T h_dst + a_2^T h_src, so each node is scored once,
    ``h @ A^T`` with ``A = a.reshape(2, d)``, and each edge reads one scalar per
    endpoint from the flat scores at 2 * dst and 2 * src + 1, offsets that a
    ``RowIndex`` keeps.  One node, parents ``(h, a)``; its VJP sums the edge
    gradients into the scores with one ``np.bincount`` per endpoint.
    """
    h, a = ad.as_diff(h), ad.as_diff(a)
    n, d = h.shape
    at_dst = ad.as_row_index(dst).flat(2, 0)
    at_src = ad.as_row_index(src).flat(2, 1)
    hv, A = h.value, a.value.reshape(2, d)
    scores = (hv @ A.T).reshape(2 * n)
    def vjp(g):
        g_s = (np.bincount(at_dst, weights=g, minlength=2 * n)
               + np.bincount(at_src, weights=g, minlength=2 * n)).reshape(n, 2)
        return g_s @ A, (hv.T @ g_s).T.reshape(2 * d)
    return DiffValue(np.take(scores, at_dst) + np.take(scores, at_src), (h, a), vjp)


def _dropout_mask(shape: tuple[int, ...], dropout: float,
                  rng: np.random.Generator | None,
                  training: bool) -> np.ndarray | None:
    """Inverted-dropout mask, or ``None`` when no dropout applies."""
    if not training or dropout <= 0.0:
        return None
    if rng is None:
        raise ValueError("dropout requires an rng when training")
    return (rng.random(shape) >= dropout) / (1.0 - dropout)


def gat_forward(features, g: WeightedGraph, p: GATParams, *,
                dropout: float = 0.0, rng: np.random.Generator | None = None,
                training: bool = False) -> DiffValue:
    """One Euclidean graph-attention layer.

    Attention logits are LeakyReLU(a^T [W h_v || W h_j]) softmax-normalized
    over each destination's neighborhood; the update is ELU of the
    attention-weighted sum of transformed neighbor features.
    """
    src, dst = g.attention_index
    h = _linear(features, p.W)
    mask = _dropout_mask(src.idx.shape, dropout, rng, training)
    return ad.attend(_attention_logits(h, p.a, src, dst), h, g, mask)


def hgat_forward(z, g: WeightedGraph, p: HGATParams, *,
                 dropout: float = 0.0, rng: np.random.Generator | None = None,
                 training: bool = False) -> tuple[DiffValue, DiffValue]:
    """One hyperbolic graph-attention layer on the tangent input ``z``.

    It acts on the ball points exp_0(z), whose Mobius matrix action is
    exp_0(t) with t = W z; messages are exp_0(t) (+) exp_0(b), read in the
    tangent space as one ``d_bias_messages`` node.  Each attention logit is
    the GAT logit of t, read from per-node scores, times the closed-form
    geodesic distance between the endpoints exp_0(z), one ``d_edge_distance``
    node over the graph's attention edges.  Six tape nodes besides ``W``,
    ``b``, ``a`` and a trained curvature.  Returns (tangent-space output,
    tangent-space messages).
    """
    c = p.curvature
    src, dst = g.attention_index
    t = _linear(z, p.W)
    messages = pc.d_bias_messages(t, p.b, c)
    logits = ad.mul(_attention_logits(t, p.a, src, dst), pc.d_edge_distance(z, g, c))
    mask = _dropout_mask(src.idx.shape, dropout, rng, training)
    return ad.attend(logits, messages, g, mask), messages


def _selection(z_r, z_d, p: FusionParams) -> DiffValue:
    """beta_r = logistic(w_r - w_d) with w = q^T tanh(M z + b) for each branch,
    as one node with parents ``(z_r, z_d, M, b, q)`` and the chain's VJP."""
    n = z_r.shape[0]
    M, q = p.M.value, p.q.value.reshape(-1, 1)
    zs = (z_r.value, z_d.value)
    ts = [np.tanh(z @ M.T + p.b.value) for z in zs]
    beta = ad._logistic((ts[0] @ q).reshape(n) - (ts[1] @ q).reshape(n))
    def vjp(g):
        g_w = (g * beta * (1.0 - beta)).reshape(n, 1)
        grads = []
        for g_col, z, t in zip((g_w, -g_w), zs, ts):
            g_pre = (g_col @ q.T) * (1.0 - t * t)
            grads.append((g_pre @ M, (z.T @ g_pre).T, g_pre.sum(axis=0), (t.T @ g_col).ravel()))
        (g_zr, *g_r), (g_zd, *g_d) = grads
        return (g_zr, g_zd, *(a + b for a, b in zip(g_r, g_d)))
    return DiffValue(beta, (z_r, z_d, p.M, p.b, p.q), vjp)


def _mix(beta_r, beta_d, z_r, z_d) -> DiffValue:
    """beta_r * z_r + beta_d * z_d, row by row, as one node.  Its VJP keeps the
    gradients of beta_r and beta_d apart: folding beta_d's into beta_r's here
    would sum beta_r's gradient in another order than through beta_d's node."""
    n = z_r.shape[0]
    br, bd = beta_r.value.reshape(n, 1), beta_d.value.reshape(n, 1)
    zr, zd = z_r.value, z_d.value
    def vjp(g):
        return ad._row_dot(g, zr)[:, 0], ad._row_dot(g, zd)[:, 0], g * br, g * bd
    return DiffValue(br * zr + bd * zd, (beta_r, beta_d, z_r, z_d), vjp)


def fusion_forward(z_r, z_d, p: FusionParams) -> LayerOutput:
    """Per-node convex combination of the two branch embeddings, in three nodes.

    Both branches arrive in tangent space.  Scores w = q^T tanh(M z + b) are
    computed for each; a two-way softmax yields the selection weight beta_r,
    and beta_d = 1 - beta_r exactly.
    """
    z_r, z_d = ad.as_diff(z_r), ad.as_diff(z_d)
    beta_r = _selection(z_r, z_d, p)
    beta_d = ad.sub(1.0, beta_r)
    return LayerOutput(z=_mix(beta_r, beta_d, z_r, z_d), beta_r=beta_r, beta_d=beta_d)


def joint_space_forward(features, g: WeightedGraph, layers: list[LayerParams], *,
                  dropout: float = 0.0, rng: np.random.Generator | None = None,
                  training: bool = False) -> tuple[LayerOutput, list[LayerOutput]]:
    """Run the full stack; each layer consumes the previous fused embedding.

    Both branches take the same dropout-masked fused embedding (the raw input
    features on layer one) as their tangent-space input.  Plain input
    features stay a constant array, masked in numpy, so no gradient flows
    into them.  Returns the final layer output and the per-layer record used
    by the alignment losses.
    """
    if not layers:
        raise ValueError("need at least one layer")
    z = features if isinstance(features, DiffValue) else np.asarray(features, dtype=np.float64)
    record: list[LayerOutput] = []
    for lp in layers:
        mask = _dropout_mask(z.shape, dropout, rng, training)
        if mask is not None:
            z = ad.mul(z, mask) if isinstance(z, DiffValue) else z * mask
        z_r = gat_forward(z, g, lp.gat, dropout=dropout, rng=rng, training=training)
        z_d, _ = hgat_forward(z, g, lp.hgat, dropout=dropout, rng=rng,
                              training=training)
        out = fusion_forward(z_r, z_d, lp.fusion)
        z = out.z
        record.append(out)
    return record[-1], record


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

class JointSpaceGNN:
    """A stack of joint-space layers with named, checkpointable parameters."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 num_layers: int = 2, q_dim: int = 16, curvature: float = 1.0,
                 trainable_curvature: bool = False, seed: int = 0):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        count = _parameter_count(dims, q_dim)
        if count > MAX_PARAMETERS:
            raise ValueError(f"a model of layer widths {dims} and q_dim {q_dim} has "
                             f"{count} parameters, beyond MAX_PARAMETERS "
                             f"({MAX_PARAMETERS})")
        rng = np.random.default_rng(seed)
        self.layers = [
            init_layer_params(rng, dims[i], dims[i + 1], q_dim, curvature,
                              trainable_curvature)
            for i in range(num_layers)
        ]

    def forward(self, g: WeightedGraph, features, *, dropout: float = 0.0,
                rng: np.random.Generator | None = None,
                training: bool = False) -> tuple[LayerOutput, list[LayerOutput]]:
        return joint_space_forward(features, g, self.layers, dropout=dropout,
                             rng=rng, training=training)

    def named_parameters(self) -> dict[str, DiffValue]:
        """Every ``DiffValue`` of each layer's groups, in field declaration order."""
        out: dict[str, DiffValue] = {}
        for i, lp in enumerate(self.layers):
            for group, params in vars(lp).items():
                for name, value in vars(params).items():
                    if isinstance(value, DiffValue):
                        out[f"layer{i}.{group}.{name}"] = value
        return out

    def parameters(self) -> list[DiffValue]:
        return list(self.named_parameters().values())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: np.array(v.value, copy=True)
                for k, v in self.named_parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Set every parameter from ``state``, which must name each one exactly.

        Nothing is changed unless the whole checkpoint is valid.
        """
        params = self.named_parameters()
        arrays = {}
        for name, value in state.items():
            if name not in params:
                raise KeyError(f"unknown parameter {name!r}")
            arr = np.array(value, dtype=np.float64)
            if arr.shape != params[name].value.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            arrays[name] = arr
        missing = [name for name in params if name not in arrays]
        if missing:
            raise KeyError(f"checkpoint lacks parameters {missing}")
        for name, arr in arrays.items():
            params[name].value = arr


def save_params_json(params: dict[str, np.ndarray]) -> str:
    """Flat name -> {shape, row-major values} checkpoint encoding."""
    return json.dumps({name: {"shape": list(a.shape), "values": a.reshape(-1).tolist()}
                       for name, a in params.items()})


def load_params_json(text: str) -> dict[str, np.ndarray]:
    obj = json.loads(text)
    return {name: np.asarray(spec["values"], dtype=np.float64).reshape(spec["shape"])
            for name, spec in obj.items()}
