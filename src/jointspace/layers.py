"""Attention layers on both geometries and the per-node space-selection fusion.

One model layer runs a Euclidean graph-attention block and a hyperbolic
graph-attention block side by side on the same tangent-space embedding, then
fuses their two tangent-space outputs per node with a learned two-way softmax.
The Euclidean selection weight beta_r of each node is the model's
hyperbolicity score and is recorded per layer for the alignment and
non-uniformity losses.

The layers hold no ball arithmetic: the hyperbolic branch calls the tape
operations of ``poincare``, whose forward values are the ball kernel's and
whose gradients are closed-form.
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

def _attention_logits(h, a, src, dst) -> DiffValue:
    """Per-edge a^T [h_dst || h_src] as a flat vector, from per-node scores.

    The logit splits as a_1^T h_dst + a_2^T h_src, so each node is scored once,
    ``h @ reshape(a, (2, d))^T`` of shape (n, 2), and each edge gathers one
    scalar per endpoint from the flattened scores: 2 * dst and 2 * src + 1,
    which a ``RowIndex`` keeps after their first use.
    """
    n, d = h.shape
    src, dst = ad.as_row_index(src), ad.as_row_index(dst)
    scores = ad.matmul(h, ad.transpose(ad.reshape(a, (2, d))))
    flat = ad.reshape(scores, (2 * n,))
    return ad.add(ad.gather_rows(flat, dst.flat(2, 0)),
                  ad.gather_rows(flat, src.flat(2, 1)))


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
    h = ad.matmul(ad.as_diff(features), ad.transpose(p.W))
    mask = _dropout_mask(src.idx.shape, dropout, rng, training)
    return ad.attend(_attention_logits(h, p.a, src, dst), h, src, dst,
                     g.num_nodes, mask)


def hgat_forward(z, g: WeightedGraph, p: HGATParams, *,
                 dropout: float = 0.0, rng: np.random.Generator | None = None,
                 training: bool = False) -> tuple[DiffValue, DiffValue]:
    """One hyperbolic graph-attention layer on the tangent input ``z``.

    It acts on the ball points exp_0(z), whose Mobius matrix action is
    exp_0(t) with t = W z; messages are exp_0(t) (+) exp_0(b).  Each attention
    logit is the GAT logit of t, read from per-node scores, times the
    closed-form geodesic distance between the endpoints exp_0(z), one
    ``d_edge_distance`` node over the graph's cached attention index.
    Returns (tangent-space output, ball messages).
    """
    c = p.curvature
    src, dst = g.attention_index
    z = ad.as_diff(z)
    x = pc.d_exp_origin(z, c)
    t = ad.matmul(z, ad.transpose(p.W))
    bias_ball = pc.d_exp_origin(ad.reshape(p.b, (1, t.shape[1])), c)
    m = pc.d_mobius_add(pc.d_exp_origin(t, c), bias_ball, c)

    logits = _attention_logits(t, p.a, src, dst)
    dist = pc.d_edge_distance(x, src, dst, c)
    mask = _dropout_mask(src.idx.shape, dropout, rng, training)
    tangent = ad.attend(ad.mul(logits, dist), pc.d_log_origin(m, c), src, dst,
                        g.num_nodes, mask)
    return tangent, m


def fusion_forward(z_r, z_d, p: FusionParams) -> LayerOutput:
    """Per-node convex combination of the two branch embeddings.

    Both branches arrive in tangent space.  Scores w = q^T tanh(M z + b) are
    computed for each; a two-way softmax yields the selection weights, so
    beta_r + beta_d = 1 exactly.
    """
    z_r, z_d = ad.as_diff(z_r), ad.as_diff(z_d)
    n, _ = z_r.shape
    q_dim = p.q.shape[0]

    def score(z):
        t = ad.tanh(ad.add(ad.matmul(z, ad.transpose(p.M)), p.b))
        return ad.reshape(ad.matmul(t, ad.reshape(p.q, (q_dim, 1))), (n,))

    w_r = score(z_r)
    w_d = score(z_d)
    beta_r = ad.sigmoid(ad.sub(w_r, w_d))
    beta_d = ad.sub(1.0, beta_r)
    z = ad.add(ad.mul(ad.reshape(beta_r, (n, 1)), z_r),
               ad.mul(ad.reshape(beta_d, (n, 1)), z_d))
    return LayerOutput(z=z, beta_r=beta_r, beta_d=beta_d)


def joint_space_forward(features, g: WeightedGraph, layers: list[LayerParams], *,
                  dropout: float = 0.0, rng: np.random.Generator | None = None,
                  training: bool = False) -> tuple[LayerOutput, list[LayerOutput]]:
    """Run the full stack; each layer consumes the previous fused embedding.

    Both branches take the same dropout-masked fused embedding (the raw input
    features on layer one) as their tangent-space input.  Returns the final
    layer output and the per-layer record used by the alignment losses.
    """
    if not layers:
        raise ValueError("need at least one layer")
    z = ad.as_diff(features)
    record: list[LayerOutput] = []
    for lp in layers:
        mask = _dropout_mask(z.shape, dropout, rng, training)
        if mask is not None:
            z = ad.mul(z, mask)
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
