"""Three-branch quality network with simplified cross-gating fusion.

Each branch (technical / aesthetic / semantic-proxy) embeds its feature group
with a small tanh layer; the semantic embedding sigmoid-gates the other two
branches through a cross-gating block (input projection, gate projection,
output projection, residual); per-branch MLP heads emit scalar scores whose
arithmetic mean is the final prediction.

Forward and backward passes are hand-written numpy so training is plain,
bit-reproducible gradient descent with no framework dependency.

Layers whose branches share shapes run as one numpy call on a stacked
leading axis: the two cross-gates, the three heads, and a siamese step's two
sides (winners and losers), so activations are (side, branch, rows, width).
The encoders stay one call per branch: the groups' widths differ (3/4/4 by
default), and padding them would change the products. The stacks keep the
bits of per-branch calls. np.matmul makes, for each slice of a stack, the
same BLAS call with the same shapes and transposes as the 2-D product of one
branch; rows are never concatenated, since a batch's row count picks the
kernel. Every sum keeps its axis length and order of addition, and the
stacked parameters are strided views of one flat vector, not copies.

A pass has one signature, _forward_batch(net, inputs, masks): it reads the
net's own ``stacks``, so training steps them in place and a prediction
copies no parameter. predict_scores is the one inference entry.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..errors import DimensionMismatch, InvalidParameter, NumericalError, check_count
from ..signal_features import BRANCH_GROUPS, FEATURE_ORDER

__all__ = [
    "BRANCH_ORDER",
    "GATED_BRANCHES",
    "ScgbParams",
    "BranchNet",
    "init_branchnet",
    "scgb_fuse",
    "predict_scores",
]

BRANCH_ORDER = ("semantic", "aesthetic", "technical")
GATED_BRANCHES = ("aesthetic", "technical")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere, so
    exp never overflows; both read e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class ScgbParams:
    """Cross-gating projections: u = px@x, g = sigmoid(py@y), out = po@(u*g) + x."""

    px: np.ndarray
    py: np.ndarray
    po: np.ndarray


def scgb_fuse(x, y, params) -> np.ndarray:
    """Simplified cross-gating block on vectors or (n, d) batches."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    px, py, po = params.px, params.py, params.po
    if px.shape[1] != x.shape[-1] or py.shape[1] != y.shape[-1]:
        raise DimensionMismatch(
            f"px expects dim {px.shape[1]}, py expects {py.shape[1]}; "
            f"got x dim {x.shape[-1]}, y dim {y.shape[-1]}"
        )
    if px.shape[0] != py.shape[0] or po.shape[1] != px.shape[0] or po.shape[0] != x.shape[-1]:
        raise DimensionMismatch("projection dims disagree at the gating junction")
    return _cross_gate(x, y, px, py, po)[0]


def _cross_gate(x, y, px, py, po, mask=None, out=None):
    """The gating algebra behind scgb_fuse and the net, on one gate or on
    gates stacked on a leading axis: writes the gated x to ``out`` (a new
    array if None) and returns (out, u, g, z)."""
    u = x @ px.swapaxes(-1, -2)
    g = _sigmoid(y @ py.swapaxes(-1, -2))
    z = u * g if mask is None else u * g * mask
    return np.add(z @ po.swapaxes(-1, -2), x, out=out), u, g, z


@dataclass
class BranchNet:
    """The gated-fusion net; init_branchnet alone builds one and names its params.

    Every parameter lives in ``flat``, laid out by _param_stacks. Two sets of
    views of it are made once: ``stacks``, which the passes read and training
    steps, and ``params``, a read-only mapping by name in the vector's order
    (the checkpoints' order), whose views are written in place."""

    feature_names: tuple[str, ...]
    groups: dict[str, tuple[str, ...]]
    embed_dim: int
    head_hidden: int
    gate_dropout: float
    flat: np.ndarray | None  # None: a zeroed vector of the layout's size
    norm_shift: np.ndarray
    norm_scale: np.ndarray
    norm_fitted: bool = False
    seed: int = 0

    def __post_init__(self):
        name_pos = {n: i for i, n in enumerate(self.feature_names)}
        self._group_cols = {
            b: np.array([name_pos[f] for f in fs], dtype=np.intp)
            for b, fs in self.groups.items()
        }
        if self.flat is None:
            self.flat, self.stacks = _param_stacks(self, ())
        else:
            self.stacks = _param_stacks(self, self.flat)
        self.params = MappingProxyType(_named_views(self.stacks))

    def weights(self) -> dict[str, np.ndarray]:
        """The parameters that multiply, by name in the vector's order: all
        but the biases ("_b", "_b1", "_b2"), which add."""
        return {n: p for n, p in self.params.items() if not n.rstrip("12").endswith("_b")}

    def param_names(self) -> list[str]:
        """The parameters in the vector's order, the order of checkpoints."""
        return list(self.params)

    def n_params(self) -> int:
        return self.flat.size

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def unflatten(self, flat: np.ndarray):
        if np.shape(flat) != self.flat.shape:
            raise InvalidParameter("flat shape", np.shape(flat), f"{self.flat.shape}")
        self.flat[...] = flat

    def copy(self) -> "BranchNet":
        """A net with its own vector, views and normalisation."""
        return dataclasses.replace(self, groups=dict(self.groups), flat=self.flat.copy(),
                                   norm_shift=self.norm_shift.copy(),
                                   norm_scale=self.norm_scale.copy())

    def route(self, X: np.ndarray) -> dict[str, np.ndarray]:
        """Standardize a raw feature matrix and split it into branch inputs."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != len(self.feature_names):
            raise DimensionMismatch(
                f"expected {len(self.feature_names)} features, got {X.shape[-1]}"
            )
        Xn = (X - self.norm_shift) / self.norm_scale
        return {b: Xn[..., cols] for b, cols in self._group_cols.items()}


def init_branchnet(
    feature_names=FEATURE_ORDER,
    groups=None,
    embed_dim: int = 8,
    head_hidden: int = 4,
    gate_dropout: float = 0.1,
    seed: int = 0,
) -> BranchNet:
    groups = {b: tuple(fs) for b, fs in (BRANCH_GROUPS if groups is None else groups).items()}
    if set(groups) != set(BRANCH_ORDER):
        raise InvalidParameter("groups", sorted(groups), f"exactly the branches {BRANCH_ORDER}")
    unknown = {f for fs in groups.values() for f in fs} - set(feature_names)
    if unknown:
        raise InvalidParameter("groups", sorted(unknown), "only names in feature_names")
    check_count("embed_dim", embed_dim)
    check_count("head_hidden", head_hidden, 0)
    n_raw = len(feature_names)
    net = BranchNet(tuple(feature_names), groups, embed_dim, head_hidden, gate_dropout, None,
                    np.zeros(n_raw), np.ones(n_raw), False, seed)
    # one draw per weight, in the vector's order, scaled by its fan-in; biases stay zero
    rng = np.random.default_rng(seed)
    for name, p in net.weights().items():
        scale = 0.1 if name.endswith("_po") else 1.0  # small output proj: start near residual
        p[...] = rng.normal(0.0, 1.0 / np.sqrt(max(p.shape[-1], 1)), size=p.shape) * scale
    return net


# --- batched forward/backward -------------------------------------------------

def _param_stacks(net: BranchNet, vec):
    """Views of ``vec``, whose last axis holds the net's parameters: the one
    statement of their layout. In order: each encoder's weight and bias by
    parameter name, in BRANCH_ORDER; the gates' ("px", "py", "po"), gate by
    gate in GATED_BRANCHES order; the heads' ("w1", "b1", "w2", "b2", or "w",
    "b" without a hidden layer), head by head in BRANCH_ORDER. The gates' and
    heads' views are by kind, each stacked on a branch axis: a branch's block
    sits at a fixed spacing, so a stack is a strided view, not a copy, and
    writing to it writes ``vec``.

    ``vec`` may instead be a tuple of leading axes: a zeroed vector with those
    axes is then made, and (vector, views) returned."""
    d, k, nb = net.embed_dim, net.head_hidden, len(BRANCH_ORDER)
    heads = (("w1", (k, d)), ("b1", (k,)), ("w2", (k,)), ("b2", ())) if k > 0 else (
        ("w", (d,)), ("b", ()))
    blocks = [(f"enc_{b}_{kind}", shape) for b in BRANCH_ORDER
              for kind, shape in (("w", (d, len(net.groups[b]))), ("b", (d,)))]
    blocks += [("gates", (len(GATED_BRANCHES), 3, d, d)),
               ("heads", (nb, sum(math.prod(s) for _, s in heads)))]
    size = sum(math.prod(shape) for _, shape in blocks)
    made = isinstance(vec, tuple)
    if made:
        vec = np.zeros(vec + (size,))
    if vec.shape[-1] != size:
        raise InvalidParameter("vector length", vec.shape[-1], f"the net's {size} parameters")
    lead, views, pos = vec.shape[:-1], {}, 0
    for key, shape in blocks:
        views[key] = vec[..., pos:pos + math.prod(shape)].reshape(lead + shape)
        pos += math.prod(shape)
    gates, stacked = views.pop("gates"), views.pop("heads")
    for j, kind in enumerate(("px", "py", "po")):
        views[kind] = gates[..., j, :, :]
    at = 0
    for kind, shape in heads:
        views[kind] = stacked[..., at:at + math.prod(shape)].reshape(lead + (nb,) + shape)
        at += math.prod(shape)
    return (vec, views) if made else views


def _named_views(stacks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each parameter's view of a one-dimensional vector's _param_stacks
    views, by its init_branchnet name, in the vector's order."""
    named = {key: v for key, v in stacks.items() if key.startswith("enc_")}
    for j, b in enumerate(GATED_BRANCHES):
        for kind in ("px", "py", "po"):
            named[f"scgb_{b}_{kind}"] = stacks[kind][j, ...]
    kinds = [kind for kind in stacks if kind not in named and kind not in ("px", "py", "po")]
    for i, b in enumerate(BRANCH_ORDER):
        for kind in kinds:
            named[f"head_{b}_{kind}"] = stacks[kind][i, ...]
    return named


def _forward_batch(net: BranchNet, Xb: dict[str, np.ndarray], masks=None):
    """Forward routed branch inputs, each (..., B, group width) with the same
    leading axes (a siamese step's two sides, or none), through the net's
    ``stacks``; returns (qs, final, cache).

    ``masks`` is None or the gates' dropout masks, (..., 2, B, embed_dim).
    Activations are stacked (..., branch, B, width), so each gate and head
    layer is one numpy call for every branch and side.
    ``qs`` maps each branch to its (..., B) scores, rows of cache["Q"]."""
    P = net.stacks
    x = Xb[BRANCH_ORDER[0]]
    E = np.empty(x.shape[:-2] + (len(BRANCH_ORDER), x.shape[-2], net.embed_dim))
    for i, b in enumerate(BRANCH_ORDER):  # group widths differ: one call per branch
        np.tanh(Xb[b] @ P[f"enc_{b}_w"].T + P[f"enc_{b}_b"], out=E[..., i, :, :])

    H = np.empty_like(E)
    H[..., 0, :, :] = E[..., 0, :, :]
    _, u, g, z = _cross_gate(E[..., 1:, :, :], E[..., :1, :, :], P["px"], P["py"], P["po"],
                             masks, out=H[..., 1:, :, :])

    r = None
    if net.head_hidden > 0:
        r = np.tanh(H @ P["w1"].swapaxes(-1, -2) + P["b1"][:, None, :])
        Q = (r @ P["w2"][..., None])[..., 0] + P["b2"][:, None]
    else:
        Q = (H @ P["w"][..., None])[..., 0] + P["b"][:, None]
    final = (Q[..., 0, :] + Q[..., 1, :] + Q[..., 2, :]) / 3.0
    cache = {"X": Xb, "masks": masks, "params": P, "E": E, "H": H, "gate": (u, g, z),
             "r": r, "Q": Q}
    return {b: Q[..., i, :] for i, b in enumerate(BRANCH_ORDER)}, final, cache


def _backward_batch(cache: dict, dQ: np.ndarray, grads: dict[str, np.ndarray]):
    """Write the gradients of a scalar loss, given its derivatives by the
    branch scores, dQ (..., 3, B), into ``grads``: _param_stacks views of a
    vector with the cache's leading axes (one gradient per side), each view
    written once. A zero entry may come out -0.0 where adding to a zeroed
    vector gives +0.0; the caller adds 0.0 to the whole vector once."""
    P, G = cache["params"], grads
    E, H, (u, g, z), m = cache["E"], cache["H"], cache["gate"], cache["masks"]

    r = cache["r"]
    if r is not None:
        np.matmul(r.swapaxes(-1, -2), dQ[..., None], out=G["w2"][..., None])
        dQ.sum(axis=-1, out=G["b2"])
        dpre = (dQ[..., None] * P["w2"][:, None, :]) * (1.0 - r * r)
        np.matmul(dpre.swapaxes(-1, -2), H, out=G["w1"])
        dpre.sum(axis=-2, out=G["b1"])
        dH = dpre @ P["w1"]
    else:
        np.matmul(H.swapaxes(-1, -2), dQ[..., None], out=G["w"][..., None])
        dQ.sum(axis=-1, out=G["b"])
        dH = dQ[..., None] * P["w"][:, None, :]

    Eg, Es, dHg = E[..., 1:, :, :], E[..., :1, :, :], dH[..., 1:, :, :]
    dE = np.empty_like(E)
    dz = dHg @ P["po"]
    np.matmul(dHg.swapaxes(-1, -2), z, out=G["po"])
    du = dz * g if m is None else dz * g * m
    dg = dz * u if m is None else dz * u * m
    np.add(dHg, du @ P["px"], out=dE[..., 1:, :, :])  # residual + input projection
    np.matmul(du.swapaxes(-1, -2), Eg, out=G["px"])
    dpre_g = dg * g * (1.0 - g)
    ds = dpre_g @ P["py"]  # each gate's part of the semantic gradient, added in gate order
    np.add(ds[..., 0, :, :] + ds[..., 1, :, :], dH[..., 0, :, :], out=dE[..., 0, :, :])
    np.matmul(dpre_g.swapaxes(-1, -2), Es, out=G["py"])

    dpre = dE * (1.0 - E * E)
    for i, b in enumerate(BRANCH_ORDER):
        dpre_b = dpre[..., i, :, :]
        np.matmul(dpre_b.swapaxes(-1, -2), cache["X"][b], out=G[f"enc_{b}_w"])
        dpre_b.sum(axis=-2, out=G[f"enc_{b}_b"])


def predict_scores(net: BranchNet, X: np.ndarray) -> np.ndarray:
    """Final scores for a raw feature matrix (rows in net.feature_names
    order), from a dropout-free pass."""
    _, final, _ = _forward_batch(net, net.route(np.atleast_2d(np.asarray(X, dtype=np.float64))))
    if not np.isfinite(final).all():
        raise NumericalError("non-finite scores")
    return final
