"""Three-branch quality network with simplified cross-gating fusion.

Each branch (technical / aesthetic / semantic-proxy) embeds its feature group
with a small tanh layer; the semantic embedding sigmoid-gates the other two
branches through a cross-gating block (input projection, gate projection,
output projection, residual); per-branch MLP heads emit scalar scores whose
arithmetic mean is the final prediction.

Forward and backward passes are hand-written numpy so training is plain,
bit-reproducible gradient descent with no framework dependency.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, NumericalError
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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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


def _cross_gate(x, y, px, py, po, mask=1.0):
    """The gating algebra behind scgb_fuse and the net: returns (out, u, g, z)."""
    u = x @ px.T
    g = _sigmoid(y @ py.T)
    z = u * g * mask
    return z @ po.T + x, u, g, z


@dataclass
class BranchNet:
    """The gated-fusion net; init_branchnet alone builds one and names its params."""

    feature_names: tuple[str, ...]
    groups: dict[str, tuple[str, ...]]
    embed_dim: int
    head_hidden: int
    gate_dropout: float
    params: dict[str, np.ndarray]
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

    def param_names(self) -> list[str]:
        """The parameters in the order init_branchnet makes them, the order of
        flatten, unflatten and checkpoints."""
        return list(self.params)

    def n_params(self) -> int:
        return sum(self.params[n].size for n in self.param_names())

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.params[n].ravel() for n in self.param_names()])

    def unflatten(self, flat: np.ndarray):
        pos = 0
        for n in self.param_names():
            p = self.params[n]
            self.params[n] = flat[pos : pos + p.size].reshape(p.shape).copy()
            pos += p.size
        if pos != flat.size:
            raise ValueError(f"flat vector has {flat.size} values, net needs {pos}")

    def copy(self) -> "BranchNet":
        return copy.deepcopy(self)

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
        raise ValueError(f"groups must cover {BRANCH_ORDER}")
    unknown = {f for fs in groups.values() for f in fs} - set(feature_names)
    if unknown:
        raise ValueError(f"groups name {sorted(unknown)}, which feature_names lacks")
    if embed_dim < 1 or head_hidden < 0:
        raise ValueError(f"embed_dim {embed_dim} must be >= 1, head_hidden {head_hidden} >= 0")
    rng = np.random.default_rng(seed)
    d, k = embed_dim, head_hidden

    def mat(rows, cols):
        return rng.normal(0.0, 1.0 / np.sqrt(max(cols, 1)), size=(rows, cols))

    params: dict[str, np.ndarray] = {}
    for b in BRANCH_ORDER:
        db = len(groups[b])
        params[f"enc_{b}_w"] = mat(d, db)
        params[f"enc_{b}_b"] = np.zeros(d)
    for b in GATED_BRANCHES:
        params[f"scgb_{b}_px"] = mat(d, d)
        params[f"scgb_{b}_py"] = mat(d, d)
        params[f"scgb_{b}_po"] = mat(d, d) * 0.1  # small output proj: start near residual
    for b in BRANCH_ORDER:
        if k > 0:
            params[f"head_{b}_w1"] = mat(k, d)
            params[f"head_{b}_b1"] = np.zeros(k)
            params[f"head_{b}_w2"] = rng.normal(0.0, 1.0 / np.sqrt(k), size=k)
            params[f"head_{b}_b2"] = np.zeros(())
        else:
            params[f"head_{b}_w"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=d)
            params[f"head_{b}_b"] = np.zeros(())

    n_raw = len(feature_names)
    return BranchNet(
        tuple(feature_names), groups, d, k, gate_dropout, params,
        np.zeros(n_raw), np.ones(n_raw), False, seed,
    )


# --- batched forward/backward -------------------------------------------------

def _forward_batch(net: BranchNet, Xb: dict[str, np.ndarray], dropout_masks=None):
    """Forward a batch of per-branch inputs; returns (qs, final, cache)."""
    P = net.params
    cache: dict = {"X": Xb, "masks": dropout_masks or {}}
    E: dict[str, np.ndarray] = {}
    for b in BRANCH_ORDER:
        E[b] = np.tanh(Xb[b] @ P[f"enc_{b}_w"].T + P[f"enc_{b}_b"])
    cache["E"] = E

    H: dict[str, np.ndarray] = {"semantic": E["semantic"]}
    for b in GATED_BRANCHES:
        H[b], u, g, z = _cross_gate(
            E[b], E["semantic"], P[f"scgb_{b}_px"], P[f"scgb_{b}_py"], P[f"scgb_{b}_po"],
            cache["masks"].get(b, 1.0),
        )
        cache[f"scgb_{b}"] = (u, g, z)
    cache["H"] = H

    qs: dict[str, np.ndarray] = {}
    for b in BRANCH_ORDER:
        if net.head_hidden > 0:
            r = np.tanh(H[b] @ P[f"head_{b}_w1"].T + P[f"head_{b}_b1"])
            qs[b] = r @ P[f"head_{b}_w2"] + P[f"head_{b}_b2"]
            cache[f"head_{b}"] = r
        else:
            qs[b] = H[b] @ P[f"head_{b}_w"] + P[f"head_{b}_b"]
    final = (qs["semantic"] + qs["aesthetic"] + qs["technical"]) / 3.0
    return qs, final, cache


def _backward_batch(net: BranchNet, cache: dict, dq: dict[str, np.ndarray],
                    grads: dict[str, np.ndarray]):
    """Add the gradients of a scalar loss, given d(loss)/d(q_branch) per
    branch, into ``grads``: zeroed arrays by parameter name, each added to
    once."""
    P = net.params
    E, H = cache["E"], cache["H"]
    dH = {b: np.zeros_like(H[b]) for b in BRANCH_ORDER}

    for b in BRANCH_ORDER:
        g = np.asarray(dq[b], dtype=np.float64)
        if net.head_hidden > 0:
            r = cache[f"head_{b}"]
            grads[f"head_{b}_w2"] += r.T @ g
            grads[f"head_{b}_b2"] += g.sum()
            dpre = (g[:, None] * P[f"head_{b}_w2"][None, :]) * (1.0 - r * r)
            grads[f"head_{b}_w1"] += dpre.T @ H[b]
            grads[f"head_{b}_b1"] += dpre.sum(axis=0)
            dH[b] += dpre @ P[f"head_{b}_w1"]
        else:
            grads[f"head_{b}_w"] += H[b].T @ g
            grads[f"head_{b}_b"] += g.sum()
            dH[b] += g[:, None] * P[f"head_{b}_w"][None, :]

    dE = {b: np.zeros_like(E[b]) for b in BRANCH_ORDER}
    for b in GATED_BRANCHES:
        u, g, z = cache[f"scgb_{b}"]
        m = cache["masks"].get(b, 1.0)
        dHb = dH[b]
        dE[b] += dHb  # residual
        dz = dHb @ P[f"scgb_{b}_po"]
        grads[f"scgb_{b}_po"] += dHb.T @ z
        du = dz * g * m
        dg = dz * u * m
        dE[b] += du @ P[f"scgb_{b}_px"]
        grads[f"scgb_{b}_px"] += du.T @ E[b]
        dpre_g = dg * g * (1.0 - g)
        dE["semantic"] += dpre_g @ P[f"scgb_{b}_py"]
        grads[f"scgb_{b}_py"] += dpre_g.T @ E["semantic"]
    dE["semantic"] += dH["semantic"]

    for b in BRANCH_ORDER:
        dpre = dE[b] * (1.0 - E[b] * E[b])
        grads[f"enc_{b}_w"] += dpre.T @ cache["X"][b]
        grads[f"enc_{b}_b"] += dpre.sum(axis=0)


def _infer(net: BranchNet, Xb: dict[str, np.ndarray]):
    """Dropout-free forward of a routed batch; returns (qs, final)."""
    qs, final, _ = _forward_batch(net, Xb)
    if not np.isfinite(final).all():
        raise NumericalError("non-finite scores")
    return qs, final


def predict_scores(net: BranchNet, X: np.ndarray) -> np.ndarray:
    """Final scores for a raw feature matrix (rows in net.feature_names order)."""
    return _infer(net, net.route(np.atleast_2d(np.asarray(X, dtype=np.float64))))[1]
