"""Deterministic gradient-descent training for the branch network.

Two phases mirror the rank-then-regress schedule: siamese pair training on
one or more datasets (pairs never cross datasets, so differing MOS scales are
harmless), followed by fine-tuning against MOS with the per-branch relative
loss. Plain gradient descent with decoupled weight decay keeps runs
bit-reproducible from (seed, config, data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoTrainablePairs
from .losses import rel_loss_grad
from .net import (BRANCH_ORDER, GATED_BRANCHES, BranchNet, _backward_batch, _forward_batch,
                  _sigmoid)

__all__ = ["TrainConfig", "train_siamese", "finetune_mos", "total_loss_gradients"]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 20
    batch_size: int = 8
    seed: int = 0
    rank_margin: float = 0.05
    weight_decay: float = 0.05

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rank_margin < 0 or self.weight_decay < 0:
            raise ValueError("rank_margin and weight_decay must be >= 0")


def _check_dataset(X, mos):
    X = np.asarray(X, dtype=np.float64)
    m = np.asarray(mos, dtype=np.float64)
    if X.ndim != 2 or m.ndim != 1 or X.shape[0] != m.size or m.size < 2:
        raise ValueError("dataset must be (n x d features, n mos) with n >= 2")
    return X, m


def _fit_norm(net: BranchNet, Xs: list[np.ndarray]):
    if net.norm_fitted:
        return
    allx = np.concatenate(Xs, axis=0)
    net.norm_shift = allx.mean(axis=0)
    scale = allx.std(axis=0)
    scale[scale == 0.0] = 1.0
    net.norm_scale = scale
    net.norm_fitted = True


def _dropout_masks(net: BranchNet, n: int, rng: np.random.Generator):
    p = net.gate_dropout
    if p <= 0.0:
        return {}
    keep = 1.0 - p
    return {
        b: (rng.random((n, net.embed_dim)) < keep) / keep for b in GATED_BRANCHES
    }


def _apply_update(net: BranchNet, grads: dict[str, np.ndarray], cfg: TrainConfig):
    lr, wd = cfg.learning_rate, cfg.weight_decay
    for name in net.param_names():
        p = net.params[name]
        p -= lr * grads[name]
        if wd > 0.0 and p.ndim == 2:  # decoupled decay, matrices only
            p -= lr * wd * p


def total_loss_gradients(net: BranchNet, X, mos, cfg: TrainConfig | None = None,
                         dropout_rng: np.random.Generator | None = None):
    """Loss value and parameter gradients of the summed relative loss.

    With dropout_rng=None the gate dropout is disabled, which makes the
    result a deterministic, finite-difference-checkable function of the
    parameters.
    """
    cfg = cfg or TrainConfig()
    X, m = _check_dataset(X, mos)
    masks = _dropout_masks(net, X.shape[0], dropout_rng) if dropout_rng is not None else {}
    qs, _, cache = _forward_batch(net, net.route(X), masks)
    value = 0.0
    dq = {}
    for b in BRANCH_ORDER:
        v, g = rel_loss_grad(qs[b], m, cfg.rank_margin)
        value += v
        dq[b] = g
    return value, _backward_batch(net, cache, dq)


def train_siamese(datasets, net: BranchNet, config: TrainConfig,
                  history: list | None = None) -> BranchNet:
    """Pairwise rank pretraining over one or more (features, mos) datasets.

    Each step draws a batch of pairs from a single dataset (never across
    datasets) and descends the logistic pair loss of the final score.
    """
    data = [_check_dataset(X, m) for X, m in datasets]
    if not data:
        raise ValueError("need at least one dataset")
    if config.epochs == 0:
        return net
    trainable = [k for k, (_, m) in enumerate(data) if np.unique(m).size > 1]
    if not trainable:
        raise NoTrainablePairs("every dataset has constant MOS")

    _fit_norm(net, [X for X, _ in data])
    ss = np.random.SeedSequence(config.seed)
    rng, drop_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    for epoch in range(config.epochs):
        losses = []
        pair_counts = {k: 0 for k in range(len(data))}
        for k in trainable:
            X, m = data[k]
            n = X.shape[0]
            steps = -(-n // config.batch_size)
            for _ in range(steps):
                ii = rng.integers(0, n, size=config.batch_size)
                jj = rng.integers(0, n, size=config.batch_size)
                valid = m[ii] != m[jj]
                if not valid.any():
                    continue
                ii, jj = ii[valid], jj[valid]
                swap = m[jj] > m[ii]
                wi = np.where(swap, jj, ii)  # winners
                li = np.where(swap, ii, jj)
                B = wi.size
                pair_counts[k] += B

                masks_w = _dropout_masks(net, B, drop_rng)
                masks_l = _dropout_masks(net, B, drop_rng)
                _, s_w, cache_w = _forward_batch(net, net.route(X[wi]), masks_w)
                _, s_l, cache_l = _forward_batch(net, net.route(X[li]), masks_l)
                d = s_w - s_l
                losses.append(float(np.mean(np.logaddexp(0.0, -d))))
                dd = -_sigmoid(-d) / B  # d(mean loss)/dd
                dq_w = {b: dd / 3.0 for b in BRANCH_ORDER}
                dq_l = {b: -dd / 3.0 for b in BRANCH_ORDER}
                g_w = _backward_batch(net, cache_w, dq_w)
                g_l = _backward_batch(net, cache_l, dq_l)
                _apply_update(net, {k2: g_w[k2] + g_l[k2] for k2 in g_w}, config)
        if history is not None:
            history.append({
                "phase": "siamese",
                "epoch": epoch + 1,
                "loss": float(np.mean(losses)) if losses else None,
                "pairs": {str(k): v for k, v in pair_counts.items()},
            })
    return net


def finetune_mos(dataset, net: BranchNet, config: TrainConfig,
                 history: list | None = None) -> BranchNet:
    """Gradient descent on the summed per-branch relative loss against MOS."""
    X, m = _check_dataset(*dataset)
    if config.epochs == 0:
        return net
    if np.unique(m).size < 2:
        raise NoTrainablePairs("constant MOS")
    _fit_norm(net, [X])
    ss = np.random.SeedSequence(config.seed)
    rng, drop_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    n = X.shape[0]

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue  # a rank/linearity batch needs at least a pair
            value, grads = total_loss_gradients(net, X[idx], m[idx], config, drop_rng)
            losses.append(value)
            _apply_update(net, grads, config)
        if history is not None:
            history.append({
                "phase": "finetune",
                "epoch": epoch + 1,
                "loss": float(np.mean(losses)) if losses else None,
            })
    return net
