"""Deterministic gradient-descent training for the branch network.

Two phases mirror the rank-then-regress schedule: siamese pair training on
one or more datasets (pairs never cross datasets, so differing MOS scales are
harmless), followed by fine-tuning against MOS with the per-branch relative
loss. Plain gradient descent with decoupled weight decay keeps runs
bit-reproducible from (seed, config, data). A TrainConfig checks its rates,
counts and seed when it is made, so one that either phase cannot use fails
before any pretraining: counts and seed are integers (``check_count``), and
batch_size >= 2, since a fine-tuning batch needs a pair to rank.

The net keeps its parameters in one flat float64 vector, ``net.flat``, and
the passes read its stacked views, ``net.stacks``; gradients go into
vectors of the same layout. So a step sums, updates and decays the whole
net in a few numpy calls, in place, not one or more per parameter, and
every ``net.params[name]`` view sees it.

A call also routes (standardises and splits) its tables once; a step then
indexes rows. The step's passes are net._forward_batch and _backward_batch
on stacked branches: a siamese step puts its winners and losers on one side
axis, and a fine-tune step's three branch losses are one rel_loss_grad call
on (3, B) scores, added in branch order by the same helper as total_loss.
Gradient vectors and their views come from net._param_stacks. The backward
pass writes each gradient entry once, and the step adds 0.0 to the vector,
as adding into a zeroed vector did: a -0.0 becomes +0.0. The siamese
gradient is still the winner's plus the loser's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameter, NoTrainablePairs, check_count
from ..scoring import _add_in_order
from .losses import rel_loss_grad
from .net import (GATED_BRANCHES, BranchNet, _backward_batch, _forward_batch, _named_views,
                  _param_stacks, _sigmoid)

__all__ = ["TrainConfig", "train_siamese", "finetune_mos", "total_loss_gradients"]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 60
    batch_size: int = 16
    seed: int = 0
    rank_margin: float = 0.05
    weight_decay: float = 0.05

    def __post_init__(self):
        for name in ("learning_rate", "rank_margin", "weight_decay"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:  # NaN fails too
                raise InvalidParameter(name, value, "a finite number >= 0")
        # a fine-tuning batch is ranked and correlated, so it needs at least a pair
        for name, least in (("epochs", 0), ("batch_size", 2), ("seed", 0)):
            check_count(name, getattr(self, name), least)


def _check_dataset(X, mos):
    X = np.asarray(X, dtype=np.float64)
    m = np.asarray(mos, dtype=np.float64)
    if X.ndim != 2 or m.ndim != 1 or X.shape[0] != m.size or m.size < 2:
        raise InvalidParameter("dataset", (X.shape, m.shape), "(n x d features, n mos), n >= 2")
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


def _dropout_masks(net: BranchNet, n: int, rng: np.random.Generator, sides: tuple = ()):
    """The gates' dropout masks, (*sides, 2, n, embed_dim), or None without
    dropout. One draw reads the stream as a draw of (n, embed_dim) per side
    and gate, in that order, would."""
    p = net.gate_dropout
    if p <= 0.0:
        return None
    keep = 1.0 - p
    return (rng.random(sides + (len(GATED_BRANCHES), n, net.embed_dim)) < keep) / keep


def _decays(net: BranchNet) -> np.ndarray:
    """A mask of the parameter vector's entries that weight decay shrinks:
    the matrices'."""
    mask = np.zeros(net.n_params(), dtype=bool)
    for v in _named_views(_param_stacks(net, mask)).values():
        v[...] = v.ndim == 2
    return mask


def _apply_update(flat: np.ndarray, decays: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
    lr, wd = cfg.learning_rate, cfg.weight_decay
    flat -= lr * grad
    if wd > 0.0:  # decoupled decay, matrices only
        np.subtract(flat, lr * wd * flat, out=flat, where=decays)


def total_loss_gradients(net: BranchNet, X, mos):
    """Value and by-name parameter gradients of the summed relative loss at
    the default margin, without gate dropout: a deterministic,
    finite-difference-checkable function of the parameters."""
    X, m = _check_dataset(X, mos)
    grad = _param_stacks(net, ())
    value = _relative_loss(net, net.route(X), m, TrainConfig.rank_margin, None, grad)
    return value, _named_views(grad[1])


def _relative_loss(net: BranchNet, Xb, m, margin: float, masks, grad) -> float:
    """The summed relative loss of a routed, checked batch: writes its
    gradient into ``grad`` (a _param_stacks vector and views) and returns
    its value. The three branches' losses are one stacked call."""
    _, _, cache = _forward_batch(net, Xb, masks)
    values, dQ = rel_loss_grad(cache["Q"], m, margin)
    _backward_batch(cache, dQ, grad[1])
    np.add(grad[0], 0.0, out=grad[0])  # every zero +0.0, as in a sum started from zero
    return _add_in_order(values.tolist())


def train_siamese(datasets, net: BranchNet, config: TrainConfig,
                  history: list | None = None) -> BranchNet:
    """Pairwise rank pretraining over one or more (features, mos) datasets.

    Each step draws a batch of pairs from a single dataset (never across
    datasets) and descends the logistic pair loss of the final score.
    """
    data = [_check_dataset(X, m) for X, m in datasets]
    if not data:
        raise InvalidParameter("datasets", data, "at least one (features, mos) pair")
    if config.epochs == 0:
        return net
    trainable = [k for k, (_, m) in enumerate(data) if np.unique(m).size > 1]
    if not trainable:
        raise NoTrainablePairs("every dataset has constant MOS")

    _fit_norm(net, [X for X, _ in data])
    ss = np.random.SeedSequence(config.seed)
    rng, drop_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    decays = _decays(net)
    routed = [net.route(X) for X, _ in data]
    sides, side_grads = _param_stacks(net, (2,))
    grad = np.empty(net.n_params())

    for epoch in range(config.epochs):
        losses = []
        pair_counts = {k: 0 for k in range(len(data))}
        for k in trainable:
            m, Xr = data[k][1], routed[k]
            n = m.size
            steps = -(-n // config.batch_size)
            for _ in range(steps):
                ii = rng.integers(0, n, size=config.batch_size)
                jj = rng.integers(0, n, size=config.batch_size)
                valid = m[ii] != m[jj]
                if not valid.any():
                    continue
                ii, jj = ii[valid], jj[valid]
                swap = m[jj] > m[ii]
                pair = np.where(swap, (jj, ii), (ii, jj))  # (winners, losers)
                B = pair.shape[1]
                pair_counts[k] += B

                # both sides in one pass: (side, branch, B, width) stacks
                masks = _dropout_masks(net, B, drop_rng, (2,))
                _, s, cache = _forward_batch(net, {b: x[pair] for b, x in Xr.items()}, masks)
                d = s[0] - s[1]
                losses.append(float(np.mean(np.logaddexp(0.0, -d))))
                dQ = np.empty((2, 3, B))  # d(mean loss)/d(branch score), by side
                dQ[0] = -_sigmoid(-d) / B / 3.0
                np.negative(dQ[0], out=dQ[1])
                _backward_batch(cache, dQ, side_grads)
                np.add(sides[0], 0.0, out=grad)  # winner's + loser's, every zero +0.0
                grad += sides[1]
                _apply_update(net.flat, decays, grad, config)
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
    decays, routed = _decays(net), net.route(X)
    grad = _param_stacks(net, ())

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue  # a rank/linearity batch needs at least a pair
            masks = _dropout_masks(net, idx.size, drop_rng)
            losses.append(_relative_loss(net, {b: x[idx] for b, x in routed.items()}, m[idx],
                                         config.rank_margin, masks, grad))
            _apply_update(net.flat, decays, grad[0], config)
        if history is not None:
            history.append({
                "phase": "finetune",
                "epoch": epoch + 1,
                "loss": float(np.mean(losses)) if losses else None,
            })
    return net
