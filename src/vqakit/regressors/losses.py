"""Training objective: the relative (rank + linearity) loss.

The relative loss combines a pairwise margin rank term over all ordered MOS
pairs with a linearity term 1 - PLCC(pred, mos); the per-branch sum of this
loss supervises all three branch scores against the same MOS. (Siamese
pretraining uses the logistic pair loss log(1 + exp(-(s_winner - s_loser)))
inline in training.train_siamese.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["rel_loss_grad", "total_loss"]


def _as_batch(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("need a 1-D batch of at least 2 values")
    return a


def _rank_term(pred: np.ndarray, mos: np.ndarray, margin: float):
    dm = mos[:, None] - mos[None, :]
    ordered = dm > 0
    count = int(ordered.sum())
    if count == 0:
        return np.zeros(len(pred)), np.zeros_like(pred)
    dp = pred[:, :, None] - pred[:, None, :]
    hinge = np.maximum(0.0, margin - dp)
    # each row's ordered hinges contiguous, so each row sums as one row alone
    # (hinge[:, ordered] is laid out pair-major and would sum in another order)
    value = np.compress(ordered.ravel(), hinge.reshape(len(pred), -1), axis=-1).sum(axis=-1)
    value /= count
    active = (ordered & (hinge > 0.0)).astype(np.float64)
    return value, (active.sum(axis=-2) - active.sum(axis=-1)) / count


def _linearity_term(pred: np.ndarray, mos: np.ndarray):
    mc = mos - mos.mean()
    smm = float(mc @ mc)
    if smm == 0.0:  # constant MOS: PLCC undefined, term skipped
        return np.zeros(len(pred)), np.zeros_like(pred)
    pc = pred - pred.mean(axis=-1, keepdims=True)
    # (1, B) @ (B, 1) per row: the 1-D dot product a single row would make
    spp = (pc[:, None, :] @ pc[:, :, None])[:, 0, 0]
    cross = (pc[:, None, :] @ mc[:, None])[:, 0, 0]
    # constant predictions against varying MOS: PLCC treated as 0 with a flat
    # (zero) gradient; the rank term drives the batch off this point
    const = spp == 0.0
    some_const = bool(const.any())
    if some_const:
        spp = np.where(const, 1.0, spp)
    norm = np.sqrt(spp * smm)
    r = cross / norm
    grad = -(mc / norm[:, None] - r[:, None] * pc / spp[:, None])
    if some_const:
        r[const] = 0.0
        grad[const] = 0.0
    return 1.0 - r, grad


def rel_loss_grad(predictions, mos, margin: float = 0.05):
    """(loss value, d loss / d predictions) for one branch batch, or for each
    row of a stack of them against the same MOS: then an array of values.
    A stack computes its MOS-only terms once and each row as one row alone."""
    m = _as_batch(mos)
    pred = np.asarray(predictions, dtype=np.float64)
    one = pred.ndim == 1
    if one:
        pred = pred[None, :]
    if pred.ndim != 2 or pred.shape[-1] < 2:
        raise ValueError("need a 1-D batch of at least 2 values, or a stack of them")
    if pred.shape[-1] != m.size:
        raise ValueError("predictions and mos must have equal length")
    rank, grank = _rank_term(pred, m, margin)
    lin, glin = _linearity_term(pred, m)
    value, grad = rank + lin, grank + glin
    return (float(value[0]), grad[0]) if one else (value, grad)


def total_loss(branch_batches, mos_batch, margin: float = 0.05) -> float:
    """Sum of the relative loss over a sequence of three branch score batches."""
    batches = list(branch_batches)
    if len(batches) != 3:
        raise ValueError(f"expected 3 branch batches, got {len(batches)}")
    return sum(rel_loss_grad(b, mos_batch, margin)[0] for b in batches)
