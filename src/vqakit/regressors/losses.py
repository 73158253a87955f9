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
        return 0.0, np.zeros_like(pred)
    dp = pred[:, None] - pred[None, :]
    hinge = np.maximum(0.0, margin - dp)
    value = float(hinge[ordered].sum() / count)
    active = (ordered & (hinge > 0.0)).astype(np.float64)
    return value, (active.sum(axis=0) - active.sum(axis=1)) / count


def _linearity_term(pred: np.ndarray, mos: np.ndarray):
    mc = mos - mos.mean()
    smm = float(mc @ mc)
    if smm == 0.0:  # constant MOS: PLCC undefined, term skipped
        return 0.0, np.zeros_like(pred)
    pc = pred - pred.mean()
    spp = float(pc @ pc)
    if spp == 0.0:
        # constant predictions against varying MOS: PLCC treated as 0 with a
        # flat (zero) gradient; the rank term drives the batch off this point
        return 1.0, np.zeros_like(pred)
    r = float((pc @ mc) / np.sqrt(spp * smm))
    return 1.0 - r, -(mc / np.sqrt(spp * smm) - r * pc / spp)


def rel_loss_grad(predictions, mos, margin: float = 0.05):
    """(loss value, d loss / d predictions) for one branch batch."""
    pred = _as_batch(predictions)
    m = _as_batch(mos)
    if pred.shape != m.shape:
        raise ValueError("predictions and mos must have equal length")
    rank, grank = _rank_term(pred, m, margin)
    lin, glin = _linearity_term(pred, m)
    return rank + lin, grank + glin


def total_loss(branch_batches, mos_batch, margin: float = 0.05) -> float:
    """Sum of the relative loss over a sequence of three branch score batches."""
    batches = list(branch_batches)
    if len(batches) != 3:
        raise ValueError(f"expected 3 branch batches, got {len(batches)}")
    return sum(rel_loss_grad(b, mos_batch, margin)[0] for b in batches)
