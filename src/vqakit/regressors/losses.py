"""Training objective: the relative (rank + linearity) loss.

The relative loss combines a pairwise margin rank term over all ordered MOS
pairs with a linearity term 1 - PLCC(pred, mos); the per-branch sum of this
loss supervises all three branch scores against the same MOS. Its one form,
rel_loss_grad, takes a (rows, B) stack of score batches (the three branches'
scores, in BRANCH_ORDER) and computes each row as one row alone; the branch
values are added left to right by scoring._add_in_order, so total_loss and
training give the same bits on every Python. (Siamese pretraining uses the
logistic pair loss log(1 + exp(-(s_winner - s_loser))) inline in
training.train_siamese.)
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameter
from ..scoring import _add_in_order

__all__ = ["rel_loss_grad", "total_loss"]


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
    """(loss values, d loss / d predictions) for each row of a (rows, B)
    stack of score batches against the same MOS. The MOS-only terms are
    computed once, and each row as one row alone."""
    m = np.asarray(mos, dtype=np.float64)
    pred = np.asarray(predictions, dtype=np.float64)
    if m.ndim != 1 or m.size < 2 or pred.ndim != 2 or pred.shape[-1] != m.size:
        raise InvalidParameter("shapes", (pred.shape, m.shape), "(rows, B) scores, B >= 2 MOS")
    rank, grank = _rank_term(pred, m, margin)
    lin, glin = _linearity_term(pred, m)
    return rank + lin, grank + glin


def total_loss(branch_batches, mos_batch, margin: float = 0.05) -> float:
    """Sum of the relative loss over a sequence of three branch score batches."""
    batches = list(branch_batches)
    if len(batches) != 3:
        raise InvalidParameter("branch batches", len(batches), "3")
    return _add_in_order(rel_loss_grad(np.stack(batches), mos_batch, margin)[0].tolist())
