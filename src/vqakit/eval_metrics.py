"""Correlation and error metrics between predicted scores and MOS.

SROCC is Pearson correlation of average ranks (ties get the mean of their
rank positions), KROCC is Kendall tau-b with tie corrections (counted in
O(n log n) by Knight's merge), PLCC is raw Pearson (no logistic
pre-fitting), RMSE is the root mean squared difference.
Undefined correlations (constant inputs) raise instead of returning NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, JoinError, NumericalError, UndefinedCorrelation
from .tables import read_score_table

__all__ = [
    "MetricReport",
    "srocc",
    "krocc",
    "plcc",
    "rmse",
    "evaluate",
]


@dataclass(frozen=True)
class MetricReport:
    srocc: float
    krocc: float
    plcc: float
    rmse: float

    def to_json(self) -> str:
        return json.dumps(
            {k: round(getattr(self, k), 6) for k in ("srocc", "krocc", "plcc", "rmse")}
        )


def _check(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and MOS as equal-length, finite float vectors of >= 2 points."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise InvalidParameter("shapes", (x.shape, y.shape), "two 1-D vectors of one length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalError("predictions or mos hold a non-finite value")
    return x, y


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values receive the mean of their positions."""
    x = np.asarray(x, dtype=np.float64)
    s = np.sort(x)
    left = np.searchsorted(s, x, side="left")
    right = np.searchsorted(s, x, side="right")
    return (left + right + 1) / 2.0


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelation("constant vector")
    return float((xc @ yc) / np.sqrt(sxx * syy))


def srocc(x, y) -> float:
    x, y = _check(x, y)
    return _pearson(_average_ranks(x), _average_ranks(y))


def _tied_pairs(*sorted_keys: np.ndarray) -> int:
    """Pairs equal in every key, from the run lengths of rows sorted by the keys."""
    change = np.zeros(sorted_keys[0].size - 1, dtype=bool)
    for k in sorted_keys:
        change |= k[1:] != k[:-1]
    runs = np.diff(np.flatnonzero(np.concatenate(([True], change, [True]))))
    return int(np.sum(runs * (runs - 1) // 2))


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integers 0 <= r < n, by a bottom-up
    merge: at each level every left block is counted against its right
    neighbour with one searchsorted, offsetting each pair of blocks by n so
    that all the left blocks form one sorted array."""
    n = r.size
    pos = np.arange(n)
    count = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        keys = r + pair * n
        left = pos % (2 * width) < width
        # a pair with a right block has a full left block, ending at (pair + 1) * width
        ends = (pair[~left] + 1) * width
        count += int(np.sum(ends - np.searchsorted(keys[left], keys[~left], side="right")))
        r = np.sort(keys, kind="stable") - pair * n
        width *= 2
    return count


def krocc(x, y) -> float:
    """Kendall tau-b: (C-D)/sqrt((n0-n1)(n0-n2)) with tie corrections.

    Knight's O(n log n) count: in (x, y) order the discordant pairs are the
    inversions of y, and C - D = n0 - n1 - n2 + n3 - 2D, where n3 counts the
    pairs tied in both. The counts are exact integers.
    """
    x, y = _check(x, y)
    n = x.size
    order = np.lexsort((y, x))
    xs, ys, y_sorted = x[order], y[order], np.sort(y)
    ties_x, ties_y, ties_xy = _tied_pairs(xs), _tied_pairs(y_sorted), _tied_pairs(xs, ys)
    discordant = _inversions(np.searchsorted(y_sorted, ys))
    cd = n * (n - 1) // 2 - ties_x - ties_y + ties_xy - 2 * discordant
    n0 = n * (n - 1) / 2.0
    denom = (n0 - ties_x) * (n0 - ties_y)
    if denom <= 0.0:
        raise UndefinedCorrelation("all pairs tied")
    return float(cd) / float(np.sqrt(denom))


def plcc(x, y) -> float:
    return _pearson(*_check(x, y))


def rmse(x, y) -> float:
    x, y = _check(x, y)
    d = x - y
    return float(np.sqrt(np.mean(d * d)))


def evaluate(predictions_csv, mos_csv) -> MetricReport:
    """Inner-join two CSVs on clip_id and compute all four metrics.

    Every prediction must have a MOS row; extra MOS rows are ignored.
    """
    preds = read_score_table(predictions_csv, "score")
    moses = read_score_table(mos_csv, "mos")
    for cid in preds:
        if cid not in moses:
            raise JoinError(cid)
    x = np.array(list(preds.values()))
    y = np.array([moses[c] for c in preds])
    return MetricReport(srocc(x, y), krocc(x, y), plcc(x, y), rmse(x, y))
