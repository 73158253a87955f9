"""Correlation and error metrics between predicted scores and MOS.

SROCC is Pearson correlation of average ranks (ties get the mean of their
rank positions), KROCC is Kendall tau-b with tie corrections, PLCC is raw
Pearson (no logistic pre-fitting), RMSE is the root mean squared difference.
Undefined correlations (constant inputs) raise instead of returning NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import JoinError, UndefinedCorrelation
from .tables import read_score_table

__all__ = [
    "MetricReport",
    "srocc",
    "krocc",
    "plcc",
    "rmse",
    "average_ranks",
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
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError("predictions and mos must be 1-D vectors of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values")
    return x, y


def average_ranks(x: np.ndarray) -> np.ndarray:
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
    return _pearson(average_ranks(x), average_ranks(y))


# pairs compared at a time by krocc: its memory stays flat in the number of points
_KROCC_BLOCK = 1 << 19


def krocc(x, y) -> float:
    """Kendall tau-b: (C-D)/sqrt((n0-n1)(n0-n2)) with tie corrections.

    Blocks of rows are compared with every point, so each pair counts twice
    and each point is tied with itself; the integer counts undo that exactly.
    """
    x, y = _check(x, y)
    n = x.size
    cd = ties_x = ties_y = 0
    rows = max(1, _KROCC_BLOCK // n)
    for a in range(0, n, rows):
        dx = np.sign(x[a:a + rows, None] - x)
        dy = np.sign(y[a:a + rows, None] - y)
        cd += int(np.sum(dx * dy))
        ties_x += int(np.count_nonzero(dx == 0))
        ties_y += int(np.count_nonzero(dy == 0))
    n0 = n * (n - 1) / 2.0
    n1 = float((ties_x - n) // 2)
    n2 = float((ties_y - n) // 2)
    denom = (n0 - n1) * (n0 - n2)
    if denom <= 0.0:
        raise UndefinedCorrelation("all pairs tied")
    return float(cd // 2) / float(np.sqrt(denom))


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
