"""Discrete-level score machinery and ensemble fusion.

Level binning splits a score range into five equal intervals labeled
bad/poor/fair/good/excellent; a close-set softmax over level log-probabilities
yields a distribution whose probability-weighted level index is the final
score. Fusion combines per-model score vectors by a non-negative weighted
mean, optionally after per-model z-scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScores, OutOfRange

__all__ = [
    "LevelDistribution",
    "ScoreRange",
    "FusionSpec",
    "bin_score",
    "softmax_levels",
    "expected_score",
    "fuse_scores",
]


@dataclass(frozen=True)
class LevelDistribution:
    p: tuple[float, float, float, float, float]

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        object.__setattr__(self, "p", p)
        if len(p) != 5:
            raise ValueError("need exactly 5 probabilities")
        if any(v < 0.0 or v > 1.0 for v in p):
            raise ValueError(f"probabilities outside [0,1]: {p}")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(p)}, not 1")


@dataclass(frozen=True)
class ScoreRange:
    m: float
    M: float

    def __post_init__(self):
        if not self.M > self.m:
            raise ValueError(f"need M > m, got [{self.m}, {self.M}]")


MOS_RANGE = ScoreRange(1.0, 5.0)


@dataclass(frozen=True)
class FusionSpec:
    weights: tuple[float, ...]
    normalization: str = "none"

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if any(x < 0 for x in w) or sum(w) <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        if self.normalization not in ("none", "zscore"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


def bin_score(s: float, score_range: ScoreRange = MOS_RANGE) -> int:
    """Map a score to its level index in 1..5.

    Level i covers (m + (i-1)(M-m)/5, m + i(M-m)/5]; upper endpoints belong
    to their own level, and s == m clamps to level 1.
    """
    lo, hi = score_range.m, score_range.M
    if s < lo or s > hi:
        raise OutOfRange(f"{s} outside [{lo}, {hi}]")
    for i in range(1, 5):
        if s <= lo + (i * (hi - lo)) / 5.0:
            return i
    return 5


def softmax_levels(logits) -> LevelDistribution:
    """Numerically stable close-set softmax over the 5 level logits."""
    x = np.asarray(logits, dtype=np.float64)
    if x.shape != (5,):
        raise ValueError(f"need 5 logits, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")
    e = np.exp(x - x.max())
    p = e / e.sum()
    return LevelDistribution(tuple(p))


def expected_score(dist: LevelDistribution) -> float:
    """Probability-weighted level index, sum(i * p_i) over levels 1..5.

    Computed in the centered form 3 + 2(p5-p1) + (p4-p2), which is exact for
    symmetric distributions (the uniform case returns exactly 3.0).
    """
    p = dist.p
    return 3.0 + (2.0 * (p[4] - p[0]) + (p[3] - p[1]))


def fuse_scores(score_lists, spec: FusionSpec) -> np.ndarray:
    """Weighted per-clip mean of per-model score vectors.

    With normalization="zscore" each model's list is standardized (mean 0,
    population stddev 1) first; a zero-variance list is then an error.
    """
    arrays = [np.asarray(s, dtype=np.float64) for s in score_lists]
    if len(arrays) != len(spec.weights):
        raise ValueError(f"{len(arrays)} score lists vs {len(spec.weights)} weights")
    n = arrays[0].size
    if n < 1 or any(a.ndim != 1 or a.size != n for a in arrays):
        raise ValueError("score lists must be equal-length 1-D vectors")

    if spec.normalization == "zscore":
        normed = []
        for k, a in enumerate(arrays):
            sd = a.std()
            if sd == 0.0:
                raise DegenerateScores(k)
            normed.append((a - a.mean()) / sd)
        arrays = normed

    if len(arrays) == 1:  # single model: exact identity regardless of weight
        return arrays[0].copy()
    total = sum(w * a for w, a in zip(spec.weights, arrays))
    return total / sum(spec.weights)
