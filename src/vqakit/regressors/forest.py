"""Random-forest regression from scratch (CART trees, variance splits).

Each tree is fit on a bootstrap resample with a random feature subset per
node (sqrt fraction by default). Per-tree RNG streams are derived from the
forest seed and the tree index, so fitting is bit-reproducible; prediction is
the exact arithmetic mean over trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput, NumericalError

__all__ = ["Tree", "ForestModel", "fit_forest", "predict_forest"]


@dataclass(frozen=True)
class Tree:
    """Array-encoded binary tree; leaves have feature == -1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return self.value[node]

    def n_nodes(self) -> int:
        return self.feature.size


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[Tree, ...]
    n_trees: int
    seed: int
    max_depth: int
    min_leaf: int
    feature_fraction: float
    feature_names: tuple[str, ...] | None = None

    def node_count(self) -> int:
        return sum(t.n_nodes() for t in self.trees)


class _TreeBuilder:
    def __init__(self, X, y, max_depth, min_leaf, k_features, rng):
        self.X, self.y = X, y
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.k = k_features
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, idx: np.ndarray):
        d = self.X.shape[1]
        feats = np.sort(self.rng.choice(d, size=self.k, replace=False))
        best = None  # (sse, feature, threshold)
        y = self.y[idx]
        n = idx.size
        for f in feats:
            x = self.X[idx, f]
            order = np.argsort(x, kind="stable")
            xs, ys = x[order], y[order]
            cum = np.cumsum(ys)
            cum2 = np.cumsum(ys * ys)
            # candidate split after sorted position c-1 (left part gets c rows);
            # only boundaries between distinct values are usable
            cs = np.arange(self.min_leaf, n - self.min_leaf + 1)
            if cs.size:
                cs = cs[xs[cs - 1] < xs[cs]]
            if cs.size == 0:
                continue
            lsum, lsum2 = cum[cs - 1], cum2[cs - 1]
            rsum, rsum2 = cum[-1] - lsum, cum2[-1] - lsum2
            sse = (lsum2 - lsum * lsum / cs) + (rsum2 - rsum * rsum / (n - cs))
            j = int(np.argmin(sse))
            if best is None or sse[j] < best[0]:
                thr = 0.5 * (xs[cs[j] - 1] + xs[cs[j]])
                best = (float(sse[j]), int(f), thr)
        return best

    def build(self, idx: np.ndarray, depth: int) -> int:
        node = self._add()
        y = self.y[idx]
        self.value[node] = float(y.mean())
        if (
            depth >= self.max_depth
            or idx.size < 2 * self.min_leaf
            or np.all(y == y[0])
        ):
            return node
        best = self._best_split(idx)
        if best is None:
            return node
        _, f, thr = best
        mask = self.X[idx, f] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self.build(idx[mask], depth + 1)
        self.right[node] = self.build(idx[~mask], depth + 1)
        return node

    def tree(self) -> Tree:
        return Tree(
            np.array(self.feature, dtype=np.intp),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.left, dtype=np.intp),
            np.array(self.right, dtype=np.intp),
            np.array(self.value, dtype=np.float64),
        )


def _fit_one(t: int, X, y, seed, max_depth, min_leaf, k_features) -> Tree:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
    boot = rng.integers(0, X.shape[0], size=X.shape[0])
    builder = _TreeBuilder(X[boot], y[boot], max_depth, min_leaf, k_features, rng)
    builder.build(np.arange(X.shape[0], dtype=np.intp), 0)
    return builder.tree()


def _check_finite(a: np.ndarray, what: str, names=None):
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        names = () if names is None else tuple(names)
        row, *col = (int(i) for i in bad[0])
        where = f"row {row}" + "".join(f", column {names[c] if c < len(names) else c}"
                                       for c in col)
        raise NumericalError(f"{what} has non-finite value {a[tuple(bad[0])]} at {where}")


def fit_forest(
    X,
    y,
    n_trees: int = 300,
    seed: int = 0,
    max_depth: int = 12,
    min_leaf: int = 2,
    feature_fraction: float | None = None,
    threads: int | None = None,
    feature_names=None,
) -> ForestModel:
    """Fit n_trees CART trees, one after another.

    ``threads`` is accepted for call compatibility and has no effect: tree
    building is Python code that holds the GIL, so a thread pool made fitting
    slower, not faster.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInput("feature matrix is empty")
    if X.shape[0] != y.size or y.size < 2:
        raise EmptyInput(f"need >= 2 rows with targets, got {X.shape[0]}/{y.size}")
    _check_finite(X, "feature matrix", feature_names)
    _check_finite(y, "target vector")
    d = X.shape[1]
    frac = feature_fraction if feature_fraction is not None else np.sqrt(d) / d
    k_features = min(d, max(1, round(frac * d)))
    trees = [_fit_one(t, X, y, seed, max_depth, min_leaf, k_features)
             for t in range(n_trees)]
    return ForestModel(
        tuple(trees), n_trees, seed, max_depth, min_leaf, frac,
        tuple(feature_names) if feature_names is not None else None,
    )


def predict_forest(model: ForestModel, x) -> float | np.ndarray:
    """Mean over trees; accepts a single feature vector or an (n, d) matrix."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    X = np.atleast_2d(arr)
    _check_finite(X, "feature matrix", model.feature_names)
    preds = np.stack([t.predict(X) for t in model.trees], axis=0)
    out = preds.mean(axis=0)
    return float(out[0]) if single else out
