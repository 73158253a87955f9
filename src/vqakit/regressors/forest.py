"""Random-forest regression from scratch (CART trees, variance splits).

Each tree is fit on a bootstrap resample with a random feature subset per
node (sqrt fraction by default). Per-tree RNG streams are derived from the
forest seed and the tree index, so fitting is bit-reproducible; prediction is
the exact arithmetic mean over trees.

The whole forest lives in one set of node arrays, the flat layout compiled
tree engines use (QuickScorer, Lucchese et al., SIGIR 2015): prediction steps
every tree of every row at once, one fancy-index step per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DimensionMismatch, EmptyInput, NumericalError

__all__ = ["ForestModel", "fit_forest", "predict_forest"]


@dataclass(frozen=True)
class ForestModel:
    """All trees in one set of node arrays.

    Tree t owns nodes ``roots[t]`` up to the next root, its root first, and
    every child sits after its parent. ``left``/``right`` are indices into the
    whole forest. A leaf has ``feature == -1`` and is its own left and right
    child, so stepping past a leaf stays on it. ``n_features`` is the width
    of the rows the forest reads, or None for a checkpoint saved without
    feature names.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    n_features: int | None
    seed: int
    max_depth: int
    min_leaf: int
    feature_fraction: float
    feature_names: tuple[str, ...] | None = None

    @property
    def n_trees(self) -> int:
        return self.roots.size

    def node_count(self) -> int:
        return self.feature.size

    @cached_property
    def depth(self) -> int:
        """The longest root-to-leaf path: the steps predict takes."""
        depth, node = 0, self.roots
        while True:
            node = node[self.feature[node] >= 0]
            if node.size == 0:
                return depth
            node = np.concatenate((self.left[node], self.right[node]))
            depth += 1


class _TreeBuilder:
    """Grows one tree on a bootstrap sample, depth first, as the nodes from
    ``base`` on of a packed forest.

    Each column's rows are sorted once, stably, so ties order by (value, row).
    A node holds its members sorted by every column, one row of ``order`` per
    column; a split partitions each row by side and keeps its order.
    """

    def __init__(self, X, y, max_depth, min_leaf, k_features, rng, base):
        self.Xt = np.ascontiguousarray(X.T)
        self.y = y
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.k = k_features
        self.rng = rng
        self.base = base
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _add(self) -> int:
        node = self.base + len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(node)
        self.right.append(node)
        self.value.append(0.0)
        return node

    def _best_split(self, order: np.ndarray):
        d, n = order.shape
        feats = np.sort(self.rng.choice(d, size=self.k, replace=False))
        # candidate split after sorted position c-1 (left part gets c rows);
        # build calls this only with n >= 2 * min_leaf, so there is one at least
        cs = np.arange(self.min_leaf, n - self.min_leaf + 1)
        rows = order[feats]
        xs = self.Xt[feats[:, None], rows]
        ys = self.y[rows]
        cum = np.cumsum(ys, axis=1)
        cum2 = np.cumsum(ys * ys, axis=1)
        lsum, lsum2 = cum[:, cs - 1], cum2[:, cs - 1]
        rsum, rsum2 = cum[:, -1:] - lsum, cum2[:, -1:] - lsum2
        sse = (lsum2 - lsum * lsum / cs) + (rsum2 - rsum * rsum / (n - cs))
        # only boundaries between distinct values are usable
        sse[xs[:, cs - 1] >= xs[:, cs]] = np.inf
        # first minimum in (feature, position) order
        f, c = divmod(int(np.argmin(sse)), cs.size)
        if sse[f, c] == np.inf:
            return None
        return int(feats[f]), 0.5 * (xs[f, cs[c] - 1] + xs[f, cs[c]])

    def build(self, idx: np.ndarray, order: np.ndarray, depth: int) -> int:
        """Grow the subtree of the members ``idx`` (ascending) at ``depth``."""
        node = self._add()
        i = node - self.base
        y = self.y[idx]
        self.value[i] = float(y.mean())
        if (
            depth >= self.max_depth
            or idx.size < 2 * self.min_leaf
            or np.all(y == y[0])
        ):
            return node
        best = self._best_split(order)
        if best is None:
            return node
        f, thr = best
        goes_left = self.Xt[f] <= thr  # by bootstrap row; only members are read
        mask = goes_left[idx]
        side = goes_left[order]
        n_left = int(mask.sum())
        self.feature[i] = f
        self.threshold[i] = thr
        self.left[i] = self.build(idx[mask], order[side].reshape(-1, n_left), depth + 1)
        self.right[i] = self.build(
            idx[~mask], order[~side].reshape(-1, idx.size - n_left), depth + 1)
        return node

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (
            np.array(self.feature, dtype=np.intp),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.left, dtype=np.intp),
            np.array(self.right, dtype=np.intp),
            np.array(self.value, dtype=np.float64),
        )


def _fit_one(t: int, X, y, seed, max_depth, min_leaf, k_features, base):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
    boot = rng.integers(0, X.shape[0], size=X.shape[0])
    builder = _TreeBuilder(X[boot], y[boot], max_depth, min_leaf, k_features, rng, base)
    order = np.argsort(builder.Xt, axis=1, kind="stable")
    builder.build(np.arange(X.shape[0], dtype=np.intp), order, 0)
    return builder.arrays()


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

    Fewer than ``2 * min_leaf`` rows raise ``EmptyInput``: no node could
    split, so every tree would be one leaf that scores every input the same.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInput("feature matrix is empty")
    if X.shape[0] != y.size or y.size < 2:
        raise EmptyInput(f"need >= 2 rows with targets, got {X.shape[0]}/{y.size}")
    if y.size < 2 * min_leaf:
        raise EmptyInput(f"{y.size} rows cannot split with min_leaf={min_leaf}: "
                         f"need >= {2 * min_leaf}")
    if n_trees < 1:
        raise EmptyInput(f"need >= 1 tree, got {n_trees}")
    _check_finite(X, "feature matrix", feature_names)
    _check_finite(y, "target vector")
    d = X.shape[1]
    frac = feature_fraction if feature_fraction is not None else np.sqrt(d) / d
    k_features = min(d, max(1, round(frac * d)))
    trees, roots = [], [0]
    for t in range(n_trees):
        trees.append(_fit_one(t, X, y, seed, max_depth, min_leaf, k_features, roots[-1]))
        roots.append(roots[-1] + trees[-1][0].size)
    return ForestModel(
        *(np.concatenate(a) for a in zip(*trees)), np.array(roots[:-1], dtype=np.intp),
        n_features=d, seed=seed, max_depth=max_depth, min_leaf=min_leaf,
        feature_fraction=frac,
        feature_names=tuple(feature_names) if feature_names is not None else None,
    )


def predict_forest(model: ForestModel, x) -> float | np.ndarray:
    """Mean over trees; accepts a single feature vector or an (n, d) matrix.

    Each row's tree outputs are added in tree order along a contiguous axis,
    so a row scores the same bits alone or in a batch.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    X = np.atleast_2d(arr)
    cols = X.shape[1] if X.ndim == 2 else 0
    width = model.n_features
    if width is None:  # no recorded width: the rows must hold every column a split reads
        fits = cols > model.feature.max()
    else:
        fits = cols == width
    if cols == 0 or not fits:
        raise DimensionMismatch(f"feature matrix has shape {X.shape}; the forest takes "
                                f"{width if width is not None else 'more'} columns")
    _check_finite(X, "feature matrix", model.feature_names)
    rows = np.arange(X.shape[0])[:, None]
    node = np.tile(model.roots, (X.shape[0], 1))
    for _ in range(model.depth):
        go_left = X[rows, model.feature[node]] <= model.threshold[node]
        node = np.where(go_left, model.left[node], model.right[node])
    out = model.value[node].mean(axis=1)
    return float(out[0]) if single else out
