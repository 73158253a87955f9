"""Random-forest regression from scratch (CART trees, variance splits).

Each tree is fit on a bootstrap resample with a random feature subset per
node (sqrt fraction by default). Per-tree RNG streams are derived from the
forest seed and the tree index, so fitting is bit-reproducible; prediction is
the exact arithmetic mean over trees.

Trees grow in lock-step, in chunks of consecutive tree indices. Each round
takes the next depth-first node of every unfinished tree in the chunk; the
node's features are drawn from its own tree's RNG, in the order a recursive
build would draw them. The draw replays numpy's ``Generator.choice(d, k,
replace=False)`` in Python on a block of the tree's 32-bit words, the stream
``choice`` itself reads, so it costs a third of a ``choice`` call and gives
the same features. One padded numpy pass then searches the splits of all the
round's nodes, and one more partitions their members. Only the draw and the
node's mean run per node. Each node's arithmetic is that of a search on the
node alone, so the trees are the same, bit for bit, as node-by-node growth
gives. A chunk holds at least 8 trees and about 8192 bootstrap rows (51
trees of 160 rows), and each pass is capped, so a 300-tree fit of a 160x9
table peaks at about 4.5 MiB under tracemalloc, 1.4 MiB of it the model.
Chunks of 4096 rows peaked at 3.05 MiB and fitted about a fifth slower.

The whole forest lives in one set of node arrays, the flat layout compiled
tree engines use (QuickScorer, Lucchese et al., SIGIR 2015): prediction steps
every tree of every row at once, one fancy-index step per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from ..errors import DimensionMismatch, EmptyInput, InvalidParameter, NumericalError

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


# Trees grow together in chunks of consecutive indices: at least 8 trees, so
# that each round's numpy calls serve several nodes, and about 8192 bootstrap
# rows in all when trees are small (51 trees of 160 rows). A chunk keeps about
# 180 bytes per bootstrap row.
_CHUNK_ROWS = 8192
_MIN_CHUNK_TREES = 8
# A padded split search or a partition works on at most this many values an
# array (more only for a single node that is larger), so a round's scratch
# memory does not grow with the chunk.
_PASS_VALUES = 1 << 15


def _chunk_trees(n_rows: int) -> int:
    return max(_MIN_CHUNK_TREES, _CHUNK_ROWS // n_rows)


def _batches(values):
    """Consecutive slices of ``values`` (a list), each summing to at most
    ``_PASS_VALUES`` unless it is a single item."""
    first, total = 0, 0
    for j, v in enumerate(values):
        if total + v > _PASS_VALUES and j > first:
            yield slice(first, j)
            first, total = j, 0
        total += v
    yield slice(first, len(values))


# 32-bit words a tree draws from its generator at a time for its feature draws
# (a 160-row tree reads about 330)
_WORD_BLOCK = 256


def _words(rng):
    """The generator's stream of 32-bit words, the one ``next_uint32`` serves
    and ``Generator.choice`` reads, as Python ints, a block at a time."""
    while True:
        yield from memoryview(rng.integers(0, 1 << 32, size=_WORD_BLOCK, dtype=np.uint32))


def _bounded(words, top):
    """An integer in [0, top] (top < 2**32) from ``words``, as numpy's bounded
    draw makes it: Lemire's multiply-shift on one word, redrawn while the low
    half falls under 2**32 mod (top + 1); top 0 reads no word."""
    if top == 0:
        return 0
    span = top + 1
    m = next(words) * span
    if (m & 0xFFFFFFFF) < span:
        floor = (0x100000000 - span) % span
        while (m & 0xFFFFFFFF) < floor:
            m = next(words) * span
    return m >> 32


def _choice(words, d, k):
    """``Generator.choice(d, k, replace=False)`` replayed on the generator's
    ``words``: the same k of range(d) (d <= 2**32), in the same order, and the
    same words read. numpy shuffles the tail of range(d) when d > 10000 and
    k > d // 50, and otherwise runs Floyd's algorithm, then shuffles the
    result."""
    if d > 10000 and k > d // 50:
        pool = list(range(d))
        for i in range(d - 1, max(d - k, 1) - 1, -1):
            j = _bounded(words, i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[d - k:]
    out, seen = [], set()
    for j in range(d - k, d):
        v = _bounded(words, j)
        if v in seen:
            v = j
        seen.add(v)
        out.append(v)
    for i in range(k - 1, 0, -1):
        j = _bounded(words, i)
        out[i], out[j] = out[j], out[i]
    return out


def _ranges(lo, size):
    """Positions ``lo[i]`` up to ``lo[i] + size[i]``, one range after another."""
    ends = size.cumsum()
    return (lo - ends + size).repeat(size) + np.arange(ends[-1])


def _search(Xt, ys, order, lo, m, feats, min_leaf):
    """The least-SSE split of each node, all nodes in one padded pass.

    Node i's members sit at ``lo[i]`` up to ``lo[i] + m[i]`` in every row of
    ``order``; ``feats[i]`` are its drawn columns, ascending; ``ys`` holds each
    bootstrap row's target and its square. Returns each node's column, or -1
    when no boundary between distinct values leaves ``min_leaf`` rows a side,
    and its threshold. Each node sees the arithmetic of a search on it alone,
    element for element, so ties resolve the same way: the first minimum in
    (feature, position) order.
    """
    (N, k), M = feats.shape, int(m.max())
    # members sorted by each drawn column, then whatever follows them (the
    # boundaries past a node's own members are masked below)
    feats = feats[:, :, None]
    rows = order.take(feats * order.shape[1] + (lo[:, None] + np.arange(M))[:, None, :])
    xs = Xt.take(feats * Xt.shape[1] + rows)
    cum = np.add.accumulate(ys.take(rows, axis=1), axis=3)
    # candidate split after sorted position c-1 (the left part gets c rows);
    # the right part's sums are read at the node's own last member
    cs = np.arange(min_leaf, M - min_leaf + 1)
    left = cum[..., min_leaf - 1:M - min_leaf]
    (lsum, lsum2), (rsum, rsum2) = left, cum[:, np.arange(N)[:, None], np.arange(k),
                                              (m - 1)[:, None], None] - left
    n_right = m[:, None, None] - cs
    sse = (lsum2 - lsum * lsum / cs) + (rsum2 - rsum * rsum / np.maximum(n_right, 1))
    sse[(xs[..., min_leaf - 1:M - min_leaf] >= xs[..., min_leaf:M - min_leaf + 1])
        | (n_right < min_leaf)] = np.inf
    sse = sse.reshape(N, -1)
    best = sse.argmin(axis=1)
    i = np.arange(N)
    f, c = np.divmod(best, cs.size)
    c += min_leaf
    found = sse[i, best] < np.inf
    return (np.where(found, feats[i, f, 0], -1),
            np.where(found, 0.5 * (xs[i, f, c - 1] + xs[i, f, c]), 0.0))


def _best_splits(Xt, ys, order, lo, m, feats, min_leaf):
    """``_search`` over batches of nodes, largest first: each batch's sizes
    are within a factor of two of its largest (or all under 64 rows), and it
    pads to at most ``_PASS_VALUES`` values."""
    k, biggest = feats.shape[1], int(m.max())
    if (biggest < 64 or biggest < 2 * m.min()) and m.size * k * biggest <= _PASS_VALUES:
        return _search(Xt, ys, order, lo, m, feats, min_leaf)
    feature, threshold = np.empty(m.size, dtype=np.intp), np.empty(m.size)
    by_size = np.argsort(-m, kind="stable")
    sizes = m[by_size].tolist()
    first = 0
    for j in range(1, len(sizes) + 1):
        top = sizes[first]
        if (j < len(sizes) and (top < 64 or 2 * sizes[j] >= top)
                and (j + 1 - first) * k * top <= _PASS_VALUES):
            continue
        i = by_size[first:j]
        feature[i], threshold[i] = _search(Xt, ys, order, lo[i], m[i], feats[i], min_leaf)
        first = j
    return feature, threshold


def _partition(Xt, order, goes, lo, m, feature, threshold):
    """Split each node's range of every row of ``order`` in place: the rows
    that go left first, each side in its old order. ``goes`` is scratch, one
    flag per bootstrap row. Returns the left sizes."""
    rows = order.take(_ranges(lo, m), axis=1)
    members = rows[-1]
    left = Xt.take(feature.repeat(m) * Xt.shape[1] + members) <= threshold.repeat(m)
    n_left = np.add.reduceat(left, m.cumsum() - m, dtype=np.intp)
    goes[members] = left
    left = goes.take(rows).ravel()
    rows = rows.ravel()
    order[:, _ranges(lo, n_left)] = rows.take(left.nonzero()[0]).reshape(len(order), -1)
    order[:, _ranges(lo + n_left, m - n_left)] = rows.take((~left).nonzero()[0]).reshape(
        len(order), -1)
    return n_left


def _grow_chunk(X, y, trees, seed, max_depth, min_leaf, k_features, base):
    """Grow the trees ``trees`` (a range) in lock-step, as the nodes from
    ``base`` on of a packed forest; returns their five node arrays and roots.

    Each round takes the next depth-first node of every unfinished tree, so
    every tree draws its features in the order a recursive build would.
    Tree t's bootstrap rows sit at ``t * n`` onwards. A node holds a range of
    positions in every row of ``order``: its members sorted by each column
    (ties by row) and, in the last row, ascending.
    """
    n, d = X.shape
    T = len(trees)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
            for t in trees]
    boot = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    # after its bootstrap a tree's generator serves only its feature draws
    words = [_words(rng) for rng in rngs]
    Xt = np.ascontiguousarray(X[boot].T)
    yb = y[boot]
    ys = np.stack((yb, yb * yb))
    # n columns of padding, so a padded search of any node stays in bounds
    order = np.zeros((d + 1, (T + 1) * n), dtype=np.intp)
    order[:d, :T * n].reshape(d, T, n)[:] = np.argsort(Xt.reshape(d, T, n), axis=2,
                                                       kind="stable")
    order[:d, :T * n].reshape(d, T, n)[:] += (np.arange(T) * n)[:, None]
    order[d, :T * n] = np.arange(T * n)
    goes = np.empty(T * n, dtype=bool)
    # each tree's stack of pending nodes: (first position, size, depth, parent);
    # the parent is kept for right children, whose id is known only when popped
    stack = np.zeros((4, T, min(max_depth, n) + 2), dtype=np.intp)
    stack[0, :, 0] = np.arange(T) * n
    stack[1, :, 0] = n
    stack[3, :, 0] = -1
    height = np.ones(T, dtype=np.intp)
    count = np.zeros(T, dtype=np.intp)
    nodes = []
    while True:
        t = height.nonzero()[0]
        if t.size == 0:
            break
        top = height[t] - 1
        lo, m, depth, parent = stack[:, t, top]
        node = count[t]
        count[t] = node + 1
        # members' targets in ascending row order, node after node
        y_members = yb.take(order[d].take(_ranges(lo, m)))
        starts = m.cumsum() - m
        value = [float(np.add.reduce(y_members[a:a + b]) / b)
                 for a, b in zip(starts.tolist(), m.tolist())]
        feature = np.full(t.size, -1, dtype=np.intp)
        threshold = np.zeros(t.size)
        grow = ((depth < max_depth) & (m >= 2 * min_leaf)
                & (np.maximum.reduceat(y_members, starts)
                   > np.minimum.reduceat(y_members, starts))).nonzero()[0]
        if grow.size:
            feats = np.array([_choice(words[i], d, k_features) for i in t[grow].tolist()])
            feats.sort(axis=1)
            feature[grow], threshold[grow] = _best_splits(Xt, ys, order, lo[grow], m[grow],
                                                          feats, min_leaf)
            s = (feature >= 0).nonzero()[0]
            if s.size:
                lo, m, depth = lo[s], m[s], depth[s] + 1
                n_left = np.concatenate([
                    _partition(Xt, order, goes, lo[b], m[b], feature[s[b]], threshold[s[b]])
                    for b in _batches((m * (d + 1)).tolist())])
                # push the right child, then the left one to pop next
                ts, at = t[s], top[s]
                stack[:, ts, at] = lo + n_left, m - n_left, depth, node[s]
                stack[:3, ts, at + 1] = lo, n_left, depth
                stack[3, ts, at + 1] = -1
                top[s] += 2
        height[t] = top
        nodes.append((t, node, parent, feature, threshold, value))
    t, node, parent, feature, threshold, value = (np.concatenate(a) for a in zip(*nodes))
    roots = base + count.cumsum() - count
    # popped round by round; packed tree by tree, each in preorder
    packed = np.empty(t.size, dtype=np.intp)
    packed[roots[t] + node - base] = np.arange(t.size)
    feature, threshold, value = feature[packed], threshold[packed], value[packed]
    # a leaf is its own child; a left child is the node right after its parent
    left = np.arange(base, base + t.size)
    right = left.copy()
    left[feature >= 0] += 1
    child = parent >= 0
    right[roots[t[child]] + parent[child] - base] = roots[t[child]] + node[child]
    return (feature, threshold, left, right, value), roots


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
    """Fit n_trees CART trees, grown in lock-step a chunk of trees at a time.

    Each round of a chunk grows one node of every unfinished tree, with one
    batched split search and one batched partition, so the per-call cost of
    numpy is paid once per round rather than once per node; the trees match
    a node-by-node build bit for bit. Chunks hold ``max(8, 8192 // rows)``
    trees (51 on a 160-row table), so a fit's working memory is about 180
    bytes per bootstrap row of the chunk, plus capped scratch for each pass.
    Each node's feature draw replays ``Generator.choice(d, k, replace=False)``
    on its tree's generator, so the trees are those ``choice`` would give.

    ``threads`` is accepted for call compatibility and has no effect: tree
    building is Python code that holds the GIL, so a thread pool made fitting
    slower, not faster.

    ``max_depth`` and ``min_leaf`` must be integers >= 1 and
    ``feature_fraction`` (default: sqrt(d) / d) a fraction in (0, 1];
    anything else raises ``InvalidParameter`` before a tree is grown.
    Fewer than ``2 * min_leaf`` rows raise ``EmptyInput``: no node could
    split, so every tree would be one leaf that scores every input the same.
    """
    for name, value in (("max_depth", max_depth), ("min_leaf", min_leaf)):
        if not isinstance(value, Integral) or value < 1:
            raise InvalidParameter(name, value, "an integer >= 1")
    if feature_fraction is not None and not (isinstance(feature_fraction, Real)
                                             and 0 < feature_fraction <= 1):
        raise InvalidParameter("feature_fraction", feature_fraction, "a fraction in (0, 1]")
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
    chunks, base = [], 0
    per_chunk = _chunk_trees(X.shape[0])
    for first in range(0, n_trees, per_chunk):
        trees = range(first, min(first + per_chunk, n_trees))
        chunks.append(_grow_chunk(X, y, trees, seed, max_depth, min_leaf, k_features, base))
        base += chunks[-1][0][0].size
    arrays, roots = zip(*chunks)
    packed = [np.concatenate(a) for a in zip(*arrays)]
    return ForestModel(
        *packed, np.concatenate(roots),
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
