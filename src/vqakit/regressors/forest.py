"""Random-forest regression from scratch (CART trees, variance splits).

Each tree is fit on a bootstrap resample with a random feature subset per
node (round(sqrt(d)) of the d columns). Per-tree RNG streams are derived from the
forest seed and the tree index, so fitting is bit-reproducible; prediction is
the exact arithmetic mean over trees.

Trees grow in lock-step, in chunks of consecutive tree indices. A tree's
stack holds only nodes that will draw features: when a round's nodes split,
every child's mean and grow test (depth, size, a target that is not
constant) are taken at once, a child that fails is a leaf on the spot, and
the others are pushed, right before left. Each round pops one node of every
tree with one pending, so each tree draws its features in the order a
recursive build would; a 300-tree fit of a 160x9 table takes about 420
rounds, where popping leaves too took about 790. The round's draws replay
numpy's ``Generator.choice(d, k, replace=False)`` on each tree's stream of
32-bit words, the stream ``choice`` itself reads, in one numpy pass: without
a redraw every draw reads the same number of words, so they form one array.
A tree whose word might be redrawn draws word by word in Python. Every fit
draws k = round(sqrt(d)) of d columns, so ``choice`` always takes Floyd's
algorithm, never its tail shuffle of large populations. One padded numpy
pass then searches the splits of all the round's nodes, and one more
partitions their members. The means of many rounds' new nodes are taken in
one pass that replays numpy's sum of up to 128 values (a longer one is
summed by numpy). Each node's arithmetic is that of a search on the node
alone, so the trees are the same, bit for bit, as node-by-node growth
gives. Nodes are numbered as they are made, and each
chunk's are put in preorder at its end. A chunk holds at least 8 trees and
about 8192 bootstrap rows (51 trees of 160 rows), and each pass is capped,
so a 300-tree fit of a 160x9 table peaks at about 4.5 MiB under
tracemalloc, 1.4 MiB of it the model.

The whole forest lives in one set of node arrays, the flat layout compiled
tree engines use (QuickScorer, Lucchese et al., SIGIR 2015): each node's
feature, threshold, value and its two children in one ``(nodes, 2)`` array,
40 bytes a node. Prediction steps every tree of every row at once, one flat
gather of that child array per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DimensionMismatch, EmptyInput, NumericalError, check_count

__all__ = ["ForestModel", "fit_forest", "predict_forest"]


@dataclass(frozen=True)
class ForestModel:
    """All trees in one set of node arrays.

    Tree t owns nodes ``roots[t]`` up to the next root, its root first, and
    every child sits after its parent. Row i of ``kids``, of shape
    ``(nodes, 2)``, holds node i's left child, then its right one, as
    indices into the whole forest. A leaf has ``feature == -1`` and is its
    own two children, so stepping past a leaf stays on it. ``n_features`` is
    the width of the rows the forest reads, or None for a checkpoint saved
    without feature names.
    """

    feature: np.ndarray
    threshold: np.ndarray
    kids: np.ndarray
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
            node = self.kids[node].ravel()
            depth += 1


# Trees grow together in chunks of consecutive indices: at least 8 trees, so
# that each round's numpy calls serve several nodes, and about 8192 bootstrap
# rows in all when trees are small (51 trees of 160 rows). A chunk keeps about
# 16 bytes per column and 41 more per bootstrap row (185 at 9 columns).
_CHUNK_ROWS = 8192
_MIN_CHUNK_TREES = 8
# A padded split search or a partition works on at most this many values an
# array (more only for a single node that is larger), and node means wait for
# about this many members, so a round's scratch memory does not grow with the
# chunk.
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


class _Words:
    """Each tree's stream of 32-bit words, the one ``next_uint32`` serves and
    ``Generator.choice`` reads, taken from its generator a block at a time.
    ``width`` is the most words one read of ``block`` takes."""

    def __init__(self, rngs, width):
        self.rngs = rngs
        self.buf = np.empty((len(rngs), _WORD_BLOCK + width), dtype=np.uint32)
        self.pos = np.zeros(len(rngs), dtype=np.intp)
        self.end = np.zeros(len(rngs), dtype=np.intp)

    def _refill(self, i):
        rest = self.end[i] - self.pos[i]
        self.buf[i, :rest] = self.buf[i, self.pos[i]:self.end[i]]
        self.buf[i, rest:rest + _WORD_BLOCK] = self.rngs[i].integers(
            0, 1 << 32, size=_WORD_BLOCK, dtype=np.uint32)
        self.pos[i], self.end[i] = 0, rest + _WORD_BLOCK

    def block(self, t, width):
        """The next ``width`` words of each tree in ``t``, one row per tree,
        left unread: advance ``pos`` past the ones used."""
        for i in t[self.end[t] - self.pos[t] < width].tolist():
            while self.end[i] - self.pos[i] < width:
                self._refill(i)
        return self.buf[t[:, None], self.pos[t][:, None] + np.arange(width)]

    def stream(self, i):
        """Tree i's words one at a time, as Python ints, each read once."""
        while True:
            if self.pos[i] == self.end[i]:
                self._refill(i)
            first = int(self.pos[i])
            # pos passes each word as it is handed out
            for self.pos[i], word in enumerate(self.buf[i, first:self.end[i]].tolist(),
                                               first + 1):
                yield word


def _bounded(words, top):
    """An integer in [0, top] (top < 2**32) from ``words``, as numpy's bounded
    draw makes it: Lemire's multiply-shift on one word, redrawn while the low
    half falls under 2**32 mod (top + 1); top 0 reads no word."""
    if top == 0:
        return 0
    span = top + 1
    m = next(words) * span
    if (m & 0xFFFFFFFF) < span:
        floor = ((1 << 32) - span) % span
        while (m & 0xFFFFFFFF) < floor:
            m = next(words) * span
    return m >> 32


def _choice(words, d, k):
    """``Generator.choice(d, k, replace=False)`` replayed on the generator's
    ``words``: the same k of range(d) (d <= 2**32), in the same order, and the
    same words read, where ``choice`` runs Floyd's algorithm and then shuffles
    the result: k <= d // 50 or d <= 10,000 (above that numpy shuffles the
    tail of range(d) instead, which no fit reaches)."""
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


def _draw(words, t, d, k):
    """What ``Generator.choice(d, k, replace=False)`` draws for each tree in
    ``t`` from its ``words`` (a ``_Words``), ascending, one row per tree,
    where ``choice`` runs Floyd's algorithm: k <= d // 50 or d <= 10,000, as
    k = round(sqrt(d)) always is.

    Without a redraw, a draw reads one word per Floyd step whose bound is at
    least 1 and one per shuffle step, so all the trees' words are read as one
    array and the draws made column by column; the shuffle only reorders, so
    its words are read and not applied. A tree with a word that might be
    redrawn draws word by word through ``_choice``.
    """
    first = max(d - k, 1)
    bound = np.array([*range(first, d), *range(k - 1, 0, -1)], dtype=np.uint64)
    w = words.block(t, bound.size) * (bound + 1)
    # Lemire's method redraws only when the low half is under the span
    scalar = ((w & 0xFFFFFFFF) <= bound).any(axis=1)
    words.pos[t[~scalar]] += bound.size
    w = (w >> 32).astype(np.intp)
    out = np.empty((t.size, k), dtype=np.intp)
    for s, j in enumerate(range(d - k, d)):
        v = w[:, j - first] if j else np.zeros(t.size, dtype=np.intp)
        out[:, s] = np.where((out[:, :s] == v[:, None]).any(axis=1), j, v)
    for r in scalar.nonzero()[0].tolist():
        out[r] = _choice(words.stream(t[r]), d, k)
    out.sort(axis=1)
    return out


def _means(y, start, m):
    """``np.add.reduce(y[a:a + b]) / b`` for each segment (a, b) of ``start``
    and ``m``, with its bits.

    numpy sums a segment of up to 128 values in eight lanes over its whole
    blocks of 8, combines the lanes as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    adds the rest one by one (a segment under 8 values is all rest, from
    -0.0), and adds that to the reduction's initial 0.0. That is replayed for
    all such segments at once; a longer segment is summed by numpy, one call
    each, which costs less than a replay of its values.
    """
    total = np.empty(m.size)
    big = (m > 128).nonzero()[0]
    for i, a, b in zip(big.tolist(), start[big].tolist(), m[big].tolist()):
        total[i] = np.add.reduce(y[a:a + b])
    small = (m <= 128).nonzero()[0]
    if small.size:
        small = small[np.argsort(-m[small])]  # most blocks first
        a, b = start[small], m[small]
        blocks = b // 8
        lanes = np.full((small.size, 8), -0.0)  # adding -0.0 changes no value
        # block j is added to the segments that have more than j blocks
        for j, c in enumerate(np.searchsorted(-blocks, -np.arange(blocks[0])).tolist()):
            lanes[:c] += y.take(a[:c, None] + np.arange(8 * j, 8 * j + 8))
        r = lanes.T
        sums = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        tail, rest = a + 8 * blocks, b - 8 * blocks
        for j in range(7):
            sums += np.where(j < rest, y.take(tail + j, mode="clip"), -0.0)
        total[small] = sums + 0.0
    return total / m


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
    ``base`` on of a packed forest; returns their four node arrays (feature,
    threshold, kids, value) and roots.

    A tree's stack holds only nodes that draw features: a node's mean and
    grow test (depth, size, a target that is not constant) are computed when
    its parent splits, and a node that fails the test is a leaf at once.
    Each round pops one node of every tree with a pending one, left before
    right, so every tree draws its features in the order a recursive build
    would. Tree t's bootstrap rows sit at ``t * n`` onwards. A node holds a
    range of positions in every row of ``order``: its members sorted by each
    column (ties by row) and, in the last row, ascending. Nodes are numbered
    as they are made, and placed in preorder at the end.
    """
    n, d = X.shape
    T = len(trees)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
            for t in trees]
    boot = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    # after its bootstrap a tree's generator serves only its feature draws
    words = _Words(rngs, 2 * k_features)
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

    # the members and sizes of new nodes whose means are not yet taken: the
    # means of many rounds' nodes are taken in one pass
    due, values = [], []

    def take_means():
        members, m = (np.concatenate(a) for a in zip(*due))
        values.append(_means(members, m.cumsum() - m, m))
        due.clear()

    def made(lo, m, depth):
        """Which of the new nodes grow; their means are taken in turn."""
        members = yb.take(order[d].take(_ranges(lo, m)))
        starts = m.cumsum() - m
        due.append((members, m))
        if sum(a.size for a, _ in due) >= _PASS_VALUES:
            take_means()
        return ((depth < max_depth) & (m >= 2 * min_leaf)
                & (np.maximum.reduceat(members, starts) > np.minimum.reduceat(members, starts)))

    # each tree's stack of nodes that draw: (first position, size, depth, id)
    stack = np.zeros((4, T, min(max_depth, n) + 2), dtype=np.intp)
    lo, m, depth = np.arange(T) * n, np.full(T, n), np.zeros(T, dtype=np.intp)
    stack[:, :, 0] = lo, m, depth, np.arange(T)
    height = made(lo, m, depth).astype(np.intp)
    count = T  # ids given out; the roots are 0 to T - 1
    none = np.empty(0, dtype=np.intp)
    splits = [(none, none, np.empty(0), none, none)]  # id, feature, threshold, depth, kid
    while True:
        t = height.nonzero()[0]
        if t.size == 0:
            break
        top = height[t] - 1
        height[t] = top
        lo, m, depth, node = stack[:, t, top]
        feature, threshold = _best_splits(Xt, ys, order, lo, m, _draw(words, t, d, k_features),
                                          min_leaf)
        s = (feature >= 0).nonzero()[0]
        if s.size == 0:
            continue
        t, top, lo, m, depth, node = t[s], top[s], lo[s], m[s], depth[s], node[s]
        n_left = np.concatenate([
            _partition(Xt, order, goes, lo[b], m[b], feature[s[b]], threshold[s[b]])
            for b in _batches((m * (d + 1)).tolist())])
        # a node's children take the next two ids, left then right
        kid = count + 2 * np.arange(s.size)
        count += 2 * s.size
        splits.append((node, feature[s], threshold[s], depth, kid))
        below = depth + 1
        grow = made(np.stack((lo, lo + n_left), axis=1).ravel(),
                    np.stack((n_left, m - n_left), axis=1).ravel(), below.repeat(2))
        # push the children that grow, the right one first so the left pops next
        grow_left, grow_right = grow[0::2], grow[1::2]
        r = grow_right.nonzero()[0]
        stack[:, t[r], top[r]] = (lo + n_left)[r], (m - n_left)[r], below[r], kid[r] + 1
        top += grow_right
        r = grow_left.nonzero()[0]
        stack[:, t[r], top[r]] = lo[r], n_left[r], below[r], kid[r]
        height[t] = top + grow_left
    if due:
        take_means()
    node, feature, threshold, depth, kid = (np.concatenate(a) for a in zip(*splits))
    # each node's place in the chunk, tree by tree in preorder: subtree sizes
    # bottom-up, then places top-down, a level at a time
    levels = [(depth == level).nonzero()[0] for level in range(depth.max(initial=-1) + 1)]
    size = np.ones(count, dtype=np.intp)
    for i in reversed(levels):
        size[node[i]] = 1 + size[kid[i]] + size[kid[i] + 1]
    at = np.empty(count, dtype=np.intp)
    at[:T] = size[:T].cumsum() - size[:T]
    for i in levels:
        at[kid[i]] = at[node[i]] + 1
        at[kid[i] + 1] = at[node[i]] + 1 + size[kid[i]]
    inner = at[node]
    packed_feature = np.full(count, -1, dtype=np.intp)
    packed_feature[inner] = feature
    packed_threshold = np.zeros(count)
    packed_threshold[inner] = threshold
    packed_value = np.empty(count)
    packed_value[at] = np.concatenate(values)
    # a leaf is its own two children
    kids = np.arange(count).repeat(2).reshape(count, 2)
    kids[inner] = at[kid[:, None] + (0, 1)]
    return (packed_feature, packed_threshold, base + kids, packed_value), base + at[:T]


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
    threads: int | None = None,
    feature_names=None,
) -> ForestModel:
    """Fit n_trees CART trees, grown in lock-step a chunk of trees at a time.

    Each round of a chunk splits one node of every tree that has a node
    left to split, with one feature draw, one batched split search and one
    batched partition, so the per-call cost of numpy is paid once per round
    rather than once per node; leaves are found as their parents split and
    take no round. The trees match a node-by-node build bit for bit. Chunks
    hold ``max(8, 8192 // rows)`` trees (51 on a 160-row table), so a fit's
    working memory is about 16 bytes per column and 41 more per bootstrap
    row of the chunk (185 at 9 columns), plus capped scratch for each pass;
    the model keeps 40 bytes a node and 8 a tree. Each node draws
    k = round(sqrt(d)) of the d columns (the model records the fraction
    sqrt(d) / d), replaying ``Generator.choice(d, k, replace=False)`` on its
    tree's generator, so the trees are those ``choice`` would give.

    ``threads`` is accepted for call compatibility and has no effect: tree
    building is Python code that holds the GIL, so a thread pool made fitting
    slower, not faster.

    ``n_trees``, ``max_depth`` and ``min_leaf`` must be integers >= 1;
    anything else raises ``InvalidParameter`` before a tree is grown.
    Fewer than ``2 * min_leaf`` rows raise ``EmptyInput``: no node could
    split, so every tree would be one leaf that scores every input the same.
    """
    for name, value in (("n_trees", n_trees), ("max_depth", max_depth), ("min_leaf", min_leaf)):
        check_count(name, value)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInput("feature matrix is empty")
    if X.shape[0] != y.size or y.size < 2:
        raise EmptyInput(f"need >= 2 rows with targets, got {X.shape[0]}/{y.size}")
    if y.size < 2 * min_leaf:
        raise EmptyInput(f"{y.size} rows cannot split with min_leaf={min_leaf}: "
                         f"need >= {2 * min_leaf}")
    _check_finite(X, "feature matrix", feature_names)
    _check_finite(y, "target vector")
    d = X.shape[1]
    frac = np.sqrt(d) / d
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
    kids = model.kids.reshape(-1)  # node i's left child at 2 * i, its right one next
    # the rows are finite, so ``>`` is exactly ``not <=``: right is 1, left 0
    for _ in range(model.depth):
        node = kids[2 * node + (X[rows, model.feature[node]] > model.threshold[node])]
    out = model.value[node].mean(axis=1)
    return float(out[0]) if single else out
