"""Brute-force metric oracles: pure-Python loops with exactly-rounded sums.

Kept deliberately independent of the vqakit implementations (no numpy
vectorization, fsum accumulation, explicit O(n^2) pair counting).

The forest oracle is the plain per-node CART split search (one stable argsort
per drawn feature at every node). It rounds exactly as the forest's fit is
required to, so the two are compared bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def ranks_oracle(x):
    n = len(x)
    order = sorted(range(n), key=lambda i: x[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson_oracle(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def srocc_oracle(x, y):
    return pearson_oracle(ranks_oracle(x), ranks_oracle(y))


def krocc_oracle(x, y):
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) / 2.0
    denom = (n0 - ties_x) * (n0 - ties_y)
    if denom <= 0:
        return None
    return (concordant - discordant) / math.sqrt(denom)


def rmse_oracle(x, y):
    return math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(x, y)) / len(x))


# --- random forest ------------------------------------------------------------

def _grow_tree_oracle(X, y, max_depth, min_leaf, k, rng):
    feature, threshold, left, right, value = [], [], [], [], []

    def best_split(idx):
        feats = np.sort(rng.choice(X.shape[1], size=k, replace=False))
        best = None  # (sse, feature, threshold)
        ys_all, n = y[idx], idx.size
        for f in feats:
            x = X[idx, f]
            order = np.argsort(x, kind="stable")
            xs, ys = x[order], ys_all[order]
            cum, cum2 = np.cumsum(ys), np.cumsum(ys * ys)
            # split after sorted position c-1; only between distinct values
            cs = np.arange(min_leaf, n - min_leaf + 1)
            if cs.size:
                cs = cs[xs[cs - 1] < xs[cs]]
            if cs.size == 0:
                continue
            lsum, lsum2 = cum[cs - 1], cum2[cs - 1]
            rsum, rsum2 = cum[-1] - lsum, cum2[-1] - lsum2
            sse = (lsum2 - lsum * lsum / cs) + (rsum2 - rsum * rsum / (n - cs))
            j = int(np.argmin(sse))
            if best is None or sse[j] < best[0]:
                best = (float(sse[j]), int(f), 0.5 * (xs[cs[j] - 1] + xs[cs[j]]))
        return best

    def build(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        ys = y[idx]
        value.append(float(ys.mean()))
        if depth >= max_depth or idx.size < 2 * min_leaf or np.all(ys == ys[0]):
            return node
        best = best_split(idx)
        if best is None:
            return node
        _, f, thr = best
        mask = X[idx, f] <= thr
        feature[node], threshold[node] = f, thr
        left[node] = build(idx[mask], depth + 1)
        right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return (np.array(feature), np.array(threshold), np.array(left), np.array(right),
            np.array(value))


def forest_trees_oracle(X, y, n_trees, seed, max_depth, min_leaf):
    """Each tree's (feature, threshold, left, right, value), nodes counted from
    its root and leaves with -1 children, as a v1 checkpoint stores them."""
    d = X.shape[1]
    k = round(np.sqrt(d))  # at least 1 and at most d
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        boot = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(_grow_tree_oracle(X[boot], y[boot], max_depth, min_leaf, k, rng))
    return trees


# --- gated-fusion net ---------------------------------------------------------
#
# The net's forward and backward passes as they were written before its
# layers were stacked: one call per branch and per gate for every layer, a
# siamese step being two such passes. The stacked passes must give the same
# bits, sign of zero included.

NET_BRANCHES = ("semantic", "aesthetic", "technical")
NET_GATED = ("aesthetic", "technical")


def sigmoid_oracle(x):
    """The logistic function through boolean masks, exp never overflowing."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _cross_gate_oracle(x, y, px, py, po, mask=1.0):
    u = x @ px.T
    g = sigmoid_oracle(y @ py.T)
    z = u * g * mask
    return z @ po.T + x, u, g, z


def net_forward_oracle(net, Xb, dropout_masks=None):
    """Forward a batch of per-branch inputs; returns (qs, final, cache)."""
    P = net.params
    cache = {"X": Xb, "masks": dropout_masks or {}}
    E = {}
    for b in NET_BRANCHES:
        E[b] = np.tanh(Xb[b] @ P[f"enc_{b}_w"].T + P[f"enc_{b}_b"])
    cache["E"] = E

    H = {"semantic": E["semantic"]}
    for b in NET_GATED:
        H[b], u, g, z = _cross_gate_oracle(
            E[b], E["semantic"], P[f"scgb_{b}_px"], P[f"scgb_{b}_py"], P[f"scgb_{b}_po"],
            cache["masks"].get(b, 1.0),
        )
        cache[f"scgb_{b}"] = (u, g, z)
    cache["H"] = H

    qs = {}
    for b in NET_BRANCHES:
        if net.head_hidden > 0:
            r = np.tanh(H[b] @ P[f"head_{b}_w1"].T + P[f"head_{b}_b1"])
            qs[b] = r @ P[f"head_{b}_w2"] + P[f"head_{b}_b2"]
            cache[f"head_{b}"] = r
        else:
            qs[b] = H[b] @ P[f"head_{b}_w"] + P[f"head_{b}_b"]
    final = (qs["semantic"] + qs["aesthetic"] + qs["technical"]) / 3.0
    return qs, final, cache


def net_backward_oracle(net, cache, dq, grads):
    """Add the gradients of a scalar loss, given d(loss)/d(q_branch) per
    branch, into ``grads``: zeroed arrays by parameter name, each added to
    once."""
    P = net.params
    E, H = cache["E"], cache["H"]
    dH = {b: np.zeros_like(H[b]) for b in NET_BRANCHES}

    for b in NET_BRANCHES:
        g = np.asarray(dq[b], dtype=np.float64)
        if net.head_hidden > 0:
            r = cache[f"head_{b}"]
            grads[f"head_{b}_w2"] += r.T @ g
            grads[f"head_{b}_b2"] += g.sum()
            dpre = (g[:, None] * P[f"head_{b}_w2"][None, :]) * (1.0 - r * r)
            grads[f"head_{b}_w1"] += dpre.T @ H[b]
            grads[f"head_{b}_b1"] += dpre.sum(axis=0)
            dH[b] += dpre @ P[f"head_{b}_w1"]
        else:
            grads[f"head_{b}_w"] += H[b].T @ g
            grads[f"head_{b}_b"] += g.sum()
            dH[b] += g[:, None] * P[f"head_{b}_w"][None, :]

    dE = {b: np.zeros_like(E[b]) for b in NET_BRANCHES}
    for b in NET_GATED:
        u, g, z = cache[f"scgb_{b}"]
        m = cache["masks"].get(b, 1.0)
        dHb = dH[b]
        dE[b] += dHb  # residual
        dz = dHb @ P[f"scgb_{b}_po"]
        grads[f"scgb_{b}_po"] += dHb.T @ z
        du = dz * g * m
        dg = dz * u * m
        dE[b] += du @ P[f"scgb_{b}_px"]
        grads[f"scgb_{b}_px"] += du.T @ E[b]
        dpre_g = dg * g * (1.0 - g)
        dE["semantic"] += dpre_g @ P[f"scgb_{b}_py"]
        grads[f"scgb_{b}_py"] += dpre_g.T @ E["semantic"]
    dE["semantic"] += dH["semantic"]

    for b in NET_BRANCHES:
        dpre = dE[b] * (1.0 - E[b] * E[b])
        grads[f"enc_{b}_w"] += dpre.T @ cache["X"][b]
        grads[f"enc_{b}_b"] += dpre.sum(axis=0)


def rel_loss_grad_oracle(pred, mos, margin):
    """The relative loss of one branch's 1-D batch: (value, gradient)."""
    dm = mos[:, None] - mos[None, :]
    ordered = dm > 0
    count = int(ordered.sum())
    if count == 0:
        rank, grank = 0.0, np.zeros_like(pred)
    else:
        dp = pred[:, None] - pred[None, :]
        hinge = np.maximum(0.0, margin - dp)
        rank = float(hinge[ordered].sum() / count)
        active = (ordered & (hinge > 0.0)).astype(np.float64)
        grank = (active.sum(axis=0) - active.sum(axis=1)) / count
    mc = mos - mos.mean()
    smm = float(mc @ mc)
    pc = pred - pred.mean()
    spp = float(pc @ pc)
    if smm == 0.0:
        lin, glin = 0.0, np.zeros_like(pred)
    elif spp == 0.0:
        lin, glin = 1.0, np.zeros_like(pred)
    else:
        r = float((pc @ mc) / np.sqrt(spp * smm))
        lin, glin = 1.0 - r, -(mc / np.sqrt(spp * smm) - r * pc / spp)
    return rank + lin, grank + glin
