"""The net's stacked passes against the per-branch ones in tests/oracles.py:
outputs, caches and gradients bit for bit (sign of zero included), for a
siamese step's two sides in one pass as for one batch, and the stacked
relative loss, sigmoid and dropout draw against what they replace."""

import numpy as np
import pytest

from oracles import (NET_BRANCHES, NET_GATED, net_backward_oracle, net_forward_oracle,
                     rel_loss_grad_oracle, sigmoid_oracle)
from vqakit.regressors import init_branchnet
from vqakit.regressors.losses import rel_loss_grad
from vqakit.regressors.net import _backward_batch, _forward_batch, _param_stacks, _sigmoid
from vqakit.regressors.training import _dropout_masks

# every group a different width, one of them a single feature
UNEQUAL = {"semantic": ("f0",), "aesthetic": ("f1", "f2", "f3", "f4", "f5"),
           "technical": ("f6", "f7")}


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _assert_same(got, want):
    assert np.shape(got) == np.shape(want)
    assert _bits(got) == _bits(want)


def _net(embed_dim, head_hidden, dropout, groups, seed):
    if groups is None:
        net = init_branchnet(embed_dim=embed_dim, head_hidden=head_hidden,
                             gate_dropout=dropout, seed=seed)
    else:
        names = tuple(f for b in ("semantic", "aesthetic", "technical") for f in groups[b])
        net = init_branchnet(sorted(names), groups, embed_dim, head_hidden, dropout, seed)
    rng = np.random.default_rng(seed + 1)
    # trained-looking parameters: nonzero biases and some exact zeros
    flat = net.flatten() + 0.3 * rng.standard_normal(net.n_params())
    flat[rng.random(flat.size) < 0.05] = 0.0
    net.unflatten(flat)
    net.norm_shift = rng.standard_normal(len(net.feature_names))
    net.norm_scale = 0.5 + rng.random(len(net.feature_names))
    net.norm_fitted = True
    return net


def _oracle_grads(net, cache, dq):
    grads = {n: np.zeros_like(p) for n, p in net.params.items()}
    net_backward_oracle(net, cache, dq, grads)
    return np.concatenate([grads[n].ravel() for n in net.param_names()])


def _dq_rows(rng, B):
    dQ = rng.standard_normal((3, B))
    dQ[:, rng.random(B) < 0.2] = 0.0  # zero derivatives, so zero gradients of either sign
    return dQ


def _check_one_pass(net, Xb, masks, dQ, grad):
    """The stacked pass on one side's inputs against the oracle's pass."""
    qs, final, cache = _forward_batch(net, Xb, masks)
    gate_masks = {} if masks is None else dict(zip(NET_GATED, masks))
    want_qs, want_final, want = net_forward_oracle(net, Xb, gate_masks)
    for i, b in enumerate(NET_BRANCHES):
        _assert_same(qs[b], want_qs[b])
        _assert_same(cache["E"][i], want["E"][b])
        _assert_same(cache["H"][i], want["H"][b])
        if net.head_hidden > 0:
            _assert_same(cache["r"][i], want[f"head_{b}"])
    for i, b in enumerate(NET_GATED):
        for got, exp in zip(cache["gate"], want[f"scgb_{b}"]):
            _assert_same(got[i], exp)
    _assert_same(final, want_final)

    _backward_batch(cache, dQ, grad[1])
    np.add(grad[0], 0.0, out=grad[0])
    _assert_same(grad[0], _oracle_grads(net, want, dict(zip(NET_BRANCHES, dQ))))


@pytest.mark.parametrize("rows", [2, 16, 17, 160])
@pytest.mark.parametrize("groups", [None, UNEQUAL], ids=["default", "unequal"])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("head_hidden", [0, 1, 4])
@pytest.mark.parametrize("embed_dim", [1, 8])
def test_stacked_pass_matches_per_branch(embed_dim, head_hidden, dropout, groups, rows):
    seed = 7 * embed_dim + head_hidden + rows
    net = _net(embed_dim, head_hidden, dropout, groups, seed)
    rng = np.random.default_rng(seed)
    Xb = net.route(rng.standard_normal((rows, len(net.feature_names))))
    masks = _dropout_masks(net, rows, rng)
    _check_one_pass(net, Xb, masks, _dq_rows(rng, rows), _param_stacks(net, ()))


@pytest.mark.parametrize("rows", [1, 2, 16, 17])
@pytest.mark.parametrize("head_hidden", [0, 4])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_siamese_step_matches_two_passes(rows, head_hidden, dropout):
    """Winners and losers on a leading side axis: each side's outputs are its
    own pass's, and the sides' gradients summed winner + loser are the two
    passes' gradients, each added into a zeroed vector, summed."""
    net = _net(8, head_hidden, dropout, None, rows + head_hidden)
    rng = np.random.default_rng(rows)
    X = rng.standard_normal((40, len(net.feature_names)))
    pair = rng.integers(0, 40, size=(2, rows))
    routed = net.route(X)
    Xs = {b: x[pair] for b, x in routed.items()}
    masks = _dropout_masks(net, rows, rng, (2,))
    dq = rng.standard_normal(rows)
    dq[rng.random(rows) < 0.2] = 0.0
    dQ = np.empty((2, 3, rows))
    dQ[0], dQ[1] = dq, -dq

    sides, side_grads = _param_stacks(net, (2,))
    _, s, cache = _forward_batch(net, Xs, masks)
    _backward_batch(cache, dQ, side_grads)
    grad = sides[0] + 0.0
    grad += sides[1]

    want = np.zeros(net.n_params())
    for side in range(2):
        Xb = {b: x[pair[side]] for b, x in routed.items()}
        gate_masks = {} if masks is None else dict(zip(NET_GATED, masks[side]))
        _, final, c = net_forward_oracle(net, Xb, gate_masks)
        _assert_same(s[side], final)
        want += _oracle_grads(net, c, {b: dQ[side, 0] for b in NET_BRANCHES})
    _assert_same(grad, want)


def test_param_stacks_are_views():
    net = init_branchnet(seed=3)
    vec = np.zeros((2, net.n_params()))
    views = _param_stacks(net, vec)
    for v in views.values():
        v[...] = 1.0
    assert (vec == 1.0).all()  # every entry is in exactly one view, none a copy
    assert sum(v.size for v in views.values()) == vec.size
    stacks = net.stacks
    for j, b in enumerate(NET_BRANCHES):
        _assert_same(stacks["w1"][j], net.params[f"head_{b}_w1"])
        _assert_same(stacks["b2"][j], net.params[f"head_{b}_b2"])
    for j, b in enumerate(NET_GATED):
        _assert_same(stacks["py"][j], net.params[f"scgb_{b}_py"])


@pytest.mark.parametrize("n", [1, 16, 17])
def test_dropout_masks_one_draw(n):
    net = init_branchnet(gate_dropout=0.1, seed=0)
    keep = 0.9
    one, two = np.random.default_rng(n), np.random.default_rng(n)
    masks = _dropout_masks(net, n, one)
    assert masks.shape == (2, n, net.embed_dim)
    for gate in range(2):
        _assert_same(masks[gate], (two.random((n, net.embed_dim)) < keep) / keep)
    sides = _dropout_masks(net, n, one, (2,))  # winner's two gates, then loser's
    for side in range(2):
        for gate in range(2):
            _assert_same(sides[side, gate], (two.random((n, net.embed_dim)) < keep) / keep)
    assert one.random() == two.random()
    assert _dropout_masks(init_branchnet(gate_dropout=0.0), n, one) is None


def test_sigmoid_matches_masked_formula():
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 700.0, -700.0, 800.0, -800.0,
               np.inf, -np.inf, 36.7, -36.7, 745.2, -745.2, 709.8, -709.8, np.nan]
    x = np.concatenate([
        np.array(special),
        8.0 * rng.standard_normal(100_000),
        # every binade from subnormal to overflow, either sign
        np.ldexp(rng.random(100_000) + 0.5, rng.integers(-1075, 1024, 100_000))
        * rng.choice([-1.0, 1.0], 100_000),
    ])
    assert x.size >= 200_000
    got, want = _sigmoid(x), sigmoid_oracle(x)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    _assert_same(_sigmoid(x[1::3]), sigmoid_oracle(x[1::3]))  # strided input


@pytest.mark.parametrize("margin", [0.0, 0.05])
@pytest.mark.parametrize("B", [2, 3, 16, 17])
def test_stacked_rel_loss_matches_per_branch(B, margin):
    rng = np.random.default_rng(B)
    mos = rng.integers(1, 4, B).astype(float)  # ties included
    for pred in (rng.standard_normal((3, B)),
                 np.stack([np.full(B, 0.5), rng.standard_normal(B), np.zeros(B)]),
                 np.full((3, B), 2.0)):
        values, grads = rel_loss_grad(pred, mos, margin)
        for row in range(3):
            v, g = rel_loss_grad_oracle(pred[row], mos, margin)
            assert values[row].hex() == float(v).hex()
            _assert_same(grads[row], g)
    values, grads = rel_loss_grad(rng.standard_normal((3, B)), np.full(B, 2.0), margin)
    assert not values.any() and not grads.any()
