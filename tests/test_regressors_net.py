import math

import numpy as np
import pytest

from vqakit.errors import DimensionMismatch
from vqakit.regressors import (
    ScgbParams,
    init_branchnet,
    load_model,
    predict_scores,
    save_model,
    scgb_fuse,
)
from vqakit.regressors.net import BRANCH_ORDER, _infer


def scgb_oracle(x, y, px, py, po):
    """Element-by-element evaluation of the cross-gating formula."""
    d_out = px.shape[0]
    u = [sum(px[i][k] * x[k] for k in range(len(x))) for i in range(d_out)]
    g = [1.0 / (1.0 + math.exp(-sum(py[i][k] * y[k] for k in range(len(y)))))
         for i in range(d_out)]
    z = [u[i] * g[i] for i in range(d_out)]
    return [sum(po[i][k] * z[k] for k in range(d_out)) + x[i] for i in range(len(x))]


class TestScgb:
    def test_forced_gate_is_1_5x(self):
        # zero gate projection -> g = 0.5; identity px/po -> out = 1.5 x
        d = 4
        x = np.array([1.0, -2.0, 0.5, 3.0])
        y = np.array([9.0, 9.0, 9.0, 9.0])
        params = ScgbParams(np.eye(d), np.zeros((d, d)), np.eye(d))
        assert np.array_equal(scgb_fuse(x, y, params), 1.5 * x)

    def test_zero_projections_residual_passthrough(self):
        d = 3
        x = np.array([0.1, 0.2, 0.3])
        params = ScgbParams(np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d)))
        assert np.array_equal(scgb_fuse(x, x, params), x)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dx, dy, dh = rng.integers(2, 5, size=3)
            x = rng.standard_normal(dx)
            y = rng.standard_normal(dy)
            px = rng.standard_normal((dh, dx))
            py = rng.standard_normal((dh, dy))
            po = rng.standard_normal((dx, dh))
            out = scgb_fuse(x, y, ScgbParams(px, py, po))
            oracle = scgb_oracle(list(x), list(y), px, py, po)
            assert np.allclose(out, oracle, atol=1e-12)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(1)
        params = ScgbParams(*(rng.standard_normal((3, 3)) for _ in range(3)))
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 3))
        batch = scgb_fuse(X, Y, params)
        for i in range(5):
            assert np.allclose(batch[i], scgb_fuse(X[i], Y[i], params), atol=0)

    def test_dimension_mismatch(self):
        params = ScgbParams(np.eye(3), np.eye(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            scgb_fuse(np.zeros(4), np.zeros(3), params)
        with pytest.raises(DimensionMismatch):
            scgb_fuse(np.zeros(3), np.zeros(3), ScgbParams(np.eye(3), np.eye(3), np.eye(4)))


def _forced_head_net(values):
    """Net whose heads output the given constants regardless of input."""
    net = init_branchnet(embed_dim=2, head_hidden=0, seed=0)
    net.norm_fitted = True
    for b, v in zip(BRANCH_ORDER, values):
        net.params[f"head_{b}_w"][:] = 0.0
        net.params[f"head_{b}_b"] = np.array(float(v))
    return net


class TestForward:
    def test_forced_constant_heads(self):
        net = _forced_head_net((4.0, 4.0, 4.0))
        assert predict_scores(net, np.zeros(len(net.feature_names)))[0] == 4.0

    def test_mean_of_heads(self):
        net = _forced_head_net((1.0, 3.0, 5.0))
        qs, final = _infer(net, net.route(np.ones((1, len(net.feature_names)))))
        assert tuple(float(qs[b][0]) for b in BRANCH_ORDER) == (1.0, 3.0, 5.0)
        assert final[0] == pytest.approx(3.0, abs=0)

    def test_final_equals_isolated_branch_recompute(self):
        # recompute each branch score with standalone scgb_fuse + head math
        rng = np.random.default_rng(3)
        net = init_branchnet(embed_dim=3, head_hidden=2, seed=5)
        net.norm_fitted = True
        feats = {b: rng.standard_normal(len(net.groups[b])) for b in BRANCH_ORDER}
        qs, final = _infer(net, {b: v[None, :] for b, v in feats.items()})

        P = net.params
        E = {b: np.tanh(P[f"enc_{b}_w"] @ feats[b] + P[f"enc_{b}_b"]) for b in BRANCH_ORDER}
        H = {"semantic": E["semantic"]}
        for b in ("aesthetic", "technical"):
            H[b] = scgb_fuse(
                E[b], E["semantic"],
                ScgbParams(P[f"scgb_{b}_px"], P[f"scgb_{b}_py"], P[f"scgb_{b}_po"]),
            )
        expected = {}
        for b in BRANCH_ORDER:
            r = np.tanh(P[f"head_{b}_w1"] @ H[b] + P[f"head_{b}_b1"])
            expected[b] = float(r @ P[f"head_{b}_w2"] + P[f"head_{b}_b2"])
        for b in BRANCH_ORDER:
            assert qs[b][0] == pytest.approx(expected[b], abs=1e-12)
        assert final[0] == pytest.approx(
            (expected["semantic"] + expected["aesthetic"] + expected["technical"]) / 3.0,
            abs=1e-12,
        )

    def test_raw_vector_routing(self):
        net = init_branchnet(seed=1)
        net.norm_fitted = True
        rng = np.random.default_rng(4)
        raw = rng.random(len(net.feature_names))
        assert predict_scores(net, raw)[0] == predict_scores(net, raw[None, :])[0]

    def test_missing_branch(self):
        # a row without every branch's features cannot be routed
        net = init_branchnet(seed=0)
        with pytest.raises(DimensionMismatch):
            predict_scores(net, np.zeros(3))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = init_branchnet(seed=9)
        net.norm_shift[:] = 0.5
        net.norm_fitted = True
        path = tmp_path / "net.json"
        save_model(path, net)
        loaded = load_model(path)
        assert loaded.feature_names == net.feature_names
        assert loaded.norm_fitted
        rng = np.random.default_rng(0)
        X = rng.random((4, len(net.feature_names)))
        assert np.allclose(predict_scores(net, X), predict_scores(loaded, X), atol=0)

    def test_flatten_roundtrip(self):
        net = init_branchnet(embed_dim=3, head_hidden=2, seed=2)
        flat = net.flatten()
        net2 = net.copy()
        net2.unflatten(flat)
        assert np.array_equal(net2.flatten(), flat)
        assert net.n_params() == flat.size
