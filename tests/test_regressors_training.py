import numpy as np
import pytest

from vqakit.errors import InvalidParameter, NoTrainablePairs
from vqakit.eval_metrics import srocc
from vqakit.regressors import (
    TrainConfig,
    finetune_mos,
    init_branchnet,
    predict_scores,
    total_loss,
    total_loss_gradients,
    train_siamese,
)
from vqakit.regressors.losses import rel_loss_grad
from vqakit.regressors.net import BRANCH_ORDER, _forward_batch


def _toy_dataset(n=80, seed=0, lo=1.0, hi=5.0):
    """MOS is a monotone function of a latent level that most columns track."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    X = rng.random((n, 9)) * 0.1
    for col in (0, 2, 3, 5, 7):  # informative columns across all branch groups
        X[:, col] += u
    clean = lo + (hi - lo) * u**2
    return X, clean + rng.normal(0, 0.02 * (hi - lo), n)


class TestTrainSiamese:
    def test_learns_ordering(self):
        X, mos = _toy_dataset(seed=1)
        net = init_branchnet(seed=0)
        cfg = TrainConfig(learning_rate=0.05, epochs=30, batch_size=16, seed=0)
        train_siamese([(X[:60], mos[:60])], net, cfg)
        held = srocc(predict_scores(net, X[60:]), mos[60:])
        assert held >= 0.9

    def test_pair_labels_scale_invariant(self):
        # the pair (winner, loser) orientation only depends on MOS ordering
        X, mos = _toy_dataset(seed=2)
        neta = init_branchnet(seed=3)
        netb = init_branchnet(seed=3)
        cfg = TrainConfig(learning_rate=0.03, epochs=3, batch_size=8, seed=4)
        train_siamese([(X, mos)], neta, cfg)
        train_siamese([(X, 2.0 * mos + 3.0)], netb, cfg)
        assert np.array_equal(neta.flatten(), netb.flatten())

    def test_zero_epochs_unchanged(self):
        X, mos = _toy_dataset()
        net = init_branchnet(seed=5)
        before = net.flatten()
        out = train_siamese([(X, mos)], net, TrainConfig(epochs=0))
        assert out is net
        assert np.array_equal(net.flatten(), before)
        assert not net.norm_fitted

    def test_no_trainable_pairs(self):
        X = np.random.default_rng(0).random((10, 9))
        with pytest.raises(NoTrainablePairs):
            train_siamese([(X, np.full(10, 3.0))], init_branchnet(seed=0),
                          TrainConfig(epochs=1))

    def test_constant_dataset_skipped_but_other_used(self):
        Xa, mos_a = _toy_dataset(seed=6)
        Xb = np.random.default_rng(1).random((10, 9))
        hist = []
        net = init_branchnet(seed=0)
        train_siamese([(Xb, np.full(10, 2.0)), (Xa, mos_a)], net,
                      TrainConfig(learning_rate=0.05, epochs=2, batch_size=16, seed=0),
                      history=hist)
        assert hist[-1]["pairs"]["0"] == 0
        assert hist[-1]["pairs"]["1"] > 0

    def test_deterministic_given_seed(self):
        X, mos = _toy_dataset(seed=7)
        cfg = TrainConfig(learning_rate=0.05, epochs=4, batch_size=8, seed=11)
        a = train_siamese([(X, mos)], init_branchnet(seed=1), cfg)
        b = train_siamese([(X, mos)], init_branchnet(seed=1), cfg)
        assert np.array_equal(a.flatten(), b.flatten())


class TestFinetune:
    def test_loss_decreases(self):
        X, mos = _toy_dataset(seed=8)
        net = init_branchnet(seed=2)
        cfg = TrainConfig(learning_rate=0.05, epochs=40, batch_size=16, seed=0)
        hist = []
        finetune_mos((X, mos), net, cfg, history=hist)
        assert hist[-1]["loss"] < hist[0]["loss"]

    def test_lr_zero_unchanged(self):
        X, mos = _toy_dataset(seed=9)
        net = init_branchnet(seed=4)
        before = net.flatten()
        finetune_mos((X, mos), net, TrainConfig(learning_rate=0.0, epochs=3, seed=0))
        assert np.array_equal(net.flatten(), before)

    def test_constant_mos_raises(self):
        X = np.random.default_rng(2).random((8, 9))
        with pytest.raises(NoTrainablePairs):
            finetune_mos((X, np.ones(8)), init_branchnet(seed=0), TrainConfig(epochs=1))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        names = ("f0", "f1", "f2")
        groups = {"semantic": ("f0",), "aesthetic": ("f1",), "technical": ("f2",)}
        net = init_branchnet(names, groups, embed_dim=2, head_hidden=0,
                             gate_dropout=0.0, seed=6)
        net.norm_fitted = True
        assert net.n_params() <= 50
        X = rng.standard_normal((6, 3))
        mos = rng.random(6) * 4 + 1
        value, grads = total_loss_gradients(net, X, mos)

        def loss_at(flat):
            probe = net.copy()
            probe.unflatten(flat)
            qs, _, _ = _forward_batch(probe, probe.route(X))
            return total_loss([qs[b] for b in BRANCH_ORDER], mos)

        flat = net.flatten()
        analytic = np.concatenate([grads[n].ravel() for n in net.param_names()])
        h = 1e-6
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            fd = (loss_at(up) - loss_at(dn)) / (2 * h)
            denom = max(abs(fd), 1e-4)
            assert abs(analytic[i] - fd) / denom < 1e-4

    def test_loss_values_agree_bit_for_bit(self):
        # acceptance criterion 5's tiny nets: total_loss on a pass's branch
        # scores, total_loss_gradients' value and the stacked values added
        # left to right are one float, whatever the Python's builtin sum() does
        rng = np.random.default_rng(2024)
        names = ("f0", "f1", "f2")
        groups = {"semantic": ("f0",), "aesthetic": ("f1",), "technical": ("f2",)}
        shapes = [(1, 0), (2, 0), (1, 1), (1, 2)]  # (embed_dim, head_hidden)
        for _ in range(100):
            d, k = shapes[rng.integers(0, len(shapes))]
            net = init_branchnet(names, groups, embed_dim=d, head_hidden=k,
                                 gate_dropout=0.0, seed=int(rng.integers(0, 2**31)))
            net.norm_fitted = True
            X = rng.standard_normal((6, 3))
            mos = rng.uniform(1, 5, 6)
            qs, _, _ = _forward_batch(net, net.route(X))
            batches = [qs[b] for b in BRANCH_ORDER]
            v0, v1, v2 = rel_loss_grad(np.stack(batches), mos)[0].tolist()
            want = (((0.0 + v0) + v1) + v2).hex()
            assert total_loss(batches, mos).hex() == want
            assert total_loss_gradients(net, X, mos)[0].hex() == want

    def test_weight_decay_shrinks_matrices(self):
        X, mos = _toy_dataset(seed=11)
        net = init_branchnet(seed=7)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=80, seed=0,
                          weight_decay=0.5)
        norm_before = np.linalg.norm(net.params["scgb_technical_py"])
        finetune_mos((X, mos), net, cfg)
        # the gate projection only sees tiny gradients; decay dominates
        assert np.linalg.norm(net.params["scgb_technical_py"]) < norm_before

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(InvalidParameter):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidParameter):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("name", ["learning_rate", "rank_margin", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_setting_refused(self, name, value):
        with pytest.raises(InvalidParameter, match=f"^{name}="):
            TrainConfig(**{name: value})

    def test_finetune_needs_a_pair_per_batch(self):
        # a one-row batch has no pair, so every fine-tuning step would be
        # skipped: the config refuses it before either phase can run
        with pytest.raises(InvalidParameter, match="^batch_size=1: need an integer >= 2$"):
            TrainConfig(batch_size=1)
        TrainConfig(batch_size=2)

    @pytest.mark.parametrize("name", ["epochs", "batch_size", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "4"], ids=repr)
    def test_non_integer_setting_refused(self, name, value):
        # a count or seed that is not an int fails here, naming its field,
        # and not later inside training with a bare TypeError; a bool is not
        # an int here
        with pytest.raises(InvalidParameter, match=f"^{name}={value!r}: need an integer >= "):
            TrainConfig(**{name: value})
        TrainConfig(**{name: np.int64(3)})

    def test_negative_seed_refused(self):
        with pytest.raises(InvalidParameter, match="^seed=-1: need an integer >= 0$"):
            TrainConfig(seed=-1)
