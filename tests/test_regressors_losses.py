import numpy as np
import pytest

from vqakit.regressors import rel_loss, rel_loss_grad, total_loss


class TestRelLoss:
    def test_perfect_linear_zero(self):
        mos = np.array([1.0, 2.0, 3.0, 4.0])
        pred = 2.0 * mos + 1.0  # slope 2 >> margin/min-gap
        assert rel_loss(pred, mos, margin=0.05) == pytest.approx(0.0, abs=1e-12)

    def test_anti_correlated_closed_form(self):
        mos = np.array([1.0, 2.0, 3.0])
        pred = -mos
        margin = 0.05
        # ordered pairs (mos_i > mos_j): gaps 1, 1, 2; hinge = margin + gap
        rank = np.mean([margin + 1, margin + 1, margin + 2])
        # linearity is 1 - (-1) = 2 at any margin; at margin 0 the hinges are the gaps
        assert rel_loss(pred, mos, margin=margin) == pytest.approx(rank + 2.0, abs=1e-12)
        assert rel_loss(pred, mos, margin=0.0) == pytest.approx(4 / 3 + 2.0, abs=1e-12)

    def test_two_equal_mos_zero(self):
        # no ordered pair and an undefined PLCC: both terms are skipped, flat
        value, grad = rel_loss_grad(np.array([0.3, 0.9]), np.array([2.0, 2.0]))
        assert value == 0.0
        assert not grad.any()

    def test_shift_invariance_exact(self):
        # dyadic predictions so that the +7.0 shift is a lossless float op
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 64, size=8) / 64.0
        mos = rng.integers(1, 6, size=8).astype(float)
        a, ga = rel_loss_grad(pred, mos)
        b, gb = rel_loss_grad(pred + 7.0, mos)
        assert a == b
        assert np.array_equal(ga, gb)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(1)
        pred = rng.random(6) * 2
        mos = rng.random(6) * 4 + 1
        _, grad = rel_loss_grad(pred, mos)
        h = 1e-7
        for i in range(6):
            up, dn = pred.copy(), pred.copy()
            up[i] += h
            dn[i] -= h
            fd = (rel_loss(up, mos) - rel_loss(dn, mos)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_constant_pred_linearity_one(self):
        # margin 0 leaves no active hinge, so the value is the linearity term
        # alone: PLCC counts as 0 (not skipped) with a flat gradient
        value, grad = rel_loss_grad(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]),
                                    margin=0.0)
        assert value == 1.0
        assert not grad.any()


class TestTotalLoss:
    def test_all_perfect_zero(self):
        mos = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        branches = [mos * 3.0] * 3
        assert total_loss(branches, mos) == pytest.approx(0.0, abs=1e-12)

    def test_identical_branches_triple(self):
        rng = np.random.default_rng(2)
        pred = rng.random(7)
        mos = rng.random(7) * 4 + 1
        single = rel_loss(pred, mos)
        assert total_loss([pred, pred, pred], mos) == pytest.approx(3 * single, abs=1e-12)

    def test_equals_sum_of_rel_losses(self):
        rng = np.random.default_rng(3)
        mos = rng.random(9) * 4 + 1
        branches = [rng.random(9) for _ in range(3)]
        expect = sum(rel_loss(b, mos) for b in branches)
        assert total_loss(branches, mos) == pytest.approx(expect, abs=1e-12)

    def test_needs_three_branches(self):
        with pytest.raises(ValueError):
            total_loss([np.zeros(3)], np.zeros(3))
