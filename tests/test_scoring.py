import math

import numpy as np
import pytest

from vqakit.errors import DegenerateScores, InvalidParameter, NumericalError, OutOfRange
from vqakit.scoring import (
    FusionSpec,
    LevelDistribution,
    ScoreRange,
    bin_score,
    expected_score,
    fuse_scores,
    softmax_levels,
)


class TestBinScore:
    def test_interval_examples(self):
        assert bin_score(1.5, ScoreRange(1, 5)) == 1  # (1, 1.8]
        assert bin_score(5.0, ScoreRange(1, 5)) == 5
        assert bin_score(50.0, ScoreRange(0, 100)) == 3  # (40, 60]

    def test_lower_endpoint_clamps_to_level_1(self):
        assert bin_score(1.0, ScoreRange(1, 5)) == 1
        assert bin_score(0.0, ScoreRange(0, 100)) == 1

    def test_upper_endpoints_inclusive(self):
        for rng in (ScoreRange(1, 5), ScoreRange(0, 100)):
            lo, hi = rng.m, rng.M
            for i in range(1, 6):
                assert bin_score(lo + (i * (hi - lo)) / 5.0, rng) == i

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bin_score(0.99, ScoreRange(1, 5))
        with pytest.raises(OutOfRange):
            bin_score(5.01, ScoreRange(1, 5))
        with pytest.raises(OutOfRange):  # not the top level
            bin_score(math.nan, ScoreRange(1, 5))

    def test_midpoint_roundtrip(self):
        rng = ScoreRange(1, 5)
        for i in range(1, 6):
            lo = rng.m + (i - 1) * (rng.M - rng.m) / 5.0
            hi = rng.m + i * (rng.M - rng.m) / 5.0
            assert bin_score((lo + hi) / 2.0, rng) == i


class TestSoftmax:
    def test_uniform(self):
        dist = softmax_levels([0.3, 0.3, 0.3, 0.3, 0.3])
        assert dist.p == (0.2, 0.2, 0.2, 0.2, 0.2)

    def test_near_one_hot(self):
        dist = softmax_levels([50.0, -500.0, -500.0, -500.0, -500.0])
        assert dist.p[0] == pytest.approx(1.0, abs=1e-12)

    def test_ln2_closed_form(self):
        dist = softmax_levels([0.0, math.log(2.0), 0.0, 0.0, 0.0])
        assert dist.p[1] == pytest.approx(2 / 6, abs=1e-15)
        for k in (0, 2, 3, 4):
            assert dist.p[k] == pytest.approx(1 / 6, abs=1e-15)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            dist = softmax_levels(rng.normal(0, 10, 5))
            assert abs(sum(dist.p) - 1.0) <= 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            softmax_levels([0.0, np.inf, 0.0, 0.0, 0.0])


class TestExpectedScore:
    def test_uniform_exactly_3(self):
        assert expected_score(LevelDistribution((0.2,) * 5)) == 3.0

    def test_one_hot(self):
        assert expected_score(LevelDistribution((0, 0, 0, 0, 1))) == 5.0
        assert expected_score(LevelDistribution((1, 0, 0, 0, 0))) == 1.0

    def test_hand_dot_product(self):
        dist = LevelDistribution((0.1, 0.2, 0.3, 0.2, 0.2))
        assert expected_score(dist) == pytest.approx(3.2, abs=1e-12)

    def test_monotone_under_mass_transfer(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            i, j = sorted(rng.choice(5, size=2, replace=False))
            eps = min(p[i], 0.05) * rng.random()
            q = p.copy()
            q[i] -= eps
            q[j] += eps  # move mass to the better level
            a = expected_score(LevelDistribution(tuple(p / p.sum())))
            b = expected_score(LevelDistribution(tuple(q / q.sum())))
            assert b >= a - 1e-12

    def test_distribution_validation(self):
        with pytest.raises(InvalidParameter):
            LevelDistribution((0.5, 0.5, 0.5, -0.3, -0.2))
        with pytest.raises(InvalidParameter):
            LevelDistribution((0.3, 0.3, 0.3, 0.3, 0.3))
        with pytest.raises(InvalidParameter):  # a nan sum is not 1
            LevelDistribution((0.25, 0.25, 0.25, 0.25, math.nan))


class TestFusion:
    def test_7_to_8_ratio(self):
        fused = fuse_scores([[3.0], [4.5]], FusionSpec((7, 8)))
        assert fused[0] == pytest.approx((7 * 3.0 + 8 * 4.5) / 15, abs=1e-15)
        assert fused[0] == pytest.approx(3.8, abs=1e-12)

    def test_single_model_identity(self):
        s = [1.0, 2.0, 3.0]
        assert np.array_equal(fuse_scores([s], FusionSpec((3.7,))), np.array(s))

    def test_identical_lists(self):
        s = np.array([1.0, 4.0, 2.0])
        fused = fuse_scores([s, s], FusionSpec((2, 5)))
        assert np.allclose(fused, s, atol=1e-12)

    def test_weight_rescaling_preserves_ranking(self):
        rng = np.random.default_rng(2)
        lists = [rng.random(20) * 5 for _ in range(3)]
        a = fuse_scores(lists, FusionSpec((1, 2, 3)))
        b = fuse_scores(lists, FusionSpec((10, 20, 30)))
        assert np.array_equal(np.argsort(a), np.argsort(b))

    def test_weights_added_left_to_right(self):
        # plain float adds in list order: 0.1 + 0.2 + 0.3 is 0.6000000000000001,
        # where a compensated sum (Python 3.12's builtin sum) gives 0.6
        s = [1.0, 2.0, 3.5]
        fused = fuse_scores([s, s, s], FusionSpec((0.1, 0.2, 0.3)))
        a = np.array(s)
        want = ((0.1 * a + 0.2 * a) + 0.3 * a) / ((0.1 + 0.2) + 0.3)
        assert [v.hex() for v in fused.tolist()] == [v.hex() for v in want.tolist()]
        assert fused[2] == 3.4999999999999996

    def test_zscore_degenerate(self):
        with pytest.raises(DegenerateScores) as ei:
            fuse_scores([[1.0, 2.0], [3.0, 3.0]], FusionSpec((1, 1), "zscore"))
        assert ei.value.model == 1

    def test_zscore_normalizes(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([100.0, 200.0, 300.0])  # same ordering, different scale
        fused = fuse_scores([a, b], FusionSpec((1, 1), "zscore"))
        expected = (a - a.mean()) / a.std()
        assert np.allclose(fused, expected, atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter):
            FusionSpec((0.0, 0.0))
        with pytest.raises(InvalidParameter):
            FusionSpec((-1.0, 2.0))
        with pytest.raises(InvalidParameter):
            fuse_scores([[1.0]], FusionSpec((1, 2)))

    @pytest.mark.parametrize("weights", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), (1e308, 1e308),
    ])
    def test_non_finite_weights_refused(self, weights):
        # NaN passes both `x < 0` and `sum <= 0` as False, and would fuse to NaN
        with pytest.raises(InvalidParameter, match="^weights="):
            FusionSpec(weights)
