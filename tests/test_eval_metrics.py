import numpy as np
import pytest

from oracles import krocc_oracle, pearson_oracle, rmse_oracle, srocc_oracle
from vqakit.errors import DuplicateId, JoinError, UndefinedCorrelation
from vqakit.eval_metrics import average_ranks, evaluate, krocc, plcc, rmse, srocc
from vqakit.tables import write_score_table


class TestSrocc:
    def test_monotone(self):
        assert srocc([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-15)

    def test_reversed(self):
        assert srocc([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0, abs=1e-15)

    def test_ties_match_oracle(self):
        x, y = [1, 2, 2, 3], [1, 3, 2, 4]
        assert srocc(x, y) == pytest.approx(srocc_oracle(x, y), abs=1e-12)

    def test_average_ranks(self):
        assert list(average_ranks(np.array([10.0, 20.0, 20.0, 30.0]))) == [1.0, 2.5, 2.5, 4.0]

    def test_constant_undefined(self):
        with pytest.raises(UndefinedCorrelation):
            srocc([1, 1, 1], [1, 2, 3])


class TestKrocc:
    def test_concordant(self):
        assert krocc([1, 2, 3, 4, 5], [2, 4, 6, 8, 10]) == pytest.approx(1.0, abs=1e-15)

    def test_ties_match_oracle(self):
        x, y = [1, 1, 2], [1, 2, 3]
        assert krocc(x, y) == pytest.approx(krocc_oracle(x, y), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, 12).astype(float)
        y = rng.integers(0, 4, 12).astype(float)
        assert krocc(x, y) == pytest.approx(krocc(y, x), abs=0)

    def test_all_tied_undefined(self):
        with pytest.raises(UndefinedCorrelation):
            krocc([2, 2, 2], [1, 2, 3])


class TestPlccRmse:
    def test_affine(self):
        x = np.array([0.5, 1.0, 2.0, 4.0])
        y = 2 * x + 1
        assert plcc(x, y) == pytest.approx(1.0, abs=1e-15)
        assert rmse(x, y) == pytest.approx(np.sqrt(np.mean((x + 1) ** 2)), abs=1e-12)

    def test_identical_rmse_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert rmse(x, x) == 0.0

    def test_random_match_oracles(self):
        rng = np.random.default_rng(1)
        x, y = rng.random(10) * 4 + 1, rng.random(10) * 4 + 1
        assert plcc(x, y) == pytest.approx(pearson_oracle(list(x), list(y)), abs=1e-12)
        assert rmse(x, y) == pytest.approx(rmse_oracle(list(x), list(y)), abs=1e-12)

    def test_constant_undefined(self):
        with pytest.raises(UndefinedCorrelation):
            plcc([1, 1], [1, 2])


class TestInvariants:
    def test_rank_metrics_monotone_transform_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.random(15) * 4
            y = rng.random(15) * 4
            assert srocc(x, y) == pytest.approx(srocc(np.exp(x), y), abs=1e-12)
            assert krocc(x, y) == pytest.approx(krocc(np.exp(x), y), abs=1e-12)

    def test_plcc_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(20), rng.random(20)
        r = plcc(x, y)
        assert plcc(3 * x + 5, y) == pytest.approx(r, abs=1e-12)
        assert plcc(-2 * x, y) == pytest.approx(-r, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            try:
                assert abs(srocc(x, y)) <= 1 + 1e-12
                assert abs(krocc(x, y)) <= 1 + 1e-12
            except UndefinedCorrelation:
                pass

    def test_rmse_triangle(self):
        rng = np.random.default_rng(5)
        x, y, z = rng.random(12), rng.random(12), rng.random(12)
        assert rmse(x, z) <= rmse(x, y) + rmse(y, z) + 1e-12

    def test_pair_validation(self):
        for metric in (srocc, krocc, plcc, rmse):
            with pytest.raises(ValueError):
                metric(np.array([1.0]), np.array([1.0]))
            with pytest.raises(ValueError):
                metric(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
            with pytest.raises(ValueError):
                metric(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


class TestEvaluate:
    def _write(self, path, rows, field):
        write_score_table(path, dict(rows), field)

    def test_identical_files(self, tmp_path):
        rows = [("a", 1.0), ("b", 2.0), ("c", 3.5)]
        self._write(tmp_path / "p.csv", rows, "score")
        self._write(tmp_path / "m.csv", rows, "mos")
        rep = evaluate(tmp_path / "p.csv", tmp_path / "m.csv")
        assert (rep.srocc, rep.krocc, rep.plcc, rep.rmse) == (1.0, 1.0, 1.0, 0.0)

    def test_unmatched_id(self, tmp_path):
        self._write(tmp_path / "p.csv", [("a", 1.0), ("zz", 2.0)], "score")
        self._write(tmp_path / "m.csv", [("a", 1.0), ("b", 2.0)], "mos")
        with pytest.raises(JoinError) as ei:
            evaluate(tmp_path / "p.csv", tmp_path / "m.csv")
        assert ei.value.clip_id == "zz"

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "p.csv").write_text("clip_id,score\na,1.0\na,2.0\n")
        self._write(tmp_path / "m.csv", [("a", 1.0)], "mos")
        with pytest.raises(DuplicateId):
            evaluate(tmp_path / "p.csv", tmp_path / "m.csv")

    def test_row_order_insensitive(self, tmp_path):
        rows = [("a", 1.0), ("b", 3.0), ("c", 2.0)]
        mos = [("a", 1.5), ("b", 2.5), ("c", 2.0)]
        self._write(tmp_path / "p1.csv", rows, "score")
        self._write(tmp_path / "p2.csv", rows[::-1], "score")
        self._write(tmp_path / "m.csv", mos, "mos")
        r1 = evaluate(tmp_path / "p1.csv", tmp_path / "m.csv")
        r2 = evaluate(tmp_path / "p2.csv", tmp_path / "m.csv")
        assert r1 == r2

    def test_json_six_decimals(self, tmp_path):
        rows = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        self._write(tmp_path / "p.csv", rows, "score")
        self._write(tmp_path / "m.csv", [("a", 1.1), ("b", 2.7), ("c", 2.9)], "mos")
        rep = evaluate(tmp_path / "p.csv", tmp_path / "m.csv")
        import json

        parsed = json.loads(rep.to_json())
        assert set(parsed) == {"srocc", "krocc", "plcc", "rmse"}
        for v in parsed.values():
            assert round(v, 6) == v
