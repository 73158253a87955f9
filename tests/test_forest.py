import numpy as np
import pytest

from vqakit.errors import EmptyInput, NumericalError
from vqakit.regressors import ForestModel, fit_forest, load_model, predict_forest, save_model


class TestForestBasics:
    def test_constant_target(self):
        rng = np.random.default_rng(0)
        X = rng.random((20, 4))
        model = fit_forest(X, np.full(20, 2.5), n_trees=10, seed=0)
        preds = predict_forest(model, X)
        assert np.allclose(preds, 2.5, atol=0)

    def test_single_split_oracle(self):
        # one binary feature perfectly separating y in {0,1}: a depth-1 tree
        # must predict the exact class means on each side
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = fit_forest(X, y, n_trees=1, seed=3, max_depth=1, min_leaf=1,
                           feature_fraction=1.0)
        tree = model.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(0.5)
        # bootstrap resample: leaf values are the resample's side means, which
        # for a perfectly separated binary target are exactly 0 and 1
        assert predict_forest(model, np.array([0.0])) == 0.0
        assert predict_forest(model, np.array([1.0])) == 1.0

    def test_beats_mean_predictor(self, corpus):
        X, y = corpus.X, corpus.mos
        tr, te = slice(0, 300), slice(300, 400)
        model = fit_forest(X[tr], y[tr], n_trees=50, seed=0)
        pred = predict_forest(model, X[te])
        rmse_forest = np.sqrt(np.mean((pred - y[te]) ** 2))
        rmse_mean = np.sqrt(np.mean((y[tr].mean() - y[te]) ** 2))
        assert rmse_forest < rmse_mean

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_forest(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(EmptyInput):
            fit_forest(np.zeros((1, 3)), np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        rng = np.random.default_rng(2)
        X, y = rng.random((10, 3)), rng.random(10)
        Xb = X.copy()
        Xb[4, 1] = bad
        with pytest.raises(NumericalError, match="row 4, column b"):
            fit_forest(Xb, y, n_trees=2, feature_names=("a", "b", "c"))
        yb = y.copy()
        yb[7] = bad
        with pytest.raises(NumericalError, match="row 7"):
            fit_forest(X, yb, n_trees=2)
        model = fit_forest(X, y, n_trees=2)
        with pytest.raises(NumericalError, match="row 4, column 1"):
            predict_forest(model, Xb)
        with pytest.raises(NumericalError, match="row 0, column 1"):
            predict_forest(model, Xb[4])


class TestForestDeterminism:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(1)
        X = rng.random((60, 5))
        y = rng.random(60)
        a = fit_forest(X, y, n_trees=20, seed=7)
        b = fit_forest(X, y, n_trees=20, seed=7)
        q = rng.random((10, 5))
        assert np.array_equal(predict_forest(a, q), predict_forest(b, q))

    def test_thread_count_invariant(self):
        rng = np.random.default_rng(2)
        X = rng.random((60, 5))
        y = rng.random(60)
        serial = fit_forest(X, y, n_trees=16, seed=5, threads=1)
        pooled = fit_forest(X, y, n_trees=16, seed=5, threads=4)
        q = rng.random((10, 5))
        assert np.array_equal(predict_forest(serial, q), predict_forest(pooled, q))

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 5))
        y = rng.random(60)
        a = fit_forest(X, y, n_trees=5, seed=1)
        b = fit_forest(X, y, n_trees=5, seed=2)
        q = rng.random((10, 5))
        assert not np.array_equal(predict_forest(a, q), predict_forest(b, q))


class TestForestStructure:
    def test_prediction_is_exact_tree_mean(self):
        rng = np.random.default_rng(4)
        X = rng.random((40, 3))
        y = rng.random(40)
        model = fit_forest(X, y, n_trees=9, seed=0)
        q = rng.random((6, 3))
        per_tree = np.stack([t.predict(q) for t in model.trees])
        assert np.array_equal(predict_forest(model, q), per_tree.mean(axis=0))

    def test_depth_bound(self):
        rng = np.random.default_rng(5)
        X = rng.random((200, 4))
        y = rng.random(200)
        model = fit_forest(X, y, n_trees=4, seed=0, max_depth=3)

        def depth(tree, node=0):
            if tree.feature[node] < 0:
                return 0
            return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))

        assert all(depth(t) <= 3 for t in model.trees)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(6)
        X = rng.random((50, 2))
        y = rng.random(50)
        model = fit_forest(X, y, n_trees=3, seed=0, min_leaf=5)
        # every split must leave >= min_leaf bootstrap rows per side; verify by
        # routing the training resample down each tree
        for t, tree in enumerate(model.trees):
            trng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(t,)))
            boot = trng.integers(0, 50, size=50)
            counts = np.zeros(tree.feature.size, dtype=int)
            for row in X[boot]:
                node = 0
                counts[node] += 1
                while tree.feature[node] >= 0:
                    node = tree.left[node] if row[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
                    counts[node] += 1
            internal = tree.feature >= 0
            for node in np.flatnonzero(internal):
                assert counts[tree.left[node]] >= 5
                assert counts[tree.right[node]] >= 5

    def test_node_count_reported(self):
        rng = np.random.default_rng(7)
        X = rng.random((30, 3))
        y = rng.random(30)
        model = fit_forest(X, y, n_trees=2, seed=0)
        assert model.node_count() == sum(t.n_nodes() for t in model.trees)
        assert model.node_count() >= 2

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.random((40, 4))
        y = rng.random(40)
        model = fit_forest(X, y, n_trees=6, seed=2, feature_names=("a", "b", "c", "d"))
        path = tmp_path / "forest.json"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, ForestModel)
        assert loaded.feature_names == ("a", "b", "c", "d")
        q = rng.random((8, 4))
        assert np.array_equal(predict_forest(model, q), predict_forest(loaded, q))
