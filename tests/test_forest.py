import json
import tracemalloc

import numpy as np
import pytest

from oracles import forest_trees_oracle
from vqakit.errors import (
    CheckpointError,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    NumericalError,
)
from vqakit.regressors import (ForestModel, fit_forest, forest, init_branchnet, load_model,
                               predict_forest, save_model)


def tree_ranges(model):
    """(first node, end) of each tree in the packed arrays."""
    ends = model.roots[1:].tolist() + [model.node_count()]
    return list(zip(model.roots.tolist(), ends))


def local_trees(model):
    """Each tree's arrays counted from its root, leaves with -1 children."""
    out = []
    for r, e in tree_ranges(model):
        kids = np.where(model.feature[r:e, None] < 0, -1, model.kids[r:e] - r)
        out.append((model.feature[r:e], model.threshold[r:e], kids[:, 0], kids[:, 1],
                    model.value[r:e]))
    return out


def leaf_of(model, root, row):
    """The leaf a row reaches from a root, one node at a time."""
    node = root
    while model.feature[node] >= 0:
        f = model.feature[node]
        node = model.kids[node, 0 if row[f] <= model.threshold[node] else 1]
    return node


def tree_depth(model, node):
    """The longest path from a node down to a leaf."""
    if model.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(model, kid) for kid in model.kids[node])


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
        model = fit_forest(X, y, n_trees=1, seed=3, max_depth=1, min_leaf=1)
        assert model.feature[0] == 0
        assert model.threshold[0] == pytest.approx(0.5)
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

    @pytest.mark.parametrize("min_leaf", [2, 5])
    def test_too_few_rows_to_split(self, min_leaf):
        # below 2 * min_leaf rows no node can split: every tree would score the mean
        rng = np.random.default_rng(min_leaf)
        rows = 2 * min_leaf
        X, y = rng.random((rows, 3)), rng.random(rows)
        with pytest.raises(EmptyInput, match=f"^{rows - 1} rows .* min_leaf={min_leaf}"):
            fit_forest(X[1:], y[1:], n_trees=2, min_leaf=min_leaf)
        model = fit_forest(X, y, n_trees=2, min_leaf=min_leaf)
        assert model.n_trees == 2

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


class TestForestParameters:
    @pytest.mark.parametrize("kwargs, name", [
        ({"min_leaf": 0}, "min_leaf"), ({"min_leaf": -1}, "min_leaf"),
        ({"min_leaf": 1.5}, "min_leaf"), ({"max_depth": 0}, "max_depth"),
        ({"max_depth": -3}, "max_depth"), ({"n_trees": 0}, "n_trees"),
        ({"n_trees": -1}, "n_trees"), ({"n_trees": 2.5}, "n_trees"),
    ], ids=lambda v: repr(v) if isinstance(v, dict) else v)
    def test_degenerate_parameter_named_before_any_tree(self, monkeypatch, kwargs, name):
        def no_growth(*args):
            raise AssertionError("a tree was grown")

        monkeypatch.setattr(forest, "_grow_chunk", no_growth)
        rng = np.random.default_rng(13)
        with pytest.raises(InvalidParameter, match=f"^{name}=") as info:
            fit_forest(rng.random((20, 3)), rng.random(20), **{"n_trees": 3, **kwargs})
        assert info.value.name == name

    @pytest.mark.parametrize("kwargs", [
        {"min_leaf": 1}, {"max_depth": 1}, {"n_trees": 1},
        {"min_leaf": np.int64(2), "max_depth": np.int32(4)},
    ], ids=repr)
    def test_edge_values_accepted(self, kwargs):
        rng = np.random.default_rng(14)
        kwargs = {"n_trees": 3, **kwargs}
        model = fit_forest(rng.random((20, 3)), rng.random(20), **kwargs)
        assert model.n_trees == kwargs["n_trees"]


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
        # each row's mean over its own walk of every tree, in tree order
        walked = [np.array([model.value[leaf_of(model, r, row)] for r in model.roots]).mean()
                  for row in q]
        assert np.array_equal(predict_forest(model, q), walked)

    def test_depth_bound(self):
        rng = np.random.default_rng(5)
        X = rng.random((200, 4))
        y = rng.random(200)
        model = fit_forest(X, y, n_trees=4, seed=0, max_depth=3)

        def depth(node):
            if model.feature[node] < 0:
                return 0
            return 1 + max(depth(kid) for kid in model.kids[node])

        assert all(depth(r) <= 3 for r in model.roots)
        assert model.depth == max(depth(r) for r in model.roots)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(6)
        X = rng.random((50, 2))
        y = rng.random(50)
        model = fit_forest(X, y, n_trees=3, seed=0, min_leaf=5)
        # every split must leave >= min_leaf bootstrap rows per side; verify by
        # routing the training resample down each tree
        assert model.n_trees == 3
        counts = np.zeros(model.node_count(), dtype=int)
        for t, root in enumerate(model.roots):
            trng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(t,)))
            boot = trng.integers(0, 50, size=50)
            for row in X[boot]:
                node = root
                counts[node] += 1
                while model.feature[node] >= 0:
                    f = model.feature[node]
                    node = model.kids[node, 0 if row[f] <= model.threshold[node] else 1]
                    counts[node] += 1
        for node in np.flatnonzero(model.feature >= 0):
            assert counts[model.kids[node, 0]] >= 5
            assert counts[model.kids[node, 1]] >= 5

    def test_node_count_reported(self):
        rng = np.random.default_rng(7)
        X = rng.random((30, 3))
        y = rng.random(30)
        model = fit_forest(X, y, n_trees=2, seed=0)

        def reachable(node):
            if model.feature[node] < 0:
                return 1
            return 1 + sum(reachable(kid) for kid in model.kids[node])

        # every node belongs to exactly one tree, the one whose range holds it
        assert model.node_count() == sum(reachable(r) for r in model.roots)
        assert [reachable(r) for r in model.roots] == [e - r for r, e in tree_ranges(model)]
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
        for k in ("feature", "threshold", "kids", "value", "roots"):
            assert getattr(loaded, k).tobytes() == getattr(model, k).tobytes()
        assert (loaded.depth, loaded.n_features) == (model.depth, 4)
        q = rng.random((8, 4))
        assert np.array_equal(predict_forest(model, q), predict_forest(loaded, q))


def _table(rows, seed, quantised=False, columns=9):
    rng = np.random.default_rng([seed, rows])
    X = rng.random((rows, columns))
    y = rng.random(rows)
    if quantised:
        X[:, :4] = np.round(X[:, :4] * 3) / 3  # four values per column: many ties
        X[:, 7:8] = X[:, 8:9]                  # two identical columns, given nine
        y[::5] = y[0]
    return X, y


def _one_leaf_table():
    """A constant target but for two rows with the same features: a tree whose
    bootstrap misses both is one leaf; one that holds both can never separate
    them and peels other rows off down to max_depth."""
    rng = np.random.default_rng(22)
    X = rng.random((160, 9))
    X[1] = X[0]
    y = np.full(160, 3.0)
    y[:2] = 1.0, 5.0
    return X, y


class TestForestPacked:
    def test_batch_bits_equal_single_rows(self):
        X, y = _table(64, 9)
        model = fit_forest(X, y, n_trees=300, seed=3)
        q = np.random.default_rng(10).random((200, 9))
        batch = [v.hex() for v in predict_forest(model, q)]
        assert batch == [predict_forest(model, row).hex() for row in q]
        assert predict_forest(model, q[:1])[0].hex() == batch[0]

    def test_width_mismatch(self):
        X, y = _table(64, 1)
        model = fit_forest(X, y, n_trees=3, seed=0)
        for bad in (X[:, :8], np.zeros((2, 10)), np.zeros(8), np.zeros((2, 3, 9))):
            with pytest.raises(DimensionMismatch):
                predict_forest(model, bad)

    def test_one_child_array(self, tmp_path):
        X, y = _table(160, 29)
        model = fit_forest(X, y, n_trees=60, seed=29)
        predict_forest(model, X[:5])
        path = tmp_path / "forest.json"
        save_model(path, model)
        loaded = load_model(path)
        predict_forest(loaded, X[:5])
        for m in (model, loaded):
            n = m.node_count()
            assert m.kids.shape == (n, 2) and m.kids.dtype == np.int64
            leaves = np.flatnonzero(m.feature < 0)
            assert np.array_equal(m.kids[leaves], np.stack((leaves, leaves), axis=1))
            # prediction caches nothing node-sized: feature, threshold, value and
            # the two child columns, and one root a tree
            held = sum(a.nbytes for a in vars(m).values() if isinstance(a, np.ndarray))
            assert held == 40 * n + 8 * m.n_trees
        for k in ("feature", "threshold", "kids", "value", "roots"):
            assert np.array_equal(getattr(model, k), getattr(loaded, k))

    # one column: every node draws all of it, the full fraction
    @pytest.mark.parametrize("table", [
        lambda: _table(160, 26), _one_leaf_table, lambda: _table(160, 27, columns=1),
    ], ids=["table", "one-leaf-trees", "full-fraction"])
    def test_trees_packed_in_preorder(self, table):
        X, y = table()
        model = fit_forest(X, y, n_trees=2 * forest._chunk_trees(160) + 3, seed=26)
        kids = model.kids.tolist()

        def subtree(i):
            """Check the nodes under i are i onwards in preorder; their count."""
            left, right = kids[i]
            if model.feature[i] < 0:
                assert left == right == i
                return 1
            assert left == i + 1
            size = subtree(i + 1)
            assert right == i + 1 + size
            return 1 + size + subtree(right)

        assert model.roots[0] == 0
        for first, end in tree_ranges(model):
            assert subtree(first) == end - first

    # nine columns draw 3 of 9; one column draws k = d = 1, a Floyd step of
    # bound 0 that reads no word; 64 columns draw 8 of 64
    @pytest.mark.parametrize("rows", [64, 160])
    @pytest.mark.parametrize("kwargs", [
        {"min_leaf": 1}, {"min_leaf": 2}, {"min_leaf": 5},
        {"max_depth": 1}, {"max_depth": 3}, {"max_depth": 12},
        {"columns": 1}, {"columns": 64},
    ], ids=lambda kw: "-".join(f"{k}{v}" for k, v in kw.items()))
    @pytest.mark.parametrize("quantised", [False, True], ids=["distinct", "tied"])
    def test_fit_matches_per_node_oracle(self, rows, kwargs, quantised):
        params = {"max_depth": 12, "min_leaf": 2, "columns": 9, **kwargs}
        X, y = _table(rows, rows + len(kwargs), quantised, params.pop("columns"))
        model = fit_forest(X, y, n_trees=6, seed=rows, **params)
        want = forest_trees_oracle(X, y, 6, rows, params["max_depth"], params["min_leaf"])
        got = local_trees(model)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.tobytes() == b.astype(a.dtype).tobytes()


def _assert_matches_oracle(model, X, y, n_trees, seed, max_depth=12, min_leaf=2):
    want = forest_trees_oracle(X, y, n_trees, seed, max_depth, min_leaf)
    got = local_trees(model)
    assert len(got) == len(want) == n_trees
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert a.tobytes() == b.astype(a.dtype).tobytes()


class TestLockStepGrowth:
    """Trees grown together in chunks equal trees grown one node at a time."""

    def test_two_chunks_and_a_partial_one(self):
        X, y = _table(160, 21)
        n_trees = 2 * forest._chunk_trees(160) + 3
        model = fit_forest(X, y, n_trees=n_trees, seed=21)
        _assert_matches_oracle(model, X, y, n_trees, 21)

    def test_two_chunks_at_full_fraction(self):
        # every node draws the one column: a Floyd step of bound 0 that reads
        # no word, and no shuffle step
        X, y = _table(160, 25, columns=1)
        n_trees = forest._chunk_trees(160) + 2
        model = fit_forest(X, y, n_trees=n_trees, seed=25)
        _assert_matches_oracle(model, X, y, n_trees, 25)

    def test_one_leaf_trees_finish_beside_deep_ones(self):
        X, y = _one_leaf_table()
        model = fit_forest(X, y, n_trees=60, seed=22)
        depths = [tree_depth(model, r) for r in model.roots]
        assert min(depths) == 0 and max(depths) == 12
        _assert_matches_oracle(model, X, y, 60, 22)

    def test_criterion_7_sized_table(self):
        X, y = _table(300, 23)
        n_trees = forest._chunk_trees(300) + 4
        model = fit_forest(X, y, n_trees=n_trees, seed=23)
        _assert_matches_oracle(model, X, y, n_trees, 23)

    def test_fit_memory_bound(self):
        # 300 trees of the perfbench train-eval shape: the model arrays take
        # 1.4 MiB, and the fit peaks at 4.45 MiB, in a split search of a
        # late chunk (growing one node at a time peaked at 3.0-3.8 MiB)
        X, y = _table(160, 24)
        tracemalloc.start()
        try:
            fit_forest(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20


class TestFeatureDraw:
    """The per-node draw replays Generator.choice(d, k, replace=False) on the
    generator's 32-bit words, with no call to choice."""

    @staticmethod
    def _pair(seed, boot):
        """Two generators in one state, after a bootstrap draw of ``boot``
        rows as fit_forest makes it: an odd length leaves half of a 64-bit
        output buffered, an even one none."""
        gens = [np.random.default_rng(seed) for _ in range(2)]
        for g in gens:
            g.integers(0, boot, size=boot)
        return gens

    @staticmethod
    def _stream(rng):
        return forest._Words([rng], 0).stream(0)

    @pytest.mark.parametrize("boot", [159, 160])
    def test_every_k_of_small_populations(self, boot):
        for d in (1, 2, 3, 9, 64):
            numpy_rng, replay_rng = self._pair(d, boot)
            words = self._stream(replay_rng)
            for k in [*range(d + 1), *range(d, -1, -1)]:  # one stream, k up and down
                want = numpy_rng.choice(d, size=k, replace=False).tolist()
                assert forest._choice(words, d, k) == want, (d, k)

    def test_redrawn_words(self):
        # bounds near 2**32 reject up to half of the words; 2**32 rejects none
        numpy_rng, replay_rng = self._pair(8, 159)
        words = self._stream(replay_rng)
        for d in (3_000_000_000, 2**31 + 1, 2**32):
            for k in (1, 2, 5):
                want = numpy_rng.choice(d, size=k, replace=False).tolist()
                assert forest._choice(words, d, k) == want, (d, k)

    @staticmethod
    def _trees(boot, n_trees=4):
        """Generator pairs in the states of a chunk's trees after a bootstrap
        of ``boot`` rows, and the chunk's words over the replaying ones; tree
        i has made i draws of 5 of 9, so the trees sit at different words."""
        pairs = [TestFeatureDraw._pair([boot, i], boot) for i in range(n_trees)]
        words = forest._Words([r for _, r in pairs], 2 * 240)
        for i, (numpy_rng, _) in enumerate(pairs):
            for _ in range(i):
                numpy_rng.choice(9, size=5, replace=False)
                forest._choice(words.stream(i), 9, 5)
        return [g for g, _ in pairs], words

    @staticmethod
    def _round(numpy_rngs, words, t, d, k):
        got = forest._draw(words, np.array(t), d, k)
        assert got.shape == (len(t), k)
        for row, i in zip(got.tolist(), t):
            want = sorted(numpy_rngs[i].choice(d, size=k, replace=False).tolist())
            assert row == want, (i, d, k)

    @pytest.mark.parametrize("boot", [159, 160])
    def test_round_draw_every_k_of_small_populations(self, boot):
        # k = d has a Floyd step of bound 0, which reads no word; k = 1 has no
        # shuffle step; some rounds leave trees out
        for d in (1, 2, 3, 9, 64):
            numpy_rngs, words = self._trees(boot)
            for k in [*range(1, d + 1), *range(d, 0, -1)]:
                self._round(numpy_rngs, words, [0, 1, 2, 3] if k % 3 else [1, 3], d, k)

    @pytest.mark.parametrize("boot", [159, 160])
    def test_round_draw_falls_back_to_the_word_by_word_draw(self, boot, monkeypatch):
        # bounds near 2**32 reject up to half of the words, so some trees draw
        # through _choice, and a round of 3 of 9 after them does not
        calls = []
        choice = forest._choice

        def counted(words, d, k):
            calls.append(d)
            return choice(words, d, k)

        numpy_rngs, words = self._trees(boot)
        monkeypatch.setattr(forest, "_choice", counted)
        for d, ks in ((3_000_000_000, (1, 2, 5)), (2**31 + 1, (1, 2, 5)), (9, (3,))):
            for k in ks:
                self._round(numpy_rngs, words, [0, 1, 2, 3], d, k)
        assert calls.count(3_000_000_000) > 0 and calls.count(2**31 + 1) > 0
        assert 9 not in calls


class TestNodeMeans:
    """Node means, many segments at once, have the bits of numpy's sum."""

    def test_bits_of_numpy_sum_for_every_size_to_300(self):
        rng = np.random.default_rng(28)
        special = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300])
        segments = []
        for size in range(1, 301):
            segments += [rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size),
                         rng.choice(special, size) * rng.integers(1, 4, size),
                         np.full(size, -0.0)]
        m = np.array([s.size for s in segments])
        got = forest._means(np.concatenate(segments), m.cumsum() - m, m)
        want = [float(np.add.reduce(s) / s.size).hex() for s in segments]
        assert [v.hex() for v in got.tolist()] == want


def _v1_file(path, trees, names=("a", "b", "c")):
    """A forest checkpoint written as v1 files have always been written."""
    doc = {
        "format": "vqakit-forest-v1", "n_trees": len(trees), "seed": 4, "max_depth": 12,
        "min_leaf": 2, "feature_fraction": 0.5773502691896257,
        "feature_names": list(names) if names else None,
        "trees": [{k: [x.item() for x in a] for k, a in
                   zip(("feature", "threshold", "left", "right", "value"), t)}
                  for t in trees],
    }
    path.write_text(json.dumps(doc))
    return doc


def _stump():
    return [[0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 0.0, 1.0]]


class TestForestCheckpoint:
    @pytest.mark.parametrize("names", [("a", "b", "c"), None])
    def test_v1_file_round_trips_byte_identical(self, tmp_path, names):
        rng = np.random.default_rng(12)
        X, y = rng.random((50, 3)), rng.random(50)
        path = tmp_path / "v1.json"
        _v1_file(path, forest_trees_oracle(X, y, 7, 4, 12, 2), names)
        again = tmp_path / "again.json"
        save_model(again, load_model(path))
        assert again.read_bytes() == path.read_bytes()

    def test_file_without_names_needs_the_columns_it_splits_on(self, tmp_path):
        stump = _stump()
        stump[0][0] = 2  # the root splits on column 2
        path = tmp_path / "f.json"
        _v1_file(path, [[np.array(a) for a in stump]], names=None)
        model = load_model(path)
        assert model.n_features is None
        assert predict_forest(model, np.array([9.0, 9.0, 0.2])) == 0.0
        assert predict_forest(model, np.array([0.0, 0.0, 0.7, 0.0])) == 1.0
        with pytest.raises(DimensionMismatch):
            predict_forest(model, np.zeros(2))

    def _write(self, tmp_path, trees, over=()):
        path = tmp_path / "bad.json"
        doc = _v1_file(path, [[np.array(a) for a in t] for t in trees])
        doc.update(over)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t[3].__setitem__(0, 0), "tree 1, node 0: an internal node's children"),
        (lambda t: t[2].__setitem__(0, 5), "tree 1, node 0: an internal node's children"),
        (lambda t: t[2].__setitem__(1, 2), "tree 1, node 1: a leaf's children must be -1"),
        (lambda t: t[0].__setitem__(0, 3), "tree 1, node 0: feature index outside -1..2"),
        (lambda t: t[0].__setitem__(1, -2), "tree 1, node 1: feature index outside"),
        (lambda t: t[4].__setitem__(2, float("nan")), "tree 1, node 2: non-finite"),
        (lambda t: t[1].pop(), "tree 1: node arrays must be"),
        (lambda t: [a.clear() for a in t], "tree 1: node arrays must be"),
    ], ids=["cycle", "child-outside-tree", "leaf-child", "feature-too-wide",
            "feature-below-leaf", "nan-value", "ragged", "empty"])
    def test_malformed_tree_rejected(self, tmp_path, edit, message):
        bad = _stump()
        edit(bad)
        path = self._write(tmp_path, [_stump(), bad])
        with pytest.raises(CheckpointError, match=message) as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_shared_child_rejected(self, tmp_path):
        # node 2 is the right child of node 0 and the left child of node 1
        tree = [[0, 1, -1, -1], [0.5, 0.2, 0.0, 0.0], [1, 2, -1, -1], [2, 3, -1, -1],
                [0.5, 0.2, 0.0, 1.0]]
        with pytest.raises(CheckpointError, match="tree 0, node 2: every node but the root"):
            load_model(self._write(tmp_path, [tree]))

    @pytest.mark.parametrize("over", [{"n_trees": 3}, {"trees": []}, {"seed": "x"},
                                      {"trees": [{"feature": [-1]}]}])
    def test_malformed_header_rejected(self, tmp_path, over):
        with pytest.raises(CheckpointError, match="bad.json"):
            load_model(self._write(tmp_path, [_stump()], over))

    @pytest.mark.parametrize("kind", ["truncated-forest", "truncated-net", "0xff", "text"])
    def test_file_that_is_not_json_rejected(self, tmp_path, kind):
        path = tmp_path / "model.json"
        if kind.startswith("truncated"):
            X, y = _table(64, 30)
            save_model(path, fit_forest(X, y, n_trees=3, seed=0) if kind == "truncated-forest"
                       else init_branchnet(seed=0))
            path.write_bytes(path.read_bytes()[:100])
        else:
            path.write_bytes(b"\xff{}" if kind == "0xff" else b"hello")
        with pytest.raises(CheckpointError, match="not a JSON checkpoint") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
