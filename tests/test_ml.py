"""Tests for the from-scratch ML substrate."""

import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DatasetError, NotFittedError
from repro.ml import (
    DecisionTreeClassifier,
    KNeighborsClassifier,
    LabelEncoder,
    MLPClassifier,
    RandomForestClassifier,
    StratifiedKFold,
    accuracy_score,
    best_result,
    box_stats,
    confidence_summary,
    confusion_matrix,
    cross_val_predict,
    cross_val_score,
    grid_search,
    normalized_confusion,
    per_class_accuracy,
)
from repro.ml.tree import _Split, _TreeBuilder


def _blobs(n_per_class=60, n_classes=3, d=6, seed=0, spread=0.6):
    """Well-separated Gaussian blobs."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(n_classes):
        center = rng.normal(0, 4, size=d)
        X.append(center + rng.normal(0, spread, size=(n_per_class, d)))
        y += [f"class{c}"] * n_per_class
    return np.vstack(X), y


def _xor(n=200, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ["pos" if (a > 0) != (b > 0) else "neg" for a, b in X]
    return X, y


class TestLabelEncoder:
    def test_roundtrip(self):
        enc = LabelEncoder()
        codes = enc.fit_transform(["b", "a", "b", "c"])
        assert enc.classes_ == ["a", "b", "c"]
        assert list(codes) == [1, 0, 1, 2]
        assert enc.inverse_transform(codes) == ["b", "a", "b", "c"]

    def test_unseen_label(self):
        enc = LabelEncoder().fit(["a", "b"])
        with pytest.raises(DatasetError):
            enc.transform(["z"])


class TestDecisionTree:
    def test_separable_blobs(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=10).fit(X, y)
        assert tree.score(X, y) > 0.99

    def test_xor_needs_depth(self):
        X, y = _xor()
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert deep.score(X, y) > shallow.score(X, y)

    def test_predict_proba_rows_sum_to_one(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.shape == (len(X), 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_min_samples_leaf_respected(self):
        X, y = _blobs(n_per_class=20)
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
        # Leaves hold class distributions; with large leaves the tree
        # must stay small.
        assert tree.node_count < 30

    def test_pure_node_stops(self):
        X = np.zeros((10, 3))
        y = ["only"] * 10
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.node_count == 1
        assert tree.predict(X) == ["only"] * 10

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict_proba(np.zeros((1, 2)))

    def test_bad_max_features(self):
        X, y = _blobs(n_per_class=5)
        with pytest.raises(DatasetError):
            DecisionTreeClassifier(max_features=1.5).fit(X, y)

    def test_mismatched_shapes(self):
        with pytest.raises(DatasetError):
            DecisionTreeClassifier().fit(np.zeros((4, 2)), ["a"] * 3)


class TestRandomForest:
    def test_beats_single_tree_on_noisy_data(self):
        rng = np.random.default_rng(3)
        X, y = _blobs(spread=3.0, seed=3)
        noise = rng.normal(0, 5, size=(len(X), 10))
        Xn = np.hstack([X, noise])
        holdout_X, holdout_y = Xn[::3], y[::3]
        train_idx = [i for i in range(len(y)) if i % 3]
        train_X = Xn[train_idx]
        train_y = [y[i] for i in train_idx]
        tree = DecisionTreeClassifier(max_depth=None, random_state=1,
                                      max_features="sqrt")
        forest = RandomForestClassifier(n_estimators=25, max_depth=None,
                                        random_state=1)
        tree.fit(train_X, train_y)
        forest.fit(train_X, train_y)
        assert forest.score(holdout_X, holdout_y) >= \
            tree.score(holdout_X, holdout_y)

    def test_proba_shape_and_classes(self):
        X, y = _blobs()
        forest = RandomForestClassifier(n_estimators=8).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (len(X), 3)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert forest.classes_ == ["class0", "class1", "class2"]

    def test_deterministic_given_seed(self):
        X, y = _blobs(seed=7)
        a = RandomForestClassifier(n_estimators=5, random_state=11)
        b = RandomForestClassifier(n_estimators=5, random_state=11)
        assert a.fit(X, y).predict(X) == b.fit(X, y).predict(X)

    @pytest.mark.parametrize("n_estimators", [0, -3])
    def test_rejects_empty_forest(self, n_estimators):
        with pytest.raises(ConfigError, match="n_estimators"):
            RandomForestClassifier(n_estimators=n_estimators)

    def test_class_missing_from_bootstrap_ok(self):
        # Tiny minority class: bootstraps will often miss it entirely.
        X = np.vstack([np.zeros((40, 2)), np.ones((2, 2)) * 9])
        y = ["maj"] * 40 + ["min"] * 2
        forest = RandomForestClassifier(n_estimators=12,
                                        random_state=0).fit(X, y)
        proba = forest.predict_proba(np.array([[9.0, 9.0]]))
        assert proba.shape == (1, 2)


class TestMLP:
    def test_learns_blobs(self):
        X, y = _blobs(seed=5)
        mlp = MLPClassifier(hidden_layer_sizes=(32,), max_iter=40,
                            random_state=5).fit(X, y)
        assert mlp.score(X, y) > 0.9

    def test_learns_xor(self):
        X, y = _xor(400, seed=2)
        mlp = MLPClassifier(hidden_layer_sizes=(32, 16), max_iter=150,
                            random_state=2).fit(X, y)
        assert mlp.score(X, y) > 0.9

    def test_proba_normalized(self):
        X, y = _blobs()
        mlp = MLPClassifier(max_iter=5).fit(X, y)
        proba = mlp.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_bad_activation(self):
        with pytest.raises(ConfigError):
            MLPClassifier(activation="sigmoidal")

    def test_tanh_works(self):
        X, y = _blobs(n_per_class=30)
        mlp = MLPClassifier(activation="tanh", max_iter=30).fit(X, y)
        assert mlp.score(X, y) > 0.8


class TestKNN:
    def test_blobs(self):
        X, y = _blobs()
        knn = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        assert knn.score(X, y) > 0.95

    def test_distance_weights_memorize(self):
        X, y = _blobs(n_per_class=15)
        knn = KNeighborsClassifier(n_neighbors=5,
                                   weights="distance").fit(X, y)
        assert knn.score(X, y) == 1.0  # training point distance ~0

    def test_k_larger_than_dataset(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        knn = KNeighborsClassifier(n_neighbors=50).fit(X, ["a", "b", "a"])
        proba = knn.predict_proba(X)
        assert proba.shape == (3, 2)

    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            KNeighborsClassifier(weights="quadratic")


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score(["a", "b"], ["a", "a"]) == 0.5
        assert accuracy_score([], []) == 0.0

    def test_confusion_matrix(self):
        matrix, labels = confusion_matrix(
            ["a", "a", "b"], ["a", "b", "b"])
        assert labels == ["a", "b"]
        assert matrix.tolist() == [[1, 1], [0, 1]]

    def test_normalized_confusion(self):
        matrix, _ = confusion_matrix(["a", "a", "b", "b"],
                                     ["a", "b", "b", "b"])
        norm = normalized_confusion(matrix)
        assert norm[0].tolist() == [0.5, 0.5]
        assert norm[1].tolist() == [0.0, 1.0]

    def test_per_class_accuracy(self):
        acc = per_class_accuracy(["a", "a", "b"], ["a", "a", "a"])
        assert acc["a"] == 1.0 and acc["b"] == 0.0

    def test_confidence_summary(self):
        summary = confidence_summary(
            ["a", "a", "b"], ["a", "b", "b"], [0.9, 0.4, 0.8])
        assert summary.median_correct == pytest.approx(0.85)
        assert summary.median_incorrect == pytest.approx(0.4)
        assert summary.n_correct == 2 and summary.n_incorrect == 1

    def test_box_stats(self):
        stats = box_stats([1, 2, 3, 4, 5])
        assert stats["median"] == 3.0
        assert stats["q1"] == 2.0 and stats["q3"] == 4.0


class TestModelSelection:
    def test_stratified_folds_cover_everything_once(self):
        y = ["a"] * 30 + ["b"] * 20 + ["c"] * 10
        seen = []
        for train, test in StratifiedKFold(5, random_state=1).split(y):
            assert set(train) | set(test) == set(range(60))
            assert not set(train) & set(test)
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(60))

    def test_stratification_balances_classes(self):
        y = ["a"] * 50 + ["b"] * 50
        for _, test in StratifiedKFold(5, random_state=0).split(y):
            labels = [y[i] for i in test]
            assert labels.count("a") == 10
            assert labels.count("b") == 10

    def test_small_class_spread(self):
        y = ["a"] * 30 + ["rare"] * 2
        folds = list(StratifiedKFold(5, random_state=0).split(y))
        assert len(folds) == 5

    def test_cross_val_score_high_on_separable(self):
        X, y = _blobs()
        scores = cross_val_score(
            lambda: DecisionTreeClassifier(max_depth=8), X, y, n_splits=4)
        assert len(scores) == 4
        assert np.mean(scores) > 0.95

    def test_cross_val_predict_aligned(self):
        X, y = _blobs(n_per_class=20)
        preds, conf = cross_val_predict(
            lambda: RandomForestClassifier(n_estimators=5), X, y,
            n_splits=3, with_proba=True)
        assert len(preds) == len(y)
        assert all(p is not None for p in preds)
        assert ((conf > 0) & (conf <= 1.0)).all()

    def test_grid_search_finds_better_depth(self):
        X, y = _xor(300, seed=4)
        results = grid_search(
            lambda max_depth: DecisionTreeClassifier(max_depth=max_depth),
            {"max_depth": [1, 8]}, X, y, n_splits=3)
        best = best_result(results)
        assert best.params["max_depth"] == 8

    def test_invalid_splits(self):
        with pytest.raises(DatasetError):
            StratifiedKFold(1)


class TestTreeProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_forest_proba_valid(self, seed):
        X, y = _blobs(n_per_class=12, seed=seed)
        forest = RandomForestClassifier(
            n_estimators=4, max_depth=5, random_state=seed).fit(X, y)
        proba = forest.predict_proba(X)
        assert (proba >= 0).all()
        assert np.allclose(proba.sum(axis=1), 1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_tree_training_accuracy_nondecreasing_in_depth(self, seed):
        X, y = _blobs(n_per_class=15, seed=seed, spread=2.0)
        accs = [DecisionTreeClassifier(max_depth=d, random_state=seed)
                .fit(X, y).score(X, y) for d in (1, 3, 9)]
        assert accs[0] <= accs[1] + 1e-9 <= accs[2] + 2e-9


class TestFeatureImportances:
    def test_informative_feature_ranks_first(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, size=(300, 5))
        y = ["hi" if x > 0 else "lo" for x in X[:, 2]]
        forest = RandomForestClassifier(n_estimators=10,
                                        random_state=0).fit(X, y)
        importances = forest.feature_importances_
        assert importances.shape == (5,)
        assert np.argmax(importances) == 2
        assert importances.sum() == pytest.approx(1.0)

    def test_tree_importances_normalized(self):
        X, y = _blobs(n_per_class=30)
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        importances = tree.feature_importances_
        assert (importances >= 0).all()
        assert importances.sum() == pytest.approx(1.0)

    def test_pure_stump_importances_zero(self):
        tree = DecisionTreeClassifier().fit(np.zeros((5, 3)), ["a"] * 5)
        assert tree.feature_importances_.sum() == 0.0

    def test_restored_forest_importances_empty(self, tmp_path):
        from repro.pipeline import ClassifierBank, load_bank, save_bank
        from repro.trafficgen import generate_lab_dataset

        lab = generate_lab_dataset(seed=13, scale=0.03)
        bank = ClassifierBank.train(
            lab, model_factory=lambda: RandomForestClassifier(
                n_estimators=3, max_depth=8, random_state=1))
        save_bank(bank, tmp_path / "b")
        restored = load_bank(tmp_path / "b")
        scenario = next(iter(restored.scenarios.values()))
        # Importances are train-time state; restored models expose an
        # empty array rather than lying.
        assert scenario.platform_model.feature_importances_.size == 0


def _reference_best_split(self, X: np.ndarray,
                          y: np.ndarray) -> _Split | None:
    """The per-feature split search the node-level one replaced: one
    sort and one Gini scan per candidate feature. The oracle for
    :class:`TestSplitSearchEquivalence`."""
    n_samples, n_features = X.shape
    counts_total = self._class_counts(y)
    gini_parent = 1.0 - np.sum((counts_total / n_samples) ** 2)
    if gini_parent <= 0.0:
        return None
    k = self.max_features or n_features
    candidates = self.rng.choice(n_features, size=min(k, n_features),
                                 replace=False)
    best: _Split | None = None
    onehot = np.zeros((n_samples, self.n_classes))
    onehot[np.arange(n_samples), y] = 1.0
    for feature in candidates:
        x = X[:, feature]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        # Cumulative class counts for prefixes of the sorted sample.
        cum = np.cumsum(onehot[order], axis=0)
        # Valid split positions: between distinct consecutive values,
        # respecting min_samples_leaf.
        distinct = xs[:-1] != xs[1:]
        positions = np.nonzero(distinct)[0]
        if self.min_samples_leaf > 1:
            lo = self.min_samples_leaf - 1
            hi = n_samples - self.min_samples_leaf
            positions = positions[(positions >= lo)
                                  & (positions <= hi)]
        if positions.size == 0:
            continue
        left_counts = cum[positions]
        n_left = positions + 1
        n_right = n_samples - n_left
        right_counts = counts_total - left_counts
        gini_left = 1.0 - np.sum(
            (left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum(
            (right_counts / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) \
            / n_samples
        best_idx = int(np.argmin(weighted))
        gain = gini_parent - weighted[best_idx]
        if gain > 1e-12 and (best is None or gain > best.gain):
            pos = positions[best_idx]
            threshold = (xs[pos] + xs[pos + 1]) / 2.0
            best = _Split(int(feature), float(threshold), float(gain))
    return best


_TREE_ARRAYS = ("_feature_arr", "_threshold_arr", "_left_arr",
                "_right_arr", "_value_arr")


def _forest_bytes(forest: RandomForestClassifier) -> list[bytes]:
    """Every node array and importance accumulator, as raw bytes."""
    out = []
    for tree in forest._trees:
        out.extend(getattr(tree, name).tobytes() for name in _TREE_ARRAYS)
        out.append(tree._builder.importance_acc.tobytes())
    return out


@st.composite
def _split_problems(draw):
    """Small tables built to stress the split search's edge cases:
    few distinct values (heavy ties), constant columns, duplicated
    rows, many classes and single-class nodes."""
    n = draw(st.integers(min_value=2, max_value=300))
    d = draw(st.integers(min_value=1, max_value=12))
    n_classes = draw(st.integers(min_value=1, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = rng.integers(1, 8, size=d)
    X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    X[:, rng.random(d) < 0.3] = 1.5                 # constant columns
    continuous = rng.random(d) < 0.3
    X[:, continuous] = rng.normal(size=(n, int(continuous.sum())))
    y = rng.integers(0, n_classes, size=n)
    return X, y


class TestSplitSearchEquivalence:
    """The node-level split search grows byte-identical trees to the
    per-feature reference: same features, thresholds, children, leaf
    distributions and importance accumulators."""

    @settings(max_examples=60, deadline=None)
    @given(problem=_split_problems(),
           min_samples_leaf=st.sampled_from([1, 2, 5]),
           max_features=st.sampled_from([None, "sqrt", 1, 3, 50]),
           max_depth=st.sampled_from([None, 3, 20]),
           bootstrap=st.booleans(),
           seed=st.integers(min_value=0, max_value=1000))
    @example(problem=(np.zeros((40, 3)), np.arange(40) % 3),
             min_samples_leaf=1, max_features=None, max_depth=None,
             bootstrap=False, seed=0)            # every column all-tied
    @example(problem=(np.arange(8.0)[:, None], np.arange(8) % 2),
             min_samples_leaf=5, max_features=None, max_depth=None,
             bootstrap=False, seed=0)            # leaf floor kills all
    def test_forest_bytes_match_reference(self, problem, min_samples_leaf,
                                          max_features, max_depth,
                                          bootstrap, seed):
        X, y = problem
        params = dict(n_estimators=3, max_depth=max_depth,
                      min_samples_leaf=min_samples_leaf,
                      max_features=max_features, bootstrap=bootstrap,
                      random_state=seed)
        fast = RandomForestClassifier(**params).fit(X, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_TreeBuilder, "_best_split",
                          _reference_best_split)
            ref = RandomForestClassifier(**params).fit(X, y)
        assert _forest_bytes(fast) == _forest_bytes(ref)

    def test_ledger_bank_bytes_match_reference(self, tmp_path, monkeypatch):
        from repro.pipeline import ClassifierBank, save_bank
        from repro.trafficgen import generate_lab_dataset

        lab = generate_lab_dataset(seed=1, scale=0.02)

        def bank_bytes(out):
            bank = ClassifierBank.train(
                lab, model_factory=lambda: RandomForestClassifier(
                    n_estimators=8, max_depth=20, max_features=34,
                    random_state=0))
            save_bank(bank, out)
            # Compare the .npz members, not the archives: the zip
            # headers carry the write time.
            files = {}
            for path in sorted(out.iterdir()):
                if path.suffix == ".npz":
                    with zipfile.ZipFile(path) as archive:
                        for name in archive.namelist():
                            files[f"{path.name}/{name}"] = archive.read(name)
                else:
                    files[path.name] = path.read_bytes()
            return files

        fast = bank_bytes(tmp_path / "fast")
        monkeypatch.setattr(_TreeBuilder, "_best_split",
                            _reference_best_split)
        assert bank_bytes(tmp_path / "ref") == fast
