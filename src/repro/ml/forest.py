"""Random forest classifier — the paper's selected model (§4.3.1).

Bootstrap-sampled CART trees with per-split feature subsampling;
``predict_proba`` averages tree leaf distributions, which is what the
pipeline's 80%-confidence selector consumes.

Prediction runs over a *packed* forest: every tree's node arrays are
stacked into one (n_trees, max_nodes) block so a single index-array
descent routes all rows through all trees at once, instead of a Python
loop over trees each doing its own descent. The packed path is exactly
equivalent to the per-tree reference path (same leaves, same per-tree
accumulation order), which :meth:`predict_proba_reference` preserves as
the oracle for the equivalence test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.ml.base import BaseClassifier, LabelEncoder, validate_xy
from repro.ml.tree import DecisionTreeClassifier


@dataclass
class _PackedForest:
    """All trees' node arrays stacked into (n_trees, max_nodes) blocks.

    Leaves (and padding past a tree's node count) carry feature -1 and
    self-looping child pointers, so the descent is a fixed-point
    iteration: rows that reached a leaf stop moving while the rest keep
    descending.
    """

    feature: np.ndarray    # (T, M) int64, -1 at leaves/padding
    threshold: np.ndarray  # (T, M) float64
    left: np.ndarray       # (T, M) int64, self-loop at leaves/padding
    right: np.ndarray      # (T, M) int64, self-loop at leaves/padding
    value: np.ndarray      # (T, M, C) float64 leaf class distributions

    @classmethod
    def pack(cls, trees: list[DecisionTreeClassifier],
             n_classes: int) -> "_PackedForest":
        n_trees = len(trees)
        max_nodes = max(len(tree._feature_arr) for tree in trees)
        feature = np.full((n_trees, max_nodes), -1, dtype=np.int64)
        threshold = np.zeros((n_trees, max_nodes))
        self_loop = np.arange(max_nodes, dtype=np.int64)
        left = np.tile(self_loop, (n_trees, 1))
        right = np.tile(self_loop, (n_trees, 1))
        value = np.zeros((n_trees, max_nodes, n_classes))
        for t, tree in enumerate(trees):
            n = len(tree._feature_arr)
            feature[t, :n] = tree._feature_arr
            threshold[t, :n] = tree._threshold_arr
            is_leaf = tree._feature_arr < 0
            left[t, :n] = np.where(is_leaf, self_loop[:n], tree._left_arr)
            right[t, :n] = np.where(is_leaf, self_loop[:n],
                                    tree._right_arr)
            value[t, :n] = tree._value_arr
        return cls(feature=feature, threshold=threshold,
                   left=left, right=right, value=value)

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Leaf node per (tree, row): one descent for the whole batch."""
        n_trees = self.feature.shape[0]
        n_rows = len(X)
        nodes = np.zeros((n_trees, n_rows), dtype=np.int64)
        tree_idx = np.arange(n_trees)[:, None]
        row_idx = np.arange(n_rows)[None, :]
        feats = self.feature[tree_idx, nodes]
        while True:
            internal = feats >= 0
            if not internal.any():
                return nodes
            x = X[row_idx, np.where(internal, feats, 0)]
            go_left = x <= self.threshold[tree_idx, nodes]
            step = np.where(go_left, self.left[tree_idx, nodes],
                            self.right[tree_idx, nodes])
            nodes = np.where(internal, step, nodes)
            feats = self.feature[tree_idx, nodes]


class RandomForestClassifier(BaseClassifier):
    def __init__(self, n_estimators: int = 50,
                 max_depth: int | None = 20,
                 min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: int | str | None = "sqrt",
                 bootstrap: bool = True,
                 random_state: int = 0):
        if n_estimators < 1:
            raise ConfigError(
                f"n_estimators must be at least 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self._trees: list[DecisionTreeClassifier] | None = None
        self._encoder: LabelEncoder | None = None
        self._packed: _PackedForest | None = None

    def fit(self, X: np.ndarray, y) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        self._encoder = LabelEncoder()
        y_codes = self._encoder.fit_transform(y)
        validate_xy(X, y_codes)
        rng = np.random.default_rng(self.random_state)
        n = len(X)
        trees = []
        for i in range(self.n_estimators):
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            # Fit on integer codes so every tree shares the forest's
            # class indexing even if a bootstrap misses a class.
            tree._encoder = _SharedEncoder(self._encoder)
            tree.fit_codes(X[sample], y_codes[sample],
                           self._encoder.n_classes)
            trees.append(tree)
        self._trees = trees
        self._packed = None
        return self

    @property
    def classes_(self) -> list:
        self._check_fitted("_encoder")
        return self._encoder.classes_

    def _ensure_packed(self) -> _PackedForest:
        if self._packed is None:
            self._packed = _PackedForest.pack(self._trees,
                                              self._encoder.n_classes)
        return self._packed

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("_trees")
        X = np.asarray(X, dtype=np.float64)
        packed = self._ensure_packed()
        leaves = packed.leaf_indices(X)
        # Accumulate tree-by-tree in index order — the same float
        # summation order as the reference path, so both paths are
        # byte-identical.
        total = np.zeros((len(X), self._encoder.n_classes))
        for t in range(len(self._trees)):
            total += packed.value[t, leaves[t]]
        return total / len(self._trees)

    def predict_proba_reference(self, X: np.ndarray) -> np.ndarray:
        """Per-tree reference path (the oracle the packed traversal is
        tested against): each tree descends the batch independently."""
        self._check_fitted("_trees")
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros((len(X), self._encoder.n_classes))
        for tree in self._trees:
            total += tree.predict_proba(X)
        return total / len(self._trees)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Forest-averaged mean-decrease-in-impurity importances."""
        self._check_fitted("_trees")
        stacks = [tree.feature_importances_ for tree in self._trees
                  if tree.feature_importances_.size]
        if not stacks:
            return np.zeros(0)
        mean = np.mean(np.vstack(stacks), axis=0)
        total = mean.sum()
        return mean / total if total > 0 else mean


class _SharedEncoder:
    """Adapter exposing the forest's label space to member trees."""

    def __init__(self, encoder: LabelEncoder):
        self.classes_ = encoder.classes_
        self.n_classes = encoder.n_classes
