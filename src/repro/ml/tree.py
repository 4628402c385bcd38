"""CART decision tree classifier (Gini impurity), numpy-vectorized.

This is the base learner of the paper's best-performing model (random
forest). Split search runs once per node over all sampled candidate
features together: one stable sort of the (candidates, n) block, one
cumulative class-count tensor, Gini scored at the valid boundaries
only, then the first minimum per candidate and the first maximal gain
across candidates. The cost per node is O(candidates · n · (log n +
classes)) in a fixed number of numpy calls, however many candidates
there are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.ml.base import BaseClassifier, LabelEncoder, validate_xy


@dataclass
class _Split:
    feature: int
    threshold: float
    gain: float


class _TreeBuilder:
    """Grows one tree; nodes stored in parallel arrays."""

    def __init__(self, max_depth, min_samples_split, min_samples_leaf,
                 max_features, n_classes, rng: np.random.Generator):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.n_classes = n_classes
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []
        self.n_features_total: int | None = None
        # Accumulated impurity decrease per feature, weighted by the
        # fraction of training samples reaching each split (the classic
        # mean-decrease-in-impurity importance).
        self.importance_acc: np.ndarray | None = None
        self._n_root_samples: int = 0

    def _class_counts(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self.n_classes).astype(np.float64)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> _Split | None:
        n_samples, n_features = X.shape
        counts_total = self._class_counts(y)
        gini_parent = 1.0 - np.sum((counts_total / n_samples) ** 2)
        if gini_parent <= 0.0:
            return None
        k = self.max_features or n_features
        candidates = self.rng.choice(n_features, size=min(k, n_features),
                                     replace=False)
        # One row per candidate feature, each row sorted ascending.
        cols = X.T[candidates]
        order = np.argsort(cols, axis=1, kind="stable")
        xs = np.take_along_axis(cols, order, axis=1)
        # Valid boundaries: between distinct consecutive values, leaving
        # at least min_samples_leaf samples on either side.
        valid = xs[:, :-1] != xs[:, 1:]
        if self.min_samples_leaf > 1:
            valid[:, :self.min_samples_leaf - 1] = False
            valid[:, max(n_samples - self.min_samples_leaf + 1, 0):] = False
        rows, positions = np.nonzero(valid)
        if positions.size == 0:
            return None
        # Class counts of every sorted prefix of every candidate, read
        # at the valid boundaries only (int32 holds them exactly).
        onehot = np.zeros((n_samples, self.n_classes), dtype=np.int32)
        onehot[np.arange(n_samples), y] = 1
        cum = np.cumsum(onehot[order], axis=1, dtype=np.int32)
        left_counts = cum[rows, positions].astype(np.float64)
        n_left = positions + 1
        n_right = n_samples - n_left
        right_counts = counts_total - left_counts
        gini_left = 1.0 - np.sum(
            (left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum(
            (right_counts / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n_samples
        # `rows` is sorted, so each candidate's boundaries form one
        # segment, segments in candidate order. The first maximal gain
        # across segments is the first candidate that beats every
        # earlier one; its first minimal boundary is the split.
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        gains = gini_parent - np.minimum.reduceat(weighted, starts)
        seg = int(np.argmax(gains))
        if gains[seg] <= 1e-12:
            return None
        lo = starts[seg]
        hi = starts[seg + 1] if seg + 1 < len(starts) else len(weighted)
        at = lo + int(np.argmin(weighted[lo:hi]))
        row, pos = rows[at], positions[at]
        threshold = (xs[row, pos] + xs[row, pos + 1]) / 2.0
        return _Split(int(candidates[row]), float(threshold),
                      float(gains[seg]))

    def build(self, X: np.ndarray, y: np.ndarray, depth: int = 0) -> int:
        if depth == 0:
            self.n_features_total = X.shape[1]
            self.importance_acc = np.zeros(X.shape[1])
            self._n_root_samples = len(y)
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        counts = self._class_counts(y)
        self.value.append(counts / counts.sum())

        if (self.max_depth is not None and depth >= self.max_depth) or \
                len(y) < self.min_samples_split:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        mask = X[:, split.feature] <= split.threshold
        if mask.all() or not mask.any():
            return node
        self.feature[node] = split.feature
        self.threshold[node] = split.threshold
        self.importance_acc[split.feature] += \
            split.gain * len(y) / self._n_root_samples
        self.left[node] = self.build(X[mask], y[mask], depth + 1)
        self.right[node] = self.build(X[~mask], y[~mask], depth + 1)
        return node


class DecisionTreeClassifier(BaseClassifier):
    """CART classifier with Gini impurity.

    ``max_features``: int, "sqrt", or None (all features considered at
    each split). ``random_state`` seeds the feature subsampling.
    """

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | str | None = None,
                 random_state: int = 0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._encoder: LabelEncoder | None = None
        self._builder: _TreeBuilder | None = None

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise DatasetError(f"bad max_features {self.max_features!r}")

    def fit(self, X: np.ndarray, y) -> "DecisionTreeClassifier":
        self._encoder = LabelEncoder()
        y_codes = self._encoder.fit_transform(y)
        return self.fit_codes(np.asarray(X, dtype=np.float64), y_codes,
                              self._encoder.n_classes)

    def fit_codes(self, X: np.ndarray, y_codes: np.ndarray,
                  n_classes: int) -> "DecisionTreeClassifier":
        """Fit on pre-encoded integer labels with a fixed class count.

        Used by the random forest so all member trees share one class
        indexing even when a bootstrap sample misses a class.
        """
        X = np.asarray(X, dtype=np.float64)
        validate_xy(X, y_codes)
        builder = _TreeBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(X.shape[1]),
            n_classes=n_classes,
            rng=np.random.default_rng(self.random_state),
        )
        builder.build(X, y_codes)
        self._builder = builder
        self._feature_arr = np.array(builder.feature, dtype=np.int64)
        self._threshold_arr = np.array(builder.threshold)
        self._left_arr = np.array(builder.left, dtype=np.int64)
        self._right_arr = np.array(builder.right, dtype=np.int64)
        self._value_arr = np.vstack(builder.value)
        return self

    @property
    def classes_(self) -> list:
        self._check_fitted("_encoder")
        return self._encoder.classes_

    @property
    def node_count(self) -> int:
        self._check_fitted("_builder")
        return len(self._builder.feature)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean-decrease-in-impurity importances, normalized to sum 1.

        All zeros for a stump that never split; empty for trees restored
        from disk (the importance accumulator is train-time state and is
        not persisted)."""
        self._check_fitted("_builder")
        acc = getattr(self._builder, "importance_acc", None)
        if acc is None:
            return np.zeros(0)
        total = acc.sum()
        return acc / total if total > 0 else acc.copy()

    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        nodes = np.zeros(len(X), dtype=np.int64)
        active = self._feature_arr[nodes] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            current = nodes[idx]
            feats = self._feature_arr[current]
            thresh = self._threshold_arr[current]
            go_left = X[idx, feats] <= thresh
            nodes[idx] = np.where(go_left, self._left_arr[current],
                                  self._right_arr[current])
            active = self._feature_arr[nodes] >= 0
        return nodes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("_builder")
        X = np.asarray(X, dtype=np.float64)
        leaves = self._leaf_indices(X)
        return self._value_arr[leaves]
