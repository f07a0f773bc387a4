"""Random forest of Gini-split decision trees.

Trees are grown on bootstrap resamples, each node choosing the best
threshold among a random subset of ceil(sqrt(n_features)) candidate
features.  Every tree draws from its own generator seeded by (seed, tree
index), so any single tree can be rebuilt in isolation.  Trees serialize to
plain dicts, which keeps the JSON model format trivial.
"""

from __future__ import annotations

import math

import numpy as np


def gini(y: np.ndarray) -> float:
    """Impurity of a binary label vector."""
    if len(y) == 0:
        return 0.0
    p = float(np.mean(y))
    return 2.0 * p * (1.0 - p)


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_ids,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """(feature, threshold, impurity decrease) or None when nothing helps.

    Thresholds sit midway between consecutive distinct values; rows with
    value <= threshold go left.  Ties keep the first candidate in feature
    order, then the lowest threshold, which pins the tree shape.
    """
    n = len(y)
    parent = gini(y)
    best: tuple[int, float, float] | None = None
    for j in sorted(int(f) for f in feature_ids):
        order = np.argsort(X[:, j], kind="stable")
        values = X[order, j]
        labels = y[order]
        pos_prefix = np.cumsum(labels)
        total_pos = pos_prefix[-1]
        for k in range(min_samples_leaf, n - min_samples_leaf + 1):
            if k == 0 or k == n or values[k] == values[k - 1]:
                continue
            left_pos = pos_prefix[k - 1]
            p_left = left_pos / k
            p_right = (total_pos - left_pos) / (n - k)
            weighted = (k / n) * 2.0 * p_left * (1.0 - p_left) + (
                (n - k) / n
            ) * 2.0 * p_right * (1.0 - p_right)
            decrease = parent - weighted
            if decrease > 1e-12 and (best is None or decrease > best[2] + 1e-12):
                threshold = (values[k - 1] + values[k]) / 2.0
                best = (j, float(threshold), float(decrease))
    return best


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    depth: int,
    max_depth: int | None,
    min_samples_leaf: int,
    n_candidates: int,
    importances: np.ndarray,
    n_total: int,
) -> dict:
    n = len(y)
    prob = float(np.mean(y)) if n else 0.5
    if (
        n < 2 * min_samples_leaf
        or (max_depth is not None and depth >= max_depth)
        or prob in (0.0, 1.0)
    ):
        return {"prob": prob, "n": n}
    candidates = rng.choice(X.shape[1], size=n_candidates, replace=False)
    found = best_split(X, y, candidates, min_samples_leaf)
    if found is None:
        return {"prob": prob, "n": n}
    feature, threshold, decrease = found
    importances[feature] += (n / n_total) * decrease
    mask = X[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow(
            X[mask], y[mask], rng, depth + 1, max_depth, min_samples_leaf,
            n_candidates, importances, n_total,
        ),
        "right": _grow(
            X[~mask], y[~mask], rng, depth + 1, max_depth, min_samples_leaf,
            n_candidates, importances, n_total,
        ),
    }


def tree_predict_one(node: dict, row: np.ndarray) -> float:
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["prob"]


class RandomForestClassifier:
    """Estimator-style wrapper: fit, predict_proba, predict, get_params."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_leaf: int = 2,
        max_features: int | None = None,  # default ceil(sqrt(n_features))
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def get_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
        }

    def fit(self, X, y) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n, n_features = X.shape
        n_candidates = (
            self.max_features
            if self.max_features is not None
            else math.ceil(math.sqrt(n_features))
        )
        n_candidates = min(n_candidates, n_features)
        self.trees_: list[dict] = []
        importance_sum = np.zeros(n_features)
        for t in range(self.n_estimators):
            rng = np.random.default_rng((self.seed, t))
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree_importances = np.zeros(n_features)
            self.trees_.append(
                _grow(
                    X[sample], y[sample], rng, 0, self.max_depth,
                    self.min_samples_leaf, n_candidates, tree_importances, n,
                )
            )
            importance_sum += tree_importances
        mean = importance_sum / self.n_estimators
        total = mean.sum()
        self.feature_importances_ = mean / total if total > 0 else mean
        return self

    def predict_proba(self, X) -> np.ndarray:
        """P(label == 1) per row, averaged over the trees."""
        if not hasattr(self, "trees_"):
            raise RuntimeError("fit the classifier before predicting")
        X = np.asarray(X, dtype=float)
        probs = np.zeros(len(X))
        for tree in self.trees_:
            probs += [tree_predict_one(tree, row) for row in X]
        return probs / len(self.trees_)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)
