"""Frozen scalar forest: the reference the array forest must equal bit for bit.

This is the nested-dict implementation the package shipped before its
forest moved to flat node arrays: the split scan on numpy scalars, the
recursive grower, and a one-row, one-tree walk.  Keep it as it is; the
oracle tests compare trees, importances and probabilities against it.
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


def grow(
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
        "left": grow(
            X[mask], y[mask], rng, depth + 1, max_depth, min_samples_leaf,
            n_candidates, importances, n_total,
        ),
        "right": grow(
            X[~mask], y[~mask], rng, depth + 1, max_depth, min_samples_leaf,
            n_candidates, importances, n_total,
        ),
    }


def tree_predict_one(node: dict, row: np.ndarray) -> float:
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["prob"]


def fit(
    X,
    y,
    n_estimators: int = 100,
    max_depth: int | None = None,
    min_samples_leaf: int = 2,
    max_features: int | None = None,
    bootstrap: bool = True,
    seed: int = 0,
) -> tuple[list[dict], np.ndarray]:
    """(trees, feature importances) of RandomForestClassifier(...).fit(X, y)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, n_features = X.shape
    n_candidates = max_features if max_features is not None else math.ceil(math.sqrt(n_features))
    n_candidates = min(n_candidates, n_features)
    trees: list[dict] = []
    importance_sum = np.zeros(n_features)
    for t in range(n_estimators):
        rng = np.random.default_rng((seed, t))
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree_importances = np.zeros(n_features)
        trees.append(
            grow(
                X[sample], y[sample], rng, 0, max_depth, min_samples_leaf,
                n_candidates, tree_importances, n,
            )
        )
        importance_sum += tree_importances
    mean = importance_sum / n_estimators
    total = mean.sum()
    return trees, (mean / total if total > 0 else mean)


def predict_proba(trees: list[dict], X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    probs = np.zeros(len(X))
    for tree in trees:
        probs += [tree_predict_one(tree, row) for row in X]
    return probs / len(trees)
