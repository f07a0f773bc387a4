"""Random forest of Gini-split decision trees.

Trees are grown on bootstrap resamples, each node choosing the best
threshold among a random subset of ceil(sqrt(n_features)) candidate
features.  Every tree draws from its own generator seeded by (seed, tree
index), so any single tree can be rebuilt in isolation.

The split scan runs on Python floats and ints (``.tolist()`` of the sorted
values and prefix counts): the same expressions in the same order as a scan
on numpy scalars, so the same splits and importances, at a fraction of the
cost.

A forest is one set of node arrays over all its trees (``FlatForest``).
Nodes are numbered in preorder, tree after tree, so a node's left child is
the next id and a tree's nodes run from its root to the next tree's root.
``feature``, ``threshold``, ``prob`` and the leaf count ``n`` hold one entry
per node; ``child[2*i]`` is the left child of node i and ``child[2*i + 1]``
its right, and a leaf's two children are the leaf itself.  The arrays are
built once, where the trees come into being: ``fit`` grows straight into
them, and a model file's nested-dict trees are flattened into them on load
(``set_trees``).  The dicts of the file format are rebuilt one tree at a
time when a model file is written (``iter_tree_dicts``), so no forest is
ever held as dicts whole.

``predict_proba`` walks every (row, tree) pair together, one depth level
per numpy step, for as many steps as the deepest tree; a pair that reached
its leaf stays there.  A row goes left on ``x <= threshold``, so a NaN goes
right.  The leaf probabilities are then added tree after tree by
``np.cumsum`` along the tree axis, which is the same sequence of float
additions as a running per-tree total, so the probabilities equal a
one-row, one-tree walk of the dicts bit for bit.  (``np.sum`` adds
pairwise, and Python's ``sum`` compensates from 3.12 on; either could move
the last bit.)
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np


def gini(y: np.ndarray) -> float:
    """Impurity of a binary label vector."""
    n = len(y)
    if n == 0:
        return 0.0
    p = int(np.count_nonzero(y)) / n  # exact, and equal to np.mean of 0/1 labels
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
        values = X[order, j].tolist()
        pos_prefix = np.cumsum(y[order]).tolist()
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
                best = (j, (values[k - 1] + values[k]) / 2.0, decrease)
    return best


class FlatForest(NamedTuple):
    """Every tree of a forest as preorder node arrays (see the module doc)."""

    feature: np.ndarray  # int, per node; 0 at a leaf
    threshold: np.ndarray  # float, per node; 0.0 at a leaf
    child: np.ndarray  # int, two per node: left at 2*i, right at 2*i + 1
    prob: np.ndarray  # float, per node; read only at leaves
    n: np.ndarray  # int, training rows per leaf; 0 at a split
    roots: np.ndarray  # int, the root id of each tree, in tree order
    depth: int  # edges on the longest root-to-leaf path of any tree


class _Nodes:
    """Preorder node lists, appended to as trees are grown or read."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.child: list[int] = []
        self.prob: list[float] = []
        self.n: list[int] = []
        self.roots: list[int] = []
        self.depth = 0

    def _add(self, feature: int, threshold: float, prob: float, n: int) -> int:
        i = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.prob.append(prob)
        self.n.append(n)
        self.child += [i, i]  # a leaf's children; a split's are set by link()
        return i

    def leaf(self, prob: float, n: int, level: int) -> int:
        self.depth = max(self.depth, level)
        return self._add(0, 0.0, prob, n)

    def split(self, feature: int, threshold: float) -> int:
        return self._add(feature, threshold, 0.0, 0)

    def link(self, parent: int, side: int, node: int) -> None:
        """Make node the left (side 0) or right (side 1) child of parent."""
        self.child[2 * parent + side] = node

    def arrays(self) -> FlatForest:
        return FlatForest(
            feature=np.array(self.feature, dtype=np.intp),
            threshold=np.array(self.threshold, dtype=float),
            child=np.array(self.child, dtype=np.intp),
            prob=np.array(self.prob, dtype=float),
            n=np.array(self.n, dtype=np.intp),
            roots=np.array(self.roots, dtype=np.intp),
            depth=self.depth,
        )


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
    nodes: _Nodes,
) -> int:
    """Grow the subtree of rows (X, y) into nodes; returns its root id."""
    n = len(y)
    prob = int(np.count_nonzero(y)) / n if n else 0.5
    if (
        n < 2 * min_samples_leaf
        or (max_depth is not None and depth >= max_depth)
        or prob in (0.0, 1.0)
    ):
        return nodes.leaf(prob, n, depth)
    candidates = rng.choice(X.shape[1], size=n_candidates, replace=False)
    found = best_split(X, y, candidates, min_samples_leaf)
    if found is None:
        return nodes.leaf(prob, n, depth)
    feature, threshold, decrease = found
    importances[feature] += (n / n_total) * decrease
    mask = X[:, feature] <= threshold
    i = nodes.split(feature, threshold)
    for side, rows in enumerate((mask, ~mask)):  # left first: preorder ids, and the rng order
        subtree = _grow(
            X[rows], y[rows], rng, depth + 1, max_depth, min_samples_leaf,
            n_candidates, importances, n_total, nodes,
        )
        nodes.link(i, side, subtree)
    return i


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def flatten(trees: list[dict], n_features: int) -> FlatForest:
    """The node arrays of dict trees; ValueError for an empty forest or the
    first malformed node (a split without both children, a numeric threshold
    or a feature index in 0..n_features-1, or a leaf without a numeric prob
    and an integer count n)."""
    if not trees:
        raise ValueError("the forest has no trees")
    nodes = _Nodes()
    for t, tree in enumerate(trees):
        # (node, parent id or -1 at the root, side under the parent, depth);
        # the right child is pushed first so the left one gets the next id
        stack = [(tree, -1, 0, 0)]
        while stack:
            node, parent, side, level = stack.pop()
            i = len(nodes.feature)
            if not isinstance(node, dict):
                raise ValueError(f"tree {t}: node {i} is not an object")
            if "feature" in node:
                f = node["feature"]
                if not (_is_index(f) and 0 <= f < n_features):
                    raise ValueError(
                        f"tree {t}: node {i} splits on feature {f!r}, not 0..{n_features - 1}"
                    )
                if not _is_number(node.get("threshold")):
                    raise ValueError(f"tree {t}: node {i} has no numeric threshold")
                if "left" not in node or "right" not in node:
                    raise ValueError(f"tree {t}: split node {i} lacks a left or right child")
                nodes.split(f, node["threshold"])
                stack.append((node["right"], i, 1, level + 1))
                stack.append((node["left"], i, 0, level + 1))
            else:
                if not _is_number(node.get("prob")):
                    raise ValueError(f"tree {t}: leaf {i} has no numeric prob")
                if not _is_index(node.get("n")):
                    raise ValueError(f"tree {t}: leaf {i} has no integer count n")
                nodes.leaf(node["prob"], node["n"], level)
            if parent < 0:
                nodes.roots.append(i)
            else:
                nodes.link(parent, side, i)
    return nodes.arrays()


def iter_tree_dicts(flat: FlatForest) -> Iterator[dict]:
    """The dict trees of the model file, rebuilt from the node arrays one
    tree at a time (a tree's preorder ids run from its root to the next)."""
    roots = flat.roots.tolist()
    for root, end in zip(roots, roots[1:] + [len(flat.feature)]):
        feature = flat.feature[root:end].tolist()
        threshold = flat.threshold[root:end].tolist()
        child = (flat.child[2 * root : 2 * end] - root).tolist()
        prob = flat.prob[root:end].tolist()
        n = flat.n[root:end].tolist()

        def node(i: int) -> dict:
            left = child[2 * i]
            if left == i:
                return {"prob": prob[i], "n": n[i]}
            return {
                "feature": feature[i],
                "threshold": threshold[i],
                "left": node(left),
                "right": node(child[2 * i + 1]),
            }

        yield node(0)


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

    def set_trees(self, trees: list[dict], n_features: int) -> None:
        """Adopt the dict trees of a model file as node arrays; the arrays
        are the forest, and the dicts are not kept."""
        self.flat_ = flatten(trees, n_features)
        self.n_features_in_ = n_features

    @property
    def trees_(self) -> list[dict]:
        """The trees as the nested dicts of the model file format."""
        if not hasattr(self, "flat_"):
            raise AttributeError("trees_")  # unfitted: hasattr() is False
        return list(iter_tree_dicts(self.flat_))

    def fit(self, X, y) -> "RandomForestClassifier":
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be at least 1, got {self.n_estimators}")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n, n_features = X.shape
        n_candidates = (
            self.max_features
            if self.max_features is not None
            else math.ceil(math.sqrt(n_features))
        )
        n_candidates = min(n_candidates, n_features)
        nodes = _Nodes()
        importance_sum = np.zeros(n_features)
        for t in range(self.n_estimators):
            rng = np.random.default_rng((self.seed, t))
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree_importances = np.zeros(n_features)
            nodes.roots.append(
                _grow(
                    X[sample], y[sample], rng, 0, self.max_depth,
                    self.min_samples_leaf, n_candidates, tree_importances, n, nodes,
                )
            )
            importance_sum += tree_importances
        mean = importance_sum / self.n_estimators
        total = mean.sum()
        self.feature_importances_ = mean / total if total > 0 else mean
        self.flat_ = nodes.arrays()
        self.n_features_in_ = n_features
        return self

    def predict_proba(self, X) -> np.ndarray:
        """P(label == 1) per row, averaged over the trees."""
        if not hasattr(self, "flat_"):
            raise RuntimeError("fit the classifier before predicting")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(f"expected rows of {self.n_features_in_} features, got shape {X.shape}")
        feature, threshold, child, prob, _, roots, depth = self.flat_
        values = X.ravel()
        row_start = np.arange(0, values.size, X.shape[1])[:, None]
        nodes = np.broadcast_to(roots, (len(X), len(roots)))
        for _ in range(depth):
            right = ~(values[row_start + feature[nodes]] <= threshold[nodes])
            nodes = child[2 * nodes + right]
        return np.cumsum(prob[nodes], axis=1)[:, -1] / len(roots)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)
