"""Forest oracles, metric arithmetic, grid search, and model files."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from dtnlab.features import ZScoreNormalizer
from dtnlab.ml.forest import RandomForestClassifier, best_split, gini, tree_predict_one
from dtnlab.ml.metrics import eval_metrics, roc_auc
from dtnlab.ml.mlp import MlpClassifier
from dtnlab.ml.model_io import LoadedModel, load_model, save_model
from dtnlab.ml.tuning import grid_points, grid_search_cv, stratified_folds


def blobs(n=160, dim=7, gap=2.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal(0.0, 0.7, size=(half, dim)),
            rng.normal(gap, 0.7, size=(n - half, dim)),
        ]
    )
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return X[order], y[order]


# --------------------------------------------------------------------- forest


def brute_force_stump(X, y, min_leaf):
    """Exhaustive best Gini split, same tie-break: low feature, low threshold."""
    n = len(y)
    parent = gini(y)
    best = None
    for j in range(X.shape[1]):
        for t in sorted(set(np.sort(X[:, j])[:-1] + np.diff(np.sort(X[:, j])) / 2.0)):
            mask = X[:, j] <= t
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            weighted = nl / n * gini(y[mask]) + (n - nl) / n * gini(y[~mask])
            decrease = parent - weighted
            if decrease > 1e-12 and (best is None or decrease > best[2] + 1e-12):
                best = (j, t, decrease)
    return best


class TestGini:
    def test_known_values(self):
        assert gini(np.array([0, 0, 1, 1])) == 0.5
        assert gini(np.array([1, 1, 1])) == 0.0
        assert gini(np.array([])) == 0.0
        assert gini(np.array([0, 1, 1, 1])) == pytest.approx(2 * 0.75 * 0.25)


class TestBestSplit:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            X = rng.normal(size=(24, 4))
            y = rng.integers(0, 2, size=24)
            got = best_split(X, y, range(4), min_samples_leaf=2)
            expected = brute_force_stump(X, y, min_leaf=2)
            if expected is None:
                assert got is None
                continue
            assert got is not None
            assert got[0] == expected[0]
            assert got[1] == pytest.approx(expected[1])
            assert got[2] == pytest.approx(expected[2])

    def test_pure_node_has_no_split(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        assert best_split(X, np.ones(10, dtype=int), range(3), 2) is None

    def test_min_leaf_is_respected(self):
        # nine zeros and one one: any separating split strands a lone row
        X = np.arange(10.0).reshape(-1, 1)
        y = np.array([0] * 9 + [1])
        found = best_split(X, y, [0], min_samples_leaf=2)
        if found is not None:
            mask = X[:, 0] <= found[1]
            assert mask.sum() >= 2 and (~mask).sum() >= 2


def iter_leaves(node):
    if "feature" in node:
        yield from iter_leaves(node["left"])
        yield from iter_leaves(node["right"])
    else:
        yield node


class TestRandomForest:
    def test_depth_one_tree_equals_brute_force_stump(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5))
        y = (X[:, 2] + 0.3 * rng.normal(size=40) > 0).astype(int)
        forest = RandomForestClassifier(
            n_estimators=1, max_depth=1, max_features=5, bootstrap=False, seed=0
        ).fit(X, y)
        stump = forest.trees_[0]
        feature, threshold, _ = brute_force_stump(X, y, min_leaf=2)
        assert stump["feature"] == feature
        assert stump["threshold"] == pytest.approx(threshold)
        mask = X[:, feature] <= stump["threshold"]
        assert stump["left"]["prob"] == pytest.approx(float(y[mask].mean()))
        assert stump["right"]["prob"] == pytest.approx(float(y[~mask].mean()))

    def test_learns_separable_blobs(self):
        X, y = blobs()
        forest = RandomForestClassifier(n_estimators=30, seed=1).fit(X, y)
        assert (forest.predict(X) == y).mean() >= 0.95

    def test_importances_find_the_informative_feature(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 7))
        y = (X[:, 3] > 0.0).astype(int)
        forest = RandomForestClassifier(n_estimators=25, seed=2).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)
        assert int(np.argmax(forest.feature_importances_)) == 3
        assert forest.feature_importances_[3] > 0.5

    def test_trees_are_independent_of_forest_size(self):
        # tree t draws from generator (seed, t), so a smaller forest is a prefix
        X, y = blobs(n=80, seed=7)
        small = RandomForestClassifier(n_estimators=3, seed=4).fit(X, y)
        large = RandomForestClassifier(n_estimators=6, seed=4).fit(X, y)
        assert large.trees_[:3] == small.trees_

    def test_leaves_hold_at_least_min_samples(self):
        X, y = blobs(n=100, seed=9)
        forest = RandomForestClassifier(n_estimators=10, seed=3).fit(X, y)
        for tree in forest.trees_:
            for leaf in iter_leaves(tree):
                assert leaf["n"] >= 2

    def test_deterministic_per_seed(self):
        X, y = blobs(n=80, seed=8)
        a = RandomForestClassifier(n_estimators=8, seed=5).fit(X, y).predict_proba(X)
        b = RandomForestClassifier(n_estimators=8, seed=5).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)


# -------------------------------------------------------------------- metrics


class TestMetrics:
    def test_hand_computed_auc(self):
        auc = roc_auc([0, 0, 1, 1], [0.1, 0.6, 0.4, 0.8])
        assert auc == pytest.approx(0.75)

    def test_ties_count_half(self):
        assert roc_auc([0, 1], [0.5, 0.5]) == pytest.approx(0.5)
        assert roc_auc([0, 0, 1, 1], [0.3, 0.3, 0.3, 0.9]) == pytest.approx(0.75)

    def test_rank_formula_equals_pairwise_count(self):
        rng = random.Random(21)
        for _ in range(10):
            n = rng.randrange(20, 200)
            y = [rng.randrange(2) for _ in range(n)]
            if len(set(y)) < 2:
                continue
            probs = [rng.choice([0.1, 0.25, 0.5, 0.5, 0.8, rng.random()]) for _ in range(n)]
            pos = [p for p, t in zip(probs, y) if t == 1]
            neg = [p for p, t in zip(probs, y) if t == 0]
            wins = sum(1 for a in pos for b in neg if a > b)
            ties = sum(1 for a in pos for b in neg if a == b)
            expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert roc_auc(y, probs) == pytest.approx(expected, abs=1e-12)

    def test_perfect_and_inverted_rankings(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_single_class_auc_is_undefined(self):
        assert roc_auc([1, 1, 1], [0.2, 0.5, 0.9]) is None

    def test_threshold_metrics(self):
        scores = eval_metrics([0, 0, 1, 1], [0.1, 0.6, 0.4, 0.8])
        assert scores["accuracy"] == 0.5
        assert scores["precision"] == 0.5
        assert scores["recall"] == 0.5
        assert scores["f1"] == 0.5
        assert scores["auc"] == pytest.approx(0.75)

    def test_empty_denominators_come_back_zero(self):
        scores = eval_metrics([0, 0, 0], [0.1, 0.2, 0.3])
        assert scores["precision"] == 0.0
        assert scores["recall"] == 0.0
        assert scores["f1"] == 0.0
        assert scores["auc"] is None


# --------------------------------------------------------------------- tuning


class TestTuning:
    def test_stratified_folds_balance_classes(self):
        labels = [0] * 70 + [1] * 30
        folds = stratified_folds(labels, 5, random.Random(3))
        assert sorted(i for fold in folds for i in fold) == list(range(100))
        for fold in folds:
            assert sum(labels[i] for i in fold) == 6
            assert len(fold) == 20

    def test_grid_points_are_lexicographic(self):
        points = grid_points({"b": ["x"], "a": [2, 1]})
        assert points == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_search_prefers_the_capable_model(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(120, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)  # needs depth
        result = grid_search_cv(
            lambda **kw: RandomForestClassifier(n_estimators=10, seed=0, **kw),
            {"max_depth": [1, 6]},
            X,
            y,
            seed=1,
        )
        assert result.best_params == {"max_depth": 6}
        assert len(result.table) == 2
        assert (result.best_model.predict(X) == y).mean() > 0.8

    def test_exact_tie_falls_to_lexicographic_order(self):
        X, y = blobs(n=60, dim=7, seed=2)
        # both settings clamp to the full feature count: identical models
        result = grid_search_cv(
            lambda **kw: RandomForestClassifier(n_estimators=4, seed=0, **kw),
            {"max_features": [9, 7]},
            X,
            y,
            seed=2,
        )
        cells = {repr(c.params): (c.mean_f1, c.mean_auc) for c in result.table}
        assert len(set(cells.values())) == 1
        assert result.best_params == {"max_features": 7}

    def test_single_class_folds_warn_instead_of_crashing(self):
        X = np.random.default_rng(1).normal(size=(40, 3))
        y = np.array([1] * 2 + [0] * 38)
        with pytest.warns(UserWarning, match="single class"):
            result = grid_search_cv(
                lambda **kw: RandomForestClassifier(n_estimators=3, seed=0, **kw),
                {"max_depth": [2]},
                X,
                y,
                seed=0,
            )
        assert result.best_params == {"max_depth": 2}


# ------------------------------------------------------------------ model io


class TestModelIo:
    def fitted(self, kind, X, y):
        scaler = ZScoreNormalizer().fit(X)
        Xz = scaler.transform(X)
        if kind == "mlp":
            model = MlpClassifier(hidden_layers=(8,), seed=1).fit(Xz, y)
        else:
            model = RandomForestClassifier(n_estimators=6, seed=1).fit(Xz, y)
        return model, scaler

    @pytest.mark.parametrize("kind", ["mlp", "rf"])
    def test_round_trip_is_bit_exact(self, kind, tmp_path):
        X, y = blobs(n=80, seed=3)
        model, scaler = self.fitted(kind, X, y)
        path = tmp_path / "model.json"
        version = save_model(path, model, scaler, medians=(2.5, 1400.0))
        loaded = load_model(path)
        assert loaded.kind == kind
        assert loaded.version == version
        assert loaded.medians == (2.5, 1400.0)
        direct = model.predict_proba(scaler.transform(X))
        assert np.array_equal(loaded.predict_proba(X), direct)

    def test_saving_again_is_byte_identical(self, tmp_path):
        X, y = blobs(n=60, seed=4)
        model, scaler = self.fitted("rf", X, y)
        v1 = save_model(tmp_path / "a.json", model, scaler, (1.0, 2.0))
        v2 = save_model(tmp_path / "b.json", model, scaler, (1.0, 2.0))
        assert v1 == v2
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        reloaded = load_model(tmp_path / "a.json")
        v3 = save_model(tmp_path / "c.json", reloaded.classifier, reloaded.scaler, reloaded.medians)
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "a.json").read_bytes()
        assert v3 == v1

    def test_decide_names_a_missing_feature(self, tmp_path):
        X, y = blobs(n=60, seed=5)
        model, scaler = self.fitted("mlp", X, y)
        save_model(tmp_path / "m.json", model, scaler, (0.0, 0.0))
        loaded = load_model(tmp_path / "m.json")
        features = dict.fromkeys(loaded.feature_names, 1.0)
        label, prob = loaded.decide(features)
        assert label in (0, 1) and 0.0 <= prob <= 1.0
        assert label == int(prob >= 0.5)
        del features["degree"]
        with pytest.raises(KeyError, match="degree"):
            loaded.decide(features)

    def test_unfitted_models_are_refused(self, tmp_path):
        scaler = ZScoreNormalizer().fit(np.zeros((4, 7)))
        with pytest.raises(ValueError, match="fit"):
            save_model(tmp_path / "m.json", MlpClassifier(), scaler, (0.0, 0.0))
        with pytest.raises(ValueError, match="fit"):
            save_model(tmp_path / "m.json", RandomForestClassifier(), scaler, (0.0, 0.0))

    @pytest.mark.parametrize("median", [float("nan"), float("inf"), -1.0])
    def test_bad_medians_are_refused_naming_the_file(self, median, tmp_path):
        X, y = blobs(n=60, seed=6)
        model, scaler = self.fitted("mlp", X, y)
        path = tmp_path / "m.json"
        save_model(path, model, scaler, (0.0, 0.0))
        doc = json.loads(path.read_text())
        doc["medians"]["avg_delivery_time"] = median
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="m.json.*avg_delivery_time"):
            load_model(path)

    def test_unknown_kind_is_refused(self, tmp_path):
        X, y = blobs(n=60, seed=6)
        model, scaler = self.fitted("rf", X, y)
        path = tmp_path / "m.json"
        save_model(path, model, scaler, (0.0, 0.0))
        doc = json.loads(path.read_text())
        doc["kind"] = "svm"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="svm"):
            load_model(path)
