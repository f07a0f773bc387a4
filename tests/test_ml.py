"""Forest oracles, metric arithmetic, grid search, and model files."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

import forest_reference
from dtnlab.features import ZScoreNormalizer
from dtnlab.ml.forest import RandomForestClassifier, best_split, gini
from dtnlab.ml.metrics import eval_metrics, roc_auc
from dtnlab.ml.mlp import MlpClassifier
from dtnlab.ml.model_io import LoadedModel, load_model, save_model
from dtnlab.ml.tuning import grid_points, grid_search_cv, stratified_folds
from dtnlab.scenario import ConfigurationError
from forest_reference import tree_predict_one


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


def oracle_dataset(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows with heavy ties, duplicated rows (their noisy labels may
    disagree) and a constant column."""
    X = np.round(rng.normal(0.0, 1.0, size=(n, 7)), int(rng.integers(0, 2)))
    X[:, int(rng.integers(0, 7))] = float(rng.integers(-2, 3))
    X[: n // 4] = X[rng.integers(0, n, size=n // 4)]
    y = (X[:, 1] + X[:, 5] + rng.normal(0.0, 0.8, size=n) > 0.0).astype(int)
    return X, y


class TestForestOracle:
    """The array forest against the frozen scalar reference, bit for bit."""

    @pytest.mark.parametrize("case", range(24))
    def test_trees_importances_and_probabilities_equal_the_reference(self, case):
        rng = np.random.default_rng(1600 + case)
        X, y = oracle_dataset(rng, int(rng.integers(12, 90)))
        params = dict(
            n_estimators=int(rng.integers(1, 6)),
            max_depth=[None, 1, 10][case % 3],
            min_samples_leaf=1 + case % 4 % 3,
            max_features=1 + case % 7,
            bootstrap=bool(case % 2),
            seed=int(rng.integers(0, 1000)),
        )
        forest = RandomForestClassifier(**params).fit(X, y)
        trees, importances = forest_reference.fit(X, y, **params)
        assert forest.trees_ == trees
        assert np.array_equal(forest.feature_importances_, importances)
        probe = np.vstack([X, np.round(rng.normal(0.0, 1.5, size=(20, 7)), 1)])
        for batch in (probe, probe[:1], probe[:0]):
            assert np.array_equal(
                forest.predict_proba(batch), forest_reference.predict_proba(trees, batch)
            )

    def test_split_scan_equals_the_reference(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            X, y = oracle_dataset(rng, int(rng.integers(4, 60)))
            features = rng.choice(7, size=int(rng.integers(1, 8)), replace=False)
            leaf = int(rng.integers(1, 4))
            assert best_split(X, y, features, leaf) == forest_reference.best_split(
                X, y, features, leaf
            )
            assert gini(y) == forest_reference.gini(y)

    def test_nan_goes_right_as_in_the_dict_walk(self):
        X, y = blobs(n=80, seed=12)
        forest = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y)
        rows = np.tile(X[:4], (7, 1))
        for i in range(7):
            rows[4 * i : 4 * i + 4, i] = np.nan
        expected = [
            sum(tree_predict_one(tree, row) for tree in forest.trees_) / 5 for row in rows
        ]
        assert forest.predict_proba(rows) == pytest.approx(expected, abs=1e-15)
        assert np.array_equal(
            forest.predict_proba(rows), forest_reference.predict_proba(forest.trees_, rows)
        )

    def test_rows_of_another_width_are_refused(self):
        X, y = blobs(n=40, seed=13)
        forest = RandomForestClassifier(n_estimators=2, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="7 features"):
            forest.predict_proba(X[:, :6])

    def test_pinned_model_file_and_probabilities(self, tmp_path):
        # digests of the nested-dict forest's output, before inference moved to arrays
        rng = np.random.default_rng(1616)
        X = np.round(rng.normal(3.0, 2.0, size=(150, 7)), 1)
        X[:, 4] = 2.0
        y = (X[:, 0] + X[:, 2] + rng.normal(0.0, 1.5, size=150) > 6.0).astype(int)
        scaler = ZScoreNormalizer().fit(X)
        forest = RandomForestClassifier(n_estimators=40, max_depth=10, seed=7)
        forest.fit(scaler.transform(X), y)
        path = tmp_path / "rf.json"
        save_model(path, forest, scaler, (3.0, 250.0))
        probs = load_model(path).predict_proba(X)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c325c152f1a5a030d9ee95a99a7da6099cf1579ebc73629a4816f379275bdb33"
        )
        assert hashlib.sha256(probs.tobytes()).hexdigest() == (
            "fcb0e40e2de8f191777e3680de5df1a53c77406842dc0f2ba02020b34ce98e04"
        )


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
        with pytest.raises(ConfigurationError, match="m.json.*svm"):
            load_model(path)

    @pytest.fixture
    def rf_file(self, tmp_path):
        X, y = blobs(n=60, seed=7)
        model, scaler = self.fitted("rf", X, y)
        path = tmp_path / "rf.json"
        save_model(path, model, scaler, (1.0, 2.0))
        return path

    def test_missing_file_is_named(self, tmp_path):
        with pytest.raises(ConfigurationError, match="model file not found: .*ghost.json"):
            load_model(tmp_path / "ghost.json")

    @pytest.mark.parametrize("text", ["", "{", "not json", "[1, 2]", "\xff\xfe"])
    def test_non_json_text_is_named(self, text, rf_file):
        rf_file.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigurationError, match="rf.json: not a JSON model file"):
            load_model(rf_file)

    def test_truncated_file_is_named(self, rf_file):
        text = rf_file.read_text()
        for cut in (1, len(text) // 3, len(text) - 3):
            rf_file.write_text(text[:cut])
            with pytest.raises(ConfigurationError, match="rf.json"):
                load_model(rf_file)

    @pytest.mark.parametrize("field", ["kind", "params", "weights", "zscore", "medians"])
    def test_missing_field_is_named(self, field, rf_file):
        doc = json.loads(rf_file.read_text())
        del doc[field]
        rf_file.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=f"rf.json: model file lacks {field}"):
            load_model(rf_file)

    def test_missing_nested_field_is_named(self, rf_file):
        doc = json.loads(rf_file.read_text())
        del doc["zscore"]["sigmas"]
        rf_file.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="rf.json: model file lacks 'sigmas'"):
            load_model(rf_file)

    @pytest.mark.parametrize("kind", ["mlp", "rf"])
    def test_damaged_files_load_or_are_refused_by_name(self, kind, tmp_path):
        X, y = blobs(n=60, seed=8)
        model, scaler = self.fitted(kind, X, y)
        good = tmp_path / "good.json"
        save_model(good, model, scaler, (1.0, 2.0))
        text = good.read_text()
        rng = random.Random(f"damage-{kind}")
        path = tmp_path / "damaged.json"
        refused = 0
        for trial in range(150):
            how = trial % 3
            if how == 0:
                damaged = text[: rng.randrange(len(text))].encode()
            elif how == 1:
                doc = json.loads(text)
                node = doc
                while isinstance(node, dict) and node and rng.random() < 0.7:
                    key = rng.choice(sorted(node))
                    if not isinstance(node[key], dict):
                        break
                    node = node[key]
                if isinstance(node, dict) and node:
                    del node[rng.choice(sorted(node))]
                damaged = json.dumps(doc).encode()
            else:
                damaged = bytearray(text.encode())
                for _ in range(rng.randint(1, 3)):
                    damaged[rng.randrange(len(damaged))] = rng.randrange(256)
                damaged = bytes(damaged)
            path.write_bytes(damaged)
            try:
                load_model(path)
            except ConfigurationError as err:
                assert "damaged.json" in str(err)
                refused += 1
        assert refused > 50

    @pytest.mark.parametrize(
        "kind, damage, named",
        [
            ("rf", lambda doc: doc["zscore"]["means"].pop(), "zscore holds"),
            ("mlp", lambda doc: doc["zscore"]["sigmas"].append(1.0), "zscore holds"),
            ("mlp", lambda doc: doc["weights"][0][0].pop(), "a layer of shape"),
            ("mlp", lambda doc: doc["weights"][-1][1].append(0.0), "a layer of shape"),
            ("mlp", lambda doc: doc["weights"].pop(), "the last layer has 8 outputs, not 1"),
        ],
    )
    def test_widths_that_do_not_fit_seven_features_are_named(
        self, kind, damage, named, tmp_path
    ):
        X, y = blobs(n=60, seed=9)
        model, scaler = self.fitted(kind, X, y)
        path = tmp_path / "m.json"
        save_model(path, model, scaler, (1.0, 2.0))
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=f"m.json: malformed {kind} model: {named}"):
            load_model(path)

    def test_forest_without_trees_is_named(self, rf_file):
        doc = json.loads(rf_file.read_text())
        doc["weights"]["trees"] = []
        rf_file.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="rf.json: .*no trees"):
            load_model(rf_file)
        with pytest.raises(ValueError, match="n_estimators"):
            RandomForestClassifier(n_estimators=0).fit(*blobs(n=20, seed=1))

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda split: split.pop("right"), "lacks a left or right child"),
            (lambda split: split.pop("left"), "lacks a left or right child"),
            (lambda split: split.update(feature=7), "feature 7, not 0..6"),
            (lambda split: split.update(feature=-1), "feature -1, not 0..6"),
            (lambda split: split.update(feature="3"), "feature '3', not 0..6"),
            (lambda split: split.update(threshold=None), "no numeric threshold"),
            (lambda split: split["left"].clear(), "has no numeric prob"),
            (lambda split: split["left"].pop("n"), "has no integer count n"),
        ],
    )
    def test_malformed_tree_is_named(self, damage, named, rf_file):
        doc = json.loads(rf_file.read_text())
        split = doc["weights"]["trees"][1]
        while "feature" in split["left"]:
            split = split["left"]
        damage(split)
        rf_file.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=f"rf.json: .*tree 1: .*{named}"):
            load_model(rf_file)
