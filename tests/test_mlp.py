"""Network forward/backward oracles and training convergence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dtnlab.ml.mlp import (
    MlpClassifier,
    bce_with_logits,
    forward,
    gradients,
    he_init,
    predict_logits,
    sigmoid,
)
from helpers import numeric_gradients


def blobs(n=200, dim=7, gap=2.5, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal(0.0, 0.6, size=(half, dim)),
            rng.normal(gap, 0.6, size=(n - half, dim)),
        ]
    )
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return X[order], y[order]


class TestForward:
    def test_hand_computed_two_layer_net(self):
        params = [
            (np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.0, -1.0])),
            (np.array([[2.0], [-1.0]]), np.array([0.5])),
        ]
        logits = predict_logits(params, np.array([[1.0, 2.0]]))
        assert logits[0] == pytest.approx(2.5)
        # second input drives both hidden units non-positive: relu zeroes them
        logits = predict_logits(params, np.array([[-1.0, 0.0]]))
        assert logits[0] == pytest.approx(0.5)

    def test_zero_parameters_sit_on_the_fence(self):
        params = [
            (np.zeros((7, 4)), np.zeros(4)),
            (np.zeros((4, 1)), np.zeros(1)),
        ]
        X = np.random.default_rng(1).normal(size=(5, 7))
        probs = sigmoid(predict_logits(params, X))
        assert np.all(probs == 0.5)
        assert bce_with_logits(predict_logits(params, X), np.array([0, 1, 0, 1, 1])) == (
            pytest.approx(math.log(2.0))
        )

    def test_sigmoid_and_loss_survive_extreme_logits(self):
        z = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
        p = sigmoid(z)
        assert np.all(np.isfinite(p))
        assert p[0] == 0.0 and p[-1] == 1.0
        loss = bce_with_logits(z, np.array([1, 1, 1, 0, 0]))
        assert math.isfinite(loss)


class TestGradients:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(7)
        params = he_init([7, 5, 3, 1], rng)
        X = rng.normal(size=(12, 7))
        y = rng.integers(0, 2, size=12)
        analytic = gradients(params, X, y)
        numeric = numeric_gradients(params, X, y)
        worst = 0.0
        for (aW, ab), (nW, nb) in zip(analytic, numeric):
            for a, n in ((aW, nW), (ab, nb)):
                rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
                worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_gradient_of_perfect_prediction_is_tiny(self):
        params = [(np.array([[20.0]]), np.array([0.0]))]
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, 0])
        (dW, db), = gradients(params, X, y)
        assert abs(dW[0, 0]) < 1e-6 and abs(db[0]) < 1e-6


class TestTraining:
    def test_separable_blobs_are_learned(self):
        X, y = blobs()
        clf = MlpClassifier(hidden_layers=(16, 8), seed=1).fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.99
        probs = clf.predict_proba(X)
        assert probs.shape == (len(X),)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_xor_needs_and_gets_the_hidden_layer(self):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        X = np.tile(corners, (50, 1))
        y = np.tile(np.array([0, 1, 1, 0]), 50)
        clf = MlpClassifier(hidden_layers=(16,), seed=3).fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.95

    def test_early_stopping_restores_the_best_epoch(self):
        X, y = blobs(n=120)
        clf = MlpClassifier(hidden_layers=(8,), seed=2).fit(X, y)
        assert len(clf.history_) <= clf.max_epochs
        assert clf.best_loss_ == pytest.approx(min(clf.history_))

    def test_same_seed_same_model(self):
        X, y = blobs(n=100, seed=5)
        a = MlpClassifier(hidden_layers=(8,), seed=9).fit(X, y).predict_proba(X)
        b = MlpClassifier(hidden_layers=(8,), seed=9).fit(X, y).predict_proba(X)
        c = MlpClassifier(hidden_layers=(8,), seed=10).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_predict_before_fit_is_an_error(self):
        with pytest.raises(RuntimeError, match="fit"):
            MlpClassifier().predict_proba([[0.0] * 7])

    def test_params_round_trip_through_get_params(self):
        clf = MlpClassifier(hidden_layers=(4,), learning_rate=0.01, seed=4)
        clone = MlpClassifier(**clf.get_params())
        assert clone.get_params() == clf.get_params()
