"""Fully connected binary classifier trained with Adam.

The network is a stack of ReLU layers and a single logistic output unit.
Training minimizes cross-entropy straight on the logits, which keeps the
gradient finite for saturated outputs.  The forward/backward passes live as
free functions over plain (weights, biases) lists so they can be checked
numerically without touching the estimator wrapper.
"""

from __future__ import annotations

import random
from copy import deepcopy

import numpy as np

from ..features import stratified_split

Params = list[tuple[np.ndarray, np.ndarray]]


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def he_init(layer_sizes: list[int], rng: np.random.Generator) -> Params:
    params = []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        scale = np.sqrt(2.0 / n_in)
        params.append(
            (rng.standard_normal((n_in, n_out)) * scale, np.zeros(n_out))
        )
    return params


def forward(params: Params, X: np.ndarray) -> list[np.ndarray]:
    """Activations per layer; the last entry is raw logits of shape (n,)."""
    activations = [np.asarray(X, dtype=float)]
    for i, (W, b) in enumerate(params):
        z = activations[-1] @ W + b
        if i < len(params) - 1:
            z = np.maximum(z, 0.0)
        activations.append(z)
    activations[-1] = activations[-1].reshape(-1)
    return activations


def predict_logits(params: Params, X: np.ndarray) -> np.ndarray:
    return forward(params, X)[-1]


def bce_with_logits(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy, the numerically safe formulation."""
    logits = np.asarray(logits, dtype=float)
    y = np.asarray(y, dtype=float)
    # log(1 + e^-|z|) + max(z, 0) - z*y
    loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0) - logits * y
    return float(loss.mean())


def gradients(params: Params, X: np.ndarray, y: np.ndarray) -> Params:
    """Backprop of mean cross-entropy; mirrors the shapes of params."""
    activations = forward(params, X)
    n = len(y)
    delta = ((sigmoid(activations[-1]) - np.asarray(y, dtype=float)) / n).reshape(-1, 1)
    grads: Params = [None] * len(params)  # type: ignore[list-item]
    for i in reversed(range(len(params))):
        a_prev = activations[i]
        grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
        if i > 0:
            W, _ = params[i]
            delta = (delta @ W.T) * (activations[i] > 0.0)
    return grads


class MlpClassifier:
    """Estimator-style wrapper: fit, predict_proba, predict, get_params.

    Trains with mini-batch Adam, holds out a stratified validation slice
    for early stopping, halves the step size when validation loss stops
    improving, and restores the best-validation weights at the end.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (128, 64),
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        batch_size: int = 32,
        max_epochs: int = 200,
        early_stop_patience: int = 10,
        lr_patience: int = 5,
        validation_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.hidden_layers = tuple(hidden_layers)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.early_stop_patience = early_stop_patience
        self.lr_patience = lr_patience
        self.validation_fraction = validation_fraction
        self.seed = seed

    def get_params(self) -> dict:
        return {
            "hidden_layers": self.hidden_layers,
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "epsilon": self.epsilon,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "early_stop_patience": self.early_stop_patience,
            "lr_patience": self.lr_patience,
            "validation_fraction": self.validation_fraction,
            "seed": self.seed,
        }

    def fit(self, X, y, X_val=None, y_val=None) -> "MlpClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X_val is None:
            if 0.0 < self.validation_fraction < 1.0 and len(set(y.tolist())) > 1:
                tr, va = stratified_split(
                    y.tolist(),
                    self.validation_fraction,
                    random.Random(f"{self.seed}:val"),
                )
                if va:
                    X, X_val, y, y_val = X[tr], X[va], y[tr], y[va]
        watch_X = X if X_val is None else np.asarray(X_val, dtype=float)
        watch_y = y if X_val is None else np.asarray(y_val, dtype=int)

        rng = np.random.default_rng(self.seed)
        params = he_init([X.shape[1], *self.hidden_layers, 1], rng)
        m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        step = 0
        lr = self.learning_rate
        best_loss = np.inf
        best_params = deepcopy(params)
        since_best = 0
        since_drop = 0
        self.history_: list[float] = []

        for _ in range(self.max_epochs):
            order = rng.permutation(len(X))
            for start in range(0, len(X), self.batch_size):
                batch = order[start : start + self.batch_size]
                grads = gradients(params, X[batch], y[batch])
                step += 1
                for i, ((W, b), (gW, gb)) in enumerate(zip(params, grads)):
                    mW, mb = m[i]
                    vW, vb = v[i]
                    mW[:] = self.beta1 * mW + (1 - self.beta1) * gW
                    mb[:] = self.beta1 * mb + (1 - self.beta1) * gb
                    vW[:] = self.beta2 * vW + (1 - self.beta2) * gW * gW
                    vb[:] = self.beta2 * vb + (1 - self.beta2) * gb * gb
                    bias1 = 1 - self.beta1**step
                    bias2 = 1 - self.beta2**step
                    W -= lr * (mW / bias1) / (np.sqrt(vW / bias2) + self.epsilon)
                    b -= lr * (mb / bias1) / (np.sqrt(vb / bias2) + self.epsilon)
            loss = bce_with_logits(predict_logits(params, watch_X), watch_y)
            self.history_.append(loss)
            if loss < best_loss - 1e-12:
                best_loss = loss
                best_params = deepcopy(params)
                since_best = 0
                since_drop = 0
            else:
                since_best += 1
                since_drop += 1
                if since_best >= self.early_stop_patience:
                    break
                if since_drop >= self.lr_patience:
                    lr *= 0.5
                    since_drop = 0

        self.params_ = best_params
        self.best_loss_ = float(best_loss)
        return self

    def predict_proba(self, X) -> np.ndarray:
        """P(label == 1) per row."""
        if not hasattr(self, "params_"):
            raise RuntimeError("fit the classifier before predicting")
        return sigmoid(predict_logits(self.params_, np.asarray(X, dtype=float)))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)
