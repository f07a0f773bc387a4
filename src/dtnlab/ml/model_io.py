"""JSON persistence for trained classifiers and their input pipeline.

A model file carries everything a decision point needs: the classifier
itself, the z-score statistics its inputs were standardized with, and the
training medians that stand in for a peer's unknown delivery averages.
Floats serialize via their shortest round-tripping representation, so
save/load/save is byte-stable and predictions match bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..features import REVERSED_FEATURES, ZScoreNormalizer
from ..routing import FEATURE_NAMES
from .forest import RandomForestClassifier
from .mlp import MlpClassifier


def _payload(model, scaler: ZScoreNormalizer, medians, extras: dict) -> dict:
    if isinstance(model, MlpClassifier):
        if not hasattr(model, "params_"):
            raise ValueError("fit the classifier before saving it")
        kind = "mlp"
        weights = [[W.tolist(), b.tolist()] for W, b in model.params_]
    elif isinstance(model, RandomForestClassifier):
        if not hasattr(model, "trees_"):
            raise ValueError("fit the classifier before saving it")
        kind = "rf"
        weights = {
            "trees": model.trees_,
            "feature_importances": model.feature_importances_.tolist(),
        }
    else:
        raise TypeError(f"cannot persist a {type(model).__name__}")
    if not hasattr(scaler, "means_"):
        raise ValueError("fit the input scaler before saving it")
    return {
        "kind": kind,
        "feature_names": list(FEATURE_NAMES),
        "zscore": {
            "means": scaler.means_.tolist(),
            "sigmas": scaler.sigmas_.tolist(),
        },
        "medians": {
            name: float(value) for name, value in zip(REVERSED_FEATURES, medians)
        },
        "params": model.get_params(),
        "weights": weights,
        "extras": extras,
    }


def save_model(
    path: str | Path,
    model,
    scaler: ZScoreNormalizer,
    medians: tuple[float, float],
    extras: dict | None = None,
) -> str:
    """Write the model file and return its content-derived version tag."""
    payload = _payload(model, scaler, medians, extras or {})
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    version = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    document = {"model_version": version, **payload}
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as fh:  # streamed: no whole-file string in memory
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return version


@dataclass
class LoadedModel:
    """A classifier plus its input pipeline, ready to judge a peer.

    Usable directly as a routing predictor: decide() takes the seven raw
    feature values by name and returns (label, probability).
    """

    kind: str
    version: str
    feature_names: tuple[str, ...]
    medians: tuple[float, float]
    scaler: ZScoreNormalizer
    classifier: object
    extras: dict = field(default_factory=dict)

    def predict_proba(self, X_raw) -> np.ndarray:
        return self.classifier.predict_proba(self.scaler.transform(X_raw))

    def decide(self, features: dict[str, float]) -> tuple[int, float]:
        row = [float(features[name]) for name in self.feature_names]
        prob = float(self.predict_proba([row])[0])
        return int(prob >= 0.5), prob


def load_model(path: str | Path) -> LoadedModel:
    document = json.loads(Path(path).read_text())
    kind = document["kind"]
    params = dict(document["params"])
    if kind == "mlp":
        params["hidden_layers"] = tuple(params["hidden_layers"])
        classifier = MlpClassifier(**params)
        classifier.params_ = [
            (np.array(W, dtype=float), np.array(b, dtype=float))
            for W, b in document["weights"]
        ]
    elif kind == "rf":
        classifier = RandomForestClassifier(**params)
        classifier.trees_ = document["weights"]["trees"]
        classifier.feature_importances_ = np.array(
            document["weights"]["feature_importances"], dtype=float
        )
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    scaler = ZScoreNormalizer()
    scaler.means_ = np.array(document["zscore"]["means"], dtype=float)
    scaler.sigmas_ = np.array(document["zscore"]["sigmas"], dtype=float)
    medians = tuple(float(document["medians"][name]) for name in REVERSED_FEATURES)
    for name, value in zip(REVERSED_FEATURES, medians):
        # the router feeds these to the classifier unchecked
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{path}: median of {name} must be finite and non-negative")
    return LoadedModel(
        kind=kind,
        version=document["model_version"],
        feature_names=tuple(document["feature_names"]),
        medians=(medians[0], medians[1]),
        scaler=scaler,
        classifier=classifier,
        extras=document.get("extras", {}),
    )
