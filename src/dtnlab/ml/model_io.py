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
from typing import Callable, Iterator

import numpy as np

from ..features import REVERSED_FEATURES, ZScoreNormalizer
from ..routing import FEATURE_NAMES
from ..scenario import ConfigurationError
from .forest import RandomForestClassifier, iter_tree_dicts
from .mlp import MlpClassifier


class _StreamedList(list):
    """A list that json's pure-Python encoder walks item by item.

    That encoder (behind ``json.dump`` and ``JSONEncoder.iterencode``) asks
    a list only for its length and an iterator, so a forest's dict trees are
    built one tree at a time as they are written and hashed, never all at
    once.  The C encoder behind ``json.dumps`` reads the list's own (empty)
    storage instead, so a payload holding one never goes there.
    """

    def __init__(self, length: int, items: Callable[[], Iterator]) -> None:
        super().__init__()
        self._length = length
        self._items = items

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator:
        return self._items()


def _payload(model, scaler: ZScoreNormalizer, medians, extras: dict) -> dict:
    if isinstance(model, MlpClassifier):
        if not hasattr(model, "params_"):
            raise ValueError("fit the classifier before saving it")
        kind = "mlp"
        weights = [[W.tolist(), b.tolist()] for W, b in model.params_]
    elif isinstance(model, RandomForestClassifier):
        if not hasattr(model, "flat_"):
            raise ValueError("fit the classifier before saving it")
        kind = "rf"
        weights = {
            "trees": _StreamedList(len(model.flat_.roots), lambda: iter_tree_dicts(model.flat_)),
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
    digest = hashlib.sha256()
    # the canonical text is hashed as it is encoded, never held whole: the
    # one-shot encoder's chunk list for a 200-tree forest is ten times the text
    for chunk in json.JSONEncoder(sort_keys=True, separators=(",", ":")).iterencode(payload):
        digest.update(chunk.encode())
    version = digest.hexdigest()[:16]
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


# every top-level field load_model reads; "extras" is optional
MODEL_FIELDS = ("model_version", "kind", "feature_names", "zscore", "medians", "params", "weights")


def _read_document(path: Path) -> dict:
    if not path.exists():
        raise ConfigurationError(f"model file not found: {path}")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigurationError(f"{path}: cannot read the model file ({err})") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"{path}: not a JSON model file ({err})") from None
    if not isinstance(document, dict):
        raise ConfigurationError(f"{path}: not a JSON model file (no top-level object)")
    missing = [name for name in MODEL_FIELDS if name not in document]
    if missing:
        raise ConfigurationError(f"{path}: model file lacks {', '.join(missing)}")
    if document["kind"] not in ("mlp", "rf"):
        raise ConfigurationError(f"{path}: unknown model kind {document['kind']!r}")
    return document


def _classifier(document: dict):
    params = dict(document["params"])
    if document["kind"] == "mlp":
        params["hidden_layers"] = tuple(params["hidden_layers"])
        classifier = MlpClassifier(**params)
        classifier.params_ = [
            (np.array(W, dtype=float), np.array(b, dtype=float))
            for W, b in document["weights"]
        ]
        width = len(FEATURE_NAMES)  # each layer maps the previous width to its own
        for W, b in classifier.params_:
            if W.ndim != 2 or W.shape[0] != width or b.shape != W.shape[1:]:
                raise ValueError(f"a layer of shape {W.shape} + {b.shape} after width {width}")
            width = W.shape[1]
        if width != 1:
            raise ValueError(f"the last layer has {width} outputs, not 1")
        return classifier
    classifier = RandomForestClassifier(**params)
    classifier.set_trees(document["weights"]["trees"], len(FEATURE_NAMES))
    classifier.feature_importances_ = np.array(
        document["weights"]["feature_importances"], dtype=float
    )
    return classifier


def load_model(path: str | Path) -> LoadedModel:
    """The model file at path; ConfigurationError names the file when it is
    missing, not JSON, lacks a field, or holds a malformed classifier."""
    path = Path(path)
    document = _read_document(path)
    try:
        classifier = _classifier(document)
        scaler = ZScoreNormalizer()
        scaler.means_ = np.array(document["zscore"]["means"], dtype=float)
        scaler.sigmas_ = np.array(document["zscore"]["sigmas"], dtype=float)
        for stats in (scaler.means_, scaler.sigmas_):
            if stats.shape != (len(FEATURE_NAMES),):
                raise ValueError(f"zscore holds {stats.shape} values, not {len(FEATURE_NAMES)}")
        medians = tuple(float(document["medians"][name]) for name in REVERSED_FEATURES)
        feature_names = tuple(document["feature_names"])
    except KeyError as err:
        raise ConfigurationError(f"{path}: model file lacks {err}") from None
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{path}: malformed {document['kind']} model: {err}") from None
    for name, value in zip(REVERSED_FEATURES, medians):
        # the router feeds these to the classifier unchecked
        if not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(f"{path}: median of {name} must be finite and non-negative")
    return LoadedModel(
        kind=document["kind"],
        version=document["model_version"],
        feature_names=feature_names,
        medians=(medians[0], medians[1]),
        scaler=scaler,
        classifier=classifier,
        extras=document.get("extras", {}),
    )
