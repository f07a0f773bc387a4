"""Run-log feature extraction, relay scoring, and dataset assembly.

A finished run yields one feature row per mobile node: how often it met
others, how long, and what happened to the traffic it touched.  Rows are
scored and labeled per scenario (a quiet holiday node and a busy weekday
node should each be judged against their own crowd), then concatenated and
split for training.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nodes import MOBILE_CLASSES
from .reports import ContactLog, paired_rows
from .routing import FEATURE_NAMES, NodeStats
from .scenario import ConfigurationError

REVERSED_FEATURES = ("avg_hop_count", "avg_delivery_time")
_REVERSED_IDX = tuple(FEATURE_NAMES.index(name) for name in REVERSED_FEATURES)


class NotFittedError(RuntimeError):
    """transform was called before fit."""


# ----------------------------------------------------------------- extraction


def extract_features(nodes, contacts: ContactLog, deliveries) -> list[dict]:
    """Per-node relay statistics for every mobile node, from the run logs.

    The contact features count completed contacts from the contact log's
    columns, as the plan counts them for the relay gate; the engine closes
    every link it opens, the last ones at end of run.  The delivery
    counters are replayed into NodeStats, as the engine keeps them online;
    the two delivery averages stay None for nodes that never relayed a
    delivered message.  Logs that disagree with each other, go back in time
    or name a node outside `nodes` are refused (ValueError).
    """
    index = {node: i for i, node in enumerate(nodes)}
    met, degree, seconds = _contact_counts(contacts, index, len(nodes))

    stats = {str(n): NodeStats() for n in nodes}
    for rec in deliveries:
        strangers = [str(hop) for hop in rec.path if str(hop) not in stats]
        if strangers:
            raise ValueError(f"delivery of {rec.message_id} names {strangers[0]}, not in the run")
        for hop in rec.path[1:-1]:
            stats[str(hop)].record_relayed_delivery(rec.hopcount, rec.delivery_time)
        stats[str(rec.to_host)].as_dest += 1

    rows = []
    for node in nodes:
        if node.node_class not in MOBILE_CLASSES:
            continue
        own, k = stats[str(node)], index[node]
        rows.append(
            {
                "node": str(node),
                "contact_freq": float(met[k]),
                "degree": float(degree[k]),
                "avg_contact_duration": seconds[k] / met[k] if met[k] else 0.0,
                "avg_hop_count": own.h_avg,
                "avg_delivery_time": own.t_delay,
                "as_relay_count": float(own.relayed_delivered),
                "as_destination_count": float(own.as_dest),
            }
        )
    return rows


def _contact_counts(log: ContactLog, index: dict, n: int) -> tuple[list, list, list]:
    """Completed contacts, distinct partners and contact seconds of each of
    the n nodes, by their index, each node's seconds added in file order of
    the downs.  A faulty log is refused (ValueError) by its first faulty
    line, a line's pairing before its time."""
    rows, m = len(log.time), len(log.nodes)
    slot = np.array([index.get(node, -1) for node in log.nodes], dtype=np.int64)  # -1: a stranger
    key = np.minimum(log.a, log.b) * m + np.maximum(log.a, log.b)
    ups, downs = paired_rows(key)
    # a line opens its link if an even number of the pair's lines came before it
    order = np.empty(rows, dtype=np.int64)
    order[0::2], order[1::2] = ups, downs
    opens = np.empty(rows, dtype=bool)
    opens[order] = (np.arange(rows) - np.searchsorted(key[order], key[order])) % 2 == 0
    stranger = (slot[log.a] < 0) | (slot[log.b] < 0)
    unpaired = (log.up != opens) | log.up & stranger
    back = np.concatenate(([False], log.time[1:] < log.time[:-1]))
    faulty = np.flatnonzero(unpaired | back)
    if len(faulty):
        r = int(faulty[0])
        if not unpaired[r]:
            time, last = log.time[r], log.time[r - 1]
            raise ValueError(f"contact log goes back in time: @{time:.2f} after @{last:.2f}")
        link = "link {}-{}".format(*sorted((str(log.nodes[log.a[r]]), str(log.nodes[log.b[r]]))))
        if not log.up[r]:
            raise ValueError(f"{link} dropped while down")
        if not opens[r]:
            raise ValueError(f"{link} raised while already up")
        raise ValueError(f"{link} names a node not in the run")
    if 2 * log.up.sum() != rows:
        raise ValueError(f"{2 * int(log.up.sum()) - rows} contact(s) never closed")

    in_file_order = np.argsort(downs)  # the contacts by the line of their down
    ups, downs = ups[in_file_order], downs[in_file_order]
    # each down's two nodes in turn: bincount adds in this order
    ends = np.column_stack((slot[log.a[downs]], slot[log.b[downs]])).ravel()
    lengths = np.repeat(log.time[downs] - log.time[ups], 2)
    pairs = np.unique(key[downs])
    degree = np.bincount(np.concatenate((slot[pairs // m], slot[pairs % m])), minlength=n)
    seconds = np.bincount(ends, weights=lengths, minlength=n)
    return np.bincount(ends, minlength=n).tolist(), degree.tolist(), seconds.tolist()


def rows_to_matrix(rows: list[dict]) -> np.ndarray:
    """Feature rows as an (n, 7) float matrix, NaN where undefined."""
    X = [[np.nan if row[k] is None else float(row[k]) for k in FEATURE_NAMES] for row in rows]
    return np.array(X, dtype=float).reshape(len(rows), len(FEATURE_NAMES))


# ---------------------------------------------------------------- normalizers


class MinMaxNormalizer:
    """Per-column rescale to [0, 1] over the defined entries.

    A column without spread transforms to 0.5 everywhere; NaN entries pass
    through so the caller can choose their treatment.
    """

    def fit(self, X) -> "MinMaxNormalizer":
        X = np.asarray(X, dtype=float)
        cols = X.shape[1]
        self.mins_ = np.full(cols, np.nan)
        self.maxs_ = np.full(cols, np.nan)
        for j in range(cols):
            defined = X[:, j][~np.isnan(X[:, j])]
            if defined.size:
                self.mins_[j] = defined.min()
                self.maxs_[j] = defined.max()
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "mins_"):
            raise NotFittedError("fit the normalizer before transform")
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for j in range(X.shape[1]):
            span = self.maxs_[j] - self.mins_[j]
            if np.isnan(span) or span == 0.0:
                out[:, j] = 0.5
            else:
                out[:, j] = (X[:, j] - self.mins_[j]) / span
        out[np.isnan(X)] = np.nan
        return out

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


class ZScoreNormalizer:
    """Center and scale each column by its population statistics.

    Expects a fully defined matrix (impute first).  Zero-variance columns
    divide by one so they come out centered instead of exploding.
    """

    def fit(self, X) -> "ZScoreNormalizer":
        X = np.asarray(X, dtype=float)
        self.means_ = X.mean(axis=0)
        sigmas = X.std(axis=0)
        sigmas[sigmas == 0.0] = 1.0
        self.sigmas_ = sigmas
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "means_"):
            raise NotFittedError("fit the normalizer before transform")
        return (np.asarray(X, dtype=float) - self.means_) / self.sigmas_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


# ------------------------------------------------------------------- labeling


def relay_scores(X) -> np.ndarray:
    """Equal-weight relay quality score in [0, 1] per row.

    Each column is min-max normalized over the given rows; hop count and
    delivery time count inverted since lower is better there; undefined
    entries contribute the neutral 0.5.
    """
    X = np.asarray(X, dtype=float)
    norm = MinMaxNormalizer().fit_transform(X)
    for j in _REVERSED_IDX:
        norm[:, j] = 1.0 - norm[:, j]
    norm = np.where(np.isnan(norm), 0.5, norm)
    return norm.mean(axis=1)


def label_by_median(scores) -> np.ndarray:
    """1 for rows scoring strictly above the median, 0 otherwise."""
    scores = np.asarray(scores, dtype=float)
    return (scores > np.median(scores)).astype(int)


def stratified_split(
    labels, test_fraction: float, rng: random.Random
) -> tuple[list[int], list[int]]:
    """Index split preserving the label ratio; returns (train, test)."""
    labels = list(labels)
    test: list[int] = []
    for value in sorted(set(labels)):
        members = [i for i, y in enumerate(labels) if y == value]
        rng.shuffle(members)
        n_test = round(test_fraction * len(members))
        test += members[:n_test]
    test_set = set(test)
    train = [i for i in range(len(labels)) if i not in test_set]
    return train, sorted(test)


# -------------------------------------------------------------------- dataset


@dataclass
class Dataset:
    """Labeled, split, and imputed training data plus its provenance rows."""

    rows: list[dict]  # scenario, node, split, score, label, raw features
    feature_names: tuple[str, ...]
    medians: tuple[float, float]  # train-split medians for the two averages
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray


def _imputed_matrix(rows: list[dict], medians: tuple[float, float]) -> np.ndarray:
    X = rows_to_matrix(rows)
    for j, fill in zip(_REVERSED_IDX, medians):
        col = X[:, j]
        col[np.isnan(col)] = fill
    if np.isnan(X).any():
        raise ValueError("unexpected undefined value outside the delivery averages")
    return X


def assemble_dataset(
    scenario_rows: list[tuple[str, list[dict]]],
    seed: int = 0,
    test_fraction: float = 0.2,
) -> Dataset:
    """Label per scenario, concatenate, split, and impute.

    Labels are assigned against each scenario's own median before anything
    is mixed.  The two delivery averages are imputed with medians computed
    on the training split only, and those medians ship with the dataset for
    use at decision time.
    """
    rows: list[dict] = []
    for scenario, sc_rows in scenario_rows:
        scores = relay_scores(rows_to_matrix(sc_rows))
        for row, score, label in zip(sc_rows, scores, label_by_median(scores)):
            rows.append(dict(row, scenario=scenario, score=float(score), label=int(label)))
    if not rows:
        raise ValueError("no feature rows to assemble")

    labels = [row["label"] for row in rows]
    train_idx, test_idx = stratified_split(
        labels, test_fraction, random.Random(f"{seed}:split")
    )
    test_set = set(test_idx)
    for i, row in enumerate(rows):
        row["split"] = "test" if i in test_set else "train"

    train_rows = [rows[i] for i in train_idx]
    medians = []
    for name in REVERSED_FEATURES:
        defined = [row[name] for row in train_rows if row[name] is not None]
        medians.append(float(np.median(defined)) if defined else 0.0)
    return _split_dataset(rows, (medians[0], medians[1]))


def _split_dataset(rows: list[dict], medians: tuple[float, float]) -> Dataset:
    """The dataset of split-tagged rows, imputed with the given medians."""
    train_rows = [r for r in rows if r["split"] == "train"]
    test_rows = [r for r in rows if r["split"] == "test"]
    return Dataset(
        rows=rows,
        feature_names=FEATURE_NAMES,
        medians=medians,
        X_train=_imputed_matrix(train_rows, medians),
        y_train=np.array([r["label"] for r in train_rows], dtype=int),
        X_test=_imputed_matrix(test_rows, medians),
        y_test=np.array([r["label"] for r in test_rows], dtype=int),
    )


_CSV_COLUMNS = ("scenario", "node", "split", "label", "score") + FEATURE_NAMES


def save_dataset(dataset: Dataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "dataset.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in dataset.rows:
            writer.writerow([_cell(row.get(col)) for col in _CSV_COLUMNS])
    meta = {
        "feature_names": list(dataset.feature_names),
        "medians": {
            name: value for name, value in zip(REVERSED_FEATURES, dataset.medians)
        },
        "rows": len(dataset.rows),
        "train_rows": int(len(dataset.y_train)),
        "test_rows": int(len(dataset.y_test)),
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def load_dataset(in_dir: str | Path) -> Dataset:
    src = Path(in_dir)
    if not src.is_dir():
        raise ConfigurationError(f"dataset directory not found: {src}")
    for name in ("metadata.json", "dataset.csv"):
        if not (src / name).is_file():
            raise ConfigurationError(f"dataset directory {src} has no {name}")
    meta = json.loads((src / "metadata.json").read_text())
    medians = tuple(meta["medians"][name] for name in REVERSED_FEATURES)
    rows: list[dict] = []
    with open(src / "dataset.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _CSV_COLUMNS:
            raise ValueError(f"unexpected dataset columns {header}")
        for record in reader:
            row = dict(zip(_CSV_COLUMNS, record))
            row["label"] = int(row["label"])
            row["score"] = float(row["score"])
            for name in FEATURE_NAMES:
                row[name] = float(row[name]) if row[name] != "" else None
            rows.append(row)
    return _split_dataset(rows, medians)
