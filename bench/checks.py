"""Output checks written against the file formats, not against dtnlab helpers.

Every check raises CheckFailed with a message naming the run and the first
offending record.  The parsers here read the four text logs and the model
files on their own, so a fault in the package's parsers or writers cannot
hide itself.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

FEATURES = (
    "contact_freq",
    "degree",
    "avg_contact_duration",
    "avg_hop_count",
    "avg_delivery_time",
    "as_relay_count",
    "as_destination_count",
)
SPRAY_FAMILY = ("SprayAndWait", "MLPBasedRouter", "RandomRouter")
ACCIDENT = "a0"


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ run logs


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text().split("\n") if line]


def read_contacts(run: Path) -> list[tuple[float, str, str, bool]]:
    events = []
    for line in _lines(run / "connectivity.txt"):
        stamp, a, arrow, b, state = line.split(" ")
        require(stamp.startswith("@") and arrow == "<->", f"{run}: bad contact line {line!r}")
        require(state in ("up", "down"), f"{run}: bad contact state {line!r}")
        events.append((float(stamp[1:]), a, b, state == "up"))
    return events


def read_deliveries(run: Path) -> list[dict]:
    lines = _lines(run / "delivered.txt")
    require(bool(lines) and lines[0].startswith("# time ID"), f"{run}: delivered header")
    out = []
    for line in lines[1:]:
        f = line.split(" ")
        require(len(f) == 10, f"{run}: delivered line {line!r}")
        out.append(
            {
                "time": float(f[0]),
                "id": f[1],
                "hopcount": int(f[3]),
                "delay": float(f[4]),
                "from": f[5],
                "to": f[6],
                "path": f[9].split("->"),
            }
        )
    return out


def read_relays(run: Path) -> list[tuple[float, str, str, str]]:
    out = []
    for line in _lines(run / "relay.txt"):
        t, sender, receiver, mid = line.split(" ")
        out.append((float(t), sender, receiver, mid))
    return out


def read_residency_seconds(run: Path) -> list[float]:
    return [float(line.split(" ")[3]) for line in _lines(run / "buffer.txt")]


def check_metrics_recount(run: Path) -> None:
    """metrics.json agrees with a recount from the log text."""
    created = json.loads((run / "manifest.json").read_text())["generated_count"]
    deliveries = read_deliveries(run)
    relayed = len(read_relays(run))
    seconds = read_residency_seconds(run)
    delivered = len({d["id"] for d in deliveries})
    expected = {
        "delivery_probability": delivered / created if created else 0.0,
        "overhead_ratio": (relayed - delivered) / delivered if delivered else None,
        "latency_avg": statistics.fmean(d["delay"] for d in deliveries) if deliveries else None,
        "buffertime_avg": statistics.fmean(seconds) if seconds else None,
        "created": created,
        "delivered": delivered,
        "relayed": relayed,
    }
    official = json.loads((run / "metrics.json").read_text())
    require(official == expected, f"{run}: metrics.json {official} != recount {expected}")


def up_intervals(contacts) -> dict[frozenset, list[tuple[float, float]]]:
    opened: dict[frozenset, float] = {}
    intervals: dict[frozenset, list[tuple[float, float]]] = {}
    for t, a, b, up in contacts:
        pair = frozenset((a, b))
        if up:
            require(pair not in opened, f"link {a}-{b} raised twice at {t}")
            opened[pair] = t
        else:
            require(pair in opened, f"link {a}-{b} dropped while down at {t}")
            intervals.setdefault(pair, []).append((opened.pop(pair), t))
    require(not opened, f"{len(opened)} contact(s) never closed")
    return intervals


def check_relays_inside_contacts(run: Path, contacts) -> None:
    """Every relay completes while its pair's link is up (after up, by down)."""
    intervals = up_intervals(contacts)
    for t, sender, receiver, mid in read_relays(run):
        spans = intervals.get(frozenset((sender, receiver)), ())
        require(
            any(up < t <= down for up, down in spans),
            f"{run}: relay {mid} {sender}->{receiver} at {t} outside every contact",
        )


def check_copy_budget(run: Path, copies: int) -> None:
    """Binary spray: relays minus deliveries per message stay within copies - 1."""
    relays: dict[str, int] = {}
    for _t, _s, _r, mid in read_relays(run):
        relays[mid] = relays.get(mid, 0) + 1
    delivered: dict[str, int] = {}
    for d in read_deliveries(run):
        delivered[d["id"]] = delivered.get(d["id"], 0) + 1
    for mid, n in relays.items():
        spent = n - delivered.get(mid, 0)
        require(spent <= copies - 1, f"{run}: {mid} spent {spent} relays > {copies - 1}")


def check_delivery_paths(run: Path, ttl_s: float) -> None:
    for d in read_deliveries(run):
        path = d["path"]
        require(path[0] == ACCIDENT == d["from"], f"{run}: {d['id']} path starts at {path[0]}")
        require(path[-1] == d["to"] and d["to"].startswith("h"), f"{run}: {d['id']} ends at {path[-1]}")
        require(d["hopcount"] == len(path) - 1, f"{run}: {d['id']} hopcount {d['hopcount']}")
        require(d["delay"] <= ttl_s, f"{run}: {d['id']} latency {d['delay']} > ttl {ttl_s}")


def check_run(run: Path, router: str, copies: int, ttl_s: float) -> None:
    """All per-run log checks."""
    check_metrics_recount(run)
    check_relays_inside_contacts(run, read_contacts(run))
    if router in SPRAY_FAMILY:
        check_copy_budget(run, copies)
    check_delivery_paths(run, ttl_s)


def check_cell(
    runs: dict[str, Path], copies: int, ttl_s: float, need_deliveries: bool
) -> None:
    """One (scenario, regime, seed) cell: per-run checks, shared contact log,
    and, where asked, at least one delivery per protocol."""
    reference = None
    for router, run in runs.items():
        check_run(run, router, copies, ttl_s)
        text = (run / "connectivity.txt").read_bytes()
        if reference is None:
            reference = text
        require(text == reference, f"{run}: contact log differs across protocols")
        delivered = json.loads((run / "metrics.json").read_text())["delivered"]
        require(delivered > 0 or not need_deliveries, f"{run}: {router} delivered nothing")


# -------------------------------------------------------------------- models


def pairwise_auc(y, p) -> float:
    pos = [pi for yi, pi in zip(y, p) if yi == 1]
    neg = [pi for yi, pi in zip(y, p) if yi == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def check_auc(y_test, probs, reported: float | None) -> None:
    brute = pairwise_auc(list(y_test), list(probs))
    require(reported is not None, "held-out AUC undefined")
    require(abs(brute - reported) < 1e-12, f"AUC {reported} != pairwise count {brute}")
    require(brute > 0.5, f"held-out AUC {brute} does not beat chance")


class ReferenceModel:
    """Independent evaluator over the weights stored in a model file."""

    def __init__(self, path: Path) -> None:
        doc = json.loads(path.read_text())
        require(tuple(doc["feature_names"]) == FEATURES, f"{path}: feature order")
        self.kind = doc["kind"]
        self.means = np.array(doc["zscore"]["means"], dtype=float)
        self.sigmas = np.array(doc["zscore"]["sigmas"], dtype=float)
        if self.kind == "mlp":
            self.layers = [(np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in doc["weights"]]
        else:
            self.trees = doc["weights"]["trees"]

    def proba(self, row) -> float:
        x = (np.asarray(row, dtype=float) - self.means) / self.sigmas
        if self.kind == "mlp":
            for i, (W, b) in enumerate(self.layers):
                x = x @ W + b
                if i < len(self.layers) - 1:
                    x = np.maximum(x, 0.0)
            z = float(x[0])
            return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        total = 0.0
        for node in self.trees:
            while "feature" in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
            total += node["prob"]
        return total / len(self.trees)


def check_decisions(reference: ReferenceModel, queries, answers) -> None:
    for query, (label, prob) in zip(queries, answers):
        expected = reference.proba([query[name] for name in FEATURES])
        require(abs(prob - expected) <= 1e-9, f"{reference.kind}: p={prob} != reference {expected}")
        require(label == int(prob >= 0.5), f"{reference.kind}: label {label} for p={prob}")


# ------------------------------------------------------------ link detection


def brute_force_links(positions, range2: float, prev) -> tuple[list, list]:
    n = len(positions)
    ups, downs = [], []
    for i in range(n):
        xi, yi = float(positions[i][0]), float(positions[i][1])
        for j in range(i + 1, n):
            dx = xi - float(positions[j][0])
            dy = yi - float(positions[j][1])
            now = dx * dx + dy * dy <= range2
            if now != bool(prev[i][j]):
                (ups if now else downs).append((i, j))
    return ups, downs
