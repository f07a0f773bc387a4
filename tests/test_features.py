"""Extraction, scoring, labeling, and dataset assembly oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from dtnlab.features import (
    Dataset,
    MinMaxNormalizer,
    NotFittedError,
    ZScoreNormalizer,
    assemble_dataset,
    extract_features,
    label_by_median,
    load_dataset,
    relay_scores,
    rows_to_matrix,
    save_dataset,
    stratified_split,
)
from dtnlab.nodes import NodeId
from dtnlab.pipeline import LOG_FILES, read_run, write_run
from dtnlab.reports import DeliveryRecord, parse_contact_lines
from dtnlab.routing import FEATURE_NAMES, SprayAndWaitRouter
from dtnlab.scenario import desk_scenario, with_regime
from dtnlab.simcore import Simulation, contact_log_lines, run_simulation
import contact_log_reference as reference
from contact_log_reference import ContactEvent, log_of, plan_events
from helpers import acceptance_scenarios, urban_spec

P0, P1, C0 = NodeId.parse("p0"), NodeId.parse("p1"), NodeId.parse("c0")
A0, H0 = NodeId.parse("a0"), NodeId.parse("h0")
NODES = [P0, P1, C0, A0, H0]


def contact(t, a, b, up):
    return ContactEvent(time=t, a=a, b=b, up=up)


def delivery(mid, path, delivery_time, time=4000.0):
    return DeliveryRecord(
        time=time,
        message_id=mid,
        size=600_000,
        hopcount=len(path) - 1,
        delivery_time=delivery_time,
        from_host=path[0],
        to_host=path[-1],
        remaining_ttl=100,
        is_response=False,
        path=tuple(path),
    )


@pytest.fixture(scope="module")
def desk_run():
    """A finished desk P10_C10 SprayAndWait run and its engine."""
    spec = desk_scenario(pedestrians=10, cars=10, duration_s=1800.0)
    sim = Simulation(spec, SprayAndWaitRouter(), 3)
    return sim, sim.run()


class TestExtraction:
    def small_logs(self):
        events = [
            contact(10.0, P0, P1, True),
            contact(20.0, P0, C0, True),
            contact(25.0, P0, P1, False),  # 15 s
            contact(30.0, P0, C0, False),  # 10 s
            contact(100.0, P0, P1, True),
            contact(101.0, P0, P1, False),  # 1 s
        ]
        deliveries = [
            delivery("AC0", [A0, P0, C0, H0], delivery_time=120.0),
            delivery("AC1", [A0, C0, H0], delivery_time=60.0),
        ]
        return events, deliveries

    def test_hand_computed_rows(self):
        events, deliveries = self.small_logs()
        rows = extract_features(NODES, log_of(events), deliveries)
        assert [r["node"] for r in rows] == ["p0", "p1", "c0"]
        p0, p1, c0 = rows
        assert p0["contact_freq"] == 3.0
        assert p0["degree"] == 2.0
        assert p0["avg_contact_duration"] == pytest.approx(26.0 / 3.0)
        assert p0["as_relay_count"] == 1.0
        assert p0["avg_hop_count"] == 3.0
        assert p0["avg_delivery_time"] == 120.0
        assert c0["as_relay_count"] == 2.0
        assert c0["avg_hop_count"] == 2.5
        assert c0["avg_delivery_time"] == 90.0
        assert p1["as_relay_count"] == 0.0
        assert p1["avg_hop_count"] is None
        assert p1["avg_delivery_time"] is None
        assert all(r["as_destination_count"] == 0.0 for r in rows)

    def test_degree_counts_unique_partners(self):
        partners = [P1, C0, C0, NodeId.parse("p2"), P1]
        events = []
        for k, partner in enumerate(partners):
            events += [contact(10.0 * k, P0, partner, True), contact(10.0 * k + 5.0, partner, P0, False)]
        p0 = extract_features(NODES + [NodeId.parse("p2")], log_of(events), [])[0]
        assert (p0["contact_freq"], p0["degree"], p0["avg_contact_duration"]) == (5.0, 3.0, 5.0)

    def test_stationary_nodes_get_no_row(self):
        rows = extract_features(NODES, log_of([]), [])
        assert [r["node"] for r in rows] == ["p0", "p1", "c0"]
        for row in rows:
            assert row["contact_freq"] == 0.0
            assert row["avg_contact_duration"] == 0.0
            assert row["avg_hop_count"] is None

    def test_unpaired_events_are_rejected(self):
        with pytest.raises(ValueError, match="already up"):
            extract_features(
                NODES,
                log_of([contact(1.0, P0, P1, True), contact(2.0, P0, P1, True)]),
                [],
            )
        with pytest.raises(ValueError, match="while down"):
            extract_features(NODES, log_of([contact(1.0, P0, P1, False)]), [])
        with pytest.raises(ValueError, match="never closed"):
            extract_features(NODES, log_of([contact(1.0, P0, P1, True)]), [])

    def test_a_log_that_goes_back_in_time_is_refused(self):
        # in file order the down follows its up, but in time it comes first
        events = [contact(5.0, P0, P1, True), contact(1.0, P0, P1, False)]
        with pytest.raises(ValueError, match="^contact log goes back in time: @1.00 after @5.00$"):
            extract_features(NODES, log_of(events), [])
        # across pairs too
        events = [
            contact(5.0, P0, P1, True),
            contact(4.0, P0, C0, True),
            contact(6.0, P0, P1, False),
            contact(7.0, P0, C0, False),
        ]
        with pytest.raises(ValueError, match="back in time: @4.00 after @5.00"):
            extract_features(NODES, log_of(events), [])

    def test_the_first_faulty_line_is_named(self):
        # the second line is up while up and goes back in time: pairing first
        events = [contact(5.0, P0, P1, True), contact(1.0, P1, P0, True)]
        with pytest.raises(ValueError, match="^link p0-p1 raised while already up$"):
            extract_features(NODES, log_of(events), [])
        # a line that goes back in time before a line that pairs wrong
        events = [contact(5.0, P0, P1, True), contact(4.0, C0, P0, True), contact(6.0, P0, C0, True)]
        with pytest.raises(ValueError, match="^contact log goes back in time: @4.00 after @5.00$"):
            extract_features(NODES, log_of(events), [])
        # the link is named by its nodes' names in text order
        p9, p10 = NodeId.parse("p9"), NodeId.parse("p10")
        events = [contact(1.0, p9, p10, True), contact(2.0, p9, p10, True)]
        with pytest.raises(ValueError, match="^link p10-p9 raised while already up$"):
            extract_features([p9, p10], log_of(events), [])

    def test_a_node_outside_the_run_is_refused(self):
        stranger = NodeId.parse("p98")
        with pytest.raises(ValueError, match="^link p0-p98 names a node not in the run$"):
            extract_features(NODES, log_of([contact(1.0, P0, stranger, True)]), [])
        with pytest.raises(ValueError, match="^delivery of AC0 names p98, not in the run$"):
            extract_features(NODES, log_of([]), [delivery("AC0", [A0, stranger, H0], 60.0)])

    def test_matches_independent_recount_on_a_real_run(self, desk_run):
        _, out = desk_run
        assert out.deliveries  # the oracle should see some relay traffic
        log = parse_contact_lines(contact_log_lines(out.plan))
        rows = extract_features(out.nodes, log, out.deliveries)
        assert len(rows) == 20
        for row in rows:
            name = row["node"]
            # recount contacts per node by pairing this node's own events
            per_partner: dict[str, list[float]] = {}
            durations = []
            for ev in plan_events(out.plan):
                pair = {str(ev.a), str(ev.b)}
                if name not in pair:
                    continue
                other = (pair - {name}).pop()
                if ev.up:
                    per_partner.setdefault(other, []).append(ev.time)
                else:
                    durations.append((other, ev.time - per_partner[other].pop()))
            met = len(durations)
            assert row["contact_freq"] == float(met)
            assert row["degree"] == float(len({o for o, _ in durations}))
            expect_avg = sum(d for _, d in durations) / met if met else 0.0
            assert row["avg_contact_duration"] == pytest.approx(expect_avg, abs=1e-9)
            hops = [
                (rec.hopcount, rec.delivery_time)
                for rec in out.deliveries
                for hop in rec.path[1:-1]
                if str(hop) == name
            ]
            assert row["as_relay_count"] == float(len(hops))
            if hops:
                assert row["avg_hop_count"] == pytest.approx(
                    sum(h for h, _ in hops) / len(hops)
                )
                assert row["avg_delivery_time"] == pytest.approx(
                    sum(t for _, t in hops) / len(hops)
                )
            else:
                assert row["avg_hop_count"] is None

    def test_offline_rows_agree_with_the_online_counters(self, desk_run):
        sim, out = desk_run
        rows = {
            row["node"]: row
            for row in extract_features(
                out.nodes, parse_contact_lines(contact_log_lines(out.plan)), out.deliveries
            )
        }
        assert len(rows) == 20
        # the plan's contact counters at the end of the run, closing downs included
        counters = out.plan.contact_counters
        end = round(sim.spec.duration_s / sim.spec.tick_s) + 1
        for index, (node, own) in enumerate(zip(sim.nodes, sim.stats)):
            if str(node) not in rows:
                continue
            row = rows[str(node)]
            pairs = [counters.pair(index, other, end) for other in range(len(sim.nodes))]
            contacts = sum(completed for completed, _ in pairs)
            assert contacts > 0
            assert row["contact_freq"] == contacts
            assert row["degree"] == counters.degree(index, end)
            assert row["as_relay_count"] == own.relayed_delivered
            assert row["as_destination_count"] == own.as_dest
            # the pairs' seconds add up here by partner index and offline in
            # log order, and the log rounds their times
            expect = sum(seconds for _, seconds in pairs) / contacts
            assert row["avg_contact_duration"] == pytest.approx(expect)
            assert row["avg_hop_count"] == pytest.approx(own.h_avg)
            assert row["avg_delivery_time"] == pytest.approx(own.t_delay)


# The urban training corpus of bench/loop.py: (pedestrians, cars, regime, duration_s).
URBAN_CORPUS = (
    (14, 10, "weekday", 450.0),
    (14, 10, "holiday", 450.0),
    (12, 12, "weekday", 600.0),
    (12, 12, "holiday", 600.0),
    (14, 10, "weekday", 600.0),
    (14, 10, "holiday", 600.0),
    (16, 8, "weekday", 900.0),
    (16, 8, "holiday", 900.0),
    (12, 12, "weekday", 900.0),
    (12, 12, "holiday", 900.0),
    (8, 6, "weekday", 600.0),
    (8, 6, "holiday", 600.0),
    (6, 6, "weekday", 900.0),
    (6, 6, "holiday", 900.0),
)


def outcome(extract, parse, nodes, lines, deliveries=()):
    """The rows an extract gives on these contact-log lines, or the message
    it refuses them with."""
    try:
        return extract(nodes, parse(lines), list(deliveries))
    except ValueError as err:
        return str(err)


def random_log_lines(rng: random.Random, names: list[str], contacts: int) -> list[str]:
    """A well-formed contact log: times that never go back, every link
    closed, endpoints written either way round."""
    lines, open_pairs, t = [], [], 0.0
    while contacts or open_pairs:
        t = round(t + rng.choice((0.0, 0.1, 0.5, 2.0)), 2)
        if open_pairs and (not contacts or rng.random() < 0.5):
            a, b = open_pairs.pop(rng.randrange(len(open_pairs)))
            lines.append(f"@{t:.2f} {b} <-> {a} down" if rng.random() < 0.5 else f"@{t:.2f} {a} <-> {b} down")
            continue
        a, b = rng.sample(names, 2)
        if any({a, b} == set(pair) for pair in open_pairs):
            continue
        open_pairs.append((a, b))
        lines.append(f"@{t:.2f} {a} <-> {b} up")
        contacts -= 1
    return lines


def mutate(rng: random.Random, lines: list[str], names: list[str]) -> list[str]:
    """The lines with one random fault a hand edit or a broken copy could leave."""
    lines = list(lines)
    if not lines:
        return lines
    i = rng.randrange(len(lines))
    kind = rng.choice(("drop", "duplicate", "swap", "retime", "flip", "rename"))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "retime":
        stamp, rest = lines[i].split(" ", 1)
        lines[i] = f"@{max(0.0, float(stamp[1:]) + rng.choice((-3.0, -0.1, 0.1))):.2f} {rest}"
    elif kind == "flip":
        head, state = lines[i].rsplit(" ", 1)
        lines[i] = f"{head} {'down' if state == 'up' else 'up'}"
    else:  # another node of the run, a node outside it, or another name of the same node
        _, a, _, b, _ = lines[i].split(" ")
        other = rng.choice(names + ["p98", "h7", a[0] + "0" + a[1:]])
        lines[i] = lines[i].replace(f" {a} ", f" {other} ", 1)
    return lines


class TestColumnExtract:
    """extract_features on the contact log's columns must equal, bit for bit,
    the frozen per-event reader and extract (contact_log_reference) on the
    same logs: the same rows, or the same refusal."""

    @pytest.mark.parametrize(
        "cases",
        [
            pytest.param(lambda: list(acceptance_scenarios()), id="c01"),
            pytest.param(
                lambda: [
                    (urban_spec(p, c, duration, regime), 2300 + k)
                    for k, (p, c, regime, duration) in enumerate(URBAN_CORPUS)
                ],
                id="urban_corpus",
            ),
            pytest.param(
                lambda: [
                    (with_regime(desk_scenario(70, 70, duration_s=600.0), regime), 1)
                    for regime in ("weekday", "holiday")
                ],
                id="desk_P70_C70",
            ),
        ],
    )
    def test_equals_the_per_event_extract(self, cases, tmp_path):
        met = 0
        for k, (spec, seed) in enumerate(cases()):
            run = tmp_path / str(k)
            write_run(run, run_simulation(spec, "SprayAndWait", seed), spec)
            record = read_run(run)
            events = reference.parse_contact_lines((run / LOG_FILES["contacts"]).read_text().splitlines())
            assert reference.log_events(record.contacts) == events
            rows = extract_features(record.nodes, record.contacts, record.deliveries)
            expected = reference.extract_features(record.nodes, events, record.deliveries)
            assert repr(rows) == repr(expected)  # floats to the last bit
            met += sum(row["contact_freq"] for row in rows)
        assert met > 0

    def test_faulty_logs_get_the_per_event_refusal(self):
        rng = random.Random(2302)
        names = ["p0", "p1", "p2", "p10", "c0", "c1", "a0", "h0"]
        nodes = [NodeId.parse(name) for name in names]
        seen = []
        for _ in range(3000):
            lines = random_log_lines(rng, names, rng.randint(1, 12))
            for _ in range(rng.choice((0, 1, 1, 2))):
                lines = mutate(rng, lines, names)
            got = outcome(extract_features, parse_contact_lines, nodes, lines)
            assert got == outcome(reference.extract_features, reference.parse_contact_lines, nodes, lines)
            seen.append(got if isinstance(got, str) else "rows")
        for fault in ("rows", "dropped while down", "raised while already up", "not in the run",
                      "goes back in time", "never closed", "endpoints must differ"):
            assert any(fault in got for got in seen), fault


class TestMinMaxNormalizer:
    def test_rescales_to_unit_interval(self):
        X = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 15.0]])
        norm = MinMaxNormalizer().fit_transform(X)
        assert np.allclose(norm, [[0.0, 0.0], [0.5, 1.0], [1.0, 0.5]])

    def test_constant_column_maps_to_half(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        norm = MinMaxNormalizer().fit_transform(X)
        assert np.allclose(norm[:, 0], 0.5)
        assert np.allclose(norm[:, 1], [0.0, 1.0])

    def test_nan_passes_through(self):
        X = np.array([[1.0, np.nan], [3.0, 5.0], [2.0, 7.0]])
        norm = MinMaxNormalizer().fit_transform(X)
        assert math.isnan(norm[0, 1])
        assert np.allclose(norm[1:, 1], [0.0, 1.0])

    def test_all_nan_column_is_neutral(self):
        X = np.array([[np.nan, 1.0], [np.nan, 3.0]])
        norm = MinMaxNormalizer().fit_transform(X)
        assert math.isnan(norm[0, 0]) and math.isnan(norm[1, 0])
        # but a defined value against an undefined fit range is neutral
        assert np.allclose(
            MinMaxNormalizer().fit(X).transform([[7.0, 1.0]])[0], [0.5, 0.0]
        )

    def test_transform_extrapolates_beyond_fit_range(self):
        scaler = MinMaxNormalizer().fit([[0.0], [10.0]])
        assert scaler.transform([[15.0]])[0, 0] == 1.5

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            MinMaxNormalizer().transform([[1.0]])


class TestZScoreNormalizer:
    def test_population_statistics(self):
        X = np.array([[1.0], [2.0], [3.0]])
        scaler = ZScoreNormalizer().fit(X)
        assert scaler.means_[0] == 2.0
        assert scaler.sigmas_[0] == pytest.approx(math.sqrt(2.0 / 3.0))
        z = scaler.transform(X)
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0)

    def test_zero_variance_column_centers_without_blowup(self):
        X = np.array([[4.0, 1.0], [4.0, 3.0]])
        z = ZScoreNormalizer().fit_transform(X)
        assert np.allclose(z[:, 0], 0.0)

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            ZScoreNormalizer().transform([[1.0]])


class TestScoring:
    def test_hand_computed_scores(self):
        X = np.array(
            [
                [0.0, 2.0, 10.0, 2.0, 100.0, 1.0, 0.0],
                [5.0, 2.0, 20.0, np.nan, 300.0, 0.0, 0.0],
                [10.0, 2.0, 10.0, 4.0, 200.0, 3.0, 1.0],
            ]
        )
        scores = relay_scores(X)
        expected = [
            (0.0 + 0.5 + 0.0 + 1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 7.0,
            (0.5 + 0.5 + 1.0 + 0.5 + 0.0 + 0.0 + 0.0) / 7.0,
            (1.0 + 0.5 + 0.0 + 0.0 + 0.5 + 1.0 + 1.0) / 7.0,
        ]
        assert np.allclose(scores, expected, atol=1e-12)

    def test_lower_latency_scores_higher(self):
        base = [5.0, 3.0, 30.0, 2.0, 0.0, 4.0, 0.0]
        fast = list(base)
        slow = list(base)
        fast[4] = 100.0
        slow[4] = 900.0
        scores = relay_scores(np.array([fast, slow]))
        assert scores[0] > scores[1]

    def test_labels_are_strictly_above_median(self):
        assert label_by_median([1.0, 2.0, 3.0]).tolist() == [0, 0, 1]
        assert label_by_median([2.0, 2.0, 2.0]).tolist() == [0, 0, 0]
        assert label_by_median([1.0, 2.0, 3.0, 4.0]).tolist() == [0, 0, 1, 1]


class TestStratifiedSplit:
    def test_preserves_class_ratio(self):
        labels = [0] * 80 + [1] * 20
        train, test = stratified_split(labels, 0.2, random.Random(5))
        assert len(test) == 20
        assert sum(labels[i] for i in test) == 4
        assert sorted(train + test) == list(range(100))

    def test_deterministic_per_seed(self):
        labels = [i % 2 for i in range(50)]
        a = stratified_split(labels, 0.2, random.Random(9))
        b = stratified_split(labels, 0.2, random.Random(9))
        c = stratified_split(labels, 0.2, random.Random(10))
        assert a == b
        assert a != c


def synthetic_rows(n, offset=0.0, seed=0, holes=()):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            {
                "node": f"p{i}",
                "contact_freq": float(rng.randrange(0, 40)) + offset,
                "degree": float(rng.randrange(0, 12)),
                "avg_contact_duration": rng.uniform(5.0, 60.0),
                "avg_hop_count": None if i in holes else rng.uniform(1.0, 5.0) + offset,
                "avg_delivery_time": None if i in holes else rng.uniform(200.0, 2000.0),
                "as_relay_count": float(rng.randrange(0, 9)),
                "as_destination_count": 0.0,
            }
        )
    return rows


class TestAssembleDataset:
    def test_labels_are_assigned_per_scenario(self):
        quiet = synthetic_rows(10, offset=0.0, seed=1)
        busy = synthetic_rows(10, offset=500.0, seed=2)
        ds = assemble_dataset([("quiet", quiet), ("busy", busy)], seed=4)
        for name, source in (("quiet", quiet), ("busy", busy)):
            got = [r["label"] for r in ds.rows if r["scenario"] == name]
            expected = label_by_median(relay_scores(rows_to_matrix(source)))
            assert got == expected.tolist()
        # pooled labeling would have branded the whole quiet scenario 0
        assert sum(r["label"] for r in ds.rows if r["scenario"] == "quiet") > 0

    def test_split_shapes_and_tags_agree(self):
        ds = assemble_dataset([("s", synthetic_rows(40, seed=3))], seed=1)
        assert len(ds.y_test) == round(0.2 * 20) * 2  # per-class rounding
        assert len(ds.y_train) + len(ds.y_test) == 40
        assert ds.X_train.shape == (len(ds.y_train), 7)
        assert [r["split"] for r in ds.rows].count("test") == len(ds.y_test)
        assert not np.isnan(ds.X_train).any()
        assert not np.isnan(ds.X_test).any()

    def test_medians_come_from_the_training_split_only(self):
        rows = synthetic_rows(20, seed=6, holes=(1, 5, 9, 13))
        ds = assemble_dataset([("s", rows)], seed=2)
        train_rows = [r for r in ds.rows if r["split"] == "train"]
        for j, name in enumerate(("avg_hop_count", "avg_delivery_time")):
            defined = [r[name] for r in train_rows if r[name] is not None]
            assert ds.medians[j] == float(np.median(defined))
        # and the holes in the test split are filled with those exact values
        test_rows = [r for r in ds.rows if r["split"] == "test"]
        hop_col = FEATURE_NAMES.index("avg_hop_count")
        for i, row in enumerate(test_rows):
            if row["avg_hop_count"] is None:
                assert ds.X_test[i, hop_col] == ds.medians[0]

    def test_round_trip_through_csv(self, tmp_path):
        rows = synthetic_rows(25, seed=8, holes=(2, 3))
        ds = assemble_dataset([("a", rows[:12]), ("b", rows[12:])], seed=5)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.medians == ds.medians
        assert np.array_equal(loaded.X_train, ds.X_train)
        assert np.array_equal(loaded.X_test, ds.X_test)
        assert np.array_equal(loaded.y_train, ds.y_train)
        assert loaded.rows == ds.rows

    def test_empty_input_is_refused(self):
        with pytest.raises(ValueError, match="no feature rows"):
            assemble_dataset([], seed=0)
