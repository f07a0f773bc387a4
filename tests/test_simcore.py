"""Engine behavior: link detection, transfer timing, budgets, expiry, logs."""

from __future__ import annotations

import hashlib
import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dtnlab import simcore
from dtnlab.mobility import FixedPost, MapGraph, Wanderer, save_map
from dtnlab.nodes import NodeClass, NodeId
from dtnlab.pipeline import LOG_FILES, write_run
from dtnlab.reports import (
    delivered_log_lines,
    relay_log_lines,
    residency_log_lines,
)
from dtnlab.routing import (
    FEATURE_NAMES,
    SPLIT,
    DecisionCache,
    Message,
    MlGatedRouter,
    PredictorUnavailableError,
    Replica,
    SprayAndWaitRouter,
)
from dtnlab.scenario import (
    ConfigurationError,
    MapSpec,
    ScenarioSpec,
    desk_scenario,
    with_regime,
)
from dtnlab.simcore import (
    NodeBuffer,
    Simulation,
    TrafficSource,
    Transfer,
    build_router,
    contact_log_lines,
    contact_plan,
    first_tick,
    link_transitions,
    run_simulation,
)
from contact_log_reference import contact_log_lines as reference_contact_log_lines
from engine_reference import run_per_tick

A0 = NodeId.parse("a0")
H0 = NodeId.parse("h0")
H1 = NodeId.parse("h1")
P0 = NodeId.parse("p0")


def log_text(out) -> str:
    """Canonical serialization of all four run logs."""
    lines = (
        contact_log_lines(out.plan)
        + delivered_log_lines(out.deliveries)
        + relay_log_lines(out.relays)
        + residency_log_lines(out.residencies)
    )
    return "\n".join(lines)


def write_map(tmp_path, coords, edges, name="map.txt") -> str:
    path = tmp_path / name
    save_map(MapGraph(list(coords), list(edges)), path)
    return str(path)


def static_pair_spec(tmp_path, gap_m: float, **overrides) -> ScenarioSpec:
    """Accident and one hospital `gap_m` apart, no mobile nodes at all."""
    path = write_map(tmp_path, [(0.0, 0.0), (gap_m, 0.0)], [(0, 1)])
    base = dict(
        name="static_pair",
        duration_s=120.0,
        pedestrians=0,
        cars=0,
        hospitals=1,
        map=MapSpec(kind="file", path=path),
        interval_s=(30.0, 30.0),
        size_bytes=(1_000_000, 1_000_000),
        regime="holiday",
        hotspots=(),
        accident_vertex=0,
        hospital_vertices=(1,),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def shuttle_spec(tmp_path, pedestrians: int, **overrides) -> ScenarioSpec:
    """Pedestrians bouncing along one 80 m street between site and hospital.

    The endpoints are out of radio range of each other, so every delivery
    rides a pedestrian.  With two vertices the waypoint draw always picks
    the opposite end.
    """
    path = write_map(tmp_path, [(0.0, 0.0), (80.0, 0.0)], [(0, 1)])
    base = dict(
        name="shuttle",
        duration_s=400.0,
        pedestrians=pedestrians,
        cars=0,
        hospitals=1,
        map=MapSpec(kind="file", path=path),
        interval_s=(20.0, 20.0),
        size_bytes=(100_000, 100_000),
        regime="holiday",
        hotspots=(),
        pedestrian_speed_ms=(1.0, 1.0),
        pedestrian_pause_s=(0.0, 0.0),
        accident_vertex=0,
        hospital_vertices=(1,),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.fixture(scope="module")
def desk_spec():
    return desk_scenario(pedestrians=10, cars=10, duration_s=1800.0)


@pytest.fixture(scope="module")
def desk_out(desk_spec):
    return run_simulation(desk_spec, "SprayAndWait", seed=3, audit=True)


# --------------------------------------------------------------- link model


class TestLinkTransitions:
    def test_random_walk_matches_brute_force(self):
        rng = random.Random(99)
        n = 12
        pos = np.array([[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in range(n)])
        r2 = 30.0 * 30.0
        prev = np.zeros((n, n), dtype=bool)
        state: dict[tuple[int, int], bool] = {}
        saw_up = saw_down = 0
        for _ in range(200):
            pos = pos + [[rng.uniform(-5, 5), rng.uniform(-5, 5)] for _ in range(n)]
            in_range, ups, downs = link_transitions(pos, r2, prev)
            expect_up, expect_down = [], []
            for i in range(n):
                for j in range(i + 1, n):
                    linked = float(((pos[i] - pos[j]) ** 2).sum()) <= r2
                    if linked != state.get((i, j), False):
                        (expect_up if linked else expect_down).append((i, j))
                        state[(i, j)] = linked
            assert ups == expect_up
            assert downs == expect_down
            assert not in_range.diagonal().any()
            assert (in_range == in_range.T).all()
            saw_up += len(ups)
            saw_down += len(downs)
            prev = in_range
        assert saw_up > 50 and saw_down > 50  # the walk actually churned

    def test_threshold_is_inclusive(self):
        pos = np.array([[0.0, 0.0], [30.0, 0.0], [30.001, -50.0]])
        prev = np.zeros((3, 3), dtype=bool)
        in_range, ups, downs = link_transitions(pos, 900.0, prev)
        assert ups == [(0, 1)]
        assert downs == []

    def test_full_grid_population_matches_brute_force(self):
        # 173 nodes as in P90_C80: 170 walkers on the 8x8 desk map's extent,
        # then three stationary nodes, two of them in range of each other
        rng = random.Random(7)
        n, r2 = 173, 30.0 * 30.0
        pos = np.array([[rng.uniform(0, 700), rng.uniform(0, 700)] for _ in range(n)])
        pos[170] = (350.0, 350.0)
        pos[171] = (360.0, 355.0)
        pos[172] = (0.0, 0.0)
        # a walker parked exactly range_m from the third stationary node
        pos[0] = (30.0, 0.0)
        prev = np.zeros((n, n), dtype=bool)
        state: dict[tuple[int, int], bool] = {}
        saw_up = saw_down = 0
        for tick in range(1, 41):
            if tick > 1:
                pos[1:170] += [
                    [rng.uniform(-4, 4), rng.uniform(-4, 4)] for _ in range(169)
                ]
            in_range, ups, downs = link_transitions(pos, r2, prev)
            expect_up, expect_down = [], []
            for i in range(n):
                xi, yi = float(pos[i][0]), float(pos[i][1])
                for j in range(i + 1, n):
                    dx, dy = xi - float(pos[j][0]), yi - float(pos[j][1])
                    linked = dx * dx + dy * dy <= r2
                    if linked != state.get((i, j), False):
                        (expect_up if linked else expect_down).append((i, j))
                        state[(i, j)] = linked
            assert ups == expect_up
            assert downs == expect_down
            if tick == 1:
                assert (170, 171) in ups  # stationary pair linked at tick 1
                assert (0, 172) in ups  # dist2 == range2 exactly
            assert in_range[170, 171] and in_range[171, 170]
            assert in_range[0, 172] and in_range[172, 0]
            assert not in_range.diagonal().any()
            assert (in_range == in_range.T).all()
            saw_up += len(ups)
            saw_down += len(downs)
            prev = in_range
        assert saw_up > 200 and saw_down > 50

        # a tick where nothing moved changes nothing and returns prev itself
        snapshot = prev.copy()
        in_range, ups, downs = link_transitions(pos, r2, prev)
        assert (ups, downs) == ([], [])
        assert in_range is prev
        assert (prev == snapshot).all()

    def test_prev_matrix_is_not_modified(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [100.0, 0.0]])
        prev = np.zeros((3, 3), dtype=bool)
        in_range, ups, _ = link_transitions(pos, 900.0, prev)
        assert ups == [(0, 1)]
        assert not prev.any()
        assert in_range is not prev


# -------------------------------------------------------------- node buffer


def make_replica(mid: str, size: int) -> Replica:
    msg = Message(mid, size, A0, H0, created_at=0.0, ttl_s=100.0)
    return Replica(msg, copies=1, arrived_at=0.0, path=(A0,))


class TestNodeBuffer:
    def test_evicts_oldest_first(self):
        buf = NodeBuffer(capacity=10)
        buf.admit(make_replica("AC0", 4))
        buf.admit(make_replica("AC1", 4))
        admitted, evicted = buf.admit(make_replica("AC2", 4))
        assert admitted
        assert [r.message.id for r in evicted] == ["AC0"]
        assert sorted(buf.entries) == ["AC1", "AC2"]
        assert buf.used == 8

    def test_exempt_replica_survives_eviction(self):
        buf = NodeBuffer(capacity=10)
        buf.admit(make_replica("AC0", 4))
        buf.admit(make_replica("AC1", 4))
        admitted, evicted = buf.admit(make_replica("AC2", 4), exempt=frozenset({"AC0"}))
        assert admitted
        assert [r.message.id for r in evicted] == ["AC1"]
        assert buf.has("AC0")

    def test_rejects_without_evicting_when_room_cannot_be_made(self):
        buf = NodeBuffer(capacity=10)
        buf.admit(make_replica("AC0", 4))
        admitted, evicted = buf.admit(make_replica("AC1", 8), exempt=frozenset({"AC0"}))
        assert not admitted and evicted == []
        assert buf.has("AC0") and buf.used == 4

    def test_rejects_message_larger_than_capacity(self):
        buf = NodeBuffer(capacity=10)
        admitted, evicted = buf.admit(make_replica("AC0", 11))
        assert not admitted and evicted == []
        assert buf.used == 0

    def test_multi_eviction_frees_exactly_enough(self):
        buf = NodeBuffer(capacity=10)
        for i, size in enumerate((3, 3, 3)):
            buf.admit(make_replica(f"AC{i}", size))
        admitted, evicted = buf.admit(make_replica("AC9", 7))
        assert admitted
        assert [r.message.id for r in evicted] == ["AC0", "AC1"]
        assert buf.used == 10


# ----------------------------------------------------------- transfer timing


class TestTransferTiming:
    def test_one_megabyte_takes_four_seconds(self, tmp_path):
        out = run_simulation(static_pair_spec(tmp_path, gap_m=20.0), "SprayAndWait", seed=1)
        assert [d.time for d in out.deliveries] == [34.0, 64.0, 94.0]
        for d in out.deliveries:
            assert d.delivery_time == 4.0
            assert d.hopcount == 1
            assert d.path == (A0, H0)
            assert d.remaining_ttl == math.floor((18000.0 - 4.0) / 60.0)
        # the pair is static: one link up on the first tick, one down at the end
        ups = [e for e in out.contact_events if e.up]
        downs = [e for e in out.contact_events if not e.up]
        assert [(e.time, str(e.a), str(e.b)) for e in ups] == [(0.1, "a0", "h0")]
        assert [(e.time, str(e.a), str(e.b)) for e in downs] == [(120.0, "a0", "h0")]

    def test_delivery_residency_closes_at_handover(self, tmp_path):
        out = run_simulation(static_pair_spec(tmp_path, gap_m=20.0), "SprayAndWait", seed=1)
        delivered = [r for r in out.residencies if r.reason == "delivered"]
        assert [(r.message_id, r.time, r.seconds) for r in delivered] == [
            ("AC0", 34.0, 4.0),
            ("AC1", 64.0, 4.0),
            ("AC2", 94.0, 4.0),
        ]
        assert all(str(r.node) == "a0" for r in delivered)

    def test_out_of_range_pair_never_talks(self, tmp_path):
        out = run_simulation(static_pair_spec(tmp_path, gap_m=31.0), "SprayAndWait", seed=1)
        assert out.contact_events == []
        assert out.deliveries == []
        assert out.generated == 4


class TestTtlBoundary:
    def test_replica_usable_at_exactly_ttl(self, tmp_path):
        # the transfer completes on the same tick the ttl elapses; completions
        # run first, so the handover wins
        spec = static_pair_spec(tmp_path, gap_m=20.0, ttl_s=4.0)
        out = run_simulation(spec, "SprayAndWait", seed=1)
        assert [d.time for d in out.deliveries] == [34.0, 64.0, 94.0]
        assert all(d.remaining_ttl == 0 for d in out.deliveries)
        assert not any(r.reason == "expired" for r in out.residencies)

    def test_expiry_one_tick_earlier_aborts_the_transfer(self, tmp_path):
        spec = static_pair_spec(tmp_path, gap_m=20.0, ttl_s=3.9)
        out = run_simulation(spec, "SprayAndWait", seed=1)
        assert out.deliveries == []
        expired = [r for r in out.residencies if r.reason == "expired"]
        assert [(r.message_id, r.time, r.seconds) for r in expired] == [
            ("AC0", 33.9, 3.9),
            ("AC1", 63.9, 3.9),
            ("AC2", 93.9, 3.9),
        ]

    def test_expired_residency_equals_ttl_exactly(self, tmp_path):
        # no peer in range: every message sits out its full ttl
        spec = static_pair_spec(tmp_path, gap_m=200.0, ttl_s=50.0)
        out = run_simulation(spec, "SprayAndWait", seed=1)
        expired = [r for r in out.residencies if r.reason == "expired"]
        assert [(r.message_id, r.time, r.seconds) for r in expired] == [
            ("AC0", 80.0, 50.0),
            ("AC1", 110.0, 50.0),
        ]
        leftover = [r for r in out.residencies if r.reason == "end"]
        assert [(r.message_id, r.seconds) for r in leftover] == [
            ("AC2", 30.0),
            ("AC3", 0.0),
        ]


class TestEvictionPressure:
    def test_fifo_eviction_under_sustained_load(self, tmp_path):
        spec = static_pair_spec(
            tmp_path,
            gap_m=200.0,
            duration_s=60.0,
            interval_s=(5.0, 5.0),
            buffer_bytes=1_200_000,
        )
        out = run_simulation(spec, "SprayAndWait", seed=1)
        assert out.generated == 12
        assert out.relays == [] and out.deliveries == []
        # each arrival displaces its predecessor after exactly one interval
        assert [(r.message_id, r.reason, r.seconds) for r in out.residencies] == [
            (f"AC{i}", "evicted", 5.0) for i in range(11)
        ] + [("AC11", "end", 0.0)]

    def test_source_buffer_smaller_than_message_drops_everything(self, tmp_path):
        spec = static_pair_spec(tmp_path, gap_m=20.0, buffer_bytes=900_000)
        out = run_simulation(spec, "SprayAndWait", seed=1)
        assert out.generated == 4
        assert out.deliveries == [] and out.residencies == []


# ------------------------------------------------------- static three nodes


def triangle_spec(tmp_path, **overrides) -> ScenarioSpec:
    path = write_map(
        tmp_path,
        [(0.0, 0.0), (20.0, 0.0), (10.0, 17.0)],
        [(0, 1), (1, 2)],
        name="triangle.txt",
    )
    base = dict(
        name="triangle",
        duration_s=60.0,
        pedestrians=0,
        cars=0,
        hospitals=2,
        map=MapSpec(kind="file", path=path),
        interval_s=(1.0, 1.0),
        size_bytes=(1_000_000, 1_000_000),
        regime="holiday",
        hotspots=(),
        accident_vertex=0,
        hospital_vertices=(1, 2),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestStaticTriangle:
    def test_mutual_range_raises_all_three_links(self, tmp_path):
        out = run_simulation(triangle_spec(tmp_path), "SprayAndWait", seed=1)
        ups = [e for e in out.contact_events if e.up]
        assert [(e.time, str(e.a), str(e.b)) for e in ups] == [
            (0.1, "a0", "h0"),
            (0.1, "a0", "h1"),
            (0.1, "h0", "h1"),
        ]
        downs = [e for e in out.contact_events if not e.up]
        assert all(e.time == 60.0 for e in downs) and len(downs) == 3

    def test_half_duplex_serializes_deliveries(self, tmp_path):
        # messages arrive every second but each handover occupies the source
        # for 4 s, so completed deliveries land exactly 4 s apart
        out = run_simulation(triangle_spec(tmp_path), "SprayAndWait", seed=1)
        times = [d.time for d in out.deliveries]
        assert times[0] == 5.0
        assert all(round(b - a, 4) == 4.0 for a, b in zip(times, times[1:]))
        assert len(times) == 14

    def test_deliveries_reach_the_addressed_hospital(self, tmp_path):
        out = run_simulation(triangle_spec(tmp_path), "SprayAndWait", seed=1)
        dest = {m.id: m.dest for m in out.messages}
        assert out.deliveries
        for d in out.deliveries:
            assert d.to_host == dest[d.message_id]
            assert d.path == (A0, d.to_host)
        # every completed transfer here is a final handover
        assert len(out.relays) == len(out.deliveries)


# ------------------------------------------------------------ mobile shuttle


class TestShuttle:
    def test_epidemic_rides_the_pedestrian(self, tmp_path):
        out = run_simulation(shuttle_spec(tmp_path, pedestrians=1), "Epidemic", seed=4)
        assert out.deliveries
        for d in out.deliveries:
            assert d.path == (A0, P0, H0)
            assert d.hopcount == 2
            assert d.delivery_time > 0.0
        mids = [d.message_id for d in out.deliveries]
        assert len(mids) == len(set(mids))  # one delivery per message

    def test_spray_budget_is_conserved(self, tmp_path):
        out = run_simulation(
            shuttle_spec(tmp_path, pedestrians=2), "SprayAndWait", seed=4, audit=True
        )
        assert out.relays  # pedestrians actually carried traffic
        assert out.audit.violations == []
        assert max(out.audit.copy_peaks.values()) <= 10

    def test_random_router_budget_is_conserved(self, tmp_path):
        out = run_simulation(
            shuttle_spec(tmp_path, pedestrians=2), "RandomRouter", seed=4, audit=True
        )
        assert out.audit.violations == []
        assert max(out.audit.copy_peaks.values(), default=0) <= 10

    def test_audit_reports_bookkeeping_that_disagrees(self, tmp_path):
        sim = Simulation(
            shuttle_spec(tmp_path, pedestrians=2), SprayAndWaitRouter(), 4, audit=True
        )
        sim.run()
        assert sim.audit.violations == []
        sim.buffers[0].used += 1
        sim._queued.add((0, 1))
        sim.in_flight[2] = Transfer(2, 0, "AC0", SPLIT, 1.0)
        sim._audit(999.0)
        used = sim.buffers[0].used
        assert sim.audit.violations == [
            f"@999.0 node 0: buffer used {used}, replicas {used - 1} bytes, "
            f"capacity {sim.buffers[0].capacity}",
            "@999.0: queued keys disagree with the sessions",
            "@999.0 node 2: in_flight disagrees with the sessions",
        ]

    def test_stationary_nodes_never_relay(self, tmp_path):
        out = run_simulation(shuttle_spec(tmp_path, pedestrians=2), "Epidemic", seed=4)
        delivered_keys = {(d.time, d.message_id, d.to_host) for d in out.deliveries}
        for ev in out.relays:
            assert ev.receiver.node_class is not NodeClass.ACCIDENT
            if ev.receiver.node_class is NodeClass.HOSPITAL:
                assert (ev.time, ev.message_id, ev.receiver) in delivered_keys
            assert ev.sender.node_class is not NodeClass.HOSPITAL

    def test_unreachable_predictor_degrades_to_plain_spray(self, tmp_path):
        class DownPredictor:
            def decide(self, features):
                raise PredictorUnavailableError("socket timeout")

        spec = shuttle_spec(tmp_path, pedestrians=2)
        spray = run_simulation(spec, "SprayAndWait", seed=4)
        gated = run_simulation(spec, "MLPBasedRouter", seed=4, predictor=DownPredictor())
        assert log_text(gated) == log_text(spray)
        assert gated.fallbacks == gated.eligible_encounters > 0
        assert spray.fallbacks == spray.eligible_encounters == 0


# ------------------------------------------------------------- whole-run law


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, desk_spec, desk_out):
        again = run_simulation(desk_spec, "SprayAndWait", seed=3, audit=True)
        assert log_text(again) == log_text(desk_out)
        assert [m.id for m in again.messages] == [m.id for m in desk_out.messages]

    def test_contact_process_is_protocol_independent(self, desk_spec, desk_out):
        spray_contacts = contact_log_lines(desk_out.plan)
        for router in ("Epidemic", "RandomRouter"):
            other = run_simulation(desk_spec, router, seed=3)
            assert contact_log_lines(other.plan) == spray_contacts
            assert [(m.id, m.size, m.dest) for m in other.messages] == [
                (m.id, m.size, m.dest) for m in desk_out.messages
            ]

    def test_contact_log_alternates_up_down_per_pair(self, desk_out):
        state: dict[tuple[str, str], bool] = {}
        last_time = 0.0
        for ev in desk_out.contact_events:
            assert ev.time >= last_time
            last_time = ev.time
            key = tuple(sorted((str(ev.a), str(ev.b))))
            assert state.get(key, False) != ev.up
            state[key] = ev.up
        assert not any(state.values())  # every link torn down by the end

    def test_buffer_residency_never_exceeds_ttl(self, desk_spec, desk_out):
        assert desk_out.residencies
        for rec in desk_out.residencies:
            assert 0.0 <= rec.seconds <= desk_spec.ttl_s + 1e-9

    def test_desk_run_moves_traffic(self, desk_spec, desk_out):
        assert desk_out.deliveries
        assert desk_out.audit.violations == []
        assert max(desk_out.audit.copy_peaks.values()) <= desk_spec.copies
        dest_names = set(desk_spec.destination_names())
        for d in desk_out.deliveries:
            assert d.path[0] == A0
            assert str(d.to_host) in dest_names
            assert d.remaining_ttl == math.floor((desk_spec.ttl_s - d.delivery_time) / 60.0)


# --------------------------------------------------------------- golden logs

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

# sha256 of each log file, captured from the dense N x N engine that the
# pair-indexed link detection and the sorted session keys replaced
GOLDEN_LOGS = {
    "desk_P90_C80_epidemic": {
        "connectivity.txt": "ef48dd4c949a15aa49218d33ee43672b76830cecf5e694d212de774187f278db",
        "delivered.txt": "59590049b772d70bd8e354a26c1d8edf387be4ac155e2730e482610fdd1d0d2e",
        "relay.txt": "1e0897f2cf3967242d98850d5380a0b57fd20d31705ffd9963b83575c7c99390",
        "buffer.txt": "457442d3684a781997b0b68a1d6f589e44790114439f4e9e5de58e6214a34aed",
    },
    "urban_P12_C12_spray": {
        "connectivity.txt": "29624d748ce2ef78b2500b7ddc2302d3ac2fdac17493eee79eac3ea1daca212f",
        "delivered.txt": "1f797baf2a15f825e70aa2b5ec552cef387b365e9c2dcf83c9d321fc808bf9db",
        "relay.txt": "e1f6be513bc43beaacb0ce9327dbb05098d58e531e0bac24d4a7ec98bba6429a",
        "buffer.txt": "e471d439f116c99b5d25c333a739af744ffae4effbf41d11565a79d49c5598e9",
    },
    # a short ttl and a buffer of three to six messages: relays close
    # residencies for all four reasons (5 delivered, 42 evicted, 60 expired,
    # 39 at the end), the source for two (15 evicted, 4 at the end); captured
    # from the engine that still kept residency starts and holders in indexes
    # of its own beside the buffers
    "urban_P12_C12_epidemic_pressure": {
        "connectivity.txt": "29624d748ce2ef78b2500b7ddc2302d3ac2fdac17493eee79eac3ea1daca212f",
        "delivered.txt": "326d3342b8e2c37cd3b205183c8e5ceeeb2ed92a52d98e7dfaf59093e83e089e",
        "relay.txt": "516cb1a6e229b4981921fd38204e58545de0f124c08ee5f333de92ceefab7af0",
        "buffer.txt": "5d8c6c91d65bbd3974e86d06a6ec8cf1c71d5fa81f6172cf0c10b067fc47b0d0",
    },
    # the relay gate over 1800 s with the median fallback of (3.0, 250.0):
    # 133 predictions, 100 of them for peers without a delivery record
    "urban_P12_C12_gate": {
        "connectivity.txt": "9e52a1742c564da8ce7374404807ebee2369dc1d6defe9b6e3eabd78be2efced",
        "delivered.txt": "3bfc39db81c682d972d014d33a4594b89854093a82cd5a0f346427d192babac7",
        "relay.txt": "073c0a87188f5724137264a104936efd7284b8688514690dde92eb584daa5ac4",
        "buffer.txt": "7838de7cf8d3e7dd324aaa12a850ce11b3133e9ebf3fdbff53edd6d373c6672e",
    },
}
# sha256 of the JSON list of feature mappings the gate case's predictor got
GOLDEN_GATE_FEATURES = "6f3a8cb37fc7430aa7255a36a00823041e10d52f0640a9b5ad632ada1f19c466"


class AllSevenFeatures:
    """Stub predictor whose label turns on every one of the seven features;
    it keeps the feature mappings it is asked about, in order."""

    WEIGHTS = (1.0, 2.0, 0.05, 3.0, 0.01, 5.0, 7.0)

    def __init__(self) -> None:
        self.seen: list[dict[str, float]] = []

    def decide(self, features):
        self.seen.append(dict(features))
        score = sum(w * features[name] for w, name in zip(self.WEIGHTS, FEATURE_NAMES))
        return int(math.floor(score) % 3 != 0), 0.5


def golden_case(name: str) -> tuple[ScenarioSpec, str, dict]:
    """The scenario, router and run_simulation keywords of a golden case."""
    if name == "desk_P90_C80_epidemic":
        return desk_scenario(90, 80, duration_s=60.0), "Epidemic", {}
    urban = with_regime(replace(desk_scenario(12, 12, duration_s=600.0), **URBAN), "weekday")
    if name == "urban_P12_C12_epidemic_pressure":
        return replace(urban, ttl_s=300.0, buffer_bytes=600_000), "Epidemic", {}
    if name == "urban_P12_C12_gate":
        gated = {"predictor": AllSevenFeatures(), "feature_medians": (3.0, 250.0)}
        return replace(urban, duration_s=1800.0), "MLPBasedRouter", gated
    return urban, "SprayAndWait", {}


class TestGoldenLogs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_LOGS))
    def test_log_files_are_byte_identical(self, tmp_path, name):
        spec, router, kwargs = golden_case(name)
        write_run(tmp_path, run_simulation(spec, router, seed=5, **kwargs), spec)
        digests = {
            fname: hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
            for fname in LOG_FILES.values()
        }
        assert digests == GOLDEN_LOGS[name]
        if "predictor" in kwargs:
            seen = json.dumps(kwargs["predictor"].seen).encode()
            assert hashlib.sha256(seen).hexdigest() == GOLDEN_GATE_FEATURES


# -------------------------------------------------------------- contact plan


class ByContactsAndDegree:
    """Stub predictor that accepts some peers and vetoes others."""

    def decide(self, features):
        score = features["contact_freq"] + features["degree"]
        return int(score > 3.0), score / 40.0


class TestContactPlan:
    @pytest.mark.parametrize("profile", ["desk", "urban"])
    def test_replaying_another_protocols_plan_matches_a_fresh_run(self, profile):
        if profile == "desk":
            spec = desk_scenario(pedestrians=10, cars=10, duration_s=900.0)
        else:
            spec = replace(desk_scenario(12, 12, duration_s=1800.0), **URBAN)
        plan = run_simulation(spec, "Epidemic", seed=8).plan
        steps = list(plan.steps())
        assert steps and all(downs or ups for _, downs, ups in steps)
        for router in ("SprayAndWait", "MLPBasedRouter", "RandomRouter", "Epidemic"):
            fresh, replayed = (
                run_simulation(spec, router, 8, predictor=ByContactsAndDegree(), plan=given)
                for given in (None, plan)
            )
            assert replayed.plan is plan
            assert replayed.contact_events is plan.contact_events
            assert log_text(replayed) == log_text(fresh)
            assert replayed.deliveries  # the replay carried traffic

    def test_a_plan_for_another_seed_or_spec_is_refused(self):
        spec = desk_scenario(4, 4, duration_s=60.0)
        plan = contact_plan(spec, 1)
        with pytest.raises(ValueError, match="contact plan of P4_C4 seed 1 does not fit"):
            Simulation(spec, SprayAndWaitRouter(), 2, plan=plan)
        for other in (
            with_regime(spec, "holiday" if spec.regime == "weekday" else "weekday"),
            replace(spec, duration_s=30.0),
        ):
            with pytest.raises(ValueError, match="does not fit"):
                run_simulation(other, "SprayAndWait", 1, plan=plan)
        assert Simulation(spec, SprayAndWaitRouter(), 1, plan=plan).run().plan is plan

    def test_plans_share_the_built_map_of_a_generated_kind(self, tmp_path):
        spec = replace(desk_scenario(12, 12, duration_s=600.0), **URBAN)
        graph = spec.validate()
        assert with_regime(spec, "holiday").validate() is graph
        graph._trees.clear()
        contact_plan(spec, 1)
        assert graph._trees  # the plan's walkers routed over this very graph
        # a map file is read on every call, so an edit to it is seen
        moved = static_pair_spec(tmp_path, 10.0)
        assert moved.validate().coords[1] == (10.0, 0.0)
        write_map(tmp_path, [(0.0, 0.0), (20.0, 0.0)], [(0, 1)])
        assert moved.validate().coords[1] == (20.0, 0.0)


def transitions_of(plan) -> dict:
    """The plan's (downs, ups) by tick, for each tick of the run with a transition."""
    return {k: (downs, ups) for k, downs, ups in plan.steps()}


def tick_by_tick_plan(spec: ScenarioSpec, seed: int):
    """The contact process the plan must equal: every walker advanced on
    every tick, then every pair measured; (transitions by tick, the pairs
    still linked after the last tick)."""
    graph = spec.validate()
    nodes = spec.roster()
    rng = random.Random(f"{seed}:mobility")
    hospitals = iter(spec.hospital_vertices)
    walks = {
        NodeClass.PEDESTRIAN: (spec.pedestrian_speed_ms, spec.pedestrian_pause_s),
        NodeClass.CAR: (tuple(v / 3.6 for v in spec.car_speed_kmh), spec.car_pause_s),
    }
    movers = []
    for node in nodes:
        if node.node_class in walks:
            speed, pause = walks[node.node_class]
            movers.append(
                Wanderer(
                    graph,
                    rng.randrange(graph.vertex_count),
                    speed,
                    pause,
                    spec.regime,
                    list(spec.hotspots),
                    rng,
                    spec.hotspot_bias,
                )
            )
        elif node.node_class is NodeClass.ACCIDENT:
            movers.append(FixedPost(graph, spec.accident_vertex))
        else:
            movers.append(FixedPost(graph, next(hospitals)))
    in_range = np.zeros((len(nodes), len(nodes)), dtype=bool)
    transitions = {}
    for k in range(1, round(spec.duration_s / spec.tick_s) + 1):
        for mover in movers:
            mover.advance(spec.tick_s)
        positions = np.array([mover.pos for mover in movers])
        in_range, ups, downs = link_transitions(positions, spec.range_m**2, in_range)
        if ups or downs:
            transitions[k] = (downs, ups)
    rows, cols = np.triu(in_range, 1).nonzero()  # row major, so in (i, j) order
    return transitions, list(zip(rows.tolist(), cols.tolist()))


def tiny_grid_spec(**overrides) -> ScenarioSpec:
    """A 6 x 6 grid of 1 m streets walked at exactly 2.5 m/s: a 0.1 s tick
    travels 0.25 m, so every fourth tick ends exactly on a vertex."""
    base = dict(
        name="tiny_grid",
        duration_s=60.0,
        pedestrians=6,
        cars=0,
        hospitals=2,
        map=MapSpec(kind="grid", rows=6, cols=6, spacing_m=1.0),
        range_m=1.0,  # the fixed posts sit exactly one range apart
        regime="holiday",
        hotspots=(),
        pedestrian_speed_ms=(2.5, 2.5),
        pedestrian_pause_s=(0.0, 3.0),
        accident_vertex=0,
        hospital_vertices=(1, 7),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


BLOCK_CASES = {
    # short edges and fast cars: one tick crosses several vertices
    "planar_fast_cars": replace(
        desk_scenario(6, 10, duration_s=120.0, name="fast"),
        map=MapSpec(kind="random_planar", n_vertices=80, extent_m=80.0, seed=4),
        hotspots=(1, 2, 3),
        hospital_vertices=(5, 6),
        car_speed_kmh=(300.0, 700.0),
        range_m=10.0,
    ),
    "no_pauses": replace(
        desk_scenario(8, 8, duration_s=300.0), pedestrian_pause_s=(0.0, 0.0)
    ),
    "exact_arrivals": tiny_grid_spec(),
    # pauses of 60-300 s and long glides: block boundaries fall inside both
    "urban_holiday": with_regime(
        replace(desk_scenario(12, 12, duration_s=900.0), **URBAN), "holiday"
    ),
    # the full-grid population: 170 nodes, a transition on most ticks
    "city_scale": with_regime(desk_scenario(90, 80, duration_s=60.0), "weekday"),
}


class TestBlockContactProcess:
    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_plan_equals_the_tick_by_tick_walk(self, name):
        spec = BLOCK_CASES[name]
        n_ticks = round(spec.duration_s / spec.tick_s)
        for seed in (1, 2):
            plan = contact_plan(spec, seed)
            transitions, linked_at_end = tick_by_tick_plan(spec, seed)
            assert transitions_of(plan) == transitions
            closing = plan.tick > n_ticks
            assert (plan.tick[closing] == n_ticks + 1).all() and not plan.up[closing].any()
            assert list(zip(plan.a[closing].tolist(), plan.b[closing].tolist())) == linked_at_end
            # the rows are in (tick, up, a, b) order, each pair with a < b
            order = np.lexsort((plan.b, plan.a, plan.up, plan.tick))
            assert (order == np.arange(len(plan.tick))).all()
            assert (plan.a < plan.b).all()

    def test_exact_arrivals_and_boundary_distance_are_exercised(self):
        assert 2.5 * 0.1 == 0.25 and 1.0 - 0.25 - 0.25 - 0.25 == 0.25
        plan = contact_plan(tiny_grid_spec(), 1)
        # a0 (vertex 0), h0 (vertex 1) and h1 (vertex 7) stand still; a0-h0 and
        # h0-h1 are exactly range_m apart, a0-h1 is farther, all from tick 1
        transitions = transitions_of(plan)
        downs, ups = transitions[1]
        a0, h0, h1 = 6, 7, 8
        assert (a0, h0) in ups and (h0, h1) in ups and (a0, h1) not in ups
        assert all((a0, h0) not in d and (h0, h1) not in d for d, _ in transitions.values())

    def test_contact_plan_memory_stays_one_block(self):
        spec = desk_scenario(4, 4, duration_s=7200.0)
        contact_plan(spec, 1)  # warm the per-N pair cache and the imports
        tracemalloc.start()
        try:
            contact_plan(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # positions for the whole run would add about 12.7 MB here
        assert peak < 3_000_000


def c01_scenarios():
    """The (spec, seed) pairs of acceptance criterion c01."""
    rng = random.Random(101)
    for _ in range(20):
        p, c = rng.randint(3, 7), rng.randint(3, 7)
        regime = rng.choice(("weekday", "holiday"))
        rng.choice(("SprayAndWait", "RandomRouter", "Epidemic"))
        seed = rng.randint(1, 10_000)
        duration = rng.choice((300.0, 450.0, 600.0))
        yield with_regime(desk_scenario(p, c, duration_s=duration), regime), seed


class TestContactLog:
    """The contact log is rendered from the plan's node indices; it must
    equal, byte for byte, the frozen renderer over the plan's ContactEvents."""

    @pytest.mark.parametrize(
        "cases",
        [
            pytest.param(lambda: list(c01_scenarios()), id="c01"),
            pytest.param(
                lambda: [(spec, seed) for spec in BLOCK_CASES.values() for seed in (1, 2)],
                id="block_cases",
            ),
            pytest.param(
                lambda: [
                    (with_regime(desk_scenario(70, 70, duration_s=600.0), regime), seed)
                    for regime in ("weekday", "holiday")
                    for seed in (1, 2)
                ],
                id="desk_P70_C70",
            ),
        ],
    )
    def test_rendering_equals_the_reference_renderer(self, cases):
        closing = 0
        for spec, seed in cases():
            plan = contact_plan(spec, seed)
            assert contact_log_lines(plan) == reference_contact_log_lines(plan.contact_events)
            closing += int((plan.tick > round(spec.duration_s / spec.tick_s)).sum())
        assert closing > 0  # links still up at the end were rendered too

    def test_a_run_and_its_write_build_no_contact_event(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ContactEvent was built")

        spec = desk_scenario(10, 10, duration_s=600.0)
        monkeypatch.setattr(simcore, "ContactEvent", refuse)
        out = run_simulation(spec, "SprayAndWait", 1)
        write_run(tmp_path, out, spec)
        assert "contact_events" not in vars(out.plan)
        assert (tmp_path / LOG_FILES["contacts"]).read_text().count("\n") > 0
        monkeypatch.undo()
        assert out.contact_events is out.plan.contact_events  # built once, then kept

    def test_plan_memory_per_simulated_hour(self):
        spec = desk_scenario(70, 70, duration_s=600.0)
        contact_plan(spec, 1)  # warm the map's path trees and the per-N pair cache
        tracemalloc.start()
        try:
            plan = contact_plan(spec, 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan.tick)
        # 5.17 MB per hour measured (33797 transitions and 399 closing downs
        # in 600 s, as four columns); the plan that kept each tick's
        # transitions as lists of tuples measured 22.96 MB, and the one that
        # also held its ContactEvents 38.6 MB
        assert held * 3600.0 / spec.duration_s < 8_000_000


# ------------------------------------------------------------ decision cache


class TestDecisionCacheInARun:
    def test_long_run_stays_bounded_with_unchanged_decisions(self):
        class NeverPrunes(DecisionCache):
            def put(self, peer, query, now, label, prob):
                self._entries[self._key(peer, query)] = (now, label, prob)

        class ByDegree:
            def decide(self, features):
                return int(features["degree"] >= 3.0), features["degree"] / 40.0

        spec = replace(desk_scenario(12, 12, duration_s=2400.0), **URBAN)
        runs = {}
        for cache in (DecisionCache(ttl_s=120.0), NeverPrunes(ttl_s=120.0)):
            peak = 0
            put = cache.put

            def tracked_put(*args, put=put, cache=cache):
                nonlocal peak
                put(*args)
                peak = max(peak, len(cache))

            cache.put = tracked_put
            out = run_simulation(spec, MlGatedRouter(ByDegree(), cache), seed=11)
            runs[type(cache)] = (cache, peak, log_text(out))
        pruned, pruned_peak, pruned_logs = runs[DecisionCache]
        kept, kept_peak, kept_logs = runs[NeverPrunes]
        assert (pruned.hits, pruned.misses) == (kept.hits, kept.misses)
        assert pruned.hits > 20
        assert pruned_logs == kept_logs
        assert kept_peak > 100
        assert pruned_peak < kept_peak / 3


# ------------------------------------------------------------ event stepping


class TestFirstTick:
    @pytest.mark.parametrize("tick_s", [0.1, 0.03, 0.07, 1.0])
    def test_equals_the_first_tick_whose_time_reaches_t(self, tick_s):
        n_ticks = 400
        times = [round(k * tick_s, 4) for k in range(n_ticks + 2)]
        rng = random.Random(str(tick_s))
        probes = times[1:] + [round(rng.uniform(0.0, times[-1]), 4) for _ in range(300)]
        probes += [t + 1e-9 for t in times[1:-1]] + [t - 1e-9 for t in times[1:]]
        for t in probes:
            want = next(k for k in range(1, n_ticks + 2) if times[k] >= t)
            assert first_tick(t, tick_s) == want, t

    def test_grid_times_map_to_their_own_tick(self):
        for k in (1, 2, 3, 7, 10, 333, 1000, 35999, 36000):
            assert first_tick(round(k * 0.1, 4), 0.1) == k
            assert first_tick(round(k * 0.03, 4), 0.03) == k

    def test_off_grid_times_map_to_the_next_tick(self):
        assert first_tick(0.31, 0.1) == 4
        assert first_tick(27.3456, 0.1) == 274
        assert first_tick(27.3456, 0.03) == 912  # 27.36; tick 911 is 27.33
        assert first_tick(1200.0001, 0.1) == 12001

    def test_times_up_to_one_tick_map_to_the_first(self):
        for t in (-5.0, 0.0, 1e-9, 0.05, 0.1):
            assert first_tick(t, 0.1) == 1
        assert first_tick(0.1000001, 0.1) == 2

    def test_times_past_the_end_map_past_the_last_tick(self):
        spec = desk_scenario(4, 4, duration_s=60.0)
        n_ticks = round(spec.duration_s / spec.tick_s)
        assert first_tick(spec.duration_s, spec.tick_s) == n_ticks
        assert first_tick(spec.duration_s + 0.01, spec.tick_s) == n_ticks + 1
        assert first_tick(spec.duration_s + 1e6, spec.tick_s) > n_ticks


class FlakyByDegree:
    """Stub predictor that gates on the degree and fails every third call."""

    def __init__(self) -> None:
        self.calls = 0

    def decide(self, features):
        self.calls += 1
        if self.calls % 3 == 0:
            raise PredictorUnavailableError("dropped")
        return int(features["degree"] >= 2.0), features["degree"] / 40.0


class CountingCuts(Simulation):
    """The engine, counting the transfers a link down or an expiry cuts short."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cut = {"link down": 0, "expiry": 0}

    def _link_down(self, i: int, j: int, now: float) -> None:
        self.cut["link down"] += self.sessions[(i, j)].transfer is not None
        super()._link_down(i, j, now)

    def _expire(self, now: float) -> None:
        in_flight = len(self._transferring)
        super()._expire(now)
        self.cut["expiry"] += in_flight - len(self._transferring)


ROUTERS = ("SprayAndWait", "RandomRouter", "Epidemic", "MLPBasedRouter")


def stepped_and_per_tick(spec: ScenarioSpec, seed: int):
    """Each router's (event-stepped run, its cuts, per-tick run), in audit mode."""
    plan = contact_plan(spec, seed)
    for router in ROUTERS:
        sim = CountingCuts(
            spec, build_router(router, seed, FlakyByDegree()), seed, audit=True, plan=plan
        )
        stepped = sim.run()
        reference = run_per_tick(spec, router, seed, FlakyByDegree(), audit=True, plan=plan)
        yield stepped, sim.cut, reference


def assert_same_run(stepped, reference) -> None:
    assert log_text(stepped) == log_text(reference)
    assert stepped.eligible_encounters == reference.eligible_encounters
    assert stepped.fallbacks == reference.fallbacks
    assert stepped.audit.copy_peaks == reference.audit.copy_peaks
    assert stepped.audit.violations == reference.audit.violations == []


class TestEventStepping:
    """The engine visits only the ticks that can act; each case must equal
    the frozen per-tick loop in every log, counter and audit record."""

    def test_acceptance_scenarios_with_every_router(self):
        rng = random.Random(101)  # the scenarios of acceptance criterion c01
        fallbacks = 0
        for _ in range(20):
            p, c = rng.randint(3, 7), rng.randint(3, 7)
            regime = rng.choice(("weekday", "holiday"))
            rng.choice(("SprayAndWait", "RandomRouter", "Epidemic"))
            seed = rng.randint(1, 10_000)
            duration = rng.choice((300.0, 450.0, 600.0))
            spec = with_regime(desk_scenario(p, c, duration_s=duration), regime)
            for stepped, _, reference in stepped_and_per_tick(spec, seed):
                assert_same_run(stepped, reference)
                fallbacks += stepped.fallbacks
        assert fallbacks > 0  # the flaky predictor's fallbacks were compared too

    def test_long_transfers_cut_by_link_downs(self):
        spec = desk_scenario(20, 20, duration_s=900.0)  # the default 2 Mbps
        cuts = deliveries = 0
        for stepped, cut, reference in stepped_and_per_tick(spec, 6):
            assert_same_run(stepped, reference)
            cuts += cut["link down"]
            deliveries += len(stepped.deliveries)
        assert cuts > 0 and deliveries > 0

    def test_ticks_off_the_arrival_and_expiry_grid(self):
        spec = replace(
            desk_scenario(20, 20, duration_s=600.0), tick_s=0.03, ttl_s=150.0
        )
        cuts = {"link down": 0, "expiry": 0}
        for stepped, cut, reference in stepped_and_per_tick(spec, 3):
            assert_same_run(stepped, reference)
            for reason in cuts:
                cuts[reason] += cut[reason]
            due = [m.created_at for m in stepped.messages]
            due += [m.created_at + m.ttl_s for m in stepped.messages]
            # arrival and expiry times that no tick's time equals
            assert sum(round(first_tick(t, 0.03) * 0.03, 4) != t for t in due) > 10
            assert any(r.reason == "expired" for r in stepped.residencies)
        assert cuts["link down"] > 0 and cuts["expiry"] > 0

    def test_an_expiry_with_nothing_else_due_is_visited(self, tmp_path):
        # no link ever comes up, and the last message expires after the last
        # arrival, between two ticks, so only its expiry brings the engine there
        spec = static_pair_spec(tmp_path, 500.0, duration_s=100.0, ttl_s=5.05)
        for stepped, _, reference in stepped_and_per_tick(spec, 1):
            assert_same_run(stepped, reference)
            assert not len(stepped.plan.tick) and not list(stepped.plan.steps())
            assert [(r.time, r.reason) for r in stepped.residencies] == [
                (35.05, "expired"),
                (65.05, "expired"),
                (95.05, "expired"),
            ]

    def test_an_infinite_ttl_is_refused(self):
        # no tick would reach it, and the first delivery's remainingTtl
        # (whole minutes left) could not be computed
        spec = replace(desk_scenario(4, 4, duration_s=300.0), ttl_s=math.inf)
        for run in (run_simulation, run_per_tick):
            with pytest.raises(ConfigurationError, match="^traffic.ttl_s must be finite$"):
                run(spec, "SprayAndWait", 1)


# ------------------------------------------------------------ traffic source


class TestTrafficSource:
    def make(self, seed="1:traffic"):
        return TrafficSource(
            (25.0, 35.0),
            (500_000, 1_000_000),
            18_000.0,
            A0,
            [H0, H1],
            random.Random(seed),
        )

    def test_interarrival_statistics(self):
        src = self.make()
        msgs = src.poll(100_000.0)
        gaps = [
            b.created_at - a.created_at for a, b in zip(msgs, msgs[1:])
        ]
        assert all(25.0 <= g <= 35.0 for g in gaps)
        mean = sum(gaps) / len(gaps)
        assert 29.5 <= mean <= 30.5
        assert abs(len(msgs) - 100_000 / 30) < 0.05 * (100_000 / 30)

    def test_ids_sizes_and_destinations(self):
        src = self.make()
        msgs = src.poll(10_000.0)
        assert [m.id for m in msgs] == [f"AC{i}" for i in range(len(msgs))]
        assert all(500_000 <= m.size <= 1_000_000 for m in msgs)
        assert {m.dest for m in msgs} == {H0, H1}
        assert all(m.source == A0 for m in msgs)

    def test_incremental_polling_never_repeats(self):
        src = self.make()
        first = src.poll(500.0)
        second = src.poll(1_000.0)
        whole = self.make().poll(1_000.0)
        assert [m.id for m in first + second] == [m.id for m in whole]
        assert all(m.created_at <= 500.0 for m in first)
        assert all(500.0 < m.created_at <= 1_000.0 for m in second)

    def test_next_at_is_the_next_messages_creation_time(self):
        src = self.make()
        for _ in range(5):
            due = src.next_at
            assert src.poll(round(due - 0.0001, 4)) == []
            [message] = src.poll(due)
            assert message.created_at == due
