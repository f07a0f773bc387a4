"""Protocol decision logic, feature assembly, and the decision cache."""

from __future__ import annotations

import random

import pytest

from dtnlab.nodes import NodeId
from dtnlab.routing import (
    COPY,
    DELIVER,
    FEATURE_NAMES,
    SPLIT,
    Action,
    DecisionCache,
    Encounter,
    EpidemicRouter,
    Message,
    MlGatedRouter,
    NodeStats,
    PredictorUnavailableError,
    RandomRouter,
    RelayQuery,
    Replica,
    SprayAndWaitRouter,
    online_features,
)

P1 = NodeId.parse("p1")
C0 = NodeId.parse("c0")
H0 = NodeId.parse("h0")
H1 = NodeId.parse("h1")
A0 = NodeId.parse("a0")


def replica(mid: str, dest: NodeId, copies: int) -> Replica:
    message = Message(mid, 1000, A0, dest, created_at=0.0, ttl_s=600.0)
    return Replica(message, copies, arrived_at=0.0, path=(A0,))


def query(**overrides) -> RelayQuery:
    values = dict.fromkeys(FEATURE_NAMES, 0.0)
    values.update(overrides)
    return RelayQuery(**values)


def encounter(replicas, peer=C0, peer_relays=True, now=100.0, peer_query=None):
    if peer_query is None:
        peer_query = lambda: query()
    return Encounter(
        now=now,
        peer_id=peer,
        replicas=list(replicas),
        peer_relays=peer_relays,
        peer_query=peer_query,
    )


class ConstantPredictor:
    def __init__(self, label: int, prob: float = 0.9):
        self.label = label
        self.prob = prob
        self.calls = []

    def decide(self, features):
        self.calls.append(dict(features))
        return self.label, self.prob


class DownPredictor:
    def __init__(self):
        self.calls = 0

    def decide(self, features):
        self.calls += 1
        raise PredictorUnavailableError("no route to predictor")


# ------------------------------------------------------------ spray and wait


class TestSprayAndWait:
    def test_splits_while_copies_remain(self):
        router = SprayAndWaitRouter()
        enc = encounter([replica("AC0", H0, copies=8)])
        assert router.on_contact(enc) == [Action("AC0", SPLIT)]

    def test_wait_phase_holds_single_copy(self):
        router = SprayAndWaitRouter()
        enc = encounter([replica("AC0", H0, copies=1)])
        assert router.on_contact(enc) == []

    def test_wait_phase_still_delivers_to_destination(self):
        router = SprayAndWaitRouter()
        enc = encounter([replica("AC0", H0, copies=1)], peer=H0)
        actions = router.on_contact(enc)
        assert [(a.message_id, a.kind) for a in actions] == [("AC0", DELIVER)]

    def test_delivery_ignores_peer_relay_flag(self):
        # hospitals never relay but always accept their own traffic
        router = SprayAndWaitRouter()
        enc = encounter([replica("AC0", H0, copies=4)], peer=H0, peer_relays=False)
        actions = router.on_contact(enc)
        assert [(a.message_id, a.kind) for a in actions] == [("AC0", DELIVER)]

    def test_no_split_toward_non_relaying_peer(self):
        router = SprayAndWaitRouter()
        enc = encounter([replica("AC0", H0, copies=4)], peer=H1, peer_relays=False)
        assert router.on_contact(enc) == []

    def test_deliveries_queue_ahead_of_splits(self):
        router = SprayAndWaitRouter()
        enc = encounter(
            [replica("AC0", H1, copies=4), replica("AC1", H0, copies=4)],
            peer=H0,
        )
        # h0 relays nothing in practice, but the ordering contract is the
        # router's own: destination traffic first, then relay candidates
        actions = router.on_contact(enc)
        assert [(a.message_id, a.kind) for a in actions] == [
            ("AC1", DELIVER),
            ("AC0", SPLIT),
        ]

    def test_mixed_copy_counts_split_only_above_one(self):
        router = SprayAndWaitRouter()
        enc = encounter(
            [
                replica("AC0", H0, copies=1),
                replica("AC1", H0, copies=2),
                replica("AC2", H1, copies=10),
            ]
        )
        actions = router.on_contact(enc)
        assert [(a.message_id, a.kind) for a in actions] == [
            ("AC1", SPLIT),
            ("AC2", SPLIT),
        ]


class TestEpidemic:
    def test_single_copy_is_no_obstacle(self):
        # epidemic has no budget; the copies field is just along for the ride
        router = EpidemicRouter()
        enc = encounter([replica("AC0", H0, copies=1)])
        assert [a.kind for a in router.on_contact(enc)] == [COPY]

    def test_delivers_first(self):
        router = EpidemicRouter()
        enc = encounter(
            [replica("AC0", H1, copies=1), replica("AC1", H0, copies=1)],
            peer=H0,
        )
        actions = router.on_contact(enc)
        assert [(a.message_id, a.kind) for a in actions] == [
            ("AC1", DELIVER),
            ("AC0", COPY),
        ]


class TestRandomRouter:
    def test_forward_rate_is_a_fair_coin(self):
        router = RandomRouter(random.Random("7:router"))
        forwarded = 0
        trials = 10_000
        for _ in range(trials):
            enc = encounter([replica("AC0", H0, copies=4)])
            forwarded += len(router.on_contact(enc))
        assert 0.48 <= forwarded / trials <= 0.52

    def test_coin_is_per_message(self):
        router = RandomRouter(random.Random("11:router"))
        sizes = set()
        for _ in range(200):
            enc = encounter(
                [replica("AC0", H0, copies=4), replica("AC1", H0, copies=4)]
            )
            sizes.add(len(router.on_contact(enc)))
        # independent coins produce 0, 1, and 2 forwards across 200 tries
        assert sizes == {0, 1, 2}

    def test_delivery_is_never_subject_to_the_coin(self):
        router = RandomRouter(random.Random("13:router"))
        for _ in range(50):
            enc = encounter([replica("AC0", H0, copies=1)], peer=H0)
            assert [a.kind for a in router.on_contact(enc)] == [DELIVER]


# ------------------------------------------------------------------ ml gating


class TestMlGatedRouter:
    def random_encounters(self, seed, n=300):
        rng = random.Random(seed)
        out = []
        for k in range(n):
            replicas = [
                replica(
                    f"AC{k}_{m}",
                    rng.choice([H0, H1]),
                    copies=rng.choice([1, 2, 4, 10]),
                )
                for m in range(rng.randrange(4))
            ]
            peer = rng.choice([P1, C0, H0])
            # what the summary-vector exchange leaves when the peer holds a fifth
            offered = [r for r in replicas if rng.random() >= 0.2]
            out.append(
                encounter(
                    offered,
                    peer=peer,
                    peer_relays=peer is not H0,
                    now=float(k),
                    peer_query=lambda k=k: query(contact_freq=float(k)),
                )
            )
        return out

    def test_always_yes_predictor_matches_plain_spray(self):
        gated = MlGatedRouter(ConstantPredictor(1))
        plain = SprayAndWaitRouter()
        for enc in self.random_encounters(seed=3):
            assert gated.on_contact(enc) == plain.on_contact(enc)

    def test_always_no_predictor_reduces_to_direct_delivery(self):
        router = MlGatedRouter(ConstantPredictor(0))
        enc = encounter([replica("AC0", H0, copies=8)])
        assert router.on_contact(enc) == []
        enc = encounter([replica("AC0", H0, copies=8)], peer=H0)
        assert [a.kind for a in router.on_contact(enc)] == [DELIVER]

    def test_gate_judges_the_peer_not_the_message(self):
        class DegreeGate:
            def decide(self, features):
                return (1 if features["degree"] >= 3 else 0, 0.5)

        router = MlGatedRouter(DegreeGate())
        replicas = [
            replica("AC0", H0, copies=4),
            replica("AC1", H1, copies=4),
        ]
        busy = encounter(replicas, peer_query=lambda: query(degree=5.0))
        quiet = encounter(
            replicas, peer=P1, peer_query=lambda: query(degree=1.0), now=900.0
        )
        assert [a.kind for a in router.on_contact(busy)] == [SPLIT, SPLIT]
        assert router.on_contact(quiet) == []

    def test_destination_is_never_scored(self):
        def explode():
            raise AssertionError("queried features for a pure delivery")

        router = MlGatedRouter(ConstantPredictor(1))
        enc = encounter(
            [replica("AC0", H0, copies=1)], peer=H0, peer_query=explode
        )
        assert [a.kind for a in router.on_contact(enc)] == [DELIVER]
        assert router.predictor.calls == []
        assert router.eligible_encounters == 0

    def test_unreachable_predictor_falls_back_to_spray(self):
        down = DownPredictor()
        gated = MlGatedRouter(down)
        plain = SprayAndWaitRouter()
        encounters = self.random_encounters(seed=9)
        gated_actions = [gated.on_contact(e) for e in encounters]
        plain_actions = [plain.on_contact(e) for e in encounters]
        assert gated_actions == plain_actions
        assert gated.fallbacks == gated.eligible_encounters == down.calls
        assert gated.fallbacks > 0

    def test_cache_suppresses_repeat_predictions(self):
        predictor = ConstantPredictor(1)
        router = MlGatedRouter(predictor)
        features = lambda: query(degree=2.0)
        enc1 = encounter(
            [replica("AC0", H0, copies=4)], now=10.0, peer_query=features
        )
        enc2 = encounter(
            [replica("AC1", H0, copies=4)], now=20.0, peer_query=features
        )
        router.on_contact(enc1)
        router.on_contact(enc2)
        assert len(predictor.calls) == 1
        assert router.eligible_encounters == 1

    def test_cache_expires_after_its_ttl(self):
        predictor = ConstantPredictor(1)
        router = MlGatedRouter(predictor, cache=DecisionCache(ttl_s=300.0))
        features = lambda: query(degree=2.0)
        make = lambda now: encounter(
            [replica("AC0", H0, copies=4)], now=now, peer_query=features
        )
        router.on_contact(make(10.0))
        router.on_contact(make(310.0))  # exactly ttl old; still fresh
        assert len(predictor.calls) == 1
        router.on_contact(make(310.1))
        assert len(predictor.calls) == 2

    def test_cache_is_per_peer(self):
        predictor = ConstantPredictor(1)
        router = MlGatedRouter(predictor)
        features = lambda: query(degree=2.0)
        router.on_contact(
            encounter([replica("AC0", H0, 4)], peer=C0, peer_query=features)
        )
        router.on_contact(
            encounter([replica("AC0", H0, 4)], peer=P1, peer_query=features)
        )
        assert len(predictor.calls) == 2


class TestDecisionCache:
    def test_quantization_merges_nearby_queries(self):
        cache = DecisionCache(ttl_s=300.0, decimals=3)
        cache.put(C0, query(degree=2.00004), now=0.0, label=1, prob=0.8)
        assert cache.get(C0, query(degree=2.00009), now=1.0) == (1, 0.8)
        assert cache.get(C0, query(degree=2.001), now=1.0) is None

    def test_hit_and_miss_counters(self):
        cache = DecisionCache(ttl_s=10.0)
        q = query(contact_freq=1.0)
        assert cache.get(C0, q, now=0.0) is None
        cache.put(C0, q, now=0.0, label=0, prob=0.2)
        assert cache.get(C0, q, now=5.0) == (0, 0.2)
        assert cache.get(C0, q, now=10.0) == (0, 0.2)
        assert cache.get(C0, q, now=10.5) is None
        assert (cache.hits, cache.misses) == (2, 2)

    def test_len_counts_distinct_keys(self):
        cache = DecisionCache()
        cache.put(C0, query(degree=1.0), 0.0, 1, 0.9)
        cache.put(C0, query(degree=1.0), 5.0, 0, 0.1)  # overwrite
        cache.put(P1, query(degree=1.0), 0.0, 1, 0.9)
        assert len(cache) == 2

    def test_put_drops_expired_entries(self):
        cache = DecisionCache(ttl_s=10.0)
        cache.put(C0, query(degree=1.0), 0.0, 1, 0.9)
        cache.put(P1, query(degree=1.0), 5.0, 1, 0.9)
        cache.put(C0, query(degree=2.0), 10.5, 0, 0.1)  # C0@0 is past its ttl
        assert len(cache) == 2
        assert cache.get(P1, query(degree=1.0), 15.0) == (1, 0.9)
        cache.put(C0, query(degree=3.0), 15.0, 0, 0.1)  # pruned 4.5 s ago: kept
        assert len(cache) == 3


# ------------------------------------------------------------ online features


class TestOnlineFeatures:
    def test_never_met_peer_scores_zero_with_median_fallbacks(self):
        q = online_features(0, 0.0, 0, NodeStats(), medians=(2.5, 1400.0))
        assert q.as_dict() == {
            "contact_freq": 0.0,
            "degree": 0.0,
            "avg_contact_duration": 0.0,
            "avg_hop_count": 2.5,
            "avg_delivery_time": 1400.0,
            "as_relay_count": 0.0,
            "as_destination_count": 0.0,
        }

    def test_contact_features_come_from_the_observer(self):
        stats = NodeStats()
        stats.record_relayed_delivery(4, 1200.0)
        stats.record_relayed_delivery(2, 800.0)
        stats.as_dest = 1
        # two completed contacts of 10 s and 20 s; the peer met two partners
        q = online_features(2, 10.0 + 20.0, 2, stats, medians=(0.0, 0.0))
        assert q.contact_freq == 2.0
        assert q.avg_contact_duration == 15.0
        assert q.degree == 2.0
        assert q.as_relay_count == 2.0
        assert q.avg_hop_count == 3.0
        assert q.avg_delivery_time == 1000.0
        assert q.as_destination_count == 1.0

    def test_first_meeting_still_carries_the_handshake_counters(self):
        # no completed pairwise contacts yet, but the peer's own counters
        # arrived with the current contact's summary vector
        stats = NodeStats()
        stats.record_relayed_delivery(4, 1200.0)
        q = online_features(0, 0.0, 2, stats, medians=(9.0, 9.0))
        assert q.contact_freq == 0.0
        assert q.avg_contact_duration == 0.0
        assert q.degree == 2.0
        assert q.as_relay_count == 1.0
        assert q.avg_hop_count == 4.0
        assert q.avg_delivery_time == 1200.0

    def test_peer_without_deliveries_borrows_the_medians(self):
        q = online_features(1, 30.0, 1, NodeStats(), medians=(3.0, 1500.0))
        assert q.avg_hop_count == 3.0
        assert q.avg_delivery_time == 1500.0
        assert q.contact_freq == 1.0

    def test_feature_order_is_stable(self):
        q = query(contact_freq=1.0, as_destination_count=7.0)
        assert q.quantized() == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0)
        assert tuple(q.as_dict()) == FEATURE_NAMES


class TestNodeStats:
    def test_delivery_averages_of_relayed_messages(self):
        stats = NodeStats()
        assert stats.h_avg is None and stats.t_delay is None
        stats.record_relayed_delivery(5, 1780.1)
        stats.record_relayed_delivery(3, 219.9)
        assert stats.h_avg == 4.0
        assert stats.t_delay == pytest.approx(1000.0)
        assert stats.relayed_delivered == 2
