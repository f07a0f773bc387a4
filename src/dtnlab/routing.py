"""Forwarding protocols and the online relay-quality machinery.

All four protocols share the spray-and-wait skeleton of per-encounter
decisions over the sender's buffered replicas:

* Epidemic: replicate everything the peer lacks, no copy budget.
* SprayAndWait: binary budget; relay while copies > 1, wait at copies == 1,
  hand over to the destination unconditionally.
* RandomRouter: spray-and-wait with the relay decision replaced by a fair
  coin per eligible (message, encounter) pair.
* MLPBasedRouter: spray-and-wait with the relay decision gated by a binary
  classifier judging the peer; the destination is never gated.  When the
  predictor cannot be reached the router falls back to the plain spray
  decision and counts the event.

Peer statistics travel in the summary-vector handshake.  An observer's view
of a peer combines its own completed-contact history with the peer's live
counters, read at the decision point of the current contact: the pairwise
contact features count only completed contacts with that peer, and a peer
that has not yet relayed a delivered message falls back to the shipped
training medians for the two delivery averages.
"""

from __future__ import annotations

import random
from collections.abc import Container
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Protocol

from .nodes import NodeId

DELIVER = "deliver"
SPLIT = "split"
COPY = "copy"


class PredictorUnavailableError(RuntimeError):
    """The relay-quality predictor could not answer: unreachable, too slow, or failing (5xx)."""


class RelayQuery(NamedTuple):
    """The seven per-node features, computed online for an encountered peer.

    The field order is the canonical feature order of datasets and models.
    """

    contact_freq: float
    degree: float
    avg_contact_duration: float
    avg_hop_count: float
    avg_delivery_time: float
    as_relay_count: float
    as_destination_count: float

    def as_dict(self) -> dict[str, float]:
        return self._asdict()

    def quantized(self, decimals: int = 3) -> tuple[float, ...]:
        return tuple(round(value, decimals) for value in self)


FEATURE_NAMES = RelayQuery._fields


class Predictor(Protocol):
    def decide(self, features: dict[str, float]) -> tuple[int, float]:
        """Return (label, probability) for one feature mapping."""


@dataclass
class NodeStats:
    """Counters a node maintains about itself while the run progresses.

    The engine keeps them live, with partners by node index; extract_features
    rebuilds them from the logs, with partners by node name.
    """

    contacts: int = 0
    partners: set[Hashable] = field(default_factory=set)
    contact_seconds: float = 0.0
    relayed_delivered: int = 0
    hop_sum: float = 0.0
    delay_sum: float = 0.0
    as_dest: int = 0

    @property
    def degree(self) -> int:
        return len(self.partners)

    @property
    def h_avg(self) -> float | None:
        """Mean hop count of the delivered messages this node relayed; None
        until it relayed one."""
        return self.hop_sum / self.relayed_delivered if self.relayed_delivered else None

    @property
    def t_delay(self) -> float | None:
        """Mean delay of the delivered messages this node relayed; None until
        it relayed one."""
        return self.delay_sum / self.relayed_delivered if self.relayed_delivered else None

    def record_contact(self, partner: Hashable, duration: float) -> None:
        self.contacts += 1
        self.partners.add(partner)
        self.contact_seconds += duration

    def record_relayed_delivery(self, hopcount: int, delay: float) -> None:
        self.relayed_delivered += 1
        self.hop_sum += hopcount
        self.delay_sum += delay


@dataclass
class PeerHistory:
    """What one node knows about one peer from completed contacts."""

    completed: int = 0
    duration_sum: float = 0.0

    def record(self, duration: float) -> None:
        self.completed += 1
        self.duration_sum += duration


def online_features(
    history: PeerHistory | None,
    peer: NodeStats,
    medians: tuple[float, float],
) -> RelayQuery:
    """Build the peer's feature vector from local history plus handshake data.

    The peer's own counters arrive in the summary-vector handshake of the
    current contact, so they are live even on a first meeting.  The two
    pairwise contact features still require completed contacts with this
    peer.  medians are the shipped training medians for (avg_hop_count,
    avg_delivery_time), used whenever the peer has no delivery record yet.
    """
    if history is not None and history.completed:
        freq = float(history.completed)
        avg_duration = history.duration_sum / history.completed
    else:
        freq = 0.0
        avg_duration = 0.0
    h_avg, t_delay = peer.h_avg, peer.t_delay
    return RelayQuery(
        contact_freq=freq,
        degree=float(peer.degree),
        avg_contact_duration=avg_duration,
        avg_hop_count=float(medians[0] if h_avg is None else h_avg),
        avg_delivery_time=float(medians[1] if t_delay is None else t_delay),
        as_relay_count=float(peer.relayed_delivered),
        as_destination_count=float(peer.as_dest),
    )


class DecisionCache:
    """Gate-decision memo keyed by peer and quantized features.

    Entries expire after ttl_s of simulated time and are never returned
    stale; `put` drops the expired ones, at most once per ttl_s, so a long
    run holds only recent entries.  Simulated time must not run backwards.
    Feature values are rounded to `decimals` places for the key so
    near-identical queries share one entry.
    """

    def __init__(self, ttl_s: float = 300.0, decimals: int = 3) -> None:
        self.ttl_s = ttl_s
        self.decimals = decimals
        self._entries: dict[tuple, tuple[float, int, float]] = {}
        self._pruned_at = 0.0
        self.hits = 0
        self.misses = 0

    def _key(self, peer: NodeId | str, query: RelayQuery) -> tuple:
        return (str(peer), query.quantized(self.decimals))

    def get(self, peer: NodeId | str, query: RelayQuery, now: float):
        entry = self._entries.get(self._key(peer, query))
        if entry is None:
            self.misses += 1
            return None
        cached_at, label, prob = entry
        if now - cached_at > self.ttl_s:
            self.misses += 1
            return None
        self.hits += 1
        return (label, prob)

    def put(
        self, peer: NodeId | str, query: RelayQuery, now: float, label: int, prob: float
    ) -> None:
        if now - self._pruned_at >= self.ttl_s:
            self._pruned_at = now
            self._entries = {
                key: entry
                for key, entry in self._entries.items()
                if now - entry[0] <= self.ttl_s
            }
        self._entries[self._key(peer, query)] = (now, label, prob)

    def __len__(self) -> int:
        return len(self._entries)


# ------------------------------------------------------------------ encounters


@dataclass(frozen=True)
class Message:
    id: str
    size: int  # bytes
    source: NodeId
    dest: NodeId
    created_at: float
    ttl_s: float


@dataclass
class Replica:
    message: Message
    copies: int
    arrived_at: float
    path: tuple[NodeId, ...]  # source first, current holder last


@dataclass(frozen=True)
class Action:
    message_id: str
    kind: str  # deliver | split | copy


@dataclass
class Encounter:
    """Everything a router may consult for one directed decision point."""

    now: float
    peer_id: NodeId
    replicas: list[Replica]  # the sender's undecided replicas, in buffer order
    peer_has: Container[str]  # message ids in the peer's buffer
    peer_delivered: Container[str]  # message ids delivered to the peer
    peer_relays: bool  # peer class may carry foreign messages
    peer_query: Callable[[], RelayQuery]


class Router:
    name = "base"

    def on_contact(self, enc: Encounter) -> list[Action]:
        raise NotImplementedError

    def _offerable(self, enc: Encounter) -> list[Replica]:
        return [
            r
            for r in enc.replicas
            if r.message.id not in enc.peer_has
            and r.message.id not in enc.peer_delivered
        ]

    @staticmethod
    def _dest_first(
        enc: Encounter, replicas: list[Replica]
    ) -> tuple[list[Replica], list[Replica]]:
        to_dest = [r for r in replicas if r.message.dest == enc.peer_id]
        rest = [r for r in replicas if r.message.dest != enc.peer_id]
        return to_dest, rest


class EpidemicRouter(Router):
    """Replicate every message the peer lacks; deliveries queue first."""

    name = "Epidemic"

    def on_contact(self, enc: Encounter) -> list[Action]:
        to_dest, rest = self._dest_first(enc, self._offerable(enc))
        actions = [Action(r.message.id, DELIVER) for r in to_dest]
        if enc.peer_relays:
            actions += [Action(r.message.id, COPY) for r in rest]
        return actions


class SprayAndWaitRouter(Router):
    """Binary spray: relay while copies > 1, direct delivery always."""

    name = "SprayAndWait"

    def relay_gate(self, enc: Encounter, eligible: list[Replica]) -> bool:
        return True

    def per_message_gate(self, enc: Encounter, replica: Replica) -> bool:
        return True

    def on_contact(self, enc: Encounter) -> list[Action]:
        to_dest, rest = self._dest_first(enc, self._offerable(enc))
        actions = [Action(r.message.id, DELIVER) for r in to_dest]
        eligible = [r for r in rest if r.copies > 1] if enc.peer_relays else []
        if eligible and self.relay_gate(enc, eligible):
            actions += [
                Action(r.message.id, SPLIT)
                for r in eligible
                if self.per_message_gate(enc, r)
            ]
        return actions


class RandomRouter(SprayAndWaitRouter):
    """Spray skeleton with a fair coin in place of the relay decision."""

    name = "RandomRouter"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def per_message_gate(self, enc: Encounter, replica: Replica) -> bool:
        return self.rng.random() < 0.5


class MlGatedRouter(SprayAndWaitRouter):
    """Spray skeleton that forwards only to peers the classifier accepts.

    One prediction per decision point covers every eligible replica, since
    the features describe the peer and not the message.  The cache is
    consulted first; a predictor failure falls back to the plain spray
    decision and bumps the fallback counter.
    """

    name = "MLPBasedRouter"

    def __init__(
        self,
        predictor: Predictor,
        cache: DecisionCache | None = None,
    ) -> None:
        self.predictor = predictor
        self.cache = cache if cache is not None else DecisionCache()
        self.eligible_encounters = 0  # decision points that needed a prediction
        self.fallbacks = 0  # of those, how many fell back to plain spray

    def relay_gate(self, enc: Encounter, eligible: list[Replica]) -> bool:
        query = enc.peer_query()
        cached = self.cache.get(enc.peer_id, query, enc.now)
        if cached is not None:
            return cached[0] == 1
        self.eligible_encounters += 1
        try:
            label, prob = self.predictor.decide(query.as_dict())
        except PredictorUnavailableError:
            self.fallbacks += 1
            return True  # plain spray forwards whenever copies allow
        self.cache.put(enc.peer_id, query, enc.now, label, prob)
        return label == 1


ROUTER_NAMES = ("SprayAndWait", "MLPBasedRouter", "RandomRouter", "Epidemic")
