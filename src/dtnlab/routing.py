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

The engine runs the summary-vector exchange before a router sees anything:
an encounter offers only the sender's undecided replicas that the peer
neither holds nor has been delivered, and the router is consulted only when
that set is not empty.  Routers judge the replicas they are given.

Peer statistics travel in the same handshake.  An observer's view of a peer
combines the contacts the two completed with each other and the peer's
degree, both counted from the contact plan up to the decision point, with
the peer's live delivery counters (NodeStats): the pairwise contact
features count only completed contacts with that peer, and a peer that has
not yet relayed a delivered message falls back to the shipped training
medians for the two delivery averages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol

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
    """The delivery counters of one node: the engine keeps them live, and
    extract_features rebuilds them from the delivered log.  Contact counts
    come from the contact plan (ContactPlan.contact_counters) and the
    contact log's columns instead.
    """

    relayed_delivered: int = 0
    hop_sum: float = 0.0
    delay_sum: float = 0.0
    as_dest: int = 0

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

    def record_relayed_delivery(self, hopcount: int, delay: float) -> None:
        self.relayed_delivered += 1
        self.hop_sum += hopcount
        self.delay_sum += delay


def online_features(
    completed: int,
    seconds: float,
    degree: int,
    peer: NodeStats,
    medians: tuple[float, float],
) -> RelayQuery:
    """Build the peer's feature vector from contact counts plus handshake data.

    completed and seconds are the contacts the observer and the peer have
    completed with each other and their total length, and degree the
    number of distinct partners the peer has completed a contact with, all
    up to the decision point.  The peer's delivery counters arrive in the
    summary-vector handshake of the current contact, so they are live even
    on a first meeting.  medians are the shipped training medians for
    (avg_hop_count, avg_delivery_time), used whenever the peer has no
    delivery record yet.
    """
    h_avg, t_delay = peer.h_avg, peer.t_delay
    return RelayQuery(
        contact_freq=float(completed),
        degree=float(degree),
        avg_contact_duration=seconds / completed if completed else 0.0,
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
    # the sender's undecided replicas that the peer neither holds nor has
    # been delivered, in buffer order; never empty
    replicas: list[Replica]
    peer_relays: bool  # peer class may carry foreign messages
    peer_query: Callable[[], RelayQuery]


class Router:
    name = "base"

    def on_contact(self, enc: Encounter) -> list[Action]:
        raise NotImplementedError

    @staticmethod
    def _dest_first(enc: Encounter) -> tuple[list[Replica], list[Replica]]:
        to_dest = [r for r in enc.replicas if r.message.dest == enc.peer_id]
        rest = [r for r in enc.replicas if r.message.dest != enc.peer_id]
        return to_dest, rest


class EpidemicRouter(Router):
    """Replicate every message the peer lacks; deliveries queue first."""

    name = "Epidemic"

    def on_contact(self, enc: Encounter) -> list[Action]:
        to_dest, rest = self._dest_first(enc)
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
        to_dest, rest = self._dest_first(enc)
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
