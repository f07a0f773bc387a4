"""Deterministic tick-driven store-carry-forward engine.

One run is a pure function of (scenario, router, seed).  The master seed
splits into independent mobility, traffic, and router streams, so swapping
the protocol never disturbs the contact process and runs of different
protocols over the same seed stay comparable.

The contact process comes first: `contact_plan` moves the walkers a block
of ticks at a time, measures over each block only the pairs that can be
linked in it, and reads the link transitions off the block's state flips.
The plan holds them as four columns (tick, a, b, up), a row per transition
in (tick, up, a, b) order, then the pairs still linked at the end as
closing downs.  The engine replays it through `ContactPlan.steps`,
`contact_log_lines` renders the contact log from the columns, and the plan
builds the same log as ContactEvents only when asked.  The plan reads no
engine state, so every protocol run over one (scenario, seed) replays the
same plan and writes the same contact log.

The engine visits only the ticks that can change its state.  Tick k has the
time round(k * tick_s, 4), and a visited tick processes, in this order:
transfer progress and completions, the plan's link down then up transitions,
TTL expiry, traffic generation, routing decisions, transfer starts.  While a
transfer is in flight the engine visits every tick, so each one takes its
bytes off in the same float steps.  Otherwise it jumps to the first of: the
plan's next tick with a transition, the first tick whose time reaches the
next message arrival, and the first whose time reaches the earliest expiry
(`first_tick`, the same `now >= t` test that generation and expiry apply).
Skipping the ticks between is exact: with nothing in flight, no transition,
no arrival and no expiry due, a tick neither starts nor moves anything (a
queued decision waits only on a transfer in flight), so the audit mode, which
checks every visited tick, sees every state the run passes through.

The engine keeps the keys of the open link sessions in one sorted list,
updated by bisection on link up and down, and every phase walks sessions in
key order and nodes by index; the transfer phases walk only the few sessions
with a transfer in flight or a queue waiting, sorted out of two key sets.
That sorted-key list is what pins the event order and makes logs
byte-identical across repeated runs.

Radio model: nodes are linked while their distance is at most the radio
range.  Transfers are half duplex, one per node at a time, at a fixed link
rate; a megabyte at 2 Mbps occupies exactly 4.0 s of link uptime.  Aborted
transfers are discarded whole.  Summary vectors (message ids, delivered ids,
peer counters) travel cost-free at decision time; each directed decision
about a message is made once per link session.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .mobility import Fleet, FixedPost, Wanderer
from .nodes import MOBILE_CLASSES, NodeClass, NodeId
from .reports import ContactEvent, DeliveryRecord, RelayEvent, ResidencyRecord
from .routing import (
    DELIVER,
    SPLIT,
    Action,
    Encounter,
    EpidemicRouter,
    Message,
    MlGatedRouter,
    NodeStats,
    PeerHistory,
    Predictor,
    RandomRouter,
    Replica,
    Router,
    SprayAndWaitRouter,
    online_features,
)
from .scenario import ScenarioSpec


class TrafficSource:
    """Accident-site message generator with uniform inter-arrival gaps."""

    def __init__(
        self,
        interval_s: tuple[float, float],
        size_bytes: tuple[int, int],
        ttl_s: float,
        source: NodeId,
        dests: list[NodeId],
        rng: random.Random,
    ) -> None:
        self.interval_s = interval_s
        self.size_bytes = size_bytes
        self.ttl_s = ttl_s
        self.source = source
        self.dests = dests
        self.rng = rng
        self.counter = 0
        # creation time of the next message; poll hands it out once now reaches it
        self.next_at = round(rng.uniform(*interval_s), 4)

    def poll(self, now: float) -> list[Message]:
        out = []
        while self.next_at <= now:
            dest = self.dests[self.rng.randrange(len(self.dests))]
            out.append(
                Message(
                    id=f"AC{self.counter}",
                    size=self.rng.randint(*self.size_bytes),
                    source=self.source,
                    dest=dest,
                    created_at=self.next_at,
                    ttl_s=self.ttl_s,
                )
            )
            self.counter += 1
            self.next_at = round(self.next_at + self.rng.uniform(*self.interval_s), 4)
        return out


def first_tick(t: float, tick_s: float) -> int:
    """The first tick k >= 1 whose time round(k * tick_s, 4) reaches t.

    This is the tick on which `now >= t` first holds, the test TrafficSource.poll
    and the engine's expiry apply; it may lie past the end of the run.
    """
    k = max(1, math.ceil(t / tick_s))
    while k > 1 and round((k - 1) * tick_s, 4) >= t:
        k -= 1
    while round(k * tick_s, 4) < t:
        k += 1
    return k


@lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and flat N x N index of every pair i < j, row major."""
    rows, cols = np.triu_indices(n, 1)
    pairs = (rows, cols, rows * n + cols)
    for index in pairs:
        index.setflags(write=False)  # shared by every caller with this N
    return pairs


def link_transitions(
    positions: np.ndarray,
    range2: float,
    prev_in_range: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[tuple[int, int]], list[tuple[int, int]]]:
    """Symmetric threshold links over pairwise distance; returns transitions.

    A pair is linked while squared distance is at most range2.  Only the
    given pairs (row, column and flat N x N index, i < j in row-major order;
    by default every upper-triangle pair) are measured and compared with
    prev_in_range; the returned N x N matrix is a copy of it updated at the
    changed pairs, or prev_in_range itself when no pair changed.  Transition
    pairs come back index-ordered (i < j, row major), which fixes the event
    order within a tick.
    """
    rows, cols, flat = _upper_pairs(len(positions)) if pairs is None else pairs
    x = positions[:, 0]
    y = positions[:, 1]
    dist2 = x.take(rows)
    dist2 -= x.take(cols)
    dist2 *= dist2
    dy = y.take(rows)
    dy -= y.take(cols)
    dy *= dy
    dist2 += dy
    linked = dist2 <= range2
    changed = (linked != prev_in_range.take(flat)).nonzero()[0]
    if not len(changed):
        return prev_in_range, [], []
    ci, cj, up = rows[changed], cols[changed], linked[changed]
    in_range = prev_in_range.copy()
    in_range[ci, cj] = up
    in_range[cj, ci] = up
    ups: list[tuple[int, int]] = []
    downs: list[tuple[int, int]] = []
    for i, j, is_up in zip(ci.tolist(), cj.tolist(), up.tolist()):
        (ups if is_up else downs).append((i, j))
    return in_range, ups, downs


# Ticks per block of the contact process.  Positions are held for one block
# at a time, and a pair is measured over a block only if its nodes can come
# within range in it.
BLOCK_TICKS = 100
# Added to the radio range in the per-block candidate test, against rounding.
CANDIDATE_SKIN_M = 1e-3


@dataclass(frozen=True, eq=False)  # array fields leave a generated __eq__ ambiguous
class ContactPlan:
    """The link transitions of one (scenario, seed), for any protocol to replay,
    as four columns with a row per transition: the tick (1 is the first), the
    node indices a < b of the pair, and whether it came up.  Rows are in (tick,
    up, a, b) order, so a tick's downs come before its ups; the pairs still
    linked after the last tick follow as downs at tick n_ticks + 1, stamped
    with the end of the run.  That is the contact log of every run that
    replays the plan: the engine reads it through steps(), contact_log_lines
    renders it, and contact_events builds it as ContactEvents, once, on first
    use."""

    spec: ScenarioSpec
    seed: int
    tick: np.ndarray
    a: np.ndarray
    b: np.ndarray
    up: np.ndarray

    def steps(self) -> Iterator[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]]:
        """(k, downs, ups) for each tick k of the run with a transition, the
        downs and ups as slices of one list of (a, b) pairs."""
        n_ticks = round(self.spec.duration_s / self.spec.tick_s)
        end = int(np.searchsorted(self.tick, n_ticks, "right"))  # the closing rows follow
        tick = self.tick[:end]
        starts = np.flatnonzero(np.diff(tick, prepend=0))  # each tick's first row
        splits = np.searchsorted(tick * 2 + self.up[:end], tick[starts] * 2 + 1)  # its first up
        pairs = list(zip(self.a[:end].tolist(), self.b[:end].tolist()))
        bounds = starts.tolist() + [end]
        for k, lo, mid, hi in zip(tick[starts].tolist(), bounds, splits.tolist(), bounds[1:]):
            yield k, pairs[lo:mid], pairs[mid:hi]

    def times(self) -> tuple[list[float], np.ndarray]:
        """The log time of each distinct tick, and each row's index into them.
        A tick's time is round(k * tick_s, 4) to two places; the closing rows
        take the end of the run."""
        ticks, row_time = np.unique(self.tick, return_inverse=True)
        tick_s, n_ticks = self.spec.tick_s, round(self.spec.duration_s / self.spec.tick_s)
        times = [
            round(round(k * tick_s, 4), 2) if k <= n_ticks else round(self.spec.duration_s, 2)
            for k in ticks.tolist()
        ]
        return times, row_time

    @cached_property
    def contact_events(self) -> list[ContactEvent]:
        nodes = self.spec.roster()
        times, row_time = self.times()
        rows = zip(row_time.tolist(), self.a.tolist(), self.b.tolist(), self.up.tolist())
        return [ContactEvent(times[t], nodes[a], nodes[b], up) for t, a, b, up in rows]


def contact_plan(spec: ScenarioSpec, seed: int) -> ContactPlan:
    """Walk the movers from the seed's mobility stream and record every link
    transition.

    Time goes in blocks of BLOCK_TICKS ticks.  The fleet fills one block of
    positions; a pair is a candidate in the block if it is linked at the
    block start or if the bounding boxes of its two nodes over the block come
    within range.  The candidates are measured over the whole block at once,
    and the block's transitions are read off where a candidate's state flips
    from one tick to the next, as (tick, pair, up) rows.  A block with a flip
    then calls link_transitions once, restricted to the candidates, on its
    last positions: that gives the links at the block end, from which the
    next block's candidate test starts.  One stable lexsort puts the rows and
    the closing downs in plan order.  The transitions are those of a
    tick-by-tick walk that measures every pair on every tick.
    """
    graph = spec.validate()
    nodes = spec.roster()
    rng = random.Random(f"{seed}:mobility")
    hospital_vertices = iter(spec.hospital_vertices)
    walks = {  # speed range in m/s and pause range per mobile class
        NodeClass.PEDESTRIAN: (spec.pedestrian_speed_ms, spec.pedestrian_pause_s),
        NodeClass.CAR: (tuple(v / 3.6 for v in spec.car_speed_kmh), spec.car_pause_s),
    }
    movers = []
    for node in nodes:
        if node.node_class in walks:
            speed_range, pause_range = walks[node.node_class]
            movers.append(
                Wanderer(
                    graph=graph,
                    vertex=rng.randrange(graph.vertex_count),
                    speed_range=speed_range,
                    pause_range=pause_range,
                    regime=spec.regime,
                    hotspots=list(spec.hotspots),
                    rng=rng,
                    hotspot_bias=spec.hotspot_bias,
                )
            )
        elif node.node_class is NodeClass.ACCIDENT:
            movers.append(FixedPost(graph, spec.accident_vertex))
        else:
            movers.append(FixedPost(graph, next(hospital_vertices)))
    # roster() lists the mobile classes first, so the walkers are nodes 0..m-1
    m = sum(node.node_class in MOBILE_CLASSES for node in nodes)
    fleet = Fleet(movers[:m], spec.tick_s)
    block = np.empty((BLOCK_TICKS, len(nodes), 2))
    block[:, m:] = [mover.pos for mover in movers[m:]]
    rows, cols, flat = _upper_pairs(len(nodes))
    in_range = np.zeros((len(nodes), len(nodes)), dtype=bool)
    range2 = spec.range_m * spec.range_m
    reach2 = (spec.range_m + CANDIDATE_SKIN_M) ** 2
    parts = []  # (tick, pair, up) columns of each block with a flip
    ticks = round(spec.duration_s / spec.tick_s)
    for first in range(1, ticks + 1, BLOCK_TICKS):
        here = block[: min(BLOCK_TICKS, ticks + 1 - first)]
        fleet.glide(here[:, :m])
        lo = here.min(axis=0)
        hi = here.max(axis=0)
        gap = np.maximum(lo.take(cols, axis=0) - hi.take(rows, axis=0), 0.0)
        np.maximum(gap, lo.take(rows, axis=0) - hi.take(cols, axis=0), out=gap)
        gap *= gap
        near = gap.sum(axis=1) <= reach2
        near |= in_range.take(flat)
        cand = near.nonzero()[0]
        if not len(cand):
            continue
        pairs = (rows[cand], cols[cand], flat[cand])
        x = here[:, :, 0]
        y = here[:, :, 1]
        dist2 = x[:, pairs[0]] - x[:, pairs[1]]
        dist2 *= dist2
        dy = y[:, pairs[0]] - y[:, pairs[1]]
        dy *= dy
        dist2 += dy
        linked = dist2 <= range2
        flips = np.empty_like(linked)
        flips[0] = linked[0] != in_range.take(pairs[2])
        np.not_equal(linked[1:], linked[:-1], out=flips[1:])
        ts, cs = flips.nonzero()  # row major: by tick, then by pair
        if not len(ts):
            continue
        in_range = link_transitions(here[-1], range2, in_range, pairs=pairs)[0]
        parts.append((ts + first, cand[cs], linked[ts, cs]))
    closing = in_range.take(flat).nonzero()[0]  # still linked: down at tick ticks + 1
    parts.append((np.full(len(closing), ticks + 1), closing, np.zeros(len(closing), bool)))
    tick, pair, up = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((pair, up, tick))  # stable: by tick, then up, then pair
    pair = pair[order]
    return ContactPlan(spec, seed, tick[order], rows[pair], cols[pair], up[order])


def contact_log_lines(plan: ContactPlan) -> list[str]:
    """The plan's contact log: a line per transition and per closing down, in
    (time, a, b) order with the nodes ranked by NodeId.sort_key.

    One stable lexsort on (time, rank(a) * N + rank(b)) gives that order;
    each node's name and each tick's time stamp is formatted once."""
    nodes = plan.spec.roster()
    names = [str(node) for node in nodes]
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[sorted(range(len(nodes)), key=lambda i: nodes[i].sort_key)] = np.arange(len(nodes))
    times, row_time = plan.times()
    # by time, not tick: the closing downs share a stamp with the last tick
    order = np.lexsort((rank[plan.a] * len(nodes) + rank[plan.b], np.array(times)[row_time]))
    stamps = [f"@{time:.2f}" for time in times]
    states = ("down", "up")
    rows = zip(*(column[order].tolist() for column in (row_time, plan.a, plan.b, plan.up)))
    return [f"{stamps[t]} {names[a]} <-> {names[b]} {states[u]}" for t, a, b, u in rows]


class NodeBuffer:
    """FIFO message store; oldest non-transferring replica evicts first."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: dict[str, Replica] = {}
        self.used = 0

    def has(self, message_id: str) -> bool:
        return message_id in self.entries

    def get(self, message_id: str) -> Replica | None:
        return self.entries.get(message_id)

    def admit(
        self, replica: Replica, exempt: frozenset[str] = frozenset()
    ) -> tuple[bool, list[Replica]]:
        """Make room and insert; returns (admitted, evicted replicas)."""
        size = replica.message.size
        if size > self.capacity:
            return False, []
        free = self.capacity - self.used
        reclaimable = sum(
            r.message.size for mid, r in self.entries.items() if mid not in exempt
        )
        if free + reclaimable < size:
            return False, []
        evicted = []
        while self.capacity - self.used < size:
            victim = next(mid for mid in self.entries if mid not in exempt)
            evicted.append(self.remove(victim))
        self.entries[replica.message.id] = replica
        self.used += size
        return True, evicted

    def remove(self, message_id: str) -> Replica:
        replica = self.entries.pop(message_id)
        self.used -= replica.message.size
        return replica


@dataclass
class Transfer:
    sender: int
    receiver: int
    message_id: str
    kind: str
    bytes_left: float

    @property
    def link(self) -> tuple[int, int]:
        """Key of the link session that carries this transfer."""
        return min(self.sender, self.receiver), max(self.sender, self.receiver)


@dataclass
class LinkSession:
    up_since: float
    queue: deque = field(default_factory=deque)  # of (sender, receiver, Action)
    decided: set = field(default_factory=set)  # of (sender_idx, message_id)
    transfer: Transfer | None = None


@dataclass
class AuditTrail:
    copy_peaks: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)


@dataclass
class SimOutput:
    scenario: str
    regime: str
    router: str
    seed: int
    duration_s: float
    nodes: list[NodeId]
    plan: ContactPlan  # the contact plan the run replayed, which owns its contact log
    deliveries: list[DeliveryRecord]
    relays: list[RelayEvent]
    residencies: list[ResidencyRecord]
    messages: list[Message]
    generated: int
    eligible_encounters: int = 0
    fallbacks: int = 0
    audit: AuditTrail | None = None

    @property
    def contact_events(self) -> list[ContactEvent]:
        return self.plan.contact_events


class Simulation:
    def __init__(
        self,
        spec: ScenarioSpec,
        router: Router,
        seed: int,
        audit: bool = False,
        feature_medians: tuple[float, float] = (0.0, 0.0),
        plan: ContactPlan | None = None,
    ) -> None:
        self.spec = spec
        self.router = router
        self.seed = seed
        spec.validate()
        if plan is not None and (plan.spec, plan.seed) != (spec, seed):
            raise ValueError(f"contact plan of {plan.spec.name} seed {plan.seed} does not fit")
        self.plan = plan  # built by run() when not given
        self.medians = feature_medians
        self.audit = AuditTrail() if audit else None

        self.n_ticks = round(spec.duration_s / spec.tick_s)
        self.nodes = spec.roster()
        self.index = {node: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)

        dest_nodes = [NodeId.parse(name) for name in spec.destination_names()]
        self.traffic = TrafficSource(
            spec.interval_s,
            spec.size_bytes,
            spec.ttl_s,
            NodeId(NodeClass.ACCIDENT, 0),
            dest_nodes,
            random.Random(f"{seed}:traffic"),
        )

        self.buffers = [NodeBuffer(spec.buffer_bytes) for _ in range(n)]
        self.stats = [NodeStats() for _ in range(n)]
        self.history: list[dict[int, PeerHistory]] = [{} for _ in range(n)]
        self.delivered: list[set[str]] = [set() for _ in range(n)]
        # the one transfer each node is part of, as sender or receiver
        self.in_flight: list[Transfer | None] = [None] * n
        self.sessions: dict[tuple[int, int], LinkSession] = {}
        self.session_keys: list[tuple[int, int]] = []  # sorted keys of sessions
        # keys of the sessions with a transfer in flight / with a non-empty queue
        self._transferring: set[tuple[int, int]] = set()
        self._queued: set[tuple[int, int]] = set()
        self.relay_eligible = [node.node_class in MOBILE_CLASSES for node in self.nodes]

        self.expiry_heap: list[tuple[float, str]] = []

        self.deliveries: list[DeliveryRecord] = []
        self.relays: list[RelayEvent] = []
        self.residencies: list[ResidencyRecord] = []
        self.messages: list[Message] = []
        self._new_message_nodes: set[int] = set()
        self._bytes_per_tick = spec.bandwidth_bps * spec.tick_s / 8.0

    # ------------------------------------------------------------------ run

    def run(self) -> SimOutput:
        if self.plan is None:
            self.plan = contact_plan(self.spec, self.seed)
        steps = self.plan.steps()
        tick_s = self.spec.tick_s
        n_ticks = self.n_ticks
        last = round(n_ticks * tick_s, 4)  # a time after it is never due
        idle = (n_ticks + 1, (), ())
        next_plan, downs, ups = next(steps, idle)
        k = 0
        while k < n_ticks:
            if self._transferring or next_plan == k + 1:
                k += 1
            else:  # nothing in flight: jump to the next tick that can act
                k = next_plan
                due = self.traffic.next_at
                if due <= last:
                    k = min(k, first_tick(due, tick_s))
                if self.expiry_heap and self.expiry_heap[0][0] <= last:
                    k = min(k, first_tick(self.expiry_heap[0][0], tick_s))
                if k > n_ticks:
                    break
            if k == next_plan:
                self._tick(round(k * tick_s, 4), downs, ups)
                next_plan, downs, ups = next(steps, idle)
            else:
                self._tick(round(k * tick_s, 4), (), ())
        self._finish(round(self.spec.duration_s, 4))
        return SimOutput(
            scenario=self.spec.name,
            regime=self.spec.regime,
            router=self.router.name,
            seed=self.seed,
            duration_s=self.spec.duration_s,
            nodes=list(self.nodes),
            plan=self.plan,
            deliveries=self.deliveries,
            relays=self.relays,
            residencies=self.residencies,
            messages=self.messages,
            generated=len(self.messages),
            eligible_encounters=getattr(self.router, "eligible_encounters", 0),
            fallbacks=getattr(self.router, "fallbacks", 0),
            audit=self.audit,
        )

    def _tick(self, now: float, downs: Sequence, ups: Sequence) -> None:
        self._new_message_nodes.clear()
        self._progress_transfers(now)
        for i, j in downs:
            self._link_down(i, j, now)
        for i, j in ups:
            self._link_up(i, j, now)
        self._expire(now)
        for message in self.traffic.poll(now):
            self._create_message(message)
        self._route(now, ups)
        self._start_transfers()
        if self.audit is not None:
            self._audit(now)

    def _link_up(self, i: int, j: int, now: float) -> None:
        self.sessions[(i, j)] = LinkSession(up_since=now)
        insort(self.session_keys, (i, j))

    def _link_down(self, i: int, j: int, now: float) -> None:
        session = self.sessions.pop((i, j))
        del self.session_keys[bisect_left(self.session_keys, (i, j))]
        self._queued.discard((i, j))
        if session.transfer is not None:
            self._release(session)
        duration = now - session.up_since
        self._record_contact_end(i, j, duration)

    def _record_contact_end(self, i: int, j: int, duration: float) -> None:
        self.stats[i].record_contact(j, duration)
        self.stats[j].record_contact(i, duration)
        self.history[i].setdefault(j, PeerHistory()).record(duration)
        self.history[j].setdefault(i, PeerHistory()).record(duration)

    def _release(self, session: LinkSession) -> None:
        """Detach the session's transfer, finished or aborted; frees both nodes."""
        transfer = session.transfer
        assert transfer is not None
        self.in_flight[transfer.sender] = None
        self.in_flight[transfer.receiver] = None
        self._transferring.discard(transfer.link)
        session.transfer = None

    def _expire(self, now: float) -> None:
        # a replica is still usable at exactly created_at + ttl (transfers
        # completing this tick ran first); residency closes at the boundary
        while self.expiry_heap and self.expiry_heap[0][0] <= now:
            boundary, mid = heapq.heappop(self.expiry_heap)
            for node, buffer in enumerate(self.buffers):
                if buffer.has(mid):
                    self._close_residency(node, buffer.remove(mid), boundary, "expired")
            for key in sorted(self._transferring):
                session = self.sessions[key]
                if session.transfer.message_id == mid:
                    self._release(session)

    def _create_message(self, message: Message) -> None:
        self.messages.append(message)
        source_idx = self.index[message.source]
        replica = Replica(
            message=message,
            copies=self.spec.copies,
            arrived_at=message.created_at,
            path=(message.source,),
        )
        admitted, evicted = self.buffers[source_idx].admit(
            replica, self._sending_ids(source_idx)
        )
        for victim in evicted:
            self._close_residency(source_idx, victim, message.created_at, "evicted")
        if admitted:
            heapq.heappush(
                self.expiry_heap, (message.created_at + message.ttl_s, message.id)
            )
            self._new_message_nodes.add(source_idx)

    def _sending_ids(self, node: int) -> frozenset[str]:
        t = self.in_flight[node]
        if t is not None and t.sender == node:
            return frozenset((t.message_id,))
        return frozenset()

    def _close_residency(self, node: int, replica: Replica, now: float, reason: str) -> None:
        self.residencies.append(
            ResidencyRecord(
                time=round(now, 4),
                node=self.nodes[node],
                message_id=replica.message.id,
                seconds=round(now - replica.arrived_at, 4),
                reason=reason,
            )
        )

    # -------------------------------------------------------------- routing

    def _route(self, now: float, ups: Sequence[tuple[int, int]]) -> None:
        triggers: list[tuple[int, int, int]] = []
        for i, j in ups:
            triggers.append((i, j, i))
            triggers.append((i, j, j))
        queued = set(triggers)
        for node in sorted(self._new_message_nodes):
            for i, j in self.session_keys:
                if node == i or node == j:
                    trigger = (i, j, node)
                    if trigger not in queued:
                        queued.add(trigger)
                        triggers.append(trigger)
        for i, j, sender in triggers:
            session = self.sessions.get((i, j))
            if session is None:
                continue
            self._consult_router(session, i, j, sender, now)

    def _consult_router(
        self, session: LinkSession, i: int, j: int, sender: int, now: float
    ) -> None:
        receiver = j if sender == i else i
        decided = session.decided
        offered = {
            mid: rep
            for mid, rep in self.buffers[sender].entries.items()
            if (sender, mid) not in decided
        }
        if not offered:
            return
        hist = self.history[sender].get(receiver)
        peer_stats = self.stats[receiver]
        medians = self.medians
        enc = Encounter(
            now=now,
            peer_id=self.nodes[receiver],
            replicas=list(offered.values()),
            peer_has=self.buffers[receiver].entries,
            peer_delivered=self.delivered[receiver],
            peer_relays=self.relay_eligible[receiver],
            # counters handed over in the current contact's handshake
            peer_query=lambda: online_features(hist, peer_stats, medians),
        )
        actions = self.router.on_contact(enc)
        decided.update((sender, mid) for mid in offered)
        for action in actions:
            if action.message_id not in offered:
                continue
            session.queue.append((sender, receiver, action))
            self._queued.add((i, j))

    # ------------------------------------------------------------- transfers

    def _start_transfers(self) -> None:
        for key in sorted(self._queued):
            session = self.sessions[key]
            if session.transfer is not None:
                continue
            i, j = key
            if self.in_flight[i] is not None or self.in_flight[j] is not None:
                continue
            while session.queue:
                sender, receiver, action = session.queue.popleft()
                if self._start_one(session, sender, receiver, action):
                    self._transferring.add(key)
                    break
            if not session.queue:
                self._queued.discard(key)

    def _start_one(
        self, session: LinkSession, sender: int, receiver: int, action: Action
    ) -> bool:
        replica = self.buffers[sender].get(action.message_id)
        if replica is None:
            return False
        mid = action.message_id
        if action.kind == DELIVER:
            if self.nodes[receiver] != replica.message.dest:
                return False
            if mid in self.delivered[receiver]:
                return False
        else:
            if self.buffers[receiver].has(mid) or mid in self.delivered[receiver]:
                return False
            if action.kind == SPLIT and replica.copies <= 1:
                return False
        session.transfer = Transfer(
            sender=sender,
            receiver=receiver,
            message_id=mid,
            kind=action.kind,
            bytes_left=float(replica.message.size),
        )
        self.in_flight[sender] = session.transfer
        self.in_flight[receiver] = session.transfer
        return True

    def _progress_transfers(self, now: float) -> None:
        for key in sorted(self._transferring):
            session = self.sessions[key]
            transfer = session.transfer
            transfer.bytes_left -= self._bytes_per_tick
            if transfer.bytes_left <= 0.0:
                self._complete_transfer(session, transfer, now)

    def _complete_transfer(
        self, session: LinkSession, transfer: Transfer, now: float
    ) -> None:
        self._release(session)
        replica = self.buffers[transfer.sender].get(transfer.message_id)
        if replica is None:
            return  # sender lost the replica mid-flight; treat as aborted
        message = replica.message
        sender_id = self.nodes[transfer.sender]
        receiver_id = self.nodes[transfer.receiver]

        if transfer.kind == DELIVER:
            path = replica.path + (receiver_id,)
            delivery_time = round(now - message.created_at, 4)
            record = DeliveryRecord(
                time=now,
                message_id=message.id,
                size=message.size,
                hopcount=len(path) - 1,
                delivery_time=delivery_time,
                from_host=message.source,
                to_host=receiver_id,
                remaining_ttl=math.floor((message.ttl_s - delivery_time) / 60.0),
                is_response=False,
                path=path,
            )
            self.deliveries.append(record)
            self.relays.append(RelayEvent(now, sender_id, receiver_id, message.id))
            self.delivered[transfer.receiver].add(message.id)
            for hop in path[1:-1]:
                self.stats[self.index[hop]].record_relayed_delivery(
                    record.hopcount, delivery_time
                )
            self.stats[transfer.receiver].as_dest += 1
            self.buffers[transfer.sender].remove(message.id)
            self._close_residency(transfer.sender, replica, now, "delivered")
            return

        copies = 1
        if transfer.kind == SPLIT:
            copies = replica.copies // 2
        incoming = Replica(
            message=message,
            copies=copies,
            arrived_at=now,
            path=replica.path + (receiver_id,),
        )
        admitted, evicted = self.buffers[transfer.receiver].admit(
            incoming, self._sending_ids(transfer.receiver)
        )
        for victim in evicted:
            self._close_residency(transfer.receiver, victim, now, "evicted")
        if not admitted:
            return  # no room even after eviction; nothing materialized
        if transfer.kind == SPLIT:
            replica.copies -= copies  # sender keeps ceil(c/2)
        self.relays.append(RelayEvent(now, sender_id, receiver_id, message.id))
        self._new_message_nodes.add(transfer.receiver)

    # ------------------------------------------------------------- finishing

    def _finish(self, end_time: float) -> None:
        for key in self.session_keys:
            session = self.sessions[key]
            if session.transfer is not None:
                self._release(session)
            i, j = key
            self._record_contact_end(i, j, end_time - session.up_since)
        self.sessions.clear()
        self.session_keys.clear()
        for node, buffer in enumerate(self.buffers):
            for mid in sorted(buffer.entries):
                self._close_residency(node, buffer.entries[mid], end_time, "end")

    def _audit(self, now: float) -> None:
        """Check buffer accounting and the copy budget, and re-derive the
        engine's session indexes from the sessions to compare them with the
        ones it keeps."""
        assert self.audit is not None
        violations = self.audit.violations
        copies: dict[str, int] = {}
        for node, buffer in enumerate(self.buffers):
            size = 0
            for mid, replica in buffer.entries.items():
                size += replica.message.size
                copies[mid] = copies.get(mid, 0) + replica.copies
            if buffer.used != size or size > buffer.capacity:
                violations.append(
                    f"@{now} node {node}: buffer used {buffer.used}, replicas "
                    f"{size} bytes, capacity {buffer.capacity}"
                )
        budget = self.spec.copies
        for mid in sorted(copies):
            total = copies[mid]
            peak = self.audit.copy_peaks.get(mid, 0)
            if total > peak:
                self.audit.copy_peaks[mid] = total
            if total > budget and not isinstance(self.router, EpidemicRouter):
                violations.append(f"{mid}: copy sum {total} exceeds budget {budget}")

        sessions = self.sessions
        if self.session_keys != sorted(sessions):
            violations.append(f"@{now}: session keys disagree with the sessions")
        transferring = {key for key, s in sessions.items() if s.transfer is not None}
        if transferring != self._transferring:
            violations.append(f"@{now}: transferring keys disagree with the sessions")
        if {key for key, s in sessions.items() if s.queue} != self._queued:
            violations.append(f"@{now}: queued keys disagree with the sessions")
        expected: list[Transfer | None] = [None] * len(self.nodes)
        for key in sorted(transferring):
            transfer = sessions[key].transfer
            if transfer.link != key:
                violations.append(f"@{now} link {key}: carries a transfer of {transfer.link}")
            for node in (transfer.sender, transfer.receiver):
                if expected[node] is not None:
                    violations.append(f"@{now} node {node}: in two transfers")
                expected[node] = transfer
        for node, (want, got) in enumerate(zip(expected, self.in_flight)):
            if want is not got:
                violations.append(f"@{now} node {node}: in_flight disagrees with the sessions")


# ------------------------------------------------------------------- helpers


def build_router(
    kind: str,
    seed: int,
    predictor: Predictor | None = None,
) -> Router:
    if kind == "SprayAndWait":
        return SprayAndWaitRouter()
    if kind == "Epidemic":
        return EpidemicRouter()
    if kind == "RandomRouter":
        return RandomRouter(random.Random(f"{seed}:router"))
    if kind == "MLPBasedRouter":
        if predictor is None:
            raise ValueError("MLPBasedRouter needs a predictor")
        return MlGatedRouter(predictor)
    raise ValueError(f"unknown router kind {kind!r}")


def run_simulation(
    spec: ScenarioSpec,
    router: Router | str,
    seed: int,
    predictor: Predictor | None = None,
    feature_medians: tuple[float, float] = (0.0, 0.0),
    audit: bool = False,
    plan: ContactPlan | None = None,
) -> SimOutput:
    if isinstance(router, str):
        router = build_router(router, seed, predictor)
    return Simulation(
        spec, router, seed, audit=audit, feature_medians=feature_medians, plan=plan
    ).run()
