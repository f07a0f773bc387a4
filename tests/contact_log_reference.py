"""Frozen contact-log code: the references the column code must equal.

`contact_log_lines` and `format_contact_event` are the renderer the package
shipped before the contact log was rendered straight from a plan's node
indices: they sort `ContactEvent`s and format each one.  `ContactEvent`,
`parse_contact_lines`, `plan_events` and `extract_features` are the
per-event reader, the plan's log as events (`ContactPlan.contact_events`)
and the per-event extract the package shipped before the contact log was
read into columns and counted with numpy.  Keep them as they are; the
oracle tests compare `simcore.contact_log_lines`, `reports.parse_contact_lines`
and `features.extract_features` against them.  `log_events` and `log_of`
convert between events and the reader's columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from dtnlab import reports
from dtnlab.nodes import MOBILE_CLASSES, NodeId
from dtnlab.reports import ContactLog, ParseError


@dataclass(frozen=True, slots=True)
class ContactEvent:
    time: float  # seconds, non-negative
    a: NodeId
    b: NodeId
    up: bool  # True for link up, False for down


def format_contact_event(event: ContactEvent) -> str:
    state = "up" if event.up else "down"
    return f"@{event.time:.2f} {event.a} <-> {event.b} {state}"


def contact_log_lines(events: Iterable[ContactEvent]) -> list[str]:
    """The lines in (time, a, b) order, nodes by NodeId.sort_key.

    Two stable sorts, by node pair and then by time, give that order
    without building a key tuple for every event."""
    ordered = list(events)
    nodes = {e.a for e in ordered} | {e.b for e in ordered}
    rank = {node: k for k, node in enumerate(sorted(nodes, key=attrgetter("sort_key")))}
    ordered.sort(key=lambda e: rank[e.a] * len(rank) + rank[e.b])
    ordered.sort(key=attrgetter("time"))
    return [format_contact_event(e) for e in ordered]


_CONTACT_RE = re.compile(
    r"^@(?P<time>\d+\.\d{2}) (?P<a>[pcah]\d+) <-> (?P<b>[pcah]\d+) (?P<state>up|down)$"
)


def parse_contact_line(line: str, line_no: int = 1) -> ContactEvent:
    m = _CONTACT_RE.match(line)
    if m is None:
        raise ParseError(line_no, line, "not a connectivity event")
    a, b = NodeId.parse(m.group("a")), NodeId.parse(m.group("b"))
    if a == b:
        raise ParseError(line_no, line, "contact endpoints must differ")
    return ContactEvent(time=float(m.group("time")), a=a, b=b, up=m.group("state") == "up")


def parse_contact_lines(lines: Iterable[str]) -> list[ContactEvent]:
    """The non-blank lines as events, numbered from 1; any other ValueError
    becomes a ParseError on its line."""
    out = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        try:
            out.append(parse_contact_line(line, line_no))
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(line_no, line, str(err)) from err
    return out


def log_events(log: ContactLog) -> list[ContactEvent]:
    """The reader's columns as events, in file order."""
    rows = zip(log.time.tolist(), log.a.tolist(), log.b.tolist(), log.up.tolist())
    return [ContactEvent(t, log.nodes[a], log.nodes[b], up) for t, a, b, up in rows]


def log_of(events: Iterable[ContactEvent]) -> ContactLog:
    """The events written as lines, in the given order, and read back by the
    package's column reader."""
    return reports.parse_contact_lines([format_contact_event(e) for e in events])


def plan_events(plan) -> list[ContactEvent]:
    """The plan's contact log as events, in plan row order: a tick's time is
    round(k * tick_s, 4) to two places, the closing rows' the end of the run."""
    spec, nodes = plan.spec, plan.spec.roster()
    n_ticks = round(spec.duration_s / spec.tick_s)

    def time(k: int) -> float:
        return round(round(k * spec.tick_s, 4), 2) if k <= n_ticks else round(spec.duration_s, 2)

    rows = zip(plan.tick.tolist(), plan.a.tolist(), plan.b.tolist(), plan.up.tolist())
    return [ContactEvent(time(k), nodes[a], nodes[b], up) for k, a, b, up in rows]


@dataclass
class _Counters:
    contacts: int = 0
    partners: set = field(default_factory=set)
    contact_seconds: float = 0.0
    relayed_delivered: int = 0
    hop_sum: float = 0.0
    delay_sum: float = 0.0
    as_dest: int = 0


def extract_features(nodes, contact_events, deliveries) -> list[dict]:
    """Per-node relay statistics for every mobile node, one event at a time."""
    stats = {str(n): _Counters() for n in nodes}
    open_at: dict[tuple[str, str], float] = {}
    last = float("-inf")
    for ev in contact_events:
        key = tuple(sorted((str(ev.a), str(ev.b))))
        if ev.up:
            if key in open_at:
                raise ValueError(f"link {key[0]}-{key[1]} raised while already up")
            if key[0] not in stats or key[1] not in stats:
                raise ValueError(f"link {key[0]}-{key[1]} names a node not in the run")
            open_at[key] = ev.time
        else:
            if key not in open_at:
                raise ValueError(f"link {key[0]}-{key[1]} dropped while down")
            length = ev.time - open_at.pop(key)
            for own, partner in ((key[0], key[1]), (key[1], key[0])):
                stats[own].contacts += 1
                stats[own].partners.add(partner)
                stats[own].contact_seconds += length
        if ev.time < last:
            raise ValueError(f"contact log goes back in time: @{ev.time:.2f} after @{last:.2f}")
        last = ev.time
    if open_at:
        raise ValueError(f"{len(open_at)} contact(s) never closed")

    for rec in deliveries:
        strangers = [str(hop) for hop in rec.path if str(hop) not in stats]
        if strangers:
            raise ValueError(f"delivery of {rec.message_id} names {strangers[0]}, not in the run")
        for hop in rec.path[1:-1]:
            own = stats[str(hop)]
            own.relayed_delivered += 1
            own.hop_sum += rec.hopcount
            own.delay_sum += rec.delivery_time
        stats[str(rec.to_host)].as_dest += 1

    rows = []
    for node in nodes:
        if node.node_class not in MOBILE_CLASSES:
            continue
        own = stats[str(node)]
        relayed = own.relayed_delivered
        rows.append(
            {
                "node": str(node),
                "contact_freq": float(own.contacts),
                "degree": float(len(own.partners)),
                "avg_contact_duration": (
                    own.contact_seconds / own.contacts if own.contacts else 0.0
                ),
                "avg_hop_count": own.hop_sum / relayed if relayed else None,
                "avg_delivery_time": own.delay_sum / relayed if relayed else None,
                "as_relay_count": float(relayed),
                "as_destination_count": float(own.as_dest),
            }
        )
    return rows
