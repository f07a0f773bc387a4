"""Text report formats for simulation logs.

Two formats are fixed and shared with external tooling:

connectivity trace, one line per link transition::

    @0.10 p39 <-> c71 up
    @0.50 c56 <-> c59 down

delivered-messages report, header line then one line per delivery::

    # time ID size hopcount deliveryTime fromHost toHost remainingTtl isResponse path
    2225.4000 AC29 550456 3 1361.4000 a110 p10 277 N a110->c89->c102->p10

Times carry two decimals in the connectivity trace and four in the delivered
report.  remainingTtl is whole minutes.  The connectivity writer is
simcore.contact_log_lines, which renders a contact plan straight from its
(tick, a, b, up) columns in (time, a, b) order; parsers keep file order
and report 1-based line numbers on malformed input.  Relay and buffer logs
are auxiliary formats local to this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .nodes import NodeId

DELIVERED_HEADER = "# time ID size hopcount deliveryTime fromHost toHost remainingTtl isResponse path"

T = TypeVar("T")


class ParseError(ValueError):
    """Malformed report line; carries the 1-based line number."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason


def _parse_lines(
    lines: Iterable[str], parse: Callable[[str, int], T], start: int = 1
) -> list[T]:
    """``parse(line, line_no)`` over the non-blank lines, numbered from
    ``start``; any other ValueError it raises becomes a ParseError on its line."""
    out = []
    for line_no, raw in enumerate(lines, start=start):
        line = raw.rstrip("\n")
        if not line:
            continue
        try:
            out.append(parse(line, line_no))
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(line_no, line, str(err)) from err
    return out


def _fields(line: str, count: int) -> list[str]:
    fields = line.split(" ")
    if len(fields) != count:
        raise ValueError(f"expected {count} fields, got {len(fields)}")
    return fields


@dataclass(frozen=True, slots=True)
class ContactEvent:
    time: float  # seconds, non-negative
    a: NodeId
    b: NodeId
    up: bool  # True for link up, False for down


@dataclass(frozen=True)
class DeliveryRecord:
    time: float  # delivery wall-clock, seconds
    message_id: str
    size: int  # bytes
    hopcount: int
    delivery_time: float  # creation-to-delivery delay, seconds
    from_host: NodeId
    to_host: NodeId
    remaining_ttl: int  # whole minutes left at delivery
    is_response: bool
    path: tuple[NodeId, ...]  # source first, destination last


# ---------------------------------------------------------------- connectivity

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
    return _parse_lines(lines, parse_contact_line)


# ------------------------------------------------------------------- delivered


def format_delivery_record(rec: DeliveryRecord) -> str:
    flag = "Y" if rec.is_response else "N"
    path = "->".join(str(n) for n in rec.path)
    return (
        f"{rec.time:.4f} {rec.message_id} {rec.size} {rec.hopcount} "
        f"{rec.delivery_time:.4f} {rec.from_host} {rec.to_host} "
        f"{rec.remaining_ttl} {flag} {path}"
    )


def parse_delivery_line(line: str, line_no: int = 2) -> DeliveryRecord:
    fields = line.split(" ")
    if len(fields) != 10:
        raise ParseError(line_no, line, f"expected 10 fields, got {len(fields)}")
    (time_s, mid, size_s, hops_s, delay_s, from_s, to_s, ttl_s, resp_s, path_s) = fields
    if resp_s not in ("Y", "N"):
        raise ParseError(line_no, line, "isResponse must be Y or N")
    try:
        rec = DeliveryRecord(
            time=float(time_s),
            message_id=mid,
            size=int(size_s),
            hopcount=int(hops_s),
            delivery_time=float(delay_s),
            from_host=NodeId.parse(from_s),
            to_host=NodeId.parse(to_s),
            remaining_ttl=int(ttl_s),
            is_response=resp_s == "Y",
            path=tuple(NodeId.parse(p) for p in path_s.split("->")),
        )
        _check_delivery(rec)
    except ValueError as err:
        raise ParseError(line_no, line, str(err)) from err
    return rec


def _check_delivery(rec: DeliveryRecord) -> None:
    """Refuse a parsed record whose fields disagree with each other."""
    if len(rec.path) < 2:
        raise ValueError("path needs at least source and destination")
    if rec.hopcount != len(rec.path) - 1:
        raise ValueError(f"hopcount {rec.hopcount} does not match path of {len(rec.path)} hosts")
    if rec.path[0] != rec.from_host or rec.path[-1] != rec.to_host:
        raise ValueError("path endpoints must match fromHost/toHost")
    if rec.delivery_time > rec.time:
        raise ValueError("delivery delay cannot exceed the delivery timestamp")


def delivered_log_lines(records: Sequence[DeliveryRecord]) -> list[str]:
    return [DELIVERED_HEADER] + [format_delivery_record(r) for r in records]


def parse_delivered_lines(lines: Iterable[str]) -> list[DeliveryRecord]:
    rest = iter(lines)
    for line_no, raw in enumerate(rest, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line != DELIVERED_HEADER:
            raise ParseError(line_no, line, "missing delivered-report header")
        return _parse_lines(rest, parse_delivery_line, start=line_no + 1)
    raise ParseError(1, "", "empty delivered report")


# ------------------------------------------------- auxiliary relay/buffer logs


@dataclass(frozen=True)
class RelayEvent:
    time: float
    sender: NodeId
    receiver: NodeId
    message_id: str


@dataclass(frozen=True)
class ResidencyRecord:
    time: float  # when the replica left the buffer
    node: NodeId
    message_id: str
    seconds: float  # admission-to-removal residency
    reason: str  # delivered | evicted | expired | end


def relay_log_lines(events: Iterable[RelayEvent]) -> list[str]:
    return [f"{e.time:.4f} {e.sender} {e.receiver} {e.message_id}" for e in events]


def parse_relay_lines(lines: Iterable[str]) -> list[RelayEvent]:
    def relay(line: str, _: int) -> RelayEvent:
        time_s, sender, receiver, mid = _fields(line, 4)
        return RelayEvent(float(time_s), NodeId.parse(sender), NodeId.parse(receiver), mid)

    return _parse_lines(lines, relay)


def residency_log_lines(records: Iterable[ResidencyRecord]) -> list[str]:
    return [
        f"{r.time:.4f} {r.node} {r.message_id} {r.seconds:.4f} {r.reason}"
        for r in records
    ]


def parse_residency_lines(lines: Iterable[str]) -> list[ResidencyRecord]:
    def residency(line: str, _: int) -> ResidencyRecord:
        time_s, node, mid, seconds, reason = _fields(line, 5)
        return ResidencyRecord(float(time_s), NodeId.parse(node), mid, float(seconds), reason)

    return _parse_lines(lines, residency)


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
