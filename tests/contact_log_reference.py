"""Frozen contact-log renderer: the reference the plan renderer must equal.

These are `reports.contact_log_lines` and `reports.format_contact_event` as
the package shipped them before the contact log was rendered straight from a
plan's node indices: they sort `ContactEvent`s and format each one.  Keep
them as they are; the oracle tests compare `simcore.contact_log_lines`
against them byte for byte, and the format tests write single events with
`format_contact_event`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from dtnlab.reports import ContactEvent


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
