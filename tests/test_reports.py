"""Golden and round-trip tests for the report text formats."""

from __future__ import annotations

import random

import numpy as np
import pytest

from dtnlab.nodes import NodeClass, NodeId
from dtnlab.reports import (
    DELIVERED_HEADER,
    DeliveryRecord,
    ParseError,
    RelayEvent,
    ResidencyRecord,
    delivered_log_lines,
    format_delivery_record,
    parse_contact_lines,
    parse_delivered_lines,
    parse_relay_lines,
    parse_residency_lines,
    relay_log_lines,
    residency_log_lines,
)
from dtnlab.scenario import ScenarioSpec
from dtnlab.simcore import ContactPlan, contact_log_lines
from contact_log_reference import ContactEvent, format_contact_event, log_events
from contact_log_reference import parse_contact_lines as reference_parse_contact_lines

# Golden excerpts in the upstream trace formats; parsers and writers must
# reproduce these byte for byte.
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


def _contact(time: float, a: str, b: str, up: bool) -> ContactEvent:
    return ContactEvent(time=time, a=NodeId.parse(a), b=NodeId.parse(b), up=up)


def test_connectivity_golden_parse() -> None:
    log = parse_contact_lines(GOLDEN_CONNECTIVITY.splitlines())
    assert log.time.dtype == float and log.a.dtype == log.b.dtype == np.int64
    assert log.up.dtype == bool
    events = log_events(log)
    assert events == reference_parse_contact_lines(GOLDEN_CONNECTIVITY.splitlines())
    assert len(events) == 9
    first = events[0]
    assert first.time == 0.10
    assert first.a == NodeId(NodeClass.PEDESTRIAN, 8)
    assert first.b == NodeId(NodeClass.PEDESTRIAN, 18)
    assert first.up
    last = events[-1]
    assert last.time == 0.50
    assert (str(last.a), str(last.b)) == ("c56", "c59")
    assert not last.up


def test_connectivity_golden_reformat_is_byte_identical() -> None:
    events = log_events(parse_contact_lines(GOLDEN_CONNECTIVITY.splitlines()))
    lines = [format_contact_event(e) for e in events]
    assert "\n".join(lines) + "\n" == GOLDEN_CONNECTIVITY


def test_delivered_golden_parse() -> None:
    records = parse_delivered_lines(GOLDEN_DELIVERED.splitlines())
    assert len(records) == 7
    rec = records[1]
    assert rec.time == 2225.4
    assert rec.message_id == "AC29"
    assert rec.size == 550456
    assert rec.hopcount == 3
    assert rec.delivery_time == 1361.4
    assert str(rec.from_host) == "a110"
    assert str(rec.to_host) == "p10"
    assert rec.remaining_ttl == 277
    assert not rec.is_response
    assert [str(n) for n in rec.path] == ["a110", "c89", "c102", "p10"]
    deep = records[4]
    assert deep.hopcount == 9
    assert len(deep.path) == 10


def test_delivered_golden_reformat_is_byte_identical() -> None:
    records = parse_delivered_lines(GOLDEN_DELIVERED.splitlines())
    lines = delivered_log_lines(records)
    assert "\n".join(lines) + "\n" == GOLDEN_DELIVERED


def test_delivered_header_exact() -> None:
    assert GOLDEN_DELIVERED.splitlines()[0] == DELIVERED_HEADER


def plan_of(events: list[ContactEvent]) -> ContactPlan:
    """A contact plan on 0.1 s ticks holding these transitions as its rows, in
    (tick, up, a, b) order, with no link left open at the end."""
    spec = ScenarioSpec(pedestrians=11, cars=10, hospitals=2)
    index = {node: i for i, node in enumerate(spec.roster())}
    rows = sorted((round(e.time / spec.tick_s), e.up, index[e.a], index[e.b]) for e in events)
    tick, up, a, b = (np.array(column) for column in zip(*rows))
    return ContactPlan(spec, 1, tick, a, b, up)


def test_contact_writer_orders_by_time_then_endpoints() -> None:
    events = [
        _contact(1.20, "c3", "c4", True),
        _contact(0.10, "p2", "c9", True),
        _contact(1.20, "c3", "c1", False),
        _contact(0.10, "p1", "p5", True),
        # class prefix first (a < c < h < p), then the index as a number
        _contact(2.00, "p10", "c1", True),
        _contact(2.00, "p9", "c1", True),
        _contact(2.00, "a0", "h1", True),
    ]
    lines = contact_log_lines(plan_of(events))
    assert lines == [
        "@0.10 p1 <-> p5 up",
        "@0.10 p2 <-> c9 up",
        "@1.20 c3 <-> c1 down",
        "@1.20 c3 <-> c4 up",
        "@2.00 a0 <-> h1 up",
        "@2.00 p9 <-> c1 up",
        "@2.00 p10 <-> c1 up",
    ]


def test_parser_preserves_file_order() -> None:
    lines = [
        "@5.00 p1 <-> p2 up",
        "@1.00 p3 <-> p4 up",
    ]
    log = parse_contact_lines(lines)
    assert log.time.tolist() == [5.0, 1.0]
    assert [str(log.nodes[a]) for a in log.a] == ["p1", "p3"]


def _random_contact(rng: random.Random) -> ContactEvent:
    classes = ["p", "c", "a", "h"]
    a = NodeId.parse(f"{rng.choice(classes)}{rng.randrange(200)}")
    while True:
        b = NodeId.parse(f"{rng.choice(classes)}{rng.randrange(200)}")
        if b != a:
            break
    # times quantized to the written precision so the round trip is exact
    return ContactEvent(
        time=rng.randrange(0, 5_000_000) / 100, a=a, b=b, up=rng.random() < 0.5
    )


def _random_delivery(rng: random.Random) -> DeliveryRecord:
    hops = rng.randrange(1, 10)
    names = rng.sample(range(150), hops + 1)
    path = tuple(
        NodeId.parse(f"{rng.choice(['p', 'c', 'a', 'h'])}{n}") for n in names
    )
    time = rng.randrange(1, 400_000_000) / 10_000
    delay = rng.randrange(0, int(time * 10_000) + 1) / 10_000
    return DeliveryRecord(
        time=time,
        message_id=f"AC{rng.randrange(10_000)}",
        size=rng.randrange(500_000, 1_000_001),
        hopcount=hops,
        delivery_time=delay,
        from_host=path[0],
        to_host=path[-1],
        remaining_ttl=rng.randrange(0, 301),
        is_response=rng.random() < 0.1,
        path=path,
    )


def test_contact_round_trip_random() -> None:
    rng = random.Random(7)
    events = [_random_contact(rng) for _ in range(500)]
    lines = [format_contact_event(e) for e in events]
    assert log_events(parse_contact_lines(lines)) == events
    # and write(parse(lines)) reproduces the text
    assert [format_contact_event(e) for e in log_events(parse_contact_lines(lines))] == lines


def test_delivered_round_trip_random() -> None:
    rng = random.Random(13)
    records = [_random_delivery(rng) for _ in range(500)]
    lines = delivered_log_lines(records)
    assert parse_delivered_lines(lines) == records


def test_relay_log_round_trip() -> None:
    rng = random.Random(3)
    events = [
        RelayEvent(
            time=rng.randrange(0, 10_000_000) / 10_000,
            sender=NodeId.parse(f"c{rng.randrange(99)}"),
            receiver=NodeId.parse(f"p{rng.randrange(99)}"),
            message_id=f"AC{rng.randrange(999)}",
        )
        for _ in range(200)
    ]
    assert parse_relay_lines(relay_log_lines(events)) == events


def test_residency_log_round_trip() -> None:
    rng = random.Random(4)
    records = [
        ResidencyRecord(
            time=rng.randrange(0, 10_000_000) / 10_000,
            node=NodeId.parse(f"p{rng.randrange(99)}"),
            message_id=f"AC{rng.randrange(999)}",
            seconds=rng.randrange(0, 10_000_000) / 10_000,
            reason=rng.choice(["delivered", "evicted", "expired", "end"]),
        )
        for _ in range(200)
    ]
    assert parse_residency_lines(residency_log_lines(records)) == records


def test_malformed_contact_line_reports_line_number() -> None:
    lines = ["@0.10 p1 <-> p2 up", "@0.20 p1 p2 up"]
    with pytest.raises(ParseError) as err:
        parse_contact_lines(lines)
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "bad, reason",
    [("12.0000 c3 p4", "expected 4 fields, got 3"), ("12.0000 c3 x4 AC7", "x4")],
)
def test_malformed_relay_line_reports_line_number(bad, reason) -> None:
    lines = ["10.0000 c1 p2 AC7", "", bad]
    with pytest.raises(ParseError) as err:
        parse_relay_lines(lines)
    assert err.value.line_no == 3
    assert reason in err.value.reason


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("12.0000 p4 AC7 3.5000 evicted end", "expected 5 fields, got 6"),
        ("12.0000 q4 AC7 3.5000 evicted", "q4"),
    ],
)
def test_malformed_residency_line_reports_line_number(bad, reason) -> None:
    lines = ["", "10.0000 p4 AC6 1.0000 delivered", bad]
    with pytest.raises(ParseError) as err:
        parse_residency_lines(lines)
    assert err.value.line_no == 3
    assert reason in err.value.reason


def test_contact_line_requires_two_decimals() -> None:
    with pytest.raises(ParseError):
        parse_contact_lines(["@0.1 p1 <-> p2 up"])


def test_delivered_rejects_hopcount_path_mismatch() -> None:
    bad = DELIVERED_HEADER + "\n" + "10.0000 AC1 600000 2 5.0000 a0 h0 299 N a0->h0"
    with pytest.raises(ParseError) as err:
        parse_delivered_lines(bad.splitlines())
    assert err.value.line_no == 2
    assert "hopcount" in err.value.reason


def test_delivered_rejects_missing_header() -> None:
    with pytest.raises(ParseError):
        parse_delivered_lines(["10.0000 AC1 600000 1 5.0000 a0 h0 299 N a0->h0"])


def test_delivered_rejects_delay_exceeding_timestamp() -> None:
    bad = DELIVERED_HEADER + "\n" + "10.0000 AC1 600000 1 11.0000 a0 h0 299 N a0->h0"
    with pytest.raises(ParseError):
        parse_delivered_lines(bad.splitlines())


def test_record_validation_direct() -> None:
    # path a0->h1 does not end at toHost h0
    bad = DELIVERED_HEADER + "\n" + "10.0000 AC1 1 1 1.0000 a0 h0 1 N a0->h1"
    with pytest.raises(ParseError) as err:
        parse_delivered_lines(bad.splitlines())
    assert err.value.line_no == 2
    assert "endpoints" in err.value.reason


def test_contact_line_refuses_a_node_linked_to_itself() -> None:
    with pytest.raises(ParseError) as err:
        parse_contact_lines(["@1.00 p1 <-> p2 up", "@2.00 p3 <-> p03 up"])
    assert err.value.line_no == 2
    assert "differ" in err.value.reason


def test_names_of_one_node_share_its_index() -> None:
    log = parse_contact_lines(["@1.00 p03 <-> c1 up", "", "@2.00 c1 <-> p3 down"])
    assert log.nodes == [NodeId.parse("p3"), NodeId.parse("c1")]
    assert (log.a.tolist(), log.b.tolist(), log.up.tolist()) == ([0, 1], [1, 0], [True, False])
    empty = parse_contact_lines([])
    assert empty.nodes == [] and empty.time.dtype == float and empty.a.dtype == np.int64
    assert len(empty.time) == len(empty.a) == len(empty.b) == len(empty.up) == 0


@pytest.mark.parametrize(
    "bad",
    [
        "@0.1 p1 <-> p2 up",
        "@1.000 p1 <-> p2 up",
        "@1.00 p1 <-> p2 sideways",
        "@1.00 p1 <-> x2 up",
        "@1.00 p1 <-> p01 down",
        "@1.00 p1 <-> p2 up ",
        "1.00 p1 <-> p2 up",
    ],
)
def test_a_malformed_contact_line_gets_the_per_event_message(bad) -> None:
    lines = ["@0.50 p1 <-> p2 up", "", bad]
    with pytest.raises(ParseError) as want:
        reference_parse_contact_lines(lines)
    with pytest.raises(ParseError) as got:
        parse_contact_lines(lines)
    assert got.value.line_no == want.value.line_no == 3
    assert str(got.value) == str(want.value)


def test_a_parsed_name_is_one_shared_node() -> None:
    first = NodeId.parse("p13")
    assert NodeId.parse("p13") is first
    assert first == NodeId(NodeClass.PEDESTRIAN, 13)
    assert NodeId.parse("c13") is not first
    parsed = parse_contact_lines(["@1.00 p13 <-> h0 up", "@2.00 p13 <-> h0 down"])
    assert parsed.nodes[0] is first and parsed.a.tolist() == [0, 0]


@pytest.mark.parametrize("bad", ["x1", "p", "p-1", "", "P1", "p1 ", "13"])
def test_a_bad_name_still_raises_every_time(bad) -> None:
    for _ in range(2):  # a refused name is not remembered as a node
        with pytest.raises(ValueError, match=f"not a node name: {bad!r}"):
            NodeId.parse(bad)
