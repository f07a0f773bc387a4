"""Contact counters kept the way the engine once kept them: the oracle for
`ContactCounters`.

The engine used to count contacts itself: every link down added the contact
to both nodes' partners and to the pair's tally, with the contact's length
taken as the time of the down's tick minus the time of the up's tick, and
`_finish` closed the links still up at the end of the run, in key order.
This replays the plan's transitions tick by tick with that arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator

from dtnlab.simcore import ContactPlan

Pairs = list[tuple[int, int]]
Tally = dict[tuple[int, int], tuple[int, float]]  # pair -> (contacts, seconds)


def replay_downs(plan: ContactPlan) -> Iterator[tuple[int, Pairs, Pairs, list[set[int]], Tally]]:
    """(k, the pairs down at tick k, the pairs up after it, each node's
    partners, the pair tally) for each tick k with a down, the closing downs
    last at tick n_ticks + 1.  The partners and tally are the same objects
    on every step, updated in place."""
    spec = plan.spec
    n_ticks = round(spec.duration_s / spec.tick_s)
    partners: list[set[int]] = [set() for _ in spec.roster()]
    tally: Tally = {}
    up_since: dict[tuple[int, int], float] = {}

    def close(i: int, j: int, now: float) -> None:
        duration = now - up_since.pop((i, j))
        partners[i].add(j)
        partners[j].add(i)
        contacts, seconds = tally.get((i, j), (0, 0.0))
        seconds += duration
        tally[(i, j)] = (contacts + 1, seconds)

    for k, downs, ups in plan.steps():
        now = round(k * spec.tick_s, 4)
        for i, j in downs:
            close(i, j, now)
        for pair in ups:
            up_since[pair] = now
        if downs:
            yield k, downs, sorted(up_since), partners, tally
    closing = sorted(up_since)
    for i, j in closing:
        close(i, j, round(spec.duration_s, 4))
    yield n_ticks + 1, closing, [], partners, tally
