"""Map generation, shortest paths, and waypoint movement."""

from __future__ import annotations

import heapq
import itertools
import math
import random

import numpy as np
import pytest

from dtnlab.mobility import (
    HOLIDAY,
    WEEKDAY,
    Fleet,
    FixedPost,
    MapError,
    MapGraph,
    Wanderer,
    grid_map,
    load_map,
    next_waypoint,
    random_planar_map,
    save_map,
    shortest_path,
)


def test_grid_counts() -> None:
    g = grid_map(10, 10, 50.0)
    assert g.vertex_count == 100
    assert len(g.edges) == 2 * 10 * 10 - 10 - 10  # 180
    assert g.is_connected()


def test_grid_small_counts() -> None:
    g = grid_map(2, 3, 10.0)
    assert g.vertex_count == 6
    assert len(g.edges) == 2 * 2 * 3 - 2 - 3


def test_grid_rejects_degenerate() -> None:
    with pytest.raises(MapError):
        grid_map(1, 5, 10.0)


def test_random_planar_connected_many_seeds() -> None:
    for seed in range(8):
        g = random_planar_map(40, 600.0, seed)
        assert g.is_connected()
        assert g.vertex_count == 40


def test_random_planar_deterministic() -> None:
    a = random_planar_map(25, 400.0, seed=9)
    b = random_planar_map(25, 400.0, seed=9)
    assert a.coords == b.coords
    assert a.edges == b.edges


def test_map_file_round_trip(tmp_path) -> None:
    g = random_planar_map(20, 300.0, seed=2)
    path = tmp_path / "roads.map"
    save_map(g, path)
    loaded = load_map(path)
    assert loaded.coords == g.coords
    assert sorted(loaded.edges) == sorted(g.edges)


def test_map_file_rejects_garbage(tmp_path) -> None:
    path = tmp_path / "bad.map"
    path.write_text("V 0 0.0 0.0\nV 1 1.0 0.0\nE 0 1\nW what\n")
    with pytest.raises(MapError):
        load_map(path)


def test_map_file_rejects_disconnected(tmp_path) -> None:
    path = tmp_path / "split.map"
    path.write_text(
        "V 0 0.0 0.0\nV 1 1.0 0.0\nV 2 5.0 5.0\nV 3 6.0 5.0\nE 0 1\nE 2 3\n"
    )
    with pytest.raises(MapError):
        load_map(path)


# ------------------------------------------------------------ shortest paths


def _all_simple_path_lengths(g: MapGraph, src: int, dst: int) -> list[float]:
    lengths = []

    def walk(v: int, seen: set[int], acc: float) -> None:
        if v == dst:
            lengths.append(acc)
            return
        for w, d in g.adjacency[v]:
            if w not in seen:
                walk(w, seen | {w}, acc + d)

    walk(src, {src}, 0.0)
    return lengths


def _random_connected_graph(rng: random.Random, n: int) -> MapGraph:
    coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    edges = {(i, i + 1) for i in range(n - 1)}  # chain keeps it connected
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.35:
            edges.add((a, b))
    return MapGraph(coords, sorted(edges))


def test_shortest_path_matches_exhaustive_enumeration() -> None:
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(4, 9)
        g = _random_connected_graph(rng, n)
        src, dst = rng.sample(range(n), 2)
        best = min(_all_simple_path_lengths(g, src, dst))
        path = shortest_path(g, src, dst)
        assert path[0] == src and path[-1] == dst
        # each consecutive pair must be an edge
        for a, b in zip(path, path[1:]):
            assert any(w == b for w, _ in g.adjacency[a])
        length = sum(g.edge_length(a, b) for a, b in zip(path, path[1:]))
        assert length == pytest.approx(best, abs=1e-12)


def test_shortest_path_trivial_and_unreachable() -> None:
    g = MapGraph([(0, 0), (1, 0), (9, 9), (10, 9)], [(0, 1), (2, 3)])
    assert shortest_path(g, 2, 2) == [2]
    with pytest.raises(MapError):
        shortest_path(g, 0, 3)


def _early_exit_dijkstra(graph: MapGraph, src: int, dst: int) -> list[int]:
    """Uncached Dijkstra that stops when dst is popped; ties break on id."""
    dist = [math.inf] * graph.vertex_count
    prev = [-1] * graph.vertex_count
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = [False] * graph.vertex_count
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        if v == dst:
            break
        for w, length in graph.adjacency[v]:
            if d + length < dist[w]:
                dist[w] = d + length
                prev[w] = v
                heapq.heappush(heap, (d + length, w))
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


@pytest.mark.parametrize(
    "graph", [grid_map(12, 12, 100.0), random_planar_map(60, 800.0, seed=3)], ids=["grid", "planar"]
)
def test_cached_shortest_paths_equal_uncached_dijkstra(graph) -> None:
    n = graph.vertex_count
    for src in range(n):
        for dst in range(n):
            assert shortest_path(graph, src, dst) == _early_exit_dijkstra(graph, src, dst)
    assert len(graph._trees) == n
    path = shortest_path(graph, 0, n - 1)
    path.append(-5)  # the caller owns the list it gets
    assert shortest_path(graph, 0, n - 1) == _early_exit_dijkstra(graph, 0, n - 1)


# ----------------------------------------------------------------- waypoints


def test_next_waypoint_never_current() -> None:
    rng = random.Random(1)
    for _ in range(2000):
        w = next_waypoint(5, HOLIDAY, [], 12, rng)
        assert w != 5
        assert 0 <= w < 12


def test_weekday_hotspot_rate() -> None:
    rng = random.Random(11)
    hotspots = [3, 7, 11, 19, 23]
    hits = sum(
        1
        for _ in range(10_000)
        if next_waypoint(0, WEEKDAY, hotspots, 100, rng) in set(hotspots)
    )
    # 0.8 direct bias plus uniform leakage 0.2 * 5/99
    assert 0.78 <= hits / 10_000 <= 0.84


def test_holiday_draws_uniform_chi_square() -> None:
    rng = random.Random(23)
    n_vertices = 50
    draws = 50_000
    counts = [0] * n_vertices
    for _ in range(draws):
        counts[next_waypoint(0, HOLIDAY, [], n_vertices, rng)] += 1
    assert counts[0] == 0
    expected = draws / (n_vertices - 1)
    stat = sum((c - expected) ** 2 / expected for c in counts[1:])
    # chi-square critical value, dof=48, alpha=0.01
    assert stat < 73.68263852010573


def test_weekday_requires_hotspots() -> None:
    with pytest.raises(ValueError):
        next_waypoint(0, WEEKDAY, [], 10, random.Random(0))


# ------------------------------------------------------------------ movement


def _point_segment_dist(p, a, b) -> float:
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / seg2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _on_some_edge(g: MapGraph, pos) -> bool:
    return any(
        _point_segment_dist(pos, g.coords[a], g.coords[b]) <= 1e-6 for a, b in g.edges
    )


def test_wanderer_stays_on_map_edges() -> None:
    g = grid_map(5, 5, 80.0)
    rng = random.Random(17)
    w = Wanderer(
        graph=g,
        vertex=0,
        speed_range=(0.5, 1.5),
        pause_range=(0.0, 5.0),
        regime=WEEKDAY,
        hotspots=[6, 12, 18],
        rng=rng,
    )
    for _ in range(4000):
        w.advance(0.1)
        assert _on_some_edge(g, w.pos)


def test_wanderer_replays_identically_per_seed() -> None:
    g = grid_map(4, 4, 60.0)

    def trajectory() -> list[tuple[float, float]]:
        w = Wanderer(
            graph=g,
            vertex=5,
            speed_range=(2.0, 8.0),
            pause_range=(0.0, 0.0),
            regime=HOLIDAY,
            hotspots=[],
            rng=random.Random("77:mobility"),
        )
        out = []
        for _ in range(1500):
            w.advance(0.1)
            out.append(w.pos)
        return out

    assert trajectory() == trajectory()


def test_wanderer_pauses_at_waypoints() -> None:
    g = grid_map(3, 3, 30.0)
    w = Wanderer(
        graph=g,
        vertex=0,
        speed_range=(10.0, 10.0),
        pause_range=(20.0, 20.0),
        regime=HOLIDAY,
        hotspots=[],
        rng=random.Random(5),
    )
    longest_rest = 0
    rest = 0
    prev = w.pos
    for _ in range(3000):
        w.advance(0.1)
        if w.pos == prev:
            rest += 1
            longest_rest = max(longest_rest, rest)
        else:
            rest = 0
        prev = w.pos
    # a 20 s pause at 0.1 s ticks shows up as roughly 200 still frames
    assert longest_rest >= 190


def test_wanderer_never_pauses_with_zero_range() -> None:
    g = grid_map(3, 3, 30.0)
    w = Wanderer(
        graph=g,
        vertex=0,
        speed_range=(5.0, 5.0),
        pause_range=(0.0, 0.0),
        regime=HOLIDAY,
        hotspots=[],
        rng=random.Random(6),
    )
    still = 0
    prev = w.pos
    for _ in range(2000):
        w.advance(0.1)
        if w.pos == prev:
            still += 1
        prev = w.pos
    # only isolated arrival ticks may hold position, never a run
    assert still < 40


def test_fixed_post_never_moves() -> None:
    g = grid_map(3, 3, 30.0)
    post = FixedPost(g, 4)
    start = post.pos
    for _ in range(100):
        post.advance(0.1)
    assert post.pos == start


def _walkers(graph: MapGraph, seed: int, speed, pause) -> list[Wanderer]:
    rng = random.Random(seed)
    return [
        Wanderer(graph, rng.randrange(graph.vertex_count), speed, pause, HOLIDAY, [], rng)
        for _ in range(5)
    ]


@pytest.mark.parametrize(
    "graph, speed, pause",
    [
        (grid_map(6, 6, 1.0), (2.5, 2.5), (0.0, 2.0)),  # exact arrivals on vertices
        (random_planar_map(40, 60.0, seed=1), (80.0, 160.0), (0.0, 0.0)),  # many per tick
        (grid_map(5, 5, 40.0), (0.5, 3.0), (5.0, 30.0)),  # long glides and pauses
    ],
    ids=["exact", "fast", "paused"],
)
def test_fleet_positions_equal_advance_on_every_tick(graph, speed, pause) -> None:
    stepped = _walkers(graph, 9, speed, pause)
    fleet = Fleet(_walkers(graph, 9, speed, pause), 0.1)
    # uneven blocks put the boundaries anywhere in a glide or a pause
    for n in (1, 2, 3, 64, 100, 257, 7, 400, 1):
        out = np.empty((n, len(stepped), 2))
        fleet.glide(out)
        for row in out:
            for w in stepped:
                w.advance(0.1)
            assert row.tolist() == [list(w.pos) for w in stepped]
    assert [w.vertex for w in fleet.walkers] == [w.vertex for w in stepped]
