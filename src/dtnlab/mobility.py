"""Map-constrained mobility: synthetic maps, shortest paths, waypoint walks.

Mobile nodes live on an undirected road graph.  A trip picks a waypoint
vertex, follows the shortest path to it at a per-trip speed, then pauses and
picks the next waypoint.  Weekday traffic biases waypoints toward a hotspot
list with probability 0.8; holiday traffic picks uniformly.  The current
vertex is never picked as the next waypoint.

A Wanderer steps one tick per advance().  A Fleet moves all the walkers of
a run a block of ticks at a time: the ticks between two events of a walker
are computed as numpy arrays, and only the events (vertex crossings and
pause ends) run through advance(), so positions and random draws equal
those of advancing every walker on every tick.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WEEKDAY = "weekday"
HOLIDAY = "holiday"
REGIMES = (WEEKDAY, HOLIDAY)


class MapError(ValueError):
    pass


@dataclass
class MapGraph:
    coords: list[tuple[float, float]]
    edges: list[tuple[int, int]]  # canonical a < b, no duplicates
    adjacency: list[list[tuple[int, float]]] = field(init=False)
    # shortest-path tree (predecessor list) per source, filled by shortest_path
    _trees: dict[int, list[int]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.coords)
        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise MapError(f"edge ({a}, {b}) references unknown vertex")
            if a == b:
                raise MapError(f"self loop at vertex {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise MapError(f"duplicate edge {key}")
            seen.add(key)
            length = self.edge_length(a, b)
            if length <= 0:
                raise MapError(f"zero-length edge {key}")
            adjacency[a].append((b, length))
            adjacency[b].append((a, length))
        for nbrs in adjacency:
            nbrs.sort()
        self.adjacency = adjacency

    @property
    def vertex_count(self) -> int:
        return len(self.coords)

    def edge_length(self, a: int, b: int) -> float:
        (ax, ay), (bx, by) = self.coords[a], self.coords[b]
        return math.hypot(bx - ax, by - ay)

    def component_of(self, start: int) -> set[int]:
        """Every vertex reachable from start."""
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _ in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def is_connected(self) -> bool:
        return bool(self.coords) and len(self.component_of(0)) == self.vertex_count


def grid_map(rows: int, cols: int, spacing: float) -> MapGraph:
    """Lattice of rows x cols vertices; 2*r*c - r - c edges."""
    if rows < 2 or cols < 2:
        raise MapError("grid needs at least 2 rows and 2 columns")
    coords = [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return MapGraph(coords, edges)


def random_planar_map(
    n_vertices: int, extent: float, seed: int, k_nearest: int = 3
) -> MapGraph:
    """Random road net: k-nearest-neighbour links, bridged until connected."""
    if n_vertices < 2:
        raise MapError("need at least 2 vertices")
    rng = random.Random(f"{seed}:map")
    coords = [
        (rng.uniform(0.0, extent), rng.uniform(0.0, extent)) for _ in range(n_vertices)
    ]
    edge_set: set[tuple[int, int]] = set()
    for v in range(n_vertices):
        dists = sorted(
            (math.dist(coords[v], coords[w]), w) for w in range(n_vertices) if w != v
        )
        for _, w in dists[:k_nearest]:
            edge_set.add((min(v, w), max(v, w)))
    graph = MapGraph(coords, sorted(edge_set))
    while not graph.is_connected():
        comp = graph.component_of(0)
        best = None
        for v in sorted(comp):
            for w in range(n_vertices):
                if w in comp:
                    continue
                d = math.dist(coords[v], coords[w])
                if best is None or (d, v, w) < best:
                    best = (d, v, w)
        assert best is not None
        edge_set.add((min(best[1], best[2]), max(best[1], best[2])))
        graph = MapGraph(coords, sorted(edge_set))
    return graph


# ------------------------------------------------------------------ map files
#
# Plain-text exchange format, one item per line:
#   V <id> <x> <y>
#   E <id1> <id2>


def save_map(graph: MapGraph, path: str | Path) -> None:
    lines = [
        f"V {i} {x!r} {y!r}" for i, (x, y) in enumerate(graph.coords)
    ] + [f"E {a} {b}" for a, b in sorted(graph.edges)]
    Path(path).write_text("".join(line + "\n" for line in lines))


def load_map(path: str | Path) -> MapGraph:
    coords: dict[int, tuple[float, float]] = {}
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "V" and len(fields) == 4:
            coords[int(fields[1])] = (float(fields[2]), float(fields[3]))
        elif fields[0] == "E" and len(fields) == 3:
            edges.append((int(fields[1]), int(fields[2])))
        else:
            raise MapError(f"line {line_no}: cannot parse map line {line!r}")
    if sorted(coords) != list(range(len(coords))):
        raise MapError("vertex ids must be dense 0..n-1")
    ordered = [coords[i] for i in range(len(coords))]
    graph = MapGraph(ordered, [(min(a, b), max(a, b)) for a, b in edges])
    if not graph.is_connected():
        raise MapError("imported map is not connected")
    return graph


# ------------------------------------------------------------- shortest paths


def shortest_path(graph: MapGraph, src: int, dst: int) -> list[int]:
    """Dijkstra path from src to dst as a vertex list; ties break on vertex id.

    The path is read off src's shortest-path tree, which is built once per
    (graph, src) and kept on the graph.  A vertex's predecessor is final once
    Dijkstra pops it, so the full tree gives the same paths as a search that
    stops at dst.
    """
    n = graph.vertex_count
    if not (0 <= src < n and 0 <= dst < n):
        raise MapError("path endpoints outside the map")
    prev = graph._trees.get(src)
    if prev is None:
        prev = graph._trees[src] = _shortest_path_tree(graph, src)
    if dst != src and prev[dst] < 0:
        raise MapError(f"no path from {src} to {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _shortest_path_tree(graph: MapGraph, src: int) -> list[int]:
    """Each vertex's predecessor on its shortest path from src; -1 at src and
    at vertices src cannot reach."""
    n = graph.vertex_count
    dist = [math.inf] * n
    prev = [-1] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = [False] * n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for w, length in graph.adjacency[v]:
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                prev[w] = v
                heapq.heappush(heap, (nd, w))
    return prev


# ------------------------------------------------------------------ waypoints


def next_waypoint(
    current: int,
    regime: str,
    hotspots: list[int],
    n_vertices: int,
    rng: random.Random,
    hotspot_bias: float = 0.8,
) -> int:
    """Draw the next trip target; never returns the current vertex."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime == WEEKDAY and not hotspots:
        raise ValueError("weekday regime needs a non-empty hotspot list")
    if n_vertices < 2:
        raise ValueError("cannot pick a waypoint on a single-vertex map")
    if regime == WEEKDAY and rng.random() < hotspot_bias:
        candidates = [h for h in hotspots if h != current]
        if candidates:
            return candidates[rng.randrange(len(candidates))]
        # every hotspot is the current vertex; fall through to uniform
    while True:
        choice = rng.randrange(n_vertices)
        if choice != current:
            return choice


@dataclass
class Wanderer:
    """One mobile node walking waypoint trips on the map.

    All randomness comes from the shared stream passed in, so advancing a
    fixed node set in a fixed order replays identically for a given seed.
    """

    graph: MapGraph
    vertex: int  # vertex most recently departed from or resting at
    speed_range: tuple[float, float]  # m/s, redrawn each trip
    pause_range: tuple[float, float]  # seconds at each waypoint
    regime: str
    hotspots: list[int]
    rng: random.Random
    hotspot_bias: float = 0.8

    def __post_init__(self) -> None:
        self.pos = self.graph.coords[self.vertex]
        self.pause_left = 0.0
        self.speed = 0.0
        self._route: list[int] = []  # vertices still ahead on this trip
        self._seg_target = -1
        self._seg_left = 0.0
        self._begin_trip()

    def _begin_trip(self) -> None:
        target = next_waypoint(
            self.vertex,
            self.regime,
            self.hotspots,
            self.graph.vertex_count,
            self.rng,
            self.hotspot_bias,
        )
        route = shortest_path(self.graph, self.vertex, target)
        self.speed = self.rng.uniform(*self.speed_range)
        self._route = route[1:]
        self._next_segment()

    def _next_segment(self) -> None:
        self._seg_target = self._route.pop(0)
        self._seg_len = self.graph.edge_length(self.vertex, self._seg_target)
        self._seg_left = self._seg_len
        self._seg_start = self.graph.coords[self.vertex]
        self._seg_end = self.graph.coords[self._seg_target]

    def advance(self, dt: float) -> None:
        if self.pause_left > 0.0:
            self.pause_left -= dt
            if self.pause_left <= 0.0:
                self.pause_left = 0.0
                self._begin_trip()
            return
        travel = self.speed * dt
        while travel > 0.0:
            if travel < self._seg_left:
                self._seg_left -= travel
                f = 1.0 - self._seg_left / self._seg_len
                sx, sy = self._seg_start
                ex, ey = self._seg_end
                self.pos = (sx + (ex - sx) * f, sy + (ey - sy) * f)
                return
            # vertex crossing; any leftover motion this tick is dropped at a
            # trip end so a pause never starts mid tick
            travel -= self._seg_left
            self.vertex = self._seg_target
            self.pos = self.graph.coords[self.vertex]
            if self._route:
                self._next_segment()
            else:
                pause = self.rng.uniform(*self.pause_range)
                if pause > 0.0:
                    self.pause_left = pause
                else:
                    self._begin_trip()
                return


@dataclass
class FixedPost:
    """Stationary node pinned to a map vertex (accident site, hospital)."""

    graph: MapGraph
    vertex: int

    def __post_init__(self) -> None:
        self.pos = self.graph.coords[self.vertex]

    def advance(self, dt: float) -> None:
        return


class Fleet:
    """The walkers of one run, moved a block of ticks at a time.

    Between two events a walker either glides along its segment or counts
    its pause down, in both cases by subtracting one fixed step per tick
    (speed * dt, or dt).  np.subtract.accumulate folds those subtractions
    left to right, so every count and every position has the bits that
    Wanderer.advance gives tick by tick.  An event is the tick on which the
    count would reach zero: a vertex crossing or the end of a pause.  It
    runs through the walker's own advance(), in (tick, walker) order, so the
    shared random stream is drawn in the same order as a tick-by-tick walk.
    A walker's own pos and counters are brought up to date only at its
    events; between them the fleet's arrays hold its state.
    """

    def __init__(self, walkers: list[Wanderer], dt: float) -> None:
        self.walkers = walkers
        self.dt = dt
        m = len(walkers)
        self.left = np.empty(m)  # segment length or pause time still ahead
        self.step = np.empty(m)  # what one tick takes off left
        self.seg_len = np.ones(m)
        self.start = np.empty((m, 2))
        self.span = np.zeros((m, 2))  # segment end minus start
        self.paused = np.zeros(m, dtype=bool)
        for i in range(m):
            self._load(i)

    def _load(self, i: int) -> None:
        """Copy walker i's state after an advance() into the arrays."""
        w = self.walkers[i]
        paused = self.paused[i] = w.pause_left > 0.0
        if paused:
            self.left[i] = w.pause_left
            self.step[i] = self.dt
            self.start[i] = w.pos
        else:
            self.left[i] = w._seg_left
            self.step[i] = w.speed * self.dt
            self.seg_len[i] = w._seg_len
            (sx, sy), (ex, ey) = w._seg_start, w._seg_end
            self.start[i] = sx, sy
            self.span[i] = ex - sx, ey - sy

    def glide(self, out: np.ndarray) -> None:
        """Move every walker len(out) ticks; out[t, i] is walker i's position
        after the (t + 1)-th of them."""
        n = len(out)
        counts = np.empty((n + 1, len(self.walkers)))
        counts[0] = self.left
        counts[1:] = self.step
        counts = np.subtract.accumulate(counts, axis=0)  # row t + 1: after tick t
        self.left = counts[n].copy()
        f = 1.0 - counts[1:] / self.seg_len
        np.add(self.start, self.span * f[:, :, None], out=out)
        out[:, self.paused] = self.start[self.paused]
        # Rows from a walker's first event on hold made-up positions until
        # that event is run; each event rewrites its walker's rows after it.
        due = counts[1:] <= 0.0
        events = []  # (tick, walker, count before that tick)
        for i in due.any(axis=0).nonzero()[0].tolist():
            t = int(due[:, i].argmax())
            events.append((t, i, float(counts[t, i])))
        heapq.heapify(events)
        while events:
            t, i, before = heapq.heappop(events)
            walker = self.walkers[i]
            if self.paused[i]:
                walker.pause_left = before
            else:
                walker._seg_left = before
            walker.advance(self.dt)
            self._load(i)
            out[t, i] = walker.pos
            rest = out[t + 1 :, i]
            if not len(rest):
                continue
            run = np.full(len(rest) + 1, self.step[i])  # run[r]: count after tick t + r
            run[0] = self.left[i]
            run = np.subtract.accumulate(run)
            self.left[i] = run[-1]
            if self.paused[i]:
                rest[:] = self.start[i]
            else:
                f = 1.0 - run[1:] / self.seg_len[i]
                np.add(self.start[i], self.span[i] * f[:, None], out=rest)
            due = run[1:] <= 0.0
            r = int(due.argmax())
            if due[r]:
                heapq.heappush(events, (t + 1 + r, i, float(run[r])))
