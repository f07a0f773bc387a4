"""Scenario configuration: node counts, map, radio, traffic, mobility.

Scenarios are named P<x>_C<y> after their pedestrian and car counts and load
from INI files with nested sections.  The same spec drives the simulator, the
sweep harness, and dataset extraction, so everything a run depends on lives
here except the run seed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .mobility import (
    REGIMES,
    MapGraph,
    grid_map,
    load_map,
    random_planar_map,
)
from .nodes import NodeClass, NodeId


class ConfigurationError(ValueError):
    """Invalid scenario configuration; names the offending field."""


@dataclass(frozen=True)
class MapSpec:
    kind: str = "grid"  # grid | random_planar | file
    rows: int = 8
    cols: int = 8
    spacing_m: float = 100.0
    n_vertices: int = 40
    extent_m: float = 800.0
    seed: int = 0
    path: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    name: str = "P20_C20"
    duration_s: float = 7200.0
    tick_s: float = 0.1
    pedestrians: int = 20
    cars: int = 20
    hospitals: int = 2
    map: MapSpec = field(default_factory=MapSpec)
    range_m: float = 30.0
    bandwidth_bps: float = 2_000_000.0
    buffer_bytes: int = 50_000_000
    interval_s: tuple[float, float] = (25.0, 35.0)
    size_bytes: tuple[int, int] = (500_000, 1_000_000)
    ttl_s: float = 18_000.0
    copies: int = 10
    regime: str = "weekday"
    hotspots: tuple[int, ...] = (27, 28, 35, 36, 45)
    hotspot_bias: float = 0.8
    pedestrian_speed_ms: tuple[float, float] = (0.5, 1.5)
    car_speed_kmh: tuple[float, float] = (10.0, 50.0)
    pedestrian_pause_s: tuple[float, float] = (0.0, 120.0)
    car_pause_s: tuple[float, float] = (0.0, 0.0)
    accident_vertex: int = 0
    hospital_vertices: tuple[int, ...] = (27, 36)
    destinations: tuple[str, ...] = ()  # empty means every hospital

    def build_map(self) -> MapGraph:
        m = self.map
        if m.kind == "grid":
            return grid_map(m.rows, m.cols, m.spacing_m)
        if m.kind == "random_planar":
            return random_planar_map(m.n_vertices, m.extent_m, m.seed)
        if m.kind == "file":
            return load_map(m.path)
        raise ConfigurationError(f"map.kind: unknown kind {m.kind!r}")

    def roster(self) -> list[NodeId]:
        """Fixed node ordering: pedestrians, cars, accident, hospitals."""
        nodes = [NodeId(NodeClass.PEDESTRIAN, i) for i in range(self.pedestrians)]
        nodes += [NodeId(NodeClass.CAR, i) for i in range(self.cars)]
        nodes.append(NodeId(NodeClass.ACCIDENT, 0))
        nodes += [NodeId(NodeClass.HOSPITAL, i) for i in range(self.hospitals)]
        return nodes

    def destination_names(self) -> tuple[str, ...]:
        if self.destinations:
            return self.destinations
        return tuple(f"h{i}" for i in range(self.hospitals))

    def validate(self) -> MapGraph:
        """Check field sanity and cross-references; returns the built map."""
        if self.duration_s <= 0:
            raise ConfigurationError("scenario.duration_s must be positive")
        if self.tick_s <= 0:
            raise ConfigurationError("scenario.tick_s must be positive")
        # contact log timestamps carry two decimals, so ticks must land on them
        if abs(self.tick_s * 100 - round(self.tick_s * 100)) > 1e-9:
            raise ConfigurationError("scenario.tick_s must be a multiple of 0.01")
        if abs(round(self.duration_s / self.tick_s) * self.tick_s - self.duration_s) > 1e-6:
            raise ConfigurationError("scenario.duration_s must be a whole number of ticks")
        if self.pedestrians < 0 or self.cars < 0:
            raise ConfigurationError("nodes: counts must be non-negative")
        if self.hospitals < 1:
            raise ConfigurationError("nodes.hospitals must be at least 1")
        if self.range_m <= 0:
            raise ConfigurationError("radio.range_m must be positive")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("radio.bandwidth_bps must be positive")
        if self.buffer_bytes <= 0:
            raise ConfigurationError("buffer.capacity_bytes must be positive")
        lo, hi = self.interval_s
        if not (0 < lo <= hi):
            raise ConfigurationError("traffic.interval_s must be 0 < lo <= hi")
        slo, shi = self.size_bytes
        if not (0 < slo <= shi):
            raise ConfigurationError("traffic.size_bytes must be 0 < lo <= hi")
        if self.ttl_s <= 0:
            raise ConfigurationError("traffic.ttl_s must be positive")
        if self.copies < 1:
            raise ConfigurationError("traffic.copies must be at least 1")
        if self.regime not in REGIMES:
            raise ConfigurationError(f"mobility.regime must be one of {REGIMES}")
        graph = self.build_map()
        n = graph.vertex_count
        if self.regime == "weekday":
            if not self.hotspots:
                raise ConfigurationError("mobility.hotspots required for weekday")
            for h in self.hotspots:
                if not 0 <= h < n:
                    raise ConfigurationError(f"mobility.hotspots: vertex {h} not on map")
        if not 0 <= self.accident_vertex < n:
            raise ConfigurationError("placement.accident_vertex not on map")
        if len(self.hospital_vertices) != self.hospitals:
            raise ConfigurationError(
                "placement.hospital_vertices must list one vertex per hospital"
            )
        for v in self.hospital_vertices:
            if not 0 <= v < n:
                raise ConfigurationError(f"placement.hospital_vertices: vertex {v} not on map")
        names = {str(node) for node in self.roster()}
        for dest in self.destination_names():
            if dest not in names:
                raise ConfigurationError(f"traffic.destinations: unknown node {dest}")
            if not dest.startswith("h"):
                raise ConfigurationError("traffic.destinations must be hospital nodes")
        for pair_name, pair in (
            ("mobility.pedestrian_speed_ms", self.pedestrian_speed_ms),
            ("mobility.car_speed_kmh", self.car_speed_kmh),
        ):
            if not (0 < pair[0] <= pair[1]):
                raise ConfigurationError(f"{pair_name} must be 0 < lo <= hi")
        for pair_name, pair in (
            ("mobility.pedestrian_pause_s", self.pedestrian_pause_s),
            ("mobility.car_pause_s", self.car_pause_s),
        ):
            if not (0 <= pair[0] <= pair[1]):
                raise ConfigurationError(f"{pair_name} must be 0 <= lo <= hi")
        return graph


def _pair(raw: str, cast) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigurationError(f"expected 'lo,hi', got {raw!r}")
    return (cast(parts[0]), cast(parts[1]))


def _int_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(p.strip()) for p in raw.split(","))


def load_scenario(path: str | Path) -> ScenarioSpec:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read scenario file {path}")
    try:
        spec = _from_parser(parser)
    except (ValueError, KeyError) as err:
        raise ConfigurationError(f"{path}: {err}") from err
    spec.validate()
    return spec


def _from_parser(parser: configparser.ConfigParser) -> ScenarioSpec:
    """The spec the file describes; every section and key it holds must be
    one that is read here, so a typo fails instead of leaving a default."""
    defaults = ScenarioSpec()
    known: set[tuple[str, str]] = set()

    def get(section: str, option: str, cast, fallback):
        known.add((section, option))
        if parser.has_option(section, option):
            return cast(parser.get(section, option))
        return fallback

    map_spec = MapSpec(
        kind=get("map", "kind", str, defaults.map.kind),
        rows=get("map", "rows", int, defaults.map.rows),
        cols=get("map", "cols", int, defaults.map.cols),
        spacing_m=get("map", "spacing_m", float, defaults.map.spacing_m),
        n_vertices=get("map", "n_vertices", int, defaults.map.n_vertices),
        extent_m=get("map", "extent_m", float, defaults.map.extent_m),
        seed=get("map", "seed", int, defaults.map.seed),
        path=get("map", "path", str, defaults.map.path),
    )
    spec = ScenarioSpec(
        name=get("scenario", "name", str, defaults.name),
        duration_s=get("scenario", "duration_s", float, defaults.duration_s),
        tick_s=get("scenario", "tick_s", float, defaults.tick_s),
        pedestrians=get("nodes", "pedestrians", int, defaults.pedestrians),
        cars=get("nodes", "cars", int, defaults.cars),
        hospitals=get("nodes", "hospitals", int, defaults.hospitals),
        map=map_spec,
        range_m=get("radio", "range_m", float, defaults.range_m),
        bandwidth_bps=get("radio", "bandwidth_bps", float, defaults.bandwidth_bps),
        buffer_bytes=get("buffer", "capacity_bytes", int, defaults.buffer_bytes),
        interval_s=get("traffic", "interval_s", lambda r: _pair(r, float), defaults.interval_s),
        size_bytes=get("traffic", "size_bytes", lambda r: _pair(r, int), defaults.size_bytes),
        ttl_s=get("traffic", "ttl_s", float, defaults.ttl_s),
        copies=get("traffic", "copies", int, defaults.copies),
        regime=get("mobility", "regime", str, defaults.regime),
        hotspots=get("mobility", "hotspots", _int_list, defaults.hotspots),
        hotspot_bias=get("mobility", "hotspot_bias", float, defaults.hotspot_bias),
        pedestrian_speed_ms=get(
            "mobility", "pedestrian_speed_ms", lambda r: _pair(r, float), defaults.pedestrian_speed_ms
        ),
        car_speed_kmh=get(
            "mobility", "car_speed_kmh", lambda r: _pair(r, float), defaults.car_speed_kmh
        ),
        pedestrian_pause_s=get(
            "mobility", "pedestrian_pause_s", lambda r: _pair(r, float), defaults.pedestrian_pause_s
        ),
        car_pause_s=get(
            "mobility", "car_pause_s", lambda r: _pair(r, float), defaults.car_pause_s
        ),
        accident_vertex=get("placement", "accident_vertex", int, defaults.accident_vertex),
        hospital_vertices=get(
            "placement", "hospital_vertices", _int_list, defaults.hospital_vertices
        ),
        destinations=get(
            "traffic", "destinations", lambda r: tuple(p.strip() for p in r.split(",")), ()
        ),
    )
    sections = {section for section, _ in known}
    unknown = []
    for section in parser.sections():
        if section not in sections:
            unknown.append(f"section [{section}]")
            continue
        unknown += [
            f"key {section}.{option}"
            for option in parser.options(section)
            if (section, option) not in known
        ]
    if unknown:
        raise ConfigurationError("unknown " + ", ".join(unknown))
    return spec


def scenario_ini(spec: ScenarioSpec) -> str:
    """Canonical INI rendering; load_scenario(write(spec)) round-trips."""
    lines = [
        "[scenario]",
        f"name = {spec.name}",
        f"duration_s = {spec.duration_s!r}",
        f"tick_s = {spec.tick_s!r}",
        "",
        "[nodes]",
        f"pedestrians = {spec.pedestrians}",
        f"cars = {spec.cars}",
        f"hospitals = {spec.hospitals}",
        "",
        "[map]",
        f"kind = {spec.map.kind}",
    ]
    if spec.map.kind == "grid":
        lines += [
            f"rows = {spec.map.rows}",
            f"cols = {spec.map.cols}",
            f"spacing_m = {spec.map.spacing_m!r}",
        ]
    elif spec.map.kind == "random_planar":
        lines += [
            f"n_vertices = {spec.map.n_vertices}",
            f"extent_m = {spec.map.extent_m!r}",
            f"seed = {spec.map.seed}",
        ]
    else:
        lines.append(f"path = {spec.map.path}")
    lines += [
        "",
        "[radio]",
        f"range_m = {spec.range_m!r}",
        f"bandwidth_bps = {spec.bandwidth_bps!r}",
        "",
        "[buffer]",
        f"capacity_bytes = {spec.buffer_bytes}",
        "",
        "[traffic]",
        f"interval_s = {spec.interval_s[0]!r},{spec.interval_s[1]!r}",
        f"size_bytes = {spec.size_bytes[0]},{spec.size_bytes[1]}",
        f"ttl_s = {spec.ttl_s!r}",
        f"copies = {spec.copies}",
    ]
    if spec.destinations:
        lines.append(f"destinations = {','.join(spec.destinations)}")
    lines += [
        "",
        "[mobility]",
        f"regime = {spec.regime}",
        f"hotspots = {','.join(str(h) for h in spec.hotspots)}",
        f"hotspot_bias = {spec.hotspot_bias!r}",
        f"pedestrian_speed_ms = {spec.pedestrian_speed_ms[0]!r},{spec.pedestrian_speed_ms[1]!r}",
        f"car_speed_kmh = {spec.car_speed_kmh[0]!r},{spec.car_speed_kmh[1]!r}",
        f"pedestrian_pause_s = {spec.pedestrian_pause_s[0]!r},{spec.pedestrian_pause_s[1]!r}",
        f"car_pause_s = {spec.car_pause_s[0]!r},{spec.car_pause_s[1]!r}",
        "",
        "[placement]",
        f"accident_vertex = {spec.accident_vertex}",
        f"hospital_vertices = {','.join(str(v) for v in spec.hospital_vertices)}",
        "",
    ]
    return "\n".join(lines)


def save_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    Path(path).write_text(scenario_ini(spec))


def desk_scenario(
    pedestrians: int = 20,
    cars: int = 20,
    regime: str = "weekday",
    duration_s: float = 7200.0,
    name: str | None = None,
) -> ScenarioSpec:
    """Laptop-scale profile: 8x8 grid, hotspot cluster, corner accident site.

    Hospitals sit on two hotspot vertices so carriers that visit the busy part
    of town can hand deliveries over; the accident site is the far corner.
    """
    spec = ScenarioSpec(
        name=name or f"P{pedestrians}_C{cars}",
        duration_s=duration_s,
        pedestrians=pedestrians,
        cars=cars,
        regime=regime,
    )
    spec.validate()
    return spec


def with_regime(spec: ScenarioSpec, regime: str) -> ScenarioSpec:
    return replace(spec, regime=regime)
