"""Scenario configuration: node counts, map, radio, traffic, mobility.

Scenarios are named P<x>_C<y> after their pedestrian and car counts and load
from INI files with nested sections.  The same spec drives the simulator, the
sweep harness, and dataset extraction, so everything a run depends on lives
here except the run seed.

SCHEMA owns the file format: one (section, key, field, parser) row per key,
in the order scenario_ini writes them; MAP_KINDS says which [map] keys each
map kind takes.  load_scenario accepts exactly the keys scenario_ini writes
for the file's map kind, names every unknown section or key, and names the
section.key of every value it cannot parse.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import groupby
from pathlib import Path
from typing import Any, Callable

from .mobility import (
    REGIMES,
    MapError,
    MapGraph,
    grid_map,
    load_map,
    random_planar_map,
)
from .nodes import NodeClass, NodeId


class ConfigurationError(ValueError):
    """Invalid input (scenario or model file, command-line value); the
    message names the file and key, or the option, at fault."""


@dataclass(frozen=True)
class MapSpec:
    kind: str = "grid"  # a key of MAP_KINDS
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
        """The map graph.  A generated map is built once per kind and
        arguments and shared, with the shortest-path trees cached on it; a
        map file is read afresh on every call."""
        builder, fields = _map_kind(self.map.kind)
        args = tuple(getattr(self.map, f) for f in fields)
        if builder is load_map:
            return builder(*args)
        return _generated_map(builder, args)

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
        # NaN fails no `<= 0` test, and infinity passes the sign tests
        for section, key, name, parse in SCHEMA:
            if parse is float or parse is _FLOAT_PAIR:
                value = getattr(self.map if section == "map" else self, name)
                values = value if parse is _FLOAT_PAIR else (value,)
                if not all(math.isfinite(v) for v in values):
                    raise ConfigurationError(f"{section}.{key} must be finite")
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
        try:
            graph = self.build_map()
        except (OSError, MapError) as err:  # a map file missing or malformed
            raise ConfigurationError(f"map: {err}") from err
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


@dataclass(frozen=True)
class _Items:
    """Parser of a comma-separated value: exactly two items if ``pair``, else
    any number, none for an empty value."""

    cast: type
    pair: bool = False

    def __call__(self, raw: str) -> tuple:
        parts = [p.strip() for p in raw.split(",")] if raw.strip() else []
        if self.pair and len(parts) != 2:
            raise ValueError(f"expected 'lo,hi', got {raw!r}")
        return tuple(self.cast(p) for p in parts)


_FLOAT_PAIR = _Items(float, pair=True)

# The scenario file format, in the order scenario_ini writes it: (section, key,
# field, parser).  Rows of section "map" are MapSpec fields, the others
# ScenarioSpec fields.  A map row is read and written only for the kinds whose
# MAP_KINDS entry names it.
SCHEMA: tuple[tuple[str, str, str, Any], ...] = (
    ("scenario", "name", "name", str),
    ("scenario", "duration_s", "duration_s", float),
    ("scenario", "tick_s", "tick_s", float),
    ("nodes", "pedestrians", "pedestrians", int),
    ("nodes", "cars", "cars", int),
    ("nodes", "hospitals", "hospitals", int),
    ("map", "kind", "kind", str),
    ("map", "rows", "rows", int),
    ("map", "cols", "cols", int),
    ("map", "spacing_m", "spacing_m", float),
    ("map", "n_vertices", "n_vertices", int),
    ("map", "extent_m", "extent_m", float),
    ("map", "seed", "seed", int),
    ("map", "path", "path", str),
    ("radio", "range_m", "range_m", float),
    ("radio", "bandwidth_bps", "bandwidth_bps", float),
    ("buffer", "capacity_bytes", "buffer_bytes", int),
    ("traffic", "interval_s", "interval_s", _FLOAT_PAIR),
    ("traffic", "size_bytes", "size_bytes", _Items(int, pair=True)),
    ("traffic", "ttl_s", "ttl_s", float),
    ("traffic", "copies", "copies", int),
    ("traffic", "destinations", "destinations", _Items(str)),
    ("mobility", "regime", "regime", str),
    ("mobility", "hotspots", "hotspots", _Items(int)),
    ("mobility", "hotspot_bias", "hotspot_bias", float),
    ("mobility", "pedestrian_speed_ms", "pedestrian_speed_ms", _FLOAT_PAIR),
    ("mobility", "car_speed_kmh", "car_speed_kmh", _FLOAT_PAIR),
    ("mobility", "pedestrian_pause_s", "pedestrian_pause_s", _FLOAT_PAIR),
    ("mobility", "car_pause_s", "car_pause_s", _FLOAT_PAIR),
    ("placement", "accident_vertex", "accident_vertex", int),
    ("placement", "hospital_vertices", "hospital_vertices", _Items(int)),
)

# kind -> (builder, the MapSpec fields it takes, in its argument order)
MAP_KINDS: dict[str, tuple[Callable[..., MapGraph], tuple[str, ...]]] = {
    "grid": (grid_map, ("rows", "cols", "spacing_m")),
    "random_planar": (random_planar_map, ("n_vertices", "extent_m", "seed")),
    "file": (load_map, ("path",)),
}


@lru_cache(maxsize=8)
def _generated_map(builder: Callable[..., MapGraph], args: tuple) -> MapGraph:
    return builder(*args)


def load_scenario(path: str | Path) -> ScenarioSpec:
    # no interpolation: every value is read as written, a % included
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as err:  # a duplicated key or section, a bad line
        raise ConfigurationError(f"{path}: {err}") from err
    if not read:
        raise ConfigurationError(f"cannot read scenario file {path}")
    try:
        spec = _from_parser(parser)
        spec.validate()
    except ValueError as err:
        raise ConfigurationError(f"{path}: {err}") from err
    return spec


def _map_kind(kind: str) -> tuple[Callable[..., MapGraph], tuple[str, ...]]:
    if kind not in MAP_KINDS:
        raise ConfigurationError(f"map.kind: unknown kind {kind!r}")
    return MAP_KINDS[kind]


def _rows(kind: str) -> list[tuple[str, str, str, Any]]:
    """The schema rows a scenario file with this map kind holds."""
    fields = ("kind", *_map_kind(kind)[1])
    return [row for row in SCHEMA if row[0] != "map" or row[2] in fields]


def _from_parser(parser: configparser.ConfigParser) -> ScenarioSpec:
    """The spec the file describes; every section and key it holds must be
    one of its map kind's schema rows, so a typo fails instead of leaving a
    default."""
    kind = parser.get("map", "kind", fallback=MapSpec.kind)
    rows = {(section, key): (field, parse) for section, key, field, parse in _rows(kind)}
    sections = {section for section, _ in rows}
    map_values: dict[str, Any] = {}
    spec_values: dict[str, Any] = {}
    unknown = []
    for section in parser.sections():
        if section not in sections:
            unknown.append(f"section [{section}]")
            continue
        for key, raw in parser.items(section):
            if (section, key) not in rows:
                unknown.append(f"key {section}.{key}")
                continue
            field, parse = rows[section, key]
            try:
                (map_values if section == "map" else spec_values)[field] = parse(raw)
            except ValueError as err:
                raise ConfigurationError(f"{section}.{key}: {err}") from err
    if unknown:
        raise ConfigurationError("unknown " + ", ".join(unknown))
    return ScenarioSpec(map=MapSpec(**map_values), **spec_values)


def _render(value: Any, parse: Any) -> str:
    if isinstance(parse, _Items):
        return ",".join(_render(item, parse.cast) for item in value)
    return repr(value) if parse is float else str(value)


def scenario_ini(spec: ScenarioSpec) -> str:
    """Canonical INI rendering; load_scenario(write(spec)) round-trips.

    Every schema row of the spec's map kind is written, in schema order,
    except a list left at its empty default.
    """
    defaults = ScenarioSpec()
    lines = []
    for section, rows in groupby(_rows(spec.map.kind), key=lambda row: row[0]):
        lines.append(f"[{section}]")
        for _, key, field, parse in rows:
            value = getattr(spec.map if section == "map" else spec, field)
            if value == () and getattr(defaults, field, None) == ():
                continue
            lines.append(f"{key} = {_render(value, parse)}")
        lines.append("")
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
