"""Run directories, comparative sweeps, and the summary tables.

A run directory is the on-disk form of one simulation: the four text logs,
a metrics file, and a manifest recording the config hash, seed, and tool
version.  Sweeps are full factorials over (scenario, regime, protocol, seed)
with every cell persisted, then aggregated into per-regime tables whose rows
are the four comparison metrics and whose columns are the protocols.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .features import Dataset, ZScoreNormalizer, assemble_dataset, extract_features
from .ml import (
    MlpClassifier,
    RandomForestClassifier,
    eval_metrics,
    grid_search_cv,
    load_model,
)
from .nodes import NodeId
from .reports import (
    ContactEvent,
    DeliveryRecord,
    RelayEvent,
    ResidencyRecord,
    delivered_log_lines,
    parse_contact_lines,
    parse_delivered_lines,
    parse_relay_lines,
    parse_residency_lines,
    relay_log_lines,
    residency_log_lines,
    write_lines,
)
from .routing import ROUTER_NAMES, Predictor
from .scenario import ConfigurationError, ScenarioSpec, scenario_ini, with_regime
from .serve import HttpPredictor, InProcessPredictor
from .simcore import SimOutput, contact_log_lines, run_simulation

METRIC_ROWS = (
    ("delivery_probability", "Delivery Probability"),
    ("overhead_ratio", "Overhead Ratio"),
    ("latency_avg", "Latency Avg (s)"),
    ("buffertime_avg", "Buffertime Avg (s)"),
)

LOG_FILES = {
    "contacts": "connectivity.txt",
    "deliveries": "delivered.txt",
    "relays": "relay.txt",
    "residencies": "buffer.txt",
}


@dataclass(frozen=True)
class RunMetrics:
    """The four comparison metrics plus the raw counts behind them.

    overhead_ratio and latency_avg are None when nothing was delivered;
    buffertime_avg is None when no replica ever occupied a buffer.
    """

    delivery_probability: float
    overhead_ratio: float | None
    latency_avg: float | None
    buffertime_avg: float | None
    created: int
    delivered: int
    relayed: int

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})


def metrics_from_logs(
    deliveries: Sequence[DeliveryRecord],
    relays: Sequence[RelayEvent],
    residencies: Sequence[ResidencyRecord],
    created: int,
) -> RunMetrics:
    delivered_ids = {rec.message_id for rec in deliveries}
    delivered = len(delivered_ids)
    relayed = len(relays)
    if delivered:
        overhead = (relayed - delivered) / delivered
        latency = statistics.fmean(rec.delivery_time for rec in deliveries)
    else:
        overhead = None
        latency = None
    if residencies:
        buffertime = statistics.fmean(rec.seconds for rec in residencies)
    else:
        buffertime = None
    return RunMetrics(
        delivery_probability=delivered / created if created else 0.0,
        overhead_ratio=overhead,
        latency_avg=latency,
        buffertime_avg=buffertime,
        created=created,
        delivered=delivered,
        relayed=relayed,
    )


def compute_metrics(output: SimOutput) -> RunMetrics:
    return metrics_from_logs(
        output.deliveries, output.relays, output.residencies, output.generated
    )


# ------------------------------------------------------------ run directories


def config_digest(spec: ScenarioSpec) -> str:
    return hashlib.sha256(scenario_ini(spec).encode()).hexdigest()


def write_run(out_dir: str | Path, output: SimOutput, spec: ScenarioSpec) -> RunMetrics:
    """Persist one simulation as logs + metrics + manifest; returns the metrics."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_lines(contact_log_lines(output.plan), out / LOG_FILES["contacts"])
    write_lines(delivered_log_lines(output.deliveries), out / LOG_FILES["deliveries"])
    write_lines(relay_log_lines(output.relays), out / LOG_FILES["relays"])
    write_lines(residency_log_lines(output.residencies), out / LOG_FILES["residencies"])
    metrics = compute_metrics(output)
    (out / "metrics.json").write_text(json.dumps(metrics.as_dict(), indent=2) + "\n")
    manifest = {
        "tool_version": __version__,
        "config_sha256": config_digest(spec),
        "scenario": output.scenario,
        "regime": output.regime,
        "router": output.router,
        "seed": output.seed,
        "duration_s": output.duration_s,
        "generated_count": output.generated,
        "eligible_encounters": output.eligible_encounters,
        "fallbacks": output.fallbacks,
        "nodes": [str(node) for node in output.nodes],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return metrics


@dataclass(frozen=True)
class RunRecord:
    manifest: dict
    contacts: list[ContactEvent]
    deliveries: list[DeliveryRecord]
    relays: list[RelayEvent]
    residencies: list[ResidencyRecord]
    metrics: RunMetrics

    @property
    def nodes(self) -> list[NodeId]:
        return [NodeId.parse(name) for name in self.manifest["nodes"]]


def read_run(run_dir: str | Path) -> RunRecord:
    """The run directory's logs, metrics and manifest.  A missing directory
    or file, a malformed log line, a file that is not the JSON it should be
    and a manifest without the fields a dataset reads are refused by name
    (ConfigurationError)."""
    run = Path(run_dir)
    if not run.is_dir():
        raise ConfigurationError(f"run directory not found: {run}")
    manifest = _read_manifest(_run_file(run, "manifest.json"))
    return RunRecord(
        manifest=manifest,
        contacts=_read_log(run, LOG_FILES["contacts"], parse_contact_lines),
        deliveries=_read_log(run, LOG_FILES["deliveries"], parse_delivered_lines),
        relays=_read_log(run, LOG_FILES["relays"], parse_relay_lines),
        residencies=_read_log(run, LOG_FILES["residencies"], parse_residency_lines),
        metrics=_read_metrics(_run_file(run, "metrics.json")),
    )


def _run_file(run: Path, name: str) -> Path:
    path = run / name
    if not path.is_file():
        raise ConfigurationError(f"run directory {run} has no {name}")
    return path


def _read_log(run: Path, name: str, parse: Callable[[list[str]], list]) -> list:
    path = _run_file(run, name)
    try:
        return parse(path.read_text().splitlines())
    except ValueError as err:  # a ParseError names the line; bytes that are not text
        raise ConfigurationError(f"{path}: {err}") from err


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError as err:
        raise ConfigurationError(f"{path}: not JSON: {err}") from err


def _read_object(path: Path, fields: Iterable[str]) -> dict:
    """The JSON object in the file, refused by name unless it has every field."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: not a JSON object")
    missing = [name for name in fields if name not in data]
    if missing:
        raise ConfigurationError(f"{path}: missing {', '.join(missing)}")
    return data


def _read_manifest(path: Path) -> dict:
    """The manifest, with the fields dataset_from_runs reads checked."""
    data = _read_object(path, ("scenario", "regime", "seed", "nodes"))
    if not isinstance(data["nodes"], list):
        raise ConfigurationError(f"{path}: nodes is not a list")
    for name in data["nodes"]:
        try:
            NodeId.parse(name)
        except (TypeError, ValueError):  # not a string, or not a node's name
            raise ConfigurationError(f"{path}: nodes: not a node name: {name!r}") from None
    return data


def _read_metrics(path: Path) -> RunMetrics:
    return RunMetrics.from_dict(_read_object(path, RunMetrics.__dataclass_fields__))


def dataset_from_runs(
    run_dirs: Iterable[str | Path], seed: int = 0, test_fraction: float = 0.2
) -> Dataset:
    """Label each run as its own cohort, then pool into one train/test split."""
    scenario_rows = []
    for run_dir in run_dirs:
        record = read_run(run_dir)
        m = record.manifest
        cohort = f"{m['scenario']}:{m['regime']}:s{m['seed']}"
        try:
            rows = extract_features(record.nodes, record.contacts, record.deliveries)
        except ValueError as err:  # logs that disagree with each other or the manifest
            raise ConfigurationError(f"run directory {run_dir}: {err}") from err
        scenario_rows.append((cohort, rows))
    return assemble_dataset(scenario_rows, seed=seed, test_fraction=test_fraction)


# --------------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class SweepConfig:
    scenarios: tuple[ScenarioSpec, ...]
    regimes: tuple[str, ...] = ("weekday", "holiday")
    protocols: tuple[str, ...] = ("SprayAndWait", "MLPBasedRouter", "RandomRouter")
    seeds: tuple[int, ...] = (1, 2, 3)
    model_path: str | None = None
    predictor_spec: str = "inprocess"  # or "http:<endpoint>"


@dataclass
class SweepResult:
    cells: dict  # (scenario, regime, protocol, seed) -> RunMetrics
    aggregates: dict  # (scenario|"ALL", regime, protocol) -> {metric: (mean, std, n)}
    table_paths: list[Path] = field(default_factory=list)


def load_predictor(
    model_path: str | None, predictor_spec: str = "inprocess"
) -> tuple[Predictor, tuple[float, float]]:
    """Predictor plus feature medians for the gated router, from a model file."""
    if not model_path:
        raise ConfigurationError("MLPBasedRouter needs --model before any run starts")
    model = load_model(model_path)
    if predictor_spec == "inprocess":
        return InProcessPredictor(model), model.medians
    if predictor_spec.startswith("http:"):
        endpoint = predictor_spec[len("http:") :]
        if not endpoint.startswith("//"):
            endpoint = "//" + endpoint
        try:
            return HttpPredictor("http:" + endpoint), model.medians
        except ValueError as err:
            raise ConfigurationError(f"predictor {predictor_spec!r}: {err}") from err
    raise ConfigurationError(
        f"unknown predictor {predictor_spec!r}; use inprocess or http:<addr>"
    )


def _build_predictor(config: SweepConfig) -> tuple[Predictor | None, tuple[float, float]]:
    if "MLPBasedRouter" not in config.protocols:
        return None, (0.0, 0.0)
    return load_predictor(config.model_path, config.predictor_spec)


def _aggregate(values: list[float | None]) -> tuple[float | None, float | None, int]:
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None, 0
    mean = statistics.fmean(defined)
    std = statistics.stdev(defined) if len(defined) > 1 else 0.0
    return mean, std, len(defined)


def run_sweep(
    config: SweepConfig,
    out_dir: str | Path,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Full factorial over (scenario, regime, protocol, seed), all cells persisted.

    Every protocol in a cell sees the same mobility and traffic streams: the
    first protocol of a (scenario, regime, seed) builds its contact plan and
    the others replay it.
    """
    for protocol in config.protocols:
        if protocol not in ROUTER_NAMES:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; choose from {', '.join(ROUTER_NAMES)}"
            )
    predictor, medians = _build_predictor(config)
    out = Path(out_dir)
    cells: dict = {}
    for spec in config.scenarios:
        for regime in config.regimes:
            cell_spec = with_regime(spec, regime)
            for seed in config.seeds:
                plan = None  # built by the first protocol's run
                for protocol in config.protocols:
                    if progress:
                        progress(f"{spec.name} {regime} {protocol} seed {seed}")
                    output = run_simulation(
                        cell_spec,
                        protocol,
                        seed,
                        predictor=predictor if protocol == "MLPBasedRouter" else None,
                        feature_medians=medians,
                        plan=plan,
                    )
                    plan = output.plan
                    run_dir = out / spec.name / regime / protocol / f"seed{seed}"
                    metrics = write_run(run_dir, output, cell_spec)
                    cells[(spec.name, regime, protocol, seed)] = metrics
    scenario_names = [spec.name for spec in config.scenarios]
    aggregates = summarize_cells(cells, scenario_names, config.regimes, config.protocols)
    table_paths = write_tables(
        aggregates, scenario_names, config.regimes, config.protocols, out
    )
    return SweepResult(cells=cells, aggregates=aggregates, table_paths=table_paths)


def summarize_cells(
    cells: dict,
    scenario_names: Sequence[str],
    regimes: Sequence[str],
    protocols: Sequence[str],
) -> dict:
    aggregates: dict = {}
    for regime in regimes:
        for protocol in protocols:
            for scope in list(scenario_names) + ["ALL"]:
                picked = [
                    m
                    for (scen, reg, proto, _seed), m in cells.items()
                    if reg == regime
                    and proto == protocol
                    and (scope == "ALL" or scen == scope)
                ]
                aggregates[(scope, regime, protocol)] = {
                    metric: _aggregate([getattr(m, metric) for m in picked])
                    for metric, _ in METRIC_ROWS
                }
    return aggregates


def _format_cell(mean: float | None, std: float | None) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.3f} +/- {std:.3f}"


def render_table(
    aggregates: dict, scope: str, regime: str, protocols: Sequence[str]
) -> str:
    """Aligned text table: metric rows, one column per protocol."""
    header = ["Metric"] + list(protocols)
    rows = [header]
    for metric, title in METRIC_ROWS:
        row = [title]
        for protocol in protocols:
            mean, std, _n = aggregates[(scope, regime, protocol)][metric]
            row.append(_format_cell(mean, std))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [f"{scope} / {regime}"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def write_tables(
    aggregates: dict,
    scenario_names: Sequence[str],
    regimes: Sequence[str],
    protocols: Sequence[str],
    out: Path,
) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    scopes = list(scenario_names)
    for regime in regimes:
        blocks = [
            render_table(aggregates, scope, regime, protocols)
            for scope in scopes + ["ALL"]
        ]
        txt_path = out / f"summary_{regime}.txt"
        txt_path.write_text("\n\n".join(blocks) + "\n")
        csv_lines = ["scenario,metric,protocol,mean,std,n"]
        for scope in scopes + ["ALL"]:
            for metric, _ in METRIC_ROWS:
                for protocol in protocols:
                    mean, std, n = aggregates[(scope, regime, protocol)][metric]
                    csv_lines.append(
                        f"{scope},{metric},{protocol},"
                        f"{'' if mean is None else repr(mean)},"
                        f"{'' if std is None else repr(std)},{n}"
                    )
        csv_path = out / f"summary_{regime}.csv"
        csv_path.write_text("\n".join(csv_lines) + "\n")
        paths.extend([txt_path, csv_path])
    return paths


def discover_cells(out_dir: str | Path) -> tuple[dict, list[str], list[str], list[str]]:
    """Rebuild sweep cells from per-run metrics files on disk.

    Returns (cells, scenario names, regimes, protocols) in first-seen order,
    scanning <scenario>/<regime>/<protocol>/seed<k>/metrics.json.
    """
    out = Path(out_dir)
    cells: dict = {}
    scenarios: list[str] = []
    regimes: list[str] = []
    protocols: list[str] = []
    for metrics_path in sorted(out.glob("*/*/*/seed*/metrics.json")):
        seed_dir = metrics_path.parent
        protocol = seed_dir.parent.name
        regime = seed_dir.parent.parent.name
        scenario = seed_dir.parent.parent.parent.name
        seed = int(seed_dir.name[len("seed") :])
        cells[(scenario, regime, protocol, seed)] = _read_metrics(metrics_path)
        for seen, value in ((scenarios, scenario), (regimes, regime), (protocols, protocol)):
            if value not in seen:
                seen.append(value)
    if not cells:
        raise ConfigurationError(f"no run metrics found under {out}")
    protocols.sort(key=lambda p: ROUTER_NAMES.index(p) if p in ROUTER_NAMES else 99)
    return cells, scenarios, regimes, protocols


# ------------------------------------------------------------------- training

MLP_GRID = {"learning_rate": [1e-2, 1e-3, 1e-4], "batch_size": [16, 32, 64]}
RF_GRID = {"n_estimators": [50, 100, 200], "max_depth": [5, 10, 20]}

# the configurations actually deployed when no tuning pass is requested
MLP_DEFAULTS: dict = {}  # hidden layers (128, 64) are the classifier default
RF_DEFAULTS = {"n_estimators": 200, "max_depth": 10}


def make_classifier(kind: str, seed: int = 0, **params):
    if kind == "mlp":
        return MlpClassifier(seed=seed, **params)
    if kind == "rf":
        return RandomForestClassifier(seed=seed, **params)
    raise ConfigurationError(
        f"model kind {kind!r} is unsupported: kernel-SVM training is out of "
        "this laboratory's scope; choose mlp or rf"
    )


def train_model(dataset: Dataset, kind: str, seed: int = 0):
    """Fit the deployed configuration of one classifier kind.

    Returns (classifier, fitted scaler, held-out eval report).
    """
    defaults = {"mlp": MLP_DEFAULTS, "rf": RF_DEFAULTS}.get(kind)
    if defaults is None:
        make_classifier(kind)  # raises with the full message
    scaler = ZScoreNormalizer().fit(dataset.X_train)
    clf = make_classifier(kind, seed=seed, **defaults)
    clf.fit(scaler.transform(dataset.X_train), dataset.y_train)
    report = eval_metrics(dataset.y_test, clf.predict_proba(scaler.transform(dataset.X_test)))
    return clf, scaler, report


def tune_model(
    dataset: Dataset, kind: str, seed: int = 0, n_folds: int = 5, grid: dict | None = None
):
    """Grid search with stratified k-fold CV, then a refit on the train split.

    Returns (GridSearchResult, fitted scaler, held-out eval report).
    """
    if grid is None:
        grid = {"mlp": MLP_GRID, "rf": RF_GRID}.get(kind)
    if grid is None:
        make_classifier(kind)
    scaler = ZScoreNormalizer().fit(dataset.X_train)
    X_train = scaler.transform(dataset.X_train)
    result = grid_search_cv(
        lambda **params: make_classifier(kind, seed=seed, **params),
        grid,
        X_train,
        dataset.y_train,
        n_folds=n_folds,
        seed=seed,
    )
    report = eval_metrics(
        dataset.y_test, result.best_model.predict_proba(scaler.transform(dataset.X_test))
    )
    return result, scaler, report


# --------------------------------------------------------------- full profile

FULL_SCENARIO_GRID = (
    (50, 50),
    (50, 60),
    (60, 50),
    (60, 60),
    (70, 70),
    (70, 80),
    (80, 80),
    (80, 90),
    (90, 80),
)
