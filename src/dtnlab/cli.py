"""Command line front end: simulate, extract, train, tune, serve, sweep, report."""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .features import load_dataset, save_dataset
from .ml import save_model
from .pipeline import (
    FULL_SCENARIO_GRID,
    SweepConfig,
    dataset_from_runs,
    discover_cells,
    load_predictor,
    render_table,
    run_simulation,
    run_sweep,
    summarize_cells,
    train_model,
    tune_model,
    write_run,
    write_tables,
)
from .routing import ROUTER_NAMES
from .scenario import ConfigurationError, desk_scenario, load_scenario
from .serve import PredictionServer, parse_bind
from .ml.model_io import load_model

_SCENARIO_NAME = re.compile(r"^P(\d+)_C(\d+)$")


def _parse_scenario_names(text: str, duration_s: float):
    specs = []
    for name in text.split(","):
        name = name.strip()
        match = _SCENARIO_NAME.match(name)
        if not match:
            raise ConfigurationError(
                f"scenario {name!r} does not match the PX_CY naming pattern"
            )
        specs.append(
            desk_scenario(int(match.group(1)), int(match.group(2)), duration_s=duration_s)
        )
    return tuple(specs)


def _eval_line(kind: str, report: dict) -> str:
    auc = "n/a" if report["auc"] is None else f"{report['auc']:.3f}"
    return (
        f"{kind}  accuracy={report['accuracy']:.3f}  precision={report['precision']:.3f}  "
        f"recall={report['recall']:.3f}  f1={report['f1']:.3f}  auc={auc}"
    )


def cmd_simulate(args) -> int:
    spec = load_scenario(args.config)
    predictor = None
    medians = (0.0, 0.0)
    if args.router == "MLPBasedRouter":
        predictor, medians = load_predictor(args.model, args.predictor)
    output = run_simulation(
        spec, args.router, args.seed, predictor=predictor, feature_medians=medians
    )
    metrics = write_run(args.out, output, spec)
    print(f"wrote {args.out}: {output.generated} created, {metrics.delivered} delivered")
    return 0


def cmd_extract(args) -> int:
    dataset = dataset_from_runs(args.logs, seed=args.seed)
    save_dataset(dataset, args.out)
    by_scenario: dict[str, list[int]] = {}
    for row in dataset.rows:
        by_scenario.setdefault(row["scenario"], []).append(row["label"])
    for scenario in sorted(by_scenario):
        labels = by_scenario[scenario]
        print(f"{scenario}: {len(labels)} rows, {sum(labels)} labeled 1")
    print(
        f"dataset: {len(dataset.y_train)} train / {len(dataset.y_test)} test rows "
        f"-> {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    clf, scaler, report = train_model(dataset, args.model_kind, seed=args.seed)
    version = save_model(args.out, clf, scaler, dataset.medians, extras={"eval": report})
    eval_path = Path(args.out).with_suffix(".eval.json")
    eval_path.write_text(json.dumps(report, indent=2) + "\n")
    print(_eval_line(args.model_kind, report))
    print(f"model {version} -> {args.out}")
    return 0


def cmd_tune(args) -> int:
    dataset = load_dataset(args.dataset)
    result, scaler, report = tune_model(dataset, args.model_kind, seed=args.seed)
    version = save_model(
        args.out,
        result.best_model,
        scaler,
        dataset.medians,
        extras={"eval": report, "best_params": result.best_params},
    )
    cv_path = Path(args.out).with_suffix(".cv.csv")
    lines = ["params,mean_f1,mean_auc"]
    for cell in result.table:
        params = " ".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
        lines.append(f"{params},{cell.mean_f1!r},{cell.mean_auc!r}")
    cv_path.write_text("\n".join(lines) + "\n")
    print(f"{len(result.table)}-cell CV table -> {cv_path}")
    for cell in result.table:
        params = " ".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
        print(f"  {params}: f1={cell.mean_f1:.3f} auc={cell.mean_auc:.3f}")
    print(f"best: {result.best_params}")
    print(_eval_line(args.model_kind, report))
    print(f"model {version} -> {args.out}")
    return 0


def cmd_serve(args) -> int:
    server = PredictionServer(parse_bind(args.bind), load_model(args.model))
    host, port = server.server_address[:2]
    print(f"serving {args.model} on {host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_sweep(args) -> int:
    if args.full:
        duration = 43200.0
        scenarios = tuple(
            desk_scenario(p, c, duration_s=duration) for p, c in FULL_SCENARIO_GRID
        )
        seeds = tuple(range(1, 6))
    else:
        if args.seeds < 1:
            raise ConfigurationError(f"--seeds must be at least 1, got {args.seeds}")
        duration = args.duration
        scenarios = _parse_scenario_names(args.scenarios, duration)
        seeds = tuple(range(1, args.seeds + 1))
    config = SweepConfig(
        scenarios=scenarios,
        regimes=tuple(args.regimes.split(",")),
        protocols=tuple(args.protocols.split(",")),
        seeds=seeds,
        model_path=args.model,
        predictor_spec=args.predictor,
    )
    result = run_sweep(config, args.out, progress=lambda line: print(f"  {line}"))
    for path in result.table_paths:
        if path.suffix == ".txt":
            print()
            print(path.read_text().rstrip())
    print(f"\n{len(result.cells)} runs -> {args.out}")
    return 0


def cmd_report(args) -> int:
    cells, scenarios, regimes, protocols = discover_cells(args.runs)
    aggregates = summarize_cells(cells, scenarios, regimes, protocols)
    for regime in regimes:
        for scope in scenarios + ["ALL"]:
            print(render_table(aggregates, scope, regime, protocols))
            print()
    if args.write:
        write_tables(aggregates, scenarios, regimes, protocols, Path(args.runs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtnlab",
        description="DTN routing laboratory: simulate, learn a relay gate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write its logs")
    p.add_argument("config", help="scenario INI file")
    p.add_argument("--router", default="SprayAndWait", choices=ROUTER_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="run directory to create")
    p.add_argument("--model", default=None, help="model file for MLPBasedRouter")
    p.add_argument(
        "--predictor", default="inprocess", help="inprocess or http:<endpoint>"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="build a labeled dataset from run logs")
    p.add_argument("--logs", nargs="+", required=True, help="run directories")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit the deployed classifier configuration")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model-kind", default="mlp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="grid search with cross-validation, then fit")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model-kind", default="mlp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("serve", help="expose a model file over HTTP")
    p.add_argument("--model", required=True)
    p.add_argument("--bind", default="127.0.0.1:8080")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("sweep", help="factorial protocol comparison")
    p.add_argument("--out", required=True)
    p.add_argument("--scenarios", default="P20_C20", help="comma-separated PX_CY names")
    p.add_argument("--regimes", default="weekday,holiday")
    p.add_argument(
        "--protocols", default="SprayAndWait,MLPBasedRouter,RandomRouter"
    )
    p.add_argument("--seeds", type=int, default=3, help="seed count, runs use 1..N")
    p.add_argument("--duration", type=float, default=7200.0, help="seconds per run")
    p.add_argument("--model", default=None, help="model file for MLPBasedRouter")
    p.add_argument(
        "--predictor", default="inprocess", help="inprocess or http:<endpoint>"
    )
    p.add_argument(
        "--full", action="store_true", help="full-scale grid: 9 scenarios, 12 h, 5 seeds"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-render summary tables from run directories")
    p.add_argument("--runs", required=True, help="sweep output directory")
    p.add_argument("--write", action="store_true", help="also rewrite the table files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
