"""Metric arithmetic, run directories, sweep factorials, and aggregation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from dtnlab.features import FEATURE_NAMES, ZScoreNormalizer, assemble_dataset
from dtnlab import pipeline, simcore
from dtnlab.ml import RandomForestClassifier, save_model
from dtnlab.nodes import NodeId
from dtnlab.pipeline import (
    RunMetrics,
    SweepConfig,
    compute_metrics,
    config_digest,
    dataset_from_runs,
    discover_cells,
    make_classifier,
    metrics_from_logs,
    read_run,
    run_sweep,
    summarize_cells,
    train_model,
    tune_model,
    write_run,
)
from dtnlab.reports import DeliveryRecord, RelayEvent, ResidencyRecord
from dtnlab.routing import SprayAndWaitRouter
from dtnlab.scenario import ConfigurationError, desk_scenario, scenario_ini
from dtnlab.simcore import Simulation, run_simulation


def mk_delivery(msg_id: str, time: float = 100.0, delay: float = 40.0) -> DeliveryRecord:
    return DeliveryRecord(
        time=time,
        message_id=msg_id,
        size=500000,
        hopcount=1,
        delivery_time=delay,
        from_host=NodeId.parse("a0"),
        to_host=NodeId.parse("h0"),
        remaining_ttl=100,
        is_response=False,
        path=(NodeId.parse("a0"), NodeId.parse("h0")),
    )


def mk_relay(i: int) -> RelayEvent:
    return RelayEvent(
        time=float(i), sender=NodeId.parse("a0"), receiver=NodeId.parse("p0"),
        message_id=f"AC{i}",
    )


def mk_residency(seconds: float) -> ResidencyRecord:
    return ResidencyRecord(
        time=100.0, node=NodeId.parse("p0"), message_id="AC0",
        seconds=seconds, reason="end",
    )


class TestMetricFormulas:
    def test_echoes_the_tabled_regime(self):
        deliveries = [mk_delivery(f"AC{i}") for i in range(72)]
        relays = [mk_relay(i) for i in range(551)]
        metrics = metrics_from_logs(deliveries, relays, [], created=100)
        assert metrics.delivery_probability == 0.72
        assert abs(metrics.overhead_ratio - 479 / 72) < 1e-9
        assert abs(metrics.overhead_ratio - 6.6528) < 1e-3

    def test_one_extra_relay_per_delivery(self):
        deliveries = [mk_delivery(f"AC{i}") for i in range(10)]
        relays = [mk_relay(i) for i in range(20)]
        metrics = metrics_from_logs(deliveries, relays, [], created=10)
        assert metrics.overhead_ratio == 1.0

    def test_zero_deliveries_leave_ratios_undefined(self):
        metrics = metrics_from_logs([], [mk_relay(1)], [mk_residency(12.5)], created=4)
        assert metrics.delivery_probability == 0.0
        assert metrics.overhead_ratio is None
        assert metrics.latency_avg is None
        assert metrics.buffertime_avg == 12.5

    def test_duplicate_message_ids_count_once(self):
        deliveries = [mk_delivery("AC0"), mk_delivery("AC0", time=200.0)]
        metrics = metrics_from_logs(deliveries, [], [], created=4)
        assert metrics.delivered == 1
        assert metrics.delivery_probability == 0.25

    def test_latency_and_buffertime_are_plain_means(self):
        deliveries = [mk_delivery("AC0", delay=10.0), mk_delivery("AC1", delay=50.0)]
        residencies = [mk_residency(s) for s in (1.0, 2.0, 6.0)]
        metrics = metrics_from_logs(deliveries, [], residencies, created=2)
        assert metrics.latency_avg == 30.0
        assert metrics.buffertime_avg == 3.0

    def test_round_trips_through_dict(self):
        metrics = metrics_from_logs([], [], [], created=0)
        assert RunMetrics.from_dict(metrics.as_dict()) == metrics


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    spec = desk_scenario(8, 8, duration_s=1200.0)
    output = run_simulation(spec, "SprayAndWait", seed=5)
    run_dir = tmp_path_factory.mktemp("runs") / "one"
    metrics = write_run(run_dir, output, spec)
    return spec, output, run_dir, metrics


class TestRunDirectories:
    def test_metrics_match_text_log_recount(self, sim_run):
        # purely parser-based oracle: everything recomputed from the files
        _spec, _output, run_dir, metrics = sim_run
        record = read_run(run_dir)
        created = record.manifest["generated_count"]
        delivered = len({r.message_id for r in record.deliveries})
        assert metrics.delivery_probability == delivered / created
        assert metrics.delivered == delivered
        assert metrics.relayed == len(record.relays)
        if delivered:
            expected = (len(record.relays) - delivered) / delivered
            assert metrics.overhead_ratio == expected
            latency = math.fsum(r.delivery_time for r in record.deliveries) / delivered
            assert metrics.latency_avg == latency
        if record.residencies:
            buffertime = math.fsum(r.seconds for r in record.residencies) / len(
                record.residencies
            )
            assert metrics.buffertime_avg == buffertime
        on_disk = RunMetrics.from_dict(json.loads((run_dir / "metrics.json").read_text()))
        assert on_disk == metrics

    def test_logs_round_trip_through_disk(self, sim_run):
        _spec, output, run_dir, _metrics = sim_run
        record = read_run(run_dir)
        # the connectivity writer canonicalizes to (time, a, b) order
        assert record.contacts == sorted(
            output.contact_events, key=lambda e: (e.time, e.a.sort_key, e.b.sort_key)
        )
        assert record.deliveries == output.deliveries
        assert record.relays == output.relays
        assert record.residencies == output.residencies

    def test_manifest_provenance(self, sim_run):
        spec, output, run_dir, _metrics = sim_run
        manifest = read_run(run_dir).manifest
        assert manifest["config_sha256"] == config_digest(spec)
        assert manifest["scenario"] == spec.name
        assert manifest["regime"] == "weekday"
        assert manifest["router"] == "SprayAndWait"
        assert manifest["seed"] == 5
        assert manifest["generated_count"] == output.generated
        assert manifest["nodes"] == [str(n) for n in output.nodes]
        assert manifest["tool_version"]

    def test_config_digest_tracks_content(self, sim_run):
        spec, *_ = sim_run
        assert config_digest(spec) != config_digest(desk_scenario(8, 9))
        assert len(config_digest(spec)) == 64
        assert scenario_ini(spec) != scenario_ini(desk_scenario(8, 9))

    def test_dataset_from_runs_one_cohort_per_run(self, sim_run, tmp_path):
        spec, output, run_dir, _metrics = sim_run
        other = run_simulation(spec, "SprayAndWait", seed=6)
        other_dir = tmp_path / "two"
        write_run(other_dir, other, spec)
        dataset = dataset_from_runs([run_dir, other_dir], seed=0)
        cohorts = {row["scenario"] for row in dataset.rows}
        assert cohorts == {"P8_C8:weekday:s5", "P8_C8:weekday:s6"}
        assert len(dataset.rows) == 32  # 16 mobile nodes per run
        for cohort in cohorts:
            labels = [r["label"] for r in dataset.rows if r["scenario"] == cohort]
            assert abs(sum(labels) - (len(labels) - sum(labels))) <= 1


def tiny_model(tmp_path) -> str:
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(1, 0.5, (30, 7)), rng.normal(4, 0.5, (30, 7))])
    X = np.abs(X)
    y = np.array([0] * 30 + [1] * 30)
    scaler = ZScoreNormalizer().fit(X)
    clf = RandomForestClassifier(n_estimators=5, seed=0).fit(scaler.transform(X), y)
    path = tmp_path / "model.json"
    save_model(path, clf, scaler, medians=(2.0, 600.0))
    return str(path)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = SweepConfig(
        scenarios=(desk_scenario(6, 6, duration_s=600.0),),
        regimes=("weekday", "holiday"),
        protocols=("SprayAndWait", "RandomRouter"),
        seeds=(1, 2),
    )
    return config, run_sweep(config, out), out


class TestSweep:
    def test_factorial_is_complete(self, sweep):
        config, result, out = sweep
        assert len(result.cells) == 1 * 2 * 2 * 2
        for regime in config.regimes:
            for protocol in config.protocols:
                for seed in config.seeds:
                    key = ("P6_C6", regime, protocol, seed)
                    assert key in result.cells
                    run_dir = out / "P6_C6" / regime / protocol / f"seed{seed}"
                    for name in (
                        "connectivity.txt",
                        "delivered.txt",
                        "relay.txt",
                        "buffer.txt",
                        "metrics.json",
                        "manifest.json",
                    ):
                        assert (run_dir / name).exists()

    def test_protocols_share_contact_streams(self, sweep):
        _config, _result, out = sweep
        for regime in ("weekday", "holiday"):
            for seed in (1, 2):
                spray = (
                    out / "P6_C6" / regime / "SprayAndWait" / f"seed{seed}" / "connectivity.txt"
                ).read_bytes()
                rand = (
                    out / "P6_C6" / regime / "RandomRouter" / f"seed{seed}" / "connectivity.txt"
                ).read_bytes()
                assert spray == rand

    def test_csv_means_match_cell_recount(self, sweep):
        # independent aggregation oracle straight from the per-cell files
        _config, result, out = sweep
        for regime in ("weekday", "holiday"):
            lines = (out / f"summary_{regime}.csv").read_text().splitlines()
            assert lines[0] == "scenario,metric,protocol,mean,std,n"
            for line in lines[1:]:
                scope, metric, protocol, mean, _std, n = line.split(",")
                values = []
                for (scen, reg, proto, seed), m in result.cells.items():
                    if reg == regime and proto == protocol and (
                        scope == "ALL" or scen == scope
                    ):
                        v = json.loads(
                            (out / scen / reg / proto / f"seed{seed}" / "metrics.json").read_text()
                        )[metric]
                        if v is not None:
                            values.append(v)
                if not values:
                    assert mean == ""
                    assert n == "0"
                else:
                    assert abs(float(mean) - math.fsum(values) / len(values)) < 1e-12
                    assert int(n) == len(values)

    def test_table_layout(self, sweep):
        _config, _result, out = sweep
        text = (out / "summary_weekday.txt").read_text()
        lines = text.splitlines()
        assert lines[0] == "P6_C6 / weekday"
        header = lines[1].split()
        assert header == ["Metric", "SprayAndWait", "RandomRouter"]
        assert lines[3].startswith("Delivery Probability")
        assert lines[4].startswith("Overhead Ratio")
        assert lines[5].startswith("Latency Avg (s)")
        assert lines[6].startswith("Buffertime Avg (s)")
        assert "ALL / weekday" in text

    def test_discover_cells_rebuilds_the_sweep(self, sweep):
        config, result, out = sweep
        cells, scenarios, regimes, protocols = discover_cells(out)
        assert cells == result.cells
        assert scenarios == ["P6_C6"]
        assert set(regimes) == {"weekday", "holiday"}
        assert protocols == ["SprayAndWait", "RandomRouter"]
        rebuilt = summarize_cells(cells, scenarios, config.regimes, protocols)
        assert rebuilt == result.aggregates

    def test_each_cell_builds_one_contact_plan(self, tmp_path, monkeypatch):
        built = []
        real = simcore.contact_plan

        def counted(spec, seed):
            built.append((spec.name, spec.regime, seed))
            return real(spec, seed)

        monkeypatch.setattr(simcore, "contact_plan", counted)
        spec = desk_scenario(6, 6, duration_s=300.0)
        Simulation(spec, SprayAndWaitRouter(), 1)
        assert built == []
        config = SweepConfig(
            scenarios=(spec,),
            regimes=("weekday", "holiday"),
            protocols=("SprayAndWait", "RandomRouter"),
            seeds=(1, 2),
        )
        result = run_sweep(config, tmp_path / "out")
        assert len(result.cells) == 8
        assert built == [
            ("P6_C6", regime, seed) for regime in ("weekday", "holiday") for seed in (1, 2)
        ]

    def test_ml_protocol_requires_a_model_up_front(self, tmp_path):
        config = SweepConfig(
            scenarios=(desk_scenario(4, 4, duration_s=300.0),),
            protocols=("SprayAndWait", "MLPBasedRouter"),
            seeds=(1,),
        )
        out = tmp_path / "never"
        with pytest.raises(ConfigurationError, match="model"):
            run_sweep(config, out)
        assert not out.exists()  # failed before any run started

    def test_missing_model_file_is_caught(self, tmp_path):
        config = SweepConfig(
            scenarios=(desk_scenario(4, 4, duration_s=300.0),),
            protocols=("MLPBasedRouter",),
            seeds=(1,),
            model_path=str(tmp_path / "ghost.json"),
        )
        with pytest.raises(ConfigurationError, match="not found"):
            run_sweep(config, tmp_path / "never")

    def test_unknown_protocol_is_rejected(self, tmp_path):
        config = SweepConfig(
            scenarios=(desk_scenario(4, 4, duration_s=300.0),),
            protocols=("Prophet",),
            seeds=(1,),
        )
        with pytest.raises(ConfigurationError, match="Prophet"):
            run_sweep(config, tmp_path / "never")

    def test_ml_cells_run_with_a_real_model(self, tmp_path):
        config = SweepConfig(
            scenarios=(desk_scenario(6, 6, duration_s=600.0),),
            regimes=("holiday",),
            protocols=("SprayAndWait", "MLPBasedRouter"),
            seeds=(1,),
            model_path=tiny_model(tmp_path),
        )
        result = run_sweep(config, tmp_path / "out")
        assert ("P6_C6", "holiday", "MLPBasedRouter", 1) in result.cells


def synthetic_dataset(n_per_class: int = 30, seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    for scenario in ("quiet", "busy"):
        offset = 0.0 if scenario == "quiet" else 3.0
        sc_rows = []
        for i in range(n_per_class):
            values = np.abs(rng.normal(2.0 + offset * (i % 2), 1.0, size=7))
            row = {name: float(v) for name, v in zip(FEATURE_NAMES, values)}
            row["node"] = f"p{i}"
            sc_rows.append(row)
        rows.append((scenario, sc_rows))
    return assemble_dataset(rows, seed=seed)


class TestTraining:
    def test_train_model_reports_heldout_metrics(self):
        dataset = synthetic_dataset()
        clf, scaler, report = train_model(dataset, "rf", seed=0)
        assert set(report) == {"accuracy", "precision", "recall", "f1", "auc"}
        probs = clf.predict_proba(scaler.transform(dataset.X_test))
        assert len(probs) == len(dataset.y_test)

    def test_tune_model_with_custom_grid(self):
        dataset = synthetic_dataset()
        result, _scaler, report = tune_model(
            dataset, "rf", seed=0, n_folds=3,
            grid={"n_estimators": [5], "max_depth": [2, 4]},
        )
        assert len(result.table) == 2
        assert result.best_params["n_estimators"] == 5
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_svm_is_refused_with_the_reason(self):
        with pytest.raises(ConfigurationError, match="svm"):
            make_classifier("svm")
        with pytest.raises(ConfigurationError, match="scope"):
            train_model(synthetic_dataset(), "svm")
