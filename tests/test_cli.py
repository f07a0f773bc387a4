"""Subcommand integration: each command exercised through main()."""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtnlab
import dtnlab.pipeline as pipeline
from dtnlab.cli import main
from dtnlab.pipeline import load_predictor
from dtnlab.routing import FEATURE_NAMES
from dtnlab.scenario import (
    ConfigurationError,
    desk_scenario,
    load_scenario,
    save_scenario,
    scenario_ini,
)
from dtnlab.serve import HttpPredictor, running_server


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario file plus three simulated runs, a dataset, and a model."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "p8c8.ini"
    save_scenario(desk_scenario(8, 8, duration_s=900.0), ini)
    for seed in (1, 2, 3):
        rc = main(
            [
                "simulate",
                str(ini),
                "--router",
                "SprayAndWait",
                "--seed",
                str(seed),
                "--out",
                str(root / f"run{seed}"),
            ]
        )
        assert rc == 0
    rc = main(
        [
            "extract",
            "--logs",
            *[str(root / f"run{s}") for s in (1, 2, 3)],
            "--out",
            str(root / "dataset"),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--dataset",
            str(root / "dataset"),
            "--model-kind",
            "rf",
            "--out",
            str(root / "model.json"),
        ]
    )
    assert rc == 0
    return root


def same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    return all(same_tree(a / d, b / d) for d in cmp.common_dirs)


class TestSimulate:
    def test_repeat_invocations_write_identical_files(self, workspace):
        rc = main(
            [
                "simulate",
                str(workspace / "p8c8.ini"),
                "--seed",
                "1",
                "--out",
                str(workspace / "run1_again"),
            ]
        )
        assert rc == 0
        assert same_tree(workspace / "run1", workspace / "run1_again")

    def test_gated_router_runs_from_a_model_file(self, workspace):
        rc = main(
            [
                "simulate",
                str(workspace / "p8c8.ini"),
                "--router",
                "MLPBasedRouter",
                "--model",
                str(workspace / "model.json"),
                "--seed",
                "2",
                "--out",
                str(workspace / "run_gated"),
            ]
        )
        assert rc == 0
        assert (workspace / "run_gated" / "metrics.json").exists()

    def test_gated_router_without_model_is_an_error(self, workspace, capsys):
        rc = main(
            [
                "simulate",
                str(workspace / "p8c8.ini"),
                "--router",
                "MLPBasedRouter",
                "--out",
                str(workspace / "never_gated"),
            ]
        )
        assert rc == 2
        assert "--model" in capsys.readouterr().err
        assert not (workspace / "never_gated").exists()

    def test_bad_predictor_endpoint_fails_before_any_run(self, workspace, capsys):
        rc = main(
            [
                "simulate",
                str(workspace / "p8c8.ini"),
                "--router",
                "MLPBasedRouter",
                "--model",
                str(workspace / "model.json"),
                "--predictor",
                "http:localhost:80x",
                "--out",
                str(workspace / "never_served"),
            ]
        )
        assert rc == 2
        assert "localhost:80x" in capsys.readouterr().err
        assert not (workspace / "never_served").exists()

    def test_unknown_router_is_a_usage_error(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    str(workspace / "p8c8.ini"),
                    "--router",
                    "Prophet",
                    "--out",
                    str(workspace / "never"),
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "SprayAndWait" in err and "Epidemic" in err

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nduration_s = banana\n")
        rc = main(["simulate", str(bad), "--out", str(tmp_path / "never")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_sections_and_keys_are_named(self, tmp_path, capsys):
        text = scenario_ini(desk_scenario(8, 8, duration_s=900.0))
        bad = tmp_path / "typo.ini"
        bad.write_text(
            text.replace("range_m =", "rang_m =").replace("[placement]", "[placment]")
        )
        with pytest.raises(ConfigurationError) as exc:
            load_scenario(bad)
        for name in ("typo.ini", "radio.rang_m", "[placment]"):
            assert name in str(exc.value)
        assert "accident_vertex" not in str(exc.value)  # a section is named once
        rc = main(["simulate", str(bad), "--out", str(tmp_path / "never")])
        assert rc == 2
        assert "radio.rang_m" in capsys.readouterr().err

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "ghost.ini"), "--out", str(tmp_path / "n")])
        assert rc == 2
        assert "ghost.ini" in capsys.readouterr().err


class TestLoadPredictor:
    def test_bad_endpoint_is_a_configuration_error(self, workspace):
        with pytest.raises(ConfigurationError, match="localhost:80x") as exc:
            load_predictor(str(workspace / "model.json"), "http:localhost:80x")
        assert isinstance(exc.value.__cause__, ValueError)

    def test_http_predictor_round_trip(self, workspace):
        model = workspace / "model.json"
        local, medians = load_predictor(str(model), "inprocess")
        with running_server(model) as server:
            port = server.server_address[1]
            remote, remote_medians = load_predictor(str(model), f"http:127.0.0.1:{port}")
            assert isinstance(remote, HttpPredictor)
            assert remote_medians == medians
            for k in range(5):
                features = {name: float(k + i) for i, name in enumerate(FEATURE_NAMES)}
                assert remote.decide(features) == local.decide(features)


def test_cli_import_leaves_requests_out():
    probe = (
        "import dtnlab.cli, sys; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    src = str(Path(dtnlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"


class TestExtract:
    def test_prints_cohort_counts_and_balance(self, workspace, capsys):
        rc = main(
            [
                "extract",
                "--logs",
                str(workspace / "run1"),
                "--out",
                str(workspace / "dataset_one"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "P8_C8:weekday:s1: 16 rows, 8 labeled 1" in out
        assert (workspace / "dataset_one" / "dataset.csv").exists()
        assert (workspace / "dataset_one" / "metadata.json").exists()


class TestTrainAndTune:
    def test_train_writes_model_and_eval(self, workspace, capsys):
        assert (workspace / "model.json").exists()
        assert (workspace / "model.eval.json").exists()
        report = json.loads((workspace / "model.eval.json").read_text())
        assert set(report) >= {"accuracy", "f1", "auc"}
        doc = json.loads((workspace / "model.json").read_text())
        assert doc["kind"] == "rf"
        assert doc["model_version"]

    def test_svm_is_refused_citing_the_exclusion(self, workspace, capsys):
        rc = main(
            [
                "train",
                "--dataset",
                str(workspace / "dataset"),
                "--model-kind",
                "svm",
                "--out",
                str(workspace / "never.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "svm" in err and "scope" in err

    def test_tune_emits_the_cv_table(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(
            pipeline, "RF_GRID", {"n_estimators": [5], "max_depth": [2, 4]}
        )
        rc = main(
            [
                "tune",
                "--dataset",
                str(workspace / "dataset"),
                "--model-kind",
                "rf",
                "--out",
                str(workspace / "tuned.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best:" in out
        cv = (workspace / "tuned.cv.csv").read_text().splitlines()
        assert cv[0] == "params,mean_f1,mean_auc"
        assert len(cv) == 3  # header + 2 grid cells
        assert (workspace / "tuned.json").exists()


class TestSweepCommand:
    def test_requires_model_for_ml_router(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--out",
                str(tmp_path / "never"),
                "--scenarios",
                "P4_C4",
                "--seeds",
                "1",
                "--duration",
                "300",
            ]
        )
        assert rc == 2
        assert "model" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_bad_scenario_name(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--out",
                str(tmp_path / "never"),
                "--scenarios",
                "20peds",
                "--protocols",
                "SprayAndWait",
            ]
        )
        assert rc == 2
        assert "PX_CY" in capsys.readouterr().err

    def test_small_sweep_and_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--out",
                str(out),
                "--scenarios",
                "P6_C6",
                "--regimes",
                "holiday",
                "--protocols",
                "SprayAndWait,MLPBasedRouter",
                "--seeds",
                "1",
                "--duration",
                "600",
                "--model",
                str(workspace / "model.json"),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "2 runs" in stdout
        assert (out / "summary_holiday.txt").exists()
        assert (out / "summary_holiday.csv").exists()

        rc = main(["report", "--runs", str(out)])
        assert rc == 0
        report_out = capsys.readouterr().out
        assert "Delivery Probability" in report_out
        assert "MLPBasedRouter" in report_out
