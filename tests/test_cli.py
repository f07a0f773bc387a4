"""Subcommand integration: each command exercised through main()."""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import dtnlab
import dtnlab.pipeline as pipeline
from dtnlab import cli
from dtnlab.cli import main
from dtnlab.mobility import grid_map, save_map
from dtnlab.pipeline import load_predictor
from dtnlab.routing import FEATURE_NAMES
from dtnlab.scenario import (
    MAP_KINDS,
    SCHEMA,
    ConfigurationError,
    MapSpec,
    ScenarioSpec,
    desk_scenario,
    load_scenario,
    save_scenario,
    scenario_ini,
    with_regime,
)
from dtnlab.serve import HttpPredictor
from helpers import running_server


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

    def test_truncated_model_file_exits_2_naming_it(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text((workspace / "model.json").read_text()[:200])
        rc = main(
            [
                "simulate",
                str(workspace / "p8c8.ini"),
                "--router",
                "MLPBasedRouter",
                "--model",
                str(broken),
                "--out",
                str(tmp_path / "never"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "broken.json" in err
        assert not (tmp_path / "never").exists()

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

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("kind = grid", "kind = file\npath = none.map", "none.map"),
            ("kind = grid", "kind = file\npath = bad.map", "cannot parse map line"),
            ("name = P8_C8", "name = P8_C8\nname = again", "'name'"),
            ("name = P8_C8", "name = 50%", None),
        ],
        ids=["missing_map_file", "malformed_map_file", "duplicated_key", "percent_in_value"],
    )
    def test_scenario_file_faults_exit_2_naming_the_file(
        self, old, new, named, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.map").write_text("V 0 0.0 0.0\nR 0 1\n")
        text = scenario_ini(DESK)
        text = text[: text.index("rows =")] + text[text.index("[radio]") :]  # grid keys out
        (tmp_path / "city.ini").write_text(text.replace(old, new, 1))
        rc = main(["simulate", "city.ini", "--out", "never"])
        err = capsys.readouterr().err
        if named is None:  # a % is plain text, so the spec round-trips
            assert rc == 0
            assert load_scenario(tmp_path / "city.ini") == replace(DESK, name="50%")
            return
        assert rc == 2
        assert err.startswith("error: city.ini: ") and named in err
        assert not (tmp_path / "never").exists()

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "ghost.ini"), "--out", str(tmp_path / "n")])
        assert rc == 2
        assert "ghost.ini" in capsys.readouterr().err


DESK = desk_scenario(8, 8, duration_s=900.0)
# The urban profile of bench/loop.py and of the acceptance sweep.
URBAN = dict(
    map=MapSpec(kind="grid", rows=12, cols=12, spacing_m=100.0),
    hotspots=(65, 66, 77, 78, 104),
    accident_vertex=53,
    hospital_vertices=(39, 102),
    pedestrian_speed_ms=(0.15, 0.45),
    pedestrian_pause_s=(60.0, 300.0),
    ttl_s=1200.0,
    copies=12,
    bandwidth_bps=20_000_000.0,
    size_bytes=(100_000, 200_000),
)
# Every manifest's config_sha256 is the digest of scenario_ini(spec), so these
# bytes must not move.  The file map's path is relative to the working directory.
GOLDEN_SCENARIOS = {
    "default": (
        ScenarioSpec(),
        "9bb0723439235d8807323d89cf5eb1f659b35577595ae507a9a45bc23f39729b",
    ),
    "desk": (DESK, "5642ad0f0bed205e58eb4a4bf8e3f6b61bf352cc2e5591b653f09dfe1efa184c"),
    "holiday_no_hotspots": (
        replace(DESK, regime="holiday", hotspots=()),
        "b6779dadf353070e73dbb420f96953bafb7e064e393369d8ce1e30ee0ae639eb",
    ),
    "destinations": (
        replace(DESK, destinations=("h1",)),
        "92ae9a20ee48504c880792f21ae6895320222cb69292aeef1a268c5e08b76c7f",
    ),
    "three_hospitals": (
        replace(DESK, hospitals=3, hospital_vertices=(27, 36, 9)),
        "ce2abf888f4381ba6c81d6367381dd6973eec97c4406ba9540bf8b8559cb5de8",
    ),
    "random_planar": (
        replace(
            DESK,
            map=MapSpec(kind="random_planar", n_vertices=30, extent_m=600.0, seed=7),
            hotspots=(1, 2, 3),
            hospital_vertices=(5, 6),
        ),
        "b57a69370255e68d014b5799be4d207ea0dc258e03a68b0e8a736edbfcdf6765",
    ),
    "file": (
        replace(DESK, map=MapSpec(kind="file", path="maps/town.map")),
        "2b0efda520631d50b3f04f23d8e5e8853156806356ae1c8f147f9bc251a91bc7",
    ),
    "urban": (
        with_regime(replace(desk_scenario(12, 12, duration_s=2400.0), **URBAN), "holiday"),
        "76e1ae12e7d7875eb55ebe77664c5d5dc0908f77bdc1da394ef249c767e3bcfc",
    ),
}


class TestScenarioFile:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_golden_bytes_and_round_trip(self, name, tmp_path, monkeypatch):
        spec, digest = GOLDEN_SCENARIOS[name]
        assert hashlib.sha256(scenario_ini(spec).encode()).hexdigest() == digest
        monkeypatch.chdir(tmp_path)
        (tmp_path / "maps").mkdir()
        save_map(grid_map(8, 8, 100.0), tmp_path / "maps" / "town.map")
        save_scenario(spec, tmp_path / "s.ini")
        assert load_scenario(tmp_path / "s.ini") == spec

    @pytest.mark.parametrize(
        "golden, extra, named",
        [
            ("desk", "n_vertices = 60\npath = /nonexistent.map\n", ("map.n_vertices", "map.path")),
            ("random_planar", "rows = 3\n", ("map.rows",)),
        ],
    )
    def test_keys_of_another_map_kind_are_named(self, golden, extra, named, tmp_path):
        text = scenario_ini(GOLDEN_SCENARIOS[golden][0])
        bad = tmp_path / "city.ini"
        bad.write_text(text.replace("[radio]", extra + "\n[radio]"))
        with pytest.raises(ConfigurationError, match="unknown key") as exc:
            load_scenario(bad)
        for name in named:
            assert name in str(exc.value)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("cars = 8", "cars = many", "nodes.cars"),
            ("interval_s = 25.0,35.0", "interval_s = 25.0", "traffic.interval_s"),
        ],
    )
    def test_value_errors_name_their_key(self, old, new, named, tmp_path):
        bad = tmp_path / "city.ini"
        bad.write_text(scenario_ini(DESK).replace(old, new))
        with pytest.raises(ConfigurationError) as exc:
            load_scenario(bad)
        assert f"city.ini: {named}: " in str(exc.value)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("ttl_s = 18000.0", "ttl_s = nan", "traffic.ttl_s"),
            ("range_m = 30.0", "range_m = nan", "radio.range_m"),
        ],
    )
    def test_nan_is_refused_naming_its_key(self, old, new, named, tmp_path, capsys):
        bad = tmp_path / "city.ini"
        bad.write_text(scenario_ini(DESK).replace(old, new))
        with pytest.raises(ConfigurationError) as exc:
            load_scenario(bad)
        assert str(exc.value) == f"{bad}: {named} must be finite"
        assert main(["simulate", str(bad), "--out", str(tmp_path / "never")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {named} must be finite\n"

    @pytest.mark.parametrize(
        "change, named",
        [
            (dict(ttl_s=float("inf")), "traffic.ttl_s"),
            (dict(duration_s=float("inf")), "scenario.duration_s"),
            (dict(interval_s=(25.0, float("inf"))), "traffic.interval_s"),
            (dict(car_pause_s=(float("-inf"), 0.0)), "mobility.car_pause_s"),
            (dict(map=replace(DESK.map, spacing_m=float("nan"))), "map.spacing_m"),
        ],
    )
    def test_infinity_and_nan_are_refused_by_validate(self, change, named):
        with pytest.raises(ConfigurationError, match=f"^{named} must be finite$"):
            replace(DESK, **change).validate()

    def test_unknown_map_kind_is_named_before_its_keys(self, tmp_path):
        bad = tmp_path / "city.ini"
        bad.write_text(scenario_ini(DESK).replace("kind = grid", "kind = hexgrid"))
        with pytest.raises(ConfigurationError) as exc:
            load_scenario(bad)
        assert "map.kind: unknown kind 'hexgrid'" in str(exc.value)
        assert "unknown key" not in str(exc.value)

    def test_every_spec_field_has_exactly_one_schema_row(self):
        owners = [
            *(("spec", f.name) for f in fields(ScenarioSpec) if f.name != "map"),
            *(("map", f.name) for f in fields(MapSpec)),
        ]
        rows = [("map" if section == "map" else "spec", f) for section, _, f, _ in SCHEMA]
        assert sorted(rows) == sorted(owners)
        assert len({(section, key) for section, key, _, _ in SCHEMA}) == len(SCHEMA)
        for _, map_fields in MAP_KINDS.values():
            assert set(map_fields) <= {f.name for f in fields(MapSpec)} - {"kind"}


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
            for suffix in ("", "/"):
                remote, remote_medians = load_predictor(
                    str(model), f"http:127.0.0.1:{port}{suffix}"
                )
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


def first_up(lines: list[str]) -> str:
    return next(line for line in lines if line.endswith(" up"))


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

    def test_missing_run_directory_exits_2_naming_it(self, workspace, tmp_path, capsys):
        ghost = tmp_path / "ghost"
        logs = [str(workspace / "run1"), str(ghost)]
        rc = main(["extract", "--logs", *logs, "--out", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: run directory not found: {ghost}\n"
        assert not (tmp_path / "d").exists()

    def test_directory_without_manifest_exits_2_naming_it(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        rc = main(["extract", "--logs", str(bare), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: run directory {bare} has no manifest.json\n"

    @pytest.mark.parametrize(
        "name", ["connectivity.txt", "delivered.txt", "relay.txt", "buffer.txt", "metrics.json"]
    )
    def test_run_without_a_file_exits_2_naming_it(self, name, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run1", run)
        (run / name).unlink()
        assert main(["extract", "--logs", str(run), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"error: run directory {run} has no {name}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "name, line, reason",
        [
            ("connectivity.txt", "@0.10 p1 <-> p1 up", "contact endpoints must differ"),
            ("delivered.txt", "12.0000 AC1", "expected 10 fields, got 2"),
            ("relay.txt", "garbage", None),
        ],
    )
    def test_malformed_log_line_exits_2_naming_file_and_line(
        self, name, line, reason, workspace, tmp_path, capsys
    ):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run1", run)
        lines = (run / name).read_text().splitlines()
        (run / name).write_text("\n".join(lines + [line]) + "\n")
        assert main(["extract", "--logs", str(run), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / name}: line {len(lines) + 1}: ")
        assert repr(line) in err and (reason is None or reason in err)

    def test_manifest_that_is_not_json_exits_2_naming_it(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run1", run)
        (run / "manifest.json").write_text('{"tool_version": ')
        assert main(["extract", "--logs", str(run), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {run / 'manifest.json'}: not JSON: ")

    @pytest.mark.parametrize("text", ["{\"delivery_probability\": ", "[1, 2]", "{}"])
    def test_broken_metrics_exit_2_naming_the_file(self, text, workspace, tmp_path, capsys):
        run = tmp_path / "sweep" / "P8_C8" / "weekday" / "SprayAndWait" / "seed1"
        shutil.copytree(workspace / "run1", run)
        (run / "metrics.json").write_text(text)
        for argv in (
            ["extract", "--logs", str(run), "--out", str(tmp_path / "d")],
            ["report", "--runs", str(tmp_path / "sweep")],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {run / 'metrics.json'}: ")

    @pytest.mark.parametrize(
        "edit, reason",
        [
            # cut at a line boundary, half way through the run
            (lambda lines: lines[: len(lines) // 2], "contact(s) never closed"),
            # the first up dropped: its pair's down comes with no up before it
            (
                lambda lines: [line for line in lines if line != first_up(lines)],
                "dropped while down",
            ),
            (lambda lines: [first_up(lines), *lines], "raised while already up"),
            (
                lambda lines: [*lines, "@1.00 p1 <-> p98 up"],
                "link p1-p98 names a node not in the run",
            ),
        ],
        ids=["cut", "down_without_up", "duplicated_up", "node_not_in_manifest"],
    )
    def test_contact_log_that_disagrees_exits_2_naming_the_run(
        self, edit, reason, workspace, tmp_path, capsys
    ):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run1", run)
        lines = (run / "connectivity.txt").read_text().splitlines()
        (run / "connectivity.txt").write_text("\n".join(edit(lines)) + "\n")
        assert main(["extract", "--logs", str(run), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: run directory {run}: ") and reason in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda manifest: manifest.pop("seed"), "missing seed"),
            (
                lambda manifest: manifest["nodes"].__setitem__(3, "x3"),
                "nodes: not a node name: 'x3'",
            ),
            (lambda manifest: manifest["nodes"].__setitem__(3, 3), "nodes: not a node name: 3"),
            (lambda manifest: manifest.__setitem__("nodes", "p0"), "nodes is not a list"),
        ],
        ids=["no_seed", "unknown_prefix", "number", "not_a_list"],
    )
    def test_manifest_without_what_extract_reads_exits_2_naming_it(
        self, edit, reason, workspace, tmp_path, capsys
    ):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run1", run)
        manifest = json.loads((run / "manifest.json").read_text())
        edit(manifest)
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["extract", "--logs", str(run), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"error: {run / 'manifest.json'}: {reason}\n"


class TestTrainAndTune:
    def test_train_writes_model_and_eval(self, workspace, capsys):
        assert (workspace / "model.json").exists()
        assert (workspace / "model.eval.json").exists()
        report = json.loads((workspace / "model.eval.json").read_text())
        assert set(report) >= {"accuracy", "f1", "auc"}
        doc = json.loads((workspace / "model.json").read_text())
        assert doc["kind"] == "rf"
        assert doc["model_version"]

    @pytest.mark.parametrize("command", ["train", "tune"])
    @pytest.mark.parametrize("kind", ["rf", "no-such-kind"])
    def test_missing_dataset_exits_2_naming_it(self, command, kind, tmp_path, capsys):
        ghost = tmp_path / "ghost"
        out = tmp_path / "never.json"
        rc = main([command, "--dataset", str(ghost), "--model-kind", kind, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: dataset directory not found: {ghost}\n"
        assert not out.exists()

    def test_dataset_without_its_files_exits_2_naming_them(self, workspace, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        args = ["train", "--dataset", str(partial), "--out", str(tmp_path / "never.json")]
        assert main(args) == 2
        assert f"dataset directory {partial} has no metadata.json" in capsys.readouterr().err
        metadata = (workspace / "dataset" / "metadata.json").read_bytes()
        (partial / "metadata.json").write_bytes(metadata)
        assert main(args) == 2
        assert f"dataset directory {partial} has no dataset.csv" in capsys.readouterr().err

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


class TestServeCommand:
    @pytest.fixture
    def no_server(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a server was started")

        monkeypatch.setattr(cli, "PredictionServer", refuse)

    def serve(self, model: Path, bind: str = "127.0.0.1:0") -> int:
        return main(["serve", "--model", str(model), "--bind", bind])

    def test_bad_bind_exits_2_naming_it(self, workspace, capsys, no_server):
        assert self.serve(workspace / "model.json", "nonsense") == 2
        assert "error: bind address 'nonsense'" in capsys.readouterr().err

    def test_missing_model_file_exits_2_naming_it(self, tmp_path, capsys, no_server):
        assert self.serve(tmp_path / "ghost.json") == 2
        assert "error: model file not found: " in capsys.readouterr().err

    def test_truncated_model_file_exits_2_naming_it(
        self, workspace, tmp_path, capsys, no_server
    ):
        broken = tmp_path / "broken.json"
        broken.write_text((workspace / "model.json").read_text()[:-40])
        assert self.serve(broken) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "broken.json: not a JSON model file" in err


class TestSweepCommand:
    def test_zero_seeds_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep was started")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        for seeds in ("0", "-2"):
            rc = main(["sweep", "--out", str(tmp_path / "never"), "--seeds", seeds])
            assert rc == 2
            assert f"--seeds must be at least 1, got {seeds}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

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
