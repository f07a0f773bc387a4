"""The package names the benchmark under bench/ relies on.

The benchmark imports the package and wraps its functions from outside
(bench/tracer.py patches each one through its owner's own ``__dict__``), so
renaming, deleting or moving one of them to a base class breaks the
benchmark without breaking any other test.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import loop
        import tracer

        yield loop, tracer
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_wraps_every_layer_and_restores_it(bench_modules):
    _, tracer = bench_modules
    t = tracer.Tracer()
    try:
        tracer.install(t)
        patched = list(t._undo)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_tracer_after_hooks_count_a_traced_run(bench_modules, tmp_path):
    from dtnlab import pipeline, simcore
    from dtnlab.scenario import desk_scenario

    _, tracer = bench_modules
    spec = desk_scenario(4, 4, duration_s=60.0)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        pipeline.write_run(tmp_path, simcore.run_simulation(spec, "SprayAndWait", 1), spec)
    finally:
        t.uninstall()
    assert t.counts["ticks"] == 600
    assert t.counts["link_ups"] > 0
    # link_transitions runs once per 100-tick block with a flip, on the
    # block's last positions, and the tracer checked such a whole block
    # against brute-force pairwise distances (a mismatch raises)
    assert 1 <= t.ncalls("simcore.link_transitions") <= 600 // simcore.BLOCK_TICKS
    assert t.counts["link_checks"] >= 1
    assert t.counts["buffer_admits"] > 0
    assert t.counts["write_run_bytes"] > 0


class AcceptsBusyPeers:
    def decide(self, features):
        return int(features["degree"] > 1.0), 0.5


def test_tracer_counts_the_gate_of_a_traced_run(bench_modules):
    from dtnlab import simcore
    from dtnlab.scenario import desk_scenario

    _, tracer = bench_modules
    spec = desk_scenario(10, 10, duration_s=900.0)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        simcore.run_simulation(spec, "MLPBasedRouter", 1, predictor=AcceptsBusyPeers())
    finally:
        t.uninstall()
    assert t.ncalls("routing.gate") > 0
    # the features are built inside the gate, through simcore's own global
    assert t.ncalls("routing.online_features", "routing.gate") > 0
    assert t.counts["cache_hits"] + t.counts["cache_misses"] > 0


def test_tracer_times_the_reader_and_extract_of_every_run(bench_modules, tmp_path):
    # read_run must call the contact-log reader, and dataset_from_runs the
    # extract, through pipeline's module globals, or reports.parse_s and
    # features.extract_s stop measuring them
    from dtnlab import pipeline, simcore
    from dtnlab.scenario import desk_scenario

    _, tracer = bench_modules
    spec = desk_scenario(4, 4, duration_s=120.0)
    runs = []
    for seed in (1, 2, 3):
        runs.append(tmp_path / f"run{seed}")
        pipeline.write_run(runs[-1], simcore.run_simulation(spec, "SprayAndWait", seed), spec)
    t = tracer.Tracer()
    contact_logs = []
    try:
        tracer.install(t)
        traced = pipeline.parse_contact_lines

        def reader(lines):
            contact_logs.append(lines)
            return traced(lines)

        pipeline.parse_contact_lines = reader
        pipeline.dataset_from_runs(runs)
    finally:
        t.uninstall()
    assert pipeline.parse_contact_lines.__module__ == "dtnlab.reports"
    assert len(contact_logs) == len(runs)
    # one span for each of a run's four logs, the contact log's among them
    assert t.ncalls("reports.parse", "pipeline.read_run") == 4 * len(runs)
    assert t.ncalls("features.extract") == len(runs)


def test_loop_uses_only_names_the_package_has(bench_modules):
    loop, _ = bench_modules
    tree = ast.parse((BENCH / "loop.py").read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("pipeline", "routing", "simcore")
    }
    assert used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used) if not hasattr(getattr(loop, mod), attr)]
    assert not missing
