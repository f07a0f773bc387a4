"""The research loop the benchmark times, and the three workloads over it.

One round runs five stages, each a public entry point of the package:

    corpus   simulate SprayAndWait runs and write their logs (write_run)
    train    dataset_from_runs, then fit and save the MLP and the forest
    cell     run_sweep over one cell, MLPBasedRouter in-process, tables
    inproc   InProcessPredictor.decide with each model, one query at a time
    http     a closed loop of keep-alive clients against `dtnlab serve`

Every workload runs every stage, so every metric is measured on every
workload; the workloads differ in how much work each stage holds.  All
inputs derive from the workload seed.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import host
import service
from dtnlab import pipeline, routing, simcore
from dtnlab.ml import load_model, save_model
from dtnlab.scenario import MapSpec, desk_scenario, with_regime
from dtnlab.serve import HttpPredictor, InProcessPredictor

# The dense-city profile of the acceptance sweep (c11/c12): 12x12 street
# grid, crawling pedestrians, short-lived messages, fast radio.
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
# The acceptance sweep's 14-run training corpus on the urban profile, the
# corpus of every workload: (pedestrians, cars, regime, duration_s).  Its
# seeds come from the workload seed here.  How long training takes depends
# on the corpus it is given, so a smaller corpus makes extract_train_s swing
# with the workload seed.
CORPUS_CELLS = (
    (14, 10, "weekday", 450.0),
    (14, 10, "holiday", 450.0),
    (12, 12, "weekday", 600.0),
    (12, 12, "holiday", 600.0),
    (14, 10, "weekday", 600.0),
    (14, 10, "holiday", 600.0),
    (16, 8, "weekday", 900.0),
    (16, 8, "holiday", 900.0),
    (12, 12, "weekday", 900.0),
    (12, 12, "holiday", 900.0),
    (8, 6, "weekday", 600.0),
    (8, 6, "holiday", 600.0),
    (6, 6, "weekday", 900.0),
    (6, 6, "holiday", 900.0),
)
BOTH = ("weekday", "holiday")
CLIENTS = 2
# The compute stages (corpus, train, cell, inproc) all run in this process,
# single-threaded, and are timed in its CPU time: on a shared virtual host
# the hypervisor lends the CPU to other guests for up to a sixth of the wall
# time, in bursts of seconds, and CPU time leaves that out where wall time
# does not.  Work moved into other processes would escape this clock.  Each
# piece of that work is then divided by the host's slowdown around it
# (host.py).  The HTTP stage, which mostly waits, is timed on the wall clock.
cpu_clock = time.process_time
TRAIN_SEEDS = (0, 1, 2, 3)  # offsets to the workload seed, one training pass each
HTTP_PARTS = 3  # the HTTP loop runs in parts, with spread work between them


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # of the cell: "urban" (URBAN on the 12x12 grid) or "desk" (8x8 desk map)
    cell: tuple[int, int, float]  # pedestrians, cars, duration_s
    regimes: tuple[str, ...]
    protocols: tuple[str, ...]
    n_mlp: int  # in-process MLP decisions per round
    n_rf: int  # in-process forest decisions per round
    n_http: int  # HTTP decisions per round
    need_deliveries: bool = True  # every protocol of the cell delivers something

    corpus: tuple[tuple[int, int, str, float], ...] = CORPUS_CELLS

    def cell_spec(self, regime: str):
        pedestrians, cars, duration_s = self.cell
        spec = desk_scenario(pedestrians, cars, duration_s=duration_s)
        if self.profile == "urban":
            spec = replace(spec, **URBAN)
        return with_regime(spec, regime)


def urban_spec(pedestrians: int, cars: int, duration_s: float, regime: str):
    spec = replace(desk_scenario(pedestrians, cars, duration_s=duration_s), **URBAN)
    return with_regime(spec, regime)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="urban-loop",
            profile="urban",
            cell=(12, 12, 3600.0),
            regimes=BOTH,
            protocols=("SprayAndWait", "MLPBasedRouter", "RandomRouter"),
            n_mlp=10000,
            n_rf=600,
            n_http=80,
        ),
        Workload(
            name="city-scale",
            profile="desk",
            cell=(90, 80, 480.0),
            regimes=("weekday",),
            protocols=("Epidemic",),
            n_mlp=10000,
            n_rf=600,
            n_http=80,
            # eight minutes of a corner accident site on the desk map are
            # too short for every seed to reach a hospital
            need_deliveries=False,
        ),
        Workload(
            name="gate-service",
            profile="urban",
            # weekday only: in the first half hour of a holiday run a gate
            # trained on a short corpus can veto every relay (CHANGES.md)
            cell=(12, 12, 2400.0),
            regimes=("weekday",),
            protocols=("SprayAndWait", "MLPBasedRouter"),
            n_mlp=20000,
            n_rf=600,
            n_http=1010,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same stages with a few seconds of work in all."""
    p, c, duration = w.cell
    return replace(
        w,
        corpus=tuple((pp, cc, regime, 120.0) for pp, cc, regime, _ in w.corpus[:2]),
        cell=(min(p, 20), min(c, 20), min(duration, 1200.0)),
        n_mlp=200,
        n_rf=40,
        n_http=20,
    )


class Ops:
    """Operations attempted and failed, by kind."""

    KINDS = ("simulations", "fits", "decisions")

    def __init__(self) -> None:
        self.attempted = dict.fromkeys(self.KINDS, 0)
        self.failed = dict.fromkeys(self.KINDS, 0)

    def add(self, kind: str, attempted: int, failed: int = 0) -> None:
        self.attempted[kind] += attempted
        self.failed[kind] += failed


def setup_once(w: Workload, seed: int, src: Path, out: Path) -> None:
    """What a user pays before any work: a fresh interpreter importing the
    package, scenario specs and maps, and the engine's per-run state."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    subprocess.run(
        [sys.executable, "-c", "import dtnlab.cli"],
        env={"PYTHONPATH": str(src), "PATH": ""},
        check=True,
    )
    for p, c, regime, duration in w.corpus:
        urban_spec(p, c, duration, regime).validate()
    for regime in w.regimes:
        simcore.Simulation(w.cell_spec(regime), routing.SprayAndWaitRouter(), seed)


class Round:
    """One pass over the five stages, then the checks of their outputs.

    Stage timings land in self.times.  The checks run after every stage has
    finished, so a traced round can stop tracing before them.
    """

    def __init__(
        self, w: Workload, seed: int, src: Path, out: Path, ops: Ops, spread_in_cell: bool = True
    ) -> None:
        self.w, self.seed, self.src, self.out, self.ops = w, seed, src, out, ops
        # a traced round keeps the spread work out of run_sweep's span
        self.spread_in_cell = spread_in_cell
        self.times: dict[str, float] = {}
        self.sim_ticks = 0
        self.sim_cpu = 0.0  # CPU seconds of the cell's simulations
        self.sim_seconds = 0.0  # the same at reference speed
        self.passes: list = []  # (model dir, dataset, eval reports) per training pass
        self.train_seconds: list[float] = []

    def run(self) -> None:
        """The stages in order, with the short timed work spread over the
        rest of the round.

        On a shared host the CPU time of the same work swings by a third
        within a minute, in stretches of seconds.  A short piece of work
        timed once inherits whichever stretch it lands on, and the host's
        slowdown, read around it, corrects for only part of the swing.  So
        the later training passes and the in-process decisions run a share
        at a time at the checkpoints of the round (after the first pass,
        after each simulation of the cell, after each part of the HTTP
        loop), and their figures are means over all the shares."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.corpus()
        self.train(TRAIN_SEEDS[0])  # the models every later stage uses
        self.start_inproc()
        self.checkpoints = 1 + len(self.w.regimes) * len(self.w.protocols) + HTTP_PARTS
        self.checkpoint_at = 0
        self.checkpoint()
        self.cell()
        self.http()
        assert self.checkpoint_at == self.checkpoints, "spread work left over"
        self.times["extract_train_s"] = statistics.mean(self.train_seconds)
        for kind, (_, n) in self.inproc_models.items():
            self.times[f"inproc_{kind}_per_s"] = n / self.inproc_seconds[kind]

    def share(self, items):
        """The current checkpoint's share of items."""
        k, n = self.checkpoint_at, self.checkpoints
        return items[k * len(items) // n : (k + 1) * len(items) // n]

    def checkpoint(self) -> None:
        """Run the next share of the spread work."""
        self.slow = host.slowdown()
        for offset in self.share(TRAIN_SEEDS[1:]):
            self.train(offset)
        self.inproc()
        self.checkpoint_at += 1

    def timed(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), its CPU seconds, and those at reference
        speed: divided by the mean of the host slowdown read last and the
        one read just after."""
        before = self.slow
        started = cpu_clock()
        result = fn(*args, **kwargs)
        cpu = cpu_clock() - started
        self.slow = host.slowdown()
        return result, cpu, cpu / ((before + self.slow) / 2)

    def check(self) -> None:
        """Every output check; raises checks.CheckFailed."""
        w = self.w
        for run_dir, spec in self.corpus_runs:
            checks.check_run(run_dir, "SprayAndWait", spec.copies, spec.ttl_s)
        for models, dataset, reports in self.passes:
            for kind in ("mlp", "rf"):
                path = models / f"{kind}.json"
                probs = load_model(path).predict_proba(dataset.X_test).tolist()
                reference = checks.ReferenceModel(path)
                for row, prob in zip(dataset.X_test, probs):
                    checks.require(abs(prob - reference.proba(row)) <= 1e-9, f"{path}: held-out p={prob}")
                checks.check_auc(dataset.y_test, probs, reports[kind]["auc"])
        for regime, runs in self.cell_runs.items():
            checks.check_cell(runs, self.sweep_spec.copies, self.sweep_spec.ttl_s, w.need_deliveries)
            table = self.out / "sweep" / f"summary_{regime}.csv"
            checks.require(table.exists(), f"no summary table for {regime}")
        for kind, path in (("mlp", self.mlp_path), ("rf", self.rf_path)):
            queries, answers = self.decisions[kind]
            checks.check_decisions(checks.ReferenceModel(path), queries, answers)
        queries, answers = self.decisions["http"]
        inproc = InProcessPredictor(load_model(self.mlp_path))
        for query, answer in zip(queries, answers):
            if answer is not None:  # a failed request is counted, not compared
                checks.require(answer == inproc.decide(query), f"HTTP answer {answer} differs")

    # ---------------------------------------------------------------- corpus

    def corpus(self) -> None:
        w = self.w
        self.corpus_runs = []
        self.slow = host.slowdown()
        seconds = 0.0
        for k, (p, c, regime, duration) in enumerate(w.corpus):
            spec = urban_spec(p, c, duration, regime)
            run_dir = self.out / "corpus" / f"{spec.name}_{regime}_{int(duration)}_{k}"
            seconds += self.timed(self.simulate_and_write, spec, 100 * self.seed + k, run_dir)[2]
            self.corpus_runs.append((run_dir, spec))
        self.times["corpus_s"] = seconds
        self.ops.add("simulations", len(w.corpus))

    @staticmethod
    def simulate_and_write(spec, seed: int, run_dir: Path) -> None:
        output = simcore.run_simulation(spec, "SprayAndWait", seed)
        pipeline.write_run(run_dir, output, spec)

    # ----------------------------------------------------------------- train

    def train(self, offset: int) -> None:
        """Extract and fit with the workload seed plus offset; the models of
        the first pass (offset 0) are the ones every later stage uses.

        extract_train_s is the mean pass over TRAIN_SEEDS: how long the MLP
        trains depends on where early stopping ends it, which varies with
        the seed, so one pass would make the figure swing with the workload
        seed."""
        corpus_dirs = [run_dir for run_dir, _ in self.corpus_runs]
        seed = self.seed + offset
        models = self.out / "models" / f"seed{seed}"
        (dataset, reports), _, seconds = self.timed(self.extract_and_fit, corpus_dirs, seed, models)
        self.train_seconds.append(seconds)
        self.ops.add("fits", 2)
        self.passes.append((models, dataset, reports))
        models, self.dataset, _ = self.passes[0]
        self.mlp_path, self.rf_path = models / "mlp.json", models / "rf.json"

    @staticmethod
    def extract_and_fit(corpus_dirs, seed: int, models: Path):
        dataset = pipeline.dataset_from_runs(corpus_dirs, seed=seed)
        reports = {}
        for kind in ("mlp", "rf"):
            clf, scaler, reports[kind] = pipeline.train_model(dataset, kind, seed=seed)
            save_model(models / f"{kind}.json", clf, scaler, dataset.medians)
        return dataset, reports

    # ------------------------------------------------------------------ cell

    def cell(self) -> None:
        w = self.w
        self.sweep_spec = w.cell_spec(w.regimes[0])
        config = pipeline.SweepConfig(
            scenarios=(self.sweep_spec,),
            regimes=w.regimes,
            protocols=w.protocols,
            seeds=(self.seed,),
            model_path=str(self.mlp_path),
        )
        simulate = pipeline.run_simulation
        added = 0.0  # CPU seconds of the readings and the spread work, not the cell's

        def run_simulation(spec, *args, **kwargs):
            nonlocal added
            entered = cpu_clock()
            output, cpu, seconds = self.timed(simulate, spec, *args, **kwargs)
            self.sim_cpu += cpu
            self.sim_seconds += seconds
            self.sim_ticks += round(spec.duration_s / spec.tick_s)
            if self.spread_in_cell:
                self.checkpoint()
            added += cpu_clock() - entered - cpu
            return output

        pipeline.run_simulation = run_simulation
        self.slow = host.slowdown()
        started = cpu_clock()
        try:
            pipeline.run_sweep(config, self.out / "sweep")
        finally:
            pipeline.run_simulation = simulate
        # the whole cell at the slowdown its simulations ran at
        self.times["cell_s"] = (cpu_clock() - started - added) * self.sim_seconds / self.sim_cpu
        simulations = len(w.regimes) * len(w.protocols)
        self.ops.add("simulations", simulations)
        if not self.spread_in_cell:
            for _ in range(simulations):
                self.checkpoint()
        self.cell_runs = {
            regime: {
                proto: self.out / "sweep" / self.sweep_spec.name / regime / proto / f"seed{self.seed}"
                for proto in w.protocols
            }
            for regime in w.regimes
        }

    # --------------------------------------------------------------- queries

    def queries(self, n: int, stream: str) -> list[dict]:
        """n feature rows of the corpus dataset, drawn with replacement."""
        rows = list(self.dataset.X_train) + list(self.dataset.X_test)
        rng = random.Random(f"{self.seed}:{stream}")
        return [
            {name: float(v) for name, v in zip(checks.FEATURES, rows[rng.randrange(len(rows))])}
            for _ in range(n)
        ]

    # ---------------------------------------------------------------- inproc

    def start_inproc(self) -> None:
        """Draw the in-process queries and load both models once."""
        self.inproc_models = {"mlp": (self.mlp_path, self.w.n_mlp), "rf": (self.rf_path, self.w.n_rf)}
        self.inproc_predictors = {
            kind: InProcessPredictor(load_model(path)).decide
            for kind, (path, _) in self.inproc_models.items()
        }
        self.decisions = {
            kind: (self.queries(n, f"inproc-{kind}"), [])
            for kind, (_, n) in self.inproc_models.items()
        }
        self.inproc_seconds = dict.fromkeys(self.inproc_models, 0.0)

    def inproc(self) -> None:
        """The current checkpoint's share of the queries, with each model;
        each rate is the decisions over their seconds at reference speed."""
        for kind in self.inproc_models:
            decide = self.inproc_predictors[kind]
            queries, answers = self.decisions[kind]
            batch = self.share(queries)
            decided, _, seconds = self.timed(lambda: [decide(q) for q in batch])
            answers += decided
            self.inproc_seconds[kind] += seconds
            self.ops.add("decisions", len(batch))

    # ------------------------------------------------------------------ http

    def http(self) -> None:
        """HTTP_PARTS closed loops against one server, a checkpoint after each."""
        queries = self.queries(self.w.n_http, "http")
        answers, latencies, failed, wall = [], [], 0, 0.0
        server = service.ModelServer(self.src, self.mlp_path)
        try:
            for part in range(HTTP_PARTS):
                chunk = queries[part * len(queries) // HTTP_PARTS : (part + 1) * len(queries) // HTTP_PARTS]
                a, l, f, w = service.closed_loop(
                    lambda: HttpPredictor(server.endpoint, timeout_s=service.REQUEST_TIMEOUT_S),
                    chunk,
                    CLIENTS,
                )
                answers += a
                latencies += l
                failed += f
                wall += w
                self.checkpoint()
            health = server.health()
        finally:
            server.stop()
        self.ops.add("decisions", len(queries), failed)
        self.decisions["http"] = (queries, answers)
        self.latencies = latencies
        self.http_failed = failed
        self.server_mean_ms = health["mean_inference_ms"]
        self.times["http_per_s"] = len(latencies) / wall
