"""Benchmark of the dtnlab research loop.

    python3 bench/run.py --workload urban-loop --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from src/
of that checkout and from nowhere else.  One run sets up three times (the
median is setup_s), then repeats whole rounds of the workload's stages
until --seconds have passed, at least one round.  With --trace 0 the last
line of standard output is a JSON object with every end-to-end metric;
with --trace 1 the run makes one traced round and reports the per-layer
metrics and the tracing overhead instead.  --smoke
shrinks every stage to a few seconds of work.  Exits non-zero, printing no
result, if the package cannot be imported or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "corpus_s": "s",
    "extract_train_s": "s",
    "cell_s": "s",
    "ticks_per_s": "ticks/s",
    "inproc_mlp_per_s": "decisions/s",
    "inproc_rf_per_s": "decisions/s",
    "http_per_s": "decisions/s",
    "http_p50_ms": "ms",
    "http_p99_ms": "ms",
}

PER_LAYER_UNITS = {
    "mobility.advance_s": "s", "mobility.advance_calls": "count",
    "mobility.shortest_path_s": "s", "mobility.shortest_path_calls": "count",
    "simcore.link_transitions_s": "s", "simcore.link_transitions_calls": "count",
    "simcore.link_ups": "count", "simcore.link_checks": "count", "simcore.buffer_admit_s": "s",
    "simcore.buffer_admits": "count", "simcore.evictions": "count", "simcore.self_s": "s",
    "simcore.ticks": "count", "simcore.relays": "count", "simcore.deliveries": "count",
    "routing.on_contact_s": "s", "routing.on_contact_calls": "count", "routing.gate_s": "s",
    "routing.gate_calls": "count", "routing.online_features_s": "s",
    "routing.cache_hits": "count", "routing.cache_misses": "count",
    "routing.cache_hit_ratio": "ratio", "routing.cache_entries_peak": "count",
    "routing.predictions": "count", "routing.fallbacks": "count",
    "ml.decide_s": "s", "ml.decide_calls": "count", "ml.rf_predict_proba_s": "s",
    "ml.mlp_fit_s": "s", "ml.rf_fit_s": "s",
    "features.extract_s": "s", "features.assemble_s": "s",
    "reports.format_s": "s", "reports.parse_s": "s",
    "pipeline.write_run_s": "s", "pipeline.write_run_bytes": "bytes",
    "pipeline.read_run_s": "s", "pipeline.sweep_self_s": "s",
    "serve.validate_s": "s", "serve.server_inference_ms": "ms",
    "serve.client_overhead_ms": "ms", "serve.requests": "count",
    "serve.requests_failed": "count",
    "ops.simulations": "count", "ops.simulations_failed": "count", "ops.fits": "count",
    "ops.fits_failed": "count", "ops.decisions": "count", "ops.decisions_failed": "count",
    "trace.round_s": "s", "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


def import_package():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(SRC))
    import dtnlab

    if Path(dtnlab.__file__).resolve().parent != SRC / "dtnlab":
        raise ImportError(f"dtnlab came from {dtnlab.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest peak among its
    finished children: the model servers and the set-up interpreters."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def percentile_ms(samples: list[float], q: int) -> float:
    """The q-th percentile in ms, interpolated between samples, never past them."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def end_to_end(rounds, setups) -> dict[str, float]:
    latencies = [x for r in rounds for x in r.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ticks_per_s": sum(r.sim_ticks for r in rounds) / sum(r.sim_seconds for r in rounds),
        "http_p50_ms": percentile_ms(latencies, 50),
        "http_p99_ms": percentile_ms(latencies, 99),
    }
    for name in ("corpus_s", "extract_train_s", "cell_s", "inproc_mlp_per_s",
                 "inproc_rf_per_s", "http_per_s"):
        metrics[name] = statistics.median(r.times[name] for r in rounds)
    return metrics


def per_layer(traced, layers: dict[str, float], ops) -> dict[str, float]:
    server_ms = traced.server_mean_ms
    overhead = traced.tracer.overhead_seconds()
    metrics = dict(layers)
    metrics.update({
        "serve.server_inference_ms": server_ms,
        "serve.client_overhead_ms": statistics.median(traced.latencies) * 1000.0 - server_ms,
        "serve.requests": float(len(traced.latencies) + traced.http_failed),
        "serve.requests_failed": float(traced.http_failed),
        "trace.round_s": traced.wall,
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / (traced.wall - overhead),
    })
    for kind in ops.KINDS:
        metrics[f"ops.{kind}"] = float(ops.attempted[kind])
        metrics[f"ops.{kind}_failed"] = float(ops.failed[kind])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few seconds of work per stage")
    args = parser.parse_args(argv)

    # a terminated run still stops its model server on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        import_package()
    except ImportError as err:
        print(f"error: cannot import the dtnlab package from {SRC}: {err}", file=sys.stderr)
        return 2
    import checks
    import loop
    import tracer

    if args.workload not in loop.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(loop.WORKLOADS)}")
    w = loop.WORKLOADS[args.workload]
    if args.smoke:
        w = loop.smoke(w)
    out = OUT / w.name
    ops = loop.Ops()

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            loop.setup_once(w, args.seed, SRC, out)
            setups.append(time.perf_counter() - started)

        def one_round(traced: bool):
            r = loop.Round(w, args.seed, SRC, out, ops, spread_in_cell=not traced)
            if traced:
                r.tracer = tracer.Tracer()
                tracer.install(r.tracer)
            started = time.perf_counter()
            try:
                r.run()
            finally:
                if traced:
                    r.tracer.uninstall()
            r.wall = time.perf_counter() - started
            r.check()
            return r

        if args.trace:
            traced = one_round(True)
            metrics = per_layer(traced, tracer.layer_metrics(traced.tracer), ops)
            units = PER_LAYER_UNITS
        else:
            rounds = []
            deadline = time.perf_counter() + args.seconds
            while not rounds or time.perf_counter() < deadline:
                rounds.append(one_round(False))
            metrics = end_to_end(rounds, setups)
            units = END_TO_END_UNITS
    except checks.CheckFailed as err:
        print(f"error: output check failed: {err}", file=sys.stderr)
        return 1

    attempted = sum(ops.attempted.values())
    failed = sum(ops.failed.values())
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
