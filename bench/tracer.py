"""Spans around the package's public functions, installed from outside.

A traced run wraps module attributes and class methods of the dtnlab
package in place; nothing under src/ changes.  Hot calls run millions of
times per round, so spans are not kept one by one: each (name, parent)
pair accumulates a call count and a total time, and a span's self time is
its total minus the totals of the spans opened directly under it.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from pathlib import Path

from checks import brute_force_links, require

LINK_CHECK_EVERY = 997  # calls between brute-force link-detection checks


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # after-hooks (bookkeeping, checks) run outside their own span but
        # inside the enclosing one: seconds by the enclosing span's name
        self.hooks: dict[str, float] = defaultdict(float)
        self._stack = ["root"]
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) runs outside the timing."""
        calls, seconds, stack, hooks = self.calls, self.seconds, self._stack, self.hooks
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, stack[-1])
            stack.append(name)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - started
                calls[key] += 1
                stack.pop()
            if after is not None:
                hook_started = clock()
                after(result, args)
                hooks[stack[-1]] += clock() - hook_started
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, after))

    def overhead_seconds(self) -> float:
        """Estimated time tracing added: the measured cost of an empty span
        times the number of spans, plus the time spent in after-hooks."""
        return span_cost() * sum(self.calls.values()) + sum(self.hooks.values())

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- summaries

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(s for (n, p), s in self.seconds.items() if n == name and parent in (None, p))

    def ncalls(self, name: str, parent: str | None = None) -> int:
        return sum(c for (n, p), c in self.calls.items() if n == name and parent in (None, p))

    def self_time(self, name: str, children: tuple[str, ...] | None = None) -> float:
        """Total of name minus its direct children (all of them, or those
        named) and minus the after-hooks that ran directly under it."""
        inner = sum(
            s for (n, p), s in self.seconds.items()
            if p == name and (children is None or n in children)
        )
        return self.total(name) - inner - self.hooks[name]


def span_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call, the median over a few trials."""

    def noop():
        return None

    wrapped = Tracer().span("noop", noop)
    costs = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - started - plain) / calls)
    return max(statistics.median(costs), 0.0)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from dtnlab import mobility, pipeline, routing, serve, simcore
    from dtnlab.ml import forest, mlp, model_io

    t = tracer
    link_calls = [0]

    def links_after(result, args):
        in_range, ups, downs = result
        t.counts["link_ups"] += len(ups)
        link_calls[0] += 1
        if link_calls[0] % LINK_CHECK_EVERY == 1:
            positions, range2, prev = args
            brute = brute_force_links(positions.tolist(), range2, prev.tolist())
            require(brute == (ups, downs), "link_transitions disagrees with pairwise distances")
            t.counts["link_checks"] += 1

    def admit_after(result, _args):
        t.counts["buffer_admits"] += 1
        t.counts["evictions"] += len(result[1])

    def run_after(output, _args):
        t.counts["ticks"] += round(output.duration_s / _args[0].spec.tick_s)
        t.counts["relays"] += len(output.relays)
        t.counts["deliveries"] += len(output.deliveries)
        t.counts["fallbacks"] += output.fallbacks

    def cache_get_after(result, _args):
        t.counts["cache_misses" if result is None else "cache_hits"] += 1

    def cache_put_after(_result, args):
        t.counts["cache_entries_peak"] = max(t.counts["cache_entries_peak"], len(args[0]))

    def write_after(_result, args):
        t.counts["write_run_bytes"] += sum(
            p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file()
        )

    t.patch(mobility.Wanderer, "advance", "mobility.advance")
    t.patch(mobility, "shortest_path", "mobility.shortest_path")
    t.patch(simcore, "link_transitions", "simcore.link_transitions", links_after)
    t.patch(simcore.NodeBuffer, "admit", "simcore.buffer_admit", admit_after)
    t.patch(simcore.Simulation, "run", "simcore.run", run_after)
    t.patch(simcore, "online_features", "routing.online_features")
    t.patch(routing.EpidemicRouter, "on_contact", "routing.on_contact")
    t.patch(routing.SprayAndWaitRouter, "on_contact", "routing.on_contact")
    t.patch(routing.MlGatedRouter, "relay_gate", "routing.gate")
    t.patch(routing.DecisionCache, "get", "routing.cache_get", cache_get_after)
    t.patch(routing.DecisionCache, "put", "routing.cache_put", cache_put_after)
    t.patch(serve.InProcessPredictor, "decide", "serve.inproc_decide")
    t.patch(model_io.LoadedModel, "decide", "ml.decide")
    t.patch(forest.RandomForestClassifier, "predict_proba", "ml.rf_predict_proba")
    t.patch(forest.RandomForestClassifier, "fit", "ml.rf_fit")
    t.patch(mlp.MlpClassifier, "fit", "ml.mlp_fit")
    t.patch(pipeline, "extract_features", "features.extract")
    t.patch(pipeline, "assemble_dataset", "features.assemble")
    for fn in ("contact_log_lines", "delivered_log_lines", "relay_log_lines", "residency_log_lines"):
        t.patch(pipeline, fn, "reports.format")
    for fn in ("parse_contact_lines", "parse_delivered_lines", "parse_relay_lines", "parse_residency_lines"):
        t.patch(pipeline, fn, "reports.parse")
    t.patch(pipeline, "write_run", "pipeline.write_run", write_after)
    t.patch(pipeline, "read_run", "pipeline.read_run")
    t.patch(pipeline, "run_simulation", "pipeline.run_simulation")
    t.patch(pipeline, "run_sweep", "pipeline.run_sweep")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer figures, by the names the benchmark publishes."""
    hits, misses = t.counts["cache_hits"], t.counts["cache_misses"]
    return {
        "mobility.advance_s": t.total("mobility.advance"),
        "mobility.advance_calls": t.ncalls("mobility.advance"),
        "mobility.shortest_path_s": t.total("mobility.shortest_path"),
        "mobility.shortest_path_calls": t.ncalls("mobility.shortest_path"),
        "simcore.link_transitions_s": t.total("simcore.link_transitions"),
        "simcore.link_transitions_calls": t.ncalls("simcore.link_transitions"),
        "simcore.link_ups": t.counts["link_ups"],
        "simcore.link_checks": t.counts["link_checks"],
        "simcore.buffer_admit_s": t.total("simcore.buffer_admit"),
        "simcore.buffer_admits": t.counts["buffer_admits"],
        "simcore.evictions": t.counts["evictions"],
        "simcore.self_s": t.self_time("simcore.run"),
        "simcore.ticks": t.counts["ticks"],
        "simcore.relays": t.counts["relays"],
        "simcore.deliveries": t.counts["deliveries"],
        "routing.on_contact_s": t.total("routing.on_contact"),
        "routing.on_contact_calls": t.ncalls("routing.on_contact"),
        "routing.gate_s": t.total("routing.gate"),
        "routing.gate_calls": t.ncalls("routing.gate"),
        "routing.online_features_s": t.total("routing.online_features"),
        "routing.cache_hits": hits,
        "routing.cache_misses": misses,
        "routing.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "routing.cache_entries_peak": t.counts["cache_entries_peak"],
        "routing.predictions": t.ncalls("serve.inproc_decide", "routing.gate"),
        "routing.fallbacks": t.counts["fallbacks"],
        "ml.decide_s": t.total("ml.decide"),
        "ml.decide_calls": t.ncalls("ml.decide"),
        "ml.rf_predict_proba_s": t.total("ml.rf_predict_proba"),
        "ml.mlp_fit_s": t.total("ml.mlp_fit"),
        "ml.rf_fit_s": t.total("ml.rf_fit"),
        "features.extract_s": t.total("features.extract"),
        "features.assemble_s": t.total("features.assemble"),
        "reports.format_s": t.total("reports.format"),
        "reports.parse_s": t.total("reports.parse"),
        "pipeline.write_run_s": t.total("pipeline.write_run"),
        "pipeline.write_run_bytes": t.counts["write_run_bytes"],
        "pipeline.read_run_s": t.total("pipeline.read_run"),
        "pipeline.sweep_self_s": t.self_time(
            "pipeline.run_sweep", ("pipeline.run_simulation", "pipeline.write_run")
        ),
        "serve.validate_s": t.total("serve.inproc_decide") - t.total("ml.decide", "serve.inproc_decide"),
    }
