"""Helpers only the tests use: the scenarios several test modules share, a
background model server and a numeric gradient oracle for the MLP's
backprop."""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from dtnlab.ml.mlp import Params, bce_with_logits, predict_logits
from dtnlab.ml.model_io import load_model
from dtnlab.scenario import MapSpec, ScenarioSpec, desk_scenario, with_regime
from dtnlab.serve import PredictionServer, parse_bind

# The dense-city profile of bench/loop.py and of the acceptance sweep: 12x12
# street grid, crawling pedestrians, short-lived messages, fast radio.
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


def acceptance_scenarios() -> Iterator[tuple[ScenarioSpec, int]]:
    """The (spec, seed) of the 20 scenarios of acceptance criterion c01."""
    rng = random.Random(101)
    for _ in range(20):
        p, c = rng.randint(3, 7), rng.randint(3, 7)
        regime = rng.choice(("weekday", "holiday"))
        rng.choice(("SprayAndWait", "RandomRouter", "Epidemic"))
        seed = rng.randint(1, 10_000)
        duration = rng.choice((300.0, 450.0, 600.0))
        yield with_regime(desk_scenario(p, c, duration_s=duration), regime), seed


def urban_spec(pedestrians: int, cars: int, duration_s: float, regime: str = "weekday") -> ScenarioSpec:
    spec = replace(desk_scenario(pedestrians, cars, duration_s=duration_s), **URBAN)
    return with_regime(spec, regime)


@contextmanager
def running_server(
    model_path: str | Path, bind: str = "127.0.0.1:0"
) -> Iterator[PredictionServer]:
    """Serve a model file on a background thread; port 0 picks a free one."""
    server = PredictionServer(parse_bind(bind), load_model(model_path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def numeric_gradients(params: Params, X, y, eps: float = 1e-5) -> Params:
    """Central-difference loss gradients, for checking the backprop."""
    grads = []
    for li, (W, b) in enumerate(params):
        dW = np.zeros_like(W)
        db = np.zeros_like(b)
        for arr, darr in ((W, dW), (b, db)):
            flat = arr.ravel()
            dflat = darr.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps
                hi = bce_with_logits(predict_logits(params, X), y)
                flat[k] = keep - eps
                lo = bce_with_logits(predict_logits(params, X), y)
                flat[k] = keep
                dflat[k] = (hi - lo) / (2.0 * eps)
        grads.append((dW, db))
    return grads
