"""Helpers only the tests use: a background model server and a numeric
gradient oracle for the MLP's backprop."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from dtnlab.ml.mlp import Params, bce_with_logits, predict_logits
from dtnlab.ml.model_io import load_model
from dtnlab.serve import PredictionServer, parse_bind


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
