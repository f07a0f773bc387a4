"""`dtnlab serve` in a subprocess and a closed loop of keep-alive clients."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import requests

START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 5.0  # far above any reply time, so no request falls back


class ModelServer:
    """Runs `dtnlab serve --bind 127.0.0.1:0` and learns the port it chose."""

    def __init__(self, src: Path, model_path: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "dtnlab.cli", "serve",
             "--model", str(model_path), "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            self.endpoint = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        line = self.proc.stdout.readline()  # "serving <model> on <host>:<port>"
        match = re.search(r" on ([\d.]+):(\d+)$", line.strip())
        if match is None:
            raise RuntimeError(f"model server did not start: {line!r}")
        endpoint = f"http://{match.group(1)}:{match.group(2)}"
        while time.monotonic() < deadline:
            try:
                if requests.get(f"{endpoint}/health", timeout=1.0).status_code == 200:
                    return endpoint
            except requests.ConnectionError:
                time.sleep(0.02)
        raise RuntimeError("model server never answered /health")

    def health(self) -> dict:
        return requests.get(f"{self.endpoint}/health", timeout=REQUEST_TIMEOUT_S).json()

    def stop(self) -> None:
        """Stop the server and wait for it; returns nothing, never leaves it running."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def closed_loop(predictor_factory, queries: list[dict], clients: int):
    """Each client sends its next query only after the previous reply.

    Queries are dealt round-robin to the clients.  Returns (answers in query
    order, latencies in seconds, failures, wall seconds); a failed request
    leaves None as its answer.
    """
    answers: list = [None] * len(queries)
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(k: int) -> None:
        predictor = predictor_factory()
        try:
            predictor.decide(queries[k])  # opens the keep-alive connection, untimed
        finally:
            barrier.wait()
        for i in range(k, len(queries), clients):
            started = time.perf_counter()
            try:
                answers[i] = predictor.decide(queries[i])
            except Exception:  # any failure counts against the attempts
                failures[k] += 1
                continue
            latencies[k].append(time.perf_counter() - started)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    return answers, [x for per in latencies for x in per], sum(failures), wall
