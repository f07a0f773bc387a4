"""HTTP inference service and the predictor backends the router plugs in.

The service exposes two endpoints:

    POST /predict   seven named features in, {label, probability, model_version} out
    GET  /health    liveness plus model_version and inference timing counters

Both backends score through ``LoadedModel.decide``, so they return
bit-identical answers for the same model and input.  Only request bodies,
which come from outside the program, are validated (``evaluate``); the
in-process backend gets the engine's own values, whose one outside part,
the model's medians, ``load_model`` checks.

``HttpPredictor`` is the client side, on the standard library's
``http.client``.  Its fault policy: a refused connection, a timeout, a
connection dropped without a reply, and any 5xx raise
``PredictorUnavailableError``, so the router falls back to plain spray and
counts the fallback.  A 4xx, or a 200 whose body is not JSON, raises
``RuntimeError``: the query or the service is wrong, which is a bug.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .ml.model_io import LoadedModel
from .routing import PredictorUnavailableError
from .scenario import ConfigurationError

DEFAULT_TIMEOUT_S = 0.05
MAX_BODY_BYTES = 64 * 1024  # a /predict body is seven numbers; far less than this
HANDLER_TIMEOUT_S = 10.0  # a connection silent this long, mid-body or idle, is closed


def evaluate(model: LoadedModel, body: dict) -> dict:
    """Validate one request body and score it.

    Raises KeyError naming the first missing feature (in canonical order)
    and ValueError for values that are not JSON numbers (strings and
    booleans included), non-finite, or negative.  Extra fields are ignored.
    """
    features: dict[str, float] = {}
    for name in model.feature_names:
        if name not in body:
            raise KeyError(name)
        value = body[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field {name} is not a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"field {name} must be finite") from None
        if not math.isfinite(value):
            raise ValueError(f"field {name} must be finite")
        if value < 0:
            raise ValueError(f"field {name} must be non-negative")
        features[name] = value
    label, prob = model.decide(features)
    return {"label": label, "probability": prob, "model_version": model.version}


class ServiceStats:
    """Thread-safe counters for handler-internal inference timing."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.predictions = 0
        self.inference_s = 0.0

    def record(self, elapsed_s: float) -> None:
        with self._lock:
            self.predictions += 1
            self.inference_s += elapsed_s

    def snapshot(self) -> dict:
        with self._lock:
            n, total = self.predictions, self.inference_s
        mean_ms = total / n * 1000.0 if n else 0.0
        return {"predictions": n, "mean_inference_ms": mean_ms}


class _Handler(BaseHTTPRequestHandler):
    # keep-alive needs accurate Content-Length on every response
    protocol_version = "HTTP/1.1"
    timeout = HANDLER_TIMEOUT_S

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the service is driven from simulations; stderr chatter off

    def _send(self, code: int, payload: dict, close: bool = False) -> None:
        raw = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        if close:  # the unread body must not be parsed as the next request
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self) -> None:
        if self.path == "/health":
            server: PredictionServer = self.server  # type: ignore[assignment]
            self._send(
                200,
                {
                    "status": "ok",
                    "model_version": server.model.version,
                    **server.stats.snapshot(),
                },
            )
        elif self.path == "/predict":
            self._send(405, {"error": "use POST for /predict"})
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        if self.path != "/predict":
            code = 405 if self.path == "/health" else 404
            self._send(code, {"error": f"no POST handler for {self.path}"})
            return
        server: PredictionServer = self.server  # type: ignore[assignment]
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._send(400, {"error": "bad Content-Length"}, close=True)
            return
        if length < 0:
            self._send(400, {"error": "negative Content-Length"}, close=True)
            return
        if length > MAX_BODY_BYTES:
            self._send(
                413, {"error": f"body over {MAX_BODY_BYTES} bytes"}, close=True
            )
            return
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError:
            self._send(400, {"error": "body is not valid JSON"})
            return
        if not isinstance(body, dict):
            self._send(400, {"error": "body must be a JSON object"})
            return
        started = time.perf_counter()
        try:
            payload = evaluate(server.model, body)
        except KeyError as exc:
            name = exc.args[0]
            self._send(400, {"error": f"missing field: {name}", "field": name})
            return
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        server.stats.record(time.perf_counter() - started)
        self._send(200, payload)


class PredictionServer(ThreadingHTTPServer):
    """One loaded model shared, read-only, across handler threads."""

    daemon_threads = True
    # the router can open dozens of connections in a burst; the default
    # accept backlog of 5 turns that into kernel-level resets
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], model: LoadedModel):
        super().__init__(address, _Handler)
        self.model = model
        self.stats = ServiceStats()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def parse_bind(bind: str) -> tuple[str, int]:
    """Split "host:port"; the host defaults to loopback when omitted.

    ConfigurationError names the address when the port is missing, not a
    number, or outside 0..65535."""
    host, _, port_text = bind.rpartition(":")
    if not port_text:
        raise ConfigurationError(f"bind address {bind!r} needs a :port suffix")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(f"bind address {bind!r} has a non-numeric port") from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"bind address {bind!r} has a port outside 0..65535")
    return host or "127.0.0.1", port


@dataclass(frozen=True)
class InProcessPredictor:
    """Direct model evaluation; the fast path for large sweeps."""

    model: LoadedModel

    def decide(self, features: dict[str, float]) -> tuple[int, float]:
        return self.model.decide(features)


class HttpPredictor:
    """Client for the /predict endpoint over one keep-alive connection.

    ``endpoint`` is ``http://host[:port]``, with or without a final ``/``;
    anything else (another path, a query, a fragment, user info) raises
    ValueError here, before any run starts.  Requests go to ``/predict``.  ``timeout_s`` bounds the connect and each
    read.  Refused connections, timeouts, a connection dropped without a
    reply and any 5xx raise PredictorUnavailableError; a 4xx or a 200 whose
    body is not JSON raises RuntimeError.  Exactly one answered POST goes
    out per decide() call: response caching is the router's job, not the
    client's.
    """

    def __init__(self, endpoint: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        url = urlsplit(endpoint)
        try:
            port = url.port
        except ValueError as exc:
            raise ValueError(f"predictor endpoint {endpoint!r}: {exc}") from None
        if (
            url.scheme != "http"
            or not url.hostname
            or url.path not in ("", "/")
            or any(c in endpoint for c in "?#@")  # query, fragment, user info
        ):
            raise ValueError(
                f"predictor endpoint {endpoint!r} is not http://host[:port]"
            )
        self.endpoint = endpoint
        self._conn = http.client.HTTPConnection(url.hostname, port, timeout=timeout_s)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        conn = self._conn
        while True:  # at most twice: a second pass always runs on a fresh connection
            reused = conn.sock is not None
            if not reused:
                conn.connect()
                # headers and body go out in two sends; without this the body
                # waits on the server's delayed ACK
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                conn.request(
                    "POST", "/predict", body, {"Content-Type": "application/json"}
                )
                reply = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # the server closed the idle connection (after HANDLER_TIMEOUT_S)
                # before this request reached it: reopen once
                conn.close()
                continue
            return reply.status, reply.read()

    def predict(self, features: dict[str, float]) -> dict:
        try:
            status, raw = self._post(json.dumps(features).encode())
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            raise PredictorUnavailableError(
                f"predictor at {self.endpoint} unreachable: {exc.__class__.__name__}"
            ) from exc
        if status >= 500:
            raise PredictorUnavailableError(
                f"predictor at {self.endpoint} failed with {status}"
            )
        if status != 200:
            detail = raw.decode(errors="replace").strip()
            raise RuntimeError(f"/predict returned {status}: {detail}")
        try:
            return json.loads(raw)
        except ValueError:
            raise RuntimeError(
                f"/predict answered 200 with a body that is not JSON: {raw!r}"
            ) from None

    def decide(self, features: dict[str, float]) -> tuple[int, float]:
        payload = self.predict(features)
        return int(payload["label"]), float(payload["probability"])
