"""The async inference service: HTTP front end, lifecycle, drain.

A deliberately small HTTP/1.1 server on ``asyncio`` streams (stdlib
only — no web framework in the container, none needed for four
routes).  The interesting behaviour lives in the layers this file
wires together; the HTTP handler itself only parses, authenticates,
decodes and maps :class:`~repro.serve.middleware.ServeError` onto
status codes.

Routes
------
``GET /healthz``
    Liveness: 200 while the process can answer at all — it stays green
    through breaker trips and drains, because "restart me" is a
    different question from "send me traffic".
``GET /readyz``
    Readiness: 200 only when the server is admitting work (not
    draining, breaker not open).  Load balancers poll this one.
``GET /metrics``
    One JSON snapshot: request rate, p50/p99 latency, queue depth,
    shed/reject counters, breaker state and trip count, engine-worker
    restarts.
``POST /v1/infer``
    The inference path: bearer auth (optional), JSON body with a
    single-sample ``input`` plus optional ``deadline_ms`` /
    ``timesteps``, response with logits and degradation annotations.

Shutdown
--------
``SIGTERM``/``SIGINT`` trigger graceful drain: the listener closes
(no new connections), admission stops (new requests on live keep-alive
connections get 503), queued and in-flight work flushes, bounded by
``ServeConfig.drain_timeout_seconds``, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import socket
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.serve.batcher import (
    BatcherConfig,
    DegradePolicy,
    MicroBatcher,
    ServiceEstimator,
)
from repro.serve.breaker import CircuitBreaker, OPEN
from repro.serve.metrics import ServingMetrics
from repro.serve.middleware import (
    BadRequestError,
    ServeError,
    authenticate,
    decode_infer_request,
    retry_after_header,
)
from repro.snn import convert_to_snn
from repro.snn.engines import make_engine
from repro.snn.engines.service import EngineWorker
from repro.tensor import Tensor, no_grad

logger = logging.getLogger(__name__)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Everything the serving stack needs, in one place."""

    host: str = "127.0.0.1"
    port: int = 8080
    timesteps: int = 8                    # full T; the degrade ceiling
    min_timesteps: int = 1
    default_deadline_ms: float = 1000.0
    p99_budget_ms: Optional[float] = None  # None disables degradation
    degrade_cooldown_seconds: float = 2.0
    engine: str = "auto"
    max_batch_size: int = 8
    max_queue_depth: int = 64
    max_inflight_bytes: int = 64 * 1024 * 1024
    max_body_bytes: int = 8 * 1024 * 1024
    hang_timeout_seconds: float = 30.0
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 2.0
    drain_timeout_seconds: float = 10.0
    auth_token: Optional[str] = None
    estimator_initial_unit: float = 2e-3
    estimator_overhead: float = 2e-3


def build_demo_network(
    input_shape: Sequence[int] = (2, 8, 8),
    classes: int = 10,
    seed: int = 0,
) -> Tuple[nn.Module, Tuple[int, ...]]:
    """A tiny conv SNN for smoke tests and demos.

    Untrained but *calibrated*: a few train-mode forwards settle the
    BatchNorm running statistics and QuantReLU steps before conversion,
    so the spiking model produces stable, non-degenerate logits.
    """
    shape = tuple(int(s) for s in input_shape)
    channels, height, width = shape
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(channels, 8, 3, padding=1, rng=np.random.default_rng(seed + 1)),
        nn.BatchNorm2d(8),
        nn.QuantReLU(levels=4, init_step=1.0),
        nn.AvgPool2d(2),
        nn.Flatten(),
        nn.Linear(
            8 * (height // 2) * (width // 2),
            classes,
            rng=np.random.default_rng(seed + 2),
        ),
    )
    model.train()
    with no_grad():
        for _ in range(4):
            model(Tensor(rng.normal(size=(8,) + shape).astype(np.float32)))
    model.eval()
    return convert_to_snn(model), shape


class InferenceServer:
    """Wires model -> engine worker -> breaker -> batcher -> HTTP."""

    def __init__(
        self,
        model: nn.Module,
        input_shape: Sequence[int],
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.input_shape = tuple(int(s) for s in input_shape)
        self.metrics = ServingMetrics()
        engine = make_engine(cfg.engine)
        engine.bind(model)
        self.worker = EngineWorker(engine, probe_shape=self.input_shape)
        self.breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_failure_threshold,
            reset_timeout=cfg.breaker_reset_seconds,
            on_transition=self._on_breaker_transition,
        )
        self.metrics.set_label("breaker_state", self.breaker.state)
        degrade = DegradePolicy(
            full_timesteps=cfg.timesteps,
            min_timesteps=cfg.min_timesteps,
            p99_budget_ms=cfg.p99_budget_ms,
            cooldown_seconds=cfg.degrade_cooldown_seconds,
        )
        self.batcher = MicroBatcher(
            self.worker,
            self.breaker,
            self.metrics,
            degrade,
            config=BatcherConfig(
                max_batch_size=cfg.max_batch_size,
                max_queue_depth=cfg.max_queue_depth,
                max_inflight_bytes=cfg.max_inflight_bytes,
                hang_timeout_seconds=cfg.hang_timeout_seconds,
            ),
            estimator=ServiceEstimator(
                initial_unit=cfg.estimator_initial_unit,
                overhead=cfg.estimator_overhead,
            ),
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        self._shutdown_started = False
        self.port: Optional[int] = None  # resolved after bind (port 0 -> real)

    # -- lifecycle -----------------------------------------------------
    def _on_breaker_transition(self, old: str, new: str, reason: str) -> None:
        self.metrics.set_label("breaker_state", new)
        if new == OPEN:
            self.metrics.inc("breaker_trips")
        elif old != new:
            self.metrics.inc("breaker_transitions")

    async def start(self) -> None:
        cfg = self.config
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        logger.info(
            "serving on %s:%d (engine=%s T=%d batch<=%d queue<=%d)",
            cfg.host, self.port, cfg.engine, cfg.timesteps,
            cfg.max_batch_size, cfg.max_queue_depth,
        )

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda s=sig: loop.create_task(self.shutdown(s.name))
                )
            except (NotImplementedError, ValueError, RuntimeError):
                # Not on the main thread (test harness) or unsupported
                # platform; shutdown() can still be called directly.
                break

    async def shutdown(self, cause: str = "shutdown") -> None:
        """Graceful drain: stop admitting, flush, release, signal exit."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        logger.info("%s received: draining (<= %.1fs)", cause,
                    self.config.drain_timeout_seconds)
        self.metrics.set_label("lifecycle", "draining")
        if self._server is not None:
            self._server.close()
        flushed = await self.batcher.drain(self.config.drain_timeout_seconds)
        logger.info(
            "drain %s: queue flushed, shutting down",
            "complete" if flushed else "deadline elapsed",
        )
        await self.batcher.close()
        self.worker.shutdown()
        self.metrics.set_label("lifecycle", "stopped")
        self._stopped.set()

    async def serve_forever(self) -> None:
        await self.start()
        await self._stopped.wait()

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except BadRequestError as error:
                    await self._write_response(
                        writer, error.status, error.payload(), {}, False
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._shutdown_started
                )
                try:
                    status, payload, extra = await self._route(
                        method, target, headers, body, writer
                    )
                except ServeError as error:
                    status, payload = error.status, error.payload()
                    extra = retry_after_header(error.retry_after)
                except asyncio.CancelledError:
                    break  # client disconnected while queued
                except Exception as error:  # noqa: BLE001 - last-resort 500
                    logger.exception("unhandled error serving %s %s", method, target)
                    status = 500
                    payload = {"error": "internal error", "detail": str(error)}
                    extra = {}
                await self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise BadRequestError("malformed request line")
        method, target, _version = parts
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > self.config.max_body_bytes:
            raise BadRequestError(
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _write_response(
        self, writer, status: int, payload: dict, extra: dict, keep_alive: bool
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
            **(extra or {}),
        }
        head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items()) + "\r\n"
        with contextlib.suppress(ConnectionError):
            writer.write(head.encode("latin-1") + body)
            await writer.drain()

    # -- routing -------------------------------------------------------
    async def _route(self, method, target, headers, body, writer):
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, {"status": "ok"}, {}
        if path == "/readyz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return self._readyz()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, self._metrics_payload(), {}
        if path == "/v1/infer":
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            return await self._infer(headers, body, writer)
        return 404, {"error": "not found", "detail": path}, {}

    def _readyz(self):
        if self._shutdown_started or self.batcher.draining:
            return 503, {"status": "draining"}, {}
        state = self.breaker.state
        if state == OPEN:
            return (
                503,
                {"status": "circuit breaker open", "breaker_state": state},
                retry_after_header(self.breaker.retry_after()),
            )
        return 200, {"status": "ready", "breaker_state": state}, {}

    def _metrics_payload(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["breaker"] = {
            "state": self.breaker.state,
            "trips": self.breaker.trips,
            "recoveries": self.breaker.recoveries,
            "consecutive_failures": self.breaker.consecutive_failures,
        }
        snapshot["worker"] = {
            "restarts": self.worker.restarts,
            "runs_completed": self.worker.runs_completed,
        }
        snapshot["degrade"] = {
            "current_timesteps": self.batcher.degrade.current,
            "full_timesteps": self.batcher.degrade.full_timesteps,
            "degradations": self.batcher.degrade.degradations,
            "recoveries": self.batcher.degrade.recoveries,
        }
        snapshot["queue_depth"] = self.batcher.queue_depth
        return snapshot

    async def _infer(self, headers, body, writer):
        authenticate(headers, self.config.auth_token)
        batch, timesteps, deadline_ms = decode_infer_request(
            body,
            self.input_shape,
            self.config.default_deadline_ms,
            self.config.timesteps,
        )
        future = self.batcher.submit(
            batch,
            timesteps,
            deadline_ms,
            is_disconnected=writer.is_closing,
        )
        result = await future
        return 200, result, {}


# ----------------------------------------------------------------------
# Test/benchmark harness: run a server on a background thread.
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on its own event-loop thread.

    ``with ServerHandle(model, shape, config) as handle:`` gives tests
    and benchmarks a live port (``handle.port`` — bind with port 0 for
    an ephemeral one) plus a blocking JSON client and a clean stop that
    exercises the same drain path as SIGTERM.
    """

    def __init__(
        self,
        model: nn.Module,
        input_shape: Sequence[int],
        config: Optional[ServeConfig] = None,
        startup_timeout: float = 30.0,
    ) -> None:
        self.server: Optional[InferenceServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

        def _main() -> None:
            async def _run() -> None:
                self.server = InferenceServer(model, input_shape, config)
                self._loop = asyncio.get_running_loop()
                try:
                    await self.server.start()
                finally:
                    self._ready.set()
                await self.server._stopped.wait()

            try:
                asyncio.run(_run())
            except BaseException as error:  # noqa: BLE001 - surfaced on join
                self._error = error
                self._ready.set()

        self._thread = threading.Thread(target=_main, name="serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(startup_timeout):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"server startup failed: {self._error!r}")

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Trigger the SIGTERM drain path and join the loop thread
        (idempotent: safe to call after the loop has exited)."""
        if (
            self._thread.is_alive()
            and self._loop is not None
            and not self._loop.is_closed()
            and self.server is not None
        ):
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(
                    lambda: self._loop.create_task(self.server.shutdown("stop()"))
                )
        self._thread.join(timeout)

    def run_in_loop(self, coroutine, timeout: float = 30.0):
        """Run ``coroutine`` on the server's event loop and block for its
        result — how a benchmark drives the batcher without HTTP."""
        assert self._loop is not None, "server is not running"
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(
            timeout
        )

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- blocking client ----------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        headers: Optional[dict] = None,
        timeout: float = 30.0,
    ) -> Tuple[int, dict, dict]:
        """One blocking HTTP round trip; returns (status, body, headers)."""
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        head += f"Content-Length: {len(body)}\r\nConnection: close\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "\r\n"
        with socket.create_connection(
            ("127.0.0.1", self.port), timeout=timeout
        ) as conn:
            conn.sendall(head.encode("latin-1") + body)
            raw = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                raw += chunk
        header_blob, _, rest = raw.partition(b"\r\n\r\n")
        lines = header_blob.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        response_headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        parsed = json.loads(rest.decode("utf-8")) if rest.strip() else {}
        return status, parsed, response_headers

    def infer(
        self,
        sample: np.ndarray,
        deadline_ms: Optional[float] = None,
        timesteps: Optional[int] = None,
        token: Optional[str] = None,
        timeout: float = 30.0,
    ) -> Tuple[int, dict]:
        payload = {"input": np.asarray(sample).tolist()}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if timesteps is not None:
            payload["timesteps"] = timesteps
        headers = {"Authorization": f"Bearer {token}"} if token else None
        status, body, _ = self.request(
            "POST", "/v1/infer", payload, headers, timeout
        )
        return status, body
