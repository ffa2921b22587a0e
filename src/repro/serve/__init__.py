"""Robust async inference serving for converted SNNs.

The paper's accelerator exists to serve inference at scale; this
package is the reproduction's serving layer — the part that takes the
engine stack (warm :class:`~repro.snn.engines.auto.AutoEngine` plans,
block lanes) and puts a deadline-aware, failure-honest HTTP
service in front of it, stdlib-only:

* :mod:`repro.serve.app` — the asyncio HTTP server, lifecycle and
  graceful SIGTERM drain;
* :mod:`repro.serve.batcher` — bounded admission queue, deadline-aware
  micro-batching, load shedding, timestep degradation;
* :mod:`repro.serve.breaker` — circuit breaker over the engine worker;
* :mod:`repro.serve.metrics` — the JSON ``/metrics`` snapshot;
* :mod:`repro.serve.middleware` — error taxonomy, auth, request
  decoding;
* :mod:`repro.serve.pool` — N process-backed engine replicas behind
  the worker interface (``--serve-workers N``); batches and per-step
  logits travel pickled on the replicas' queues.

Start one with ``python -m repro.cli serve`` or programmatically via
:class:`~repro.serve.app.InferenceServer` /
:class:`~repro.serve.app.ServerHandle`.
"""

from __future__ import annotations

from repro.serve.app import (
    InferenceServer,
    ServeConfig,
    ServerHandle,
    build_demo_network,
)
from repro.serve.batcher import (
    BatcherConfig,
    DegradePolicy,
    InferenceRequest,
    MicroBatcher,
    ServiceEstimator,
)
from repro.serve.breaker import CLOSED, CircuitBreaker, HALF_OPEN, OPEN
from repro.serve.metrics import LatencyReservoir, ServingMetrics, percentile
from repro.serve.pool import EngineWorkerPool, PoolRun, pool_start_method
from repro.serve.middleware import (
    AuthError,
    BadRequestError,
    BreakerOpenError,
    DeadlineError,
    DrainingError,
    ServeError,
    ShedError,
    WorkerFailedError,
    authenticate,
    decode_infer_request,
)

__all__ = [
    "AuthError",
    "BadRequestError",
    "BatcherConfig",
    "BreakerOpenError",
    "CLOSED",
    "CircuitBreaker",
    "DeadlineError",
    "DegradePolicy",
    "DrainingError",
    "EngineWorkerPool",
    "HALF_OPEN",
    "InferenceRequest",
    "InferenceServer",
    "LatencyReservoir",
    "MicroBatcher",
    "OPEN",
    "PoolRun",
    "ServeConfig",
    "ServeError",
    "ServerHandle",
    "ServiceEstimator",
    "ServingMetrics",
    "ShedError",
    "WorkerFailedError",
    "authenticate",
    "build_demo_network",
    "decode_infer_request",
    "percentile",
    "pool_start_method",
]
