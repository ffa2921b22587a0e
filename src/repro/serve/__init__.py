"""Robust async inference serving for converted SNNs.

The paper's accelerator exists to serve inference at scale; this
package is the reproduction's serving layer — the part that takes the
engine stack (the ``auto`` density rule, block lanes) and puts a deadline-aware, failure-honest HTTP
service in front of it, stdlib-only:

* :mod:`repro.serve.app` — the asyncio HTTP server, lifecycle and
  graceful SIGTERM drain;
* :mod:`repro.serve.batcher` — bounded admission queue, deadline-aware
  micro-batching, load shedding, timestep degradation;
* :mod:`repro.serve.breaker` — circuit breaker over the engine worker;
* :mod:`repro.serve.metrics` — the JSON ``/metrics`` snapshot;
* :mod:`repro.serve.middleware` — error taxonomy, auth, request
  decoding.

One in-process :class:`~repro.snn.engines.service.EngineWorker` runs
every batch; scaling out means independent server processes behind a
front.

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
    "HALF_OPEN",
    "InferenceRequest",
    "InferenceServer",
    "LatencyReservoir",
    "MicroBatcher",
    "OPEN",
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
]
