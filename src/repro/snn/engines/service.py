"""An async-friendly, replaceable execution slot over a bound engine.

The serving layer (:mod:`repro.serve`) needs three things the raw
:class:`~repro.snn.engines.base.SimulationEngine` interface does not
give it:

* **Serialised submission.**  An engine instance is not reentrant — a
  run installs forward interceptors on the bound model for its
  duration — so concurrent requests must queue behind one another.
  :class:`EngineWorker` owns a single-thread executor per engine: the
  thread *is* the engine's execution slot, and the queue in front of it
  is the natural backpressure the micro-batcher measures.
* **An awaitable API.**  :meth:`EngineWorker.run_async` wraps the
  worker future for ``asyncio`` callers with an optional wall-clock
  timeout, so the event loop never blocks on a GEMM.
* **A health probe and a poison recovery path.**  A worker thread stuck
  inside a wedged run cannot be killed; what *can* be done is to
  abandon the wedged thread together with the model whose interceptors
  it still holds, and rebuild the slot on a sibling engine bound to a
  weight-sharing clone (:func:`clone_for_inference`).  Weights are
  never copied, warm cross-run caches (effective weights, compiled
  execution plans) are shared with the replacement, and the stuck
  thread dies with the process.  :meth:`EngineWorker.health_probe`
  runs a tiny canary inference through the same slot so liveness means
  "the engine actually completes work", not "the process exists".

A run inside the slot is one plain ``engine.run``; a large batch still
uses every core through the engine's block lanes.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.snn.engines.base import EngineRun, SimulationEngine
from repro.snn.engines.sharding import clone_for_inference

logger = logging.getLogger(__name__)

_WORKER_IDS = itertools.count(1)


class WorkerTimeout(RuntimeError):
    """A submitted run outlived its wall-clock budget; the worker's
    execution slot was abandoned and rebuilt on a model clone."""


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one health-probe canary inference."""

    ok: bool
    latency_seconds: float
    error: str = ""


class EngineWorker:
    """One serialised, replaceable execution slot over a bound engine.

    Parameters
    ----------
    engine:
        A bound :class:`SimulationEngine` (``engine.model`` set).  The
        worker takes over execution scheduling; callers must not run
        the engine directly while the worker owns it.
    probe_shape:
        Single-sample input shape ``(C, H, W)`` for health-probe
        canaries; defaults to the shape of the first submitted batch.
    probe_timesteps:
        T for canary runs (small on purpose: a probe asserts liveness,
        not accuracy).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        probe_shape: Optional[Sequence[int]] = None,
        probe_timesteps: int = 2,
    ) -> None:
        if engine.model is None:
            raise ValueError("engine must be bound to a model (call bind() first)")
        self._engine = engine
        self._source_model = engine.model
        self.probe_shape: Optional[Tuple[int, ...]] = (
            tuple(int(s) for s in probe_shape) if probe_shape is not None else None
        )
        self.probe_timesteps = int(probe_timesteps)
        self._lock = threading.Lock()
        self._executor = self._fresh_executor()
        self.restarts = 0          # wedged slots abandoned and rebuilt
        self.runs_completed = 0
        self.replans_seen = 0      # planner drift events observed in runs

    # ------------------------------------------------------------------
    def _fresh_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"engine-worker-{next(_WORKER_IDS)}",
        )

    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def pending(self) -> int:
        """Queued-but-unfinished runs (approximate; for metrics only)."""
        return getattr(self._executor, "_work_queue").qsize()

    # ------------------------------------------------------------------
    def _run(self, x, timesteps: int, per_step: bool) -> EngineRun:
        if self.probe_shape is None and hasattr(x, "shape"):
            self.probe_shape = tuple(int(s) for s in x.shape[1:])
        observe = getattr(self._engine, "observe_density_prior", None)
        if observe is not None and isinstance(x, np.ndarray):
            # Serving-observed density feeds the planner's EWMA prior so
            # cold plan keys warm-start from real traffic (one
            # count_nonzero pass — noise next to a T-timestep run).
            observe("dense", float(np.count_nonzero(x)) / max(x.size, 1))
        run = self._engine.run(x, timesteps, per_step=per_step)
        with self._lock:
            self.runs_completed += 1
            if run.stats.replan_triggered:
                self.replans_seen += 1
        return run

    def submit(self, x, timesteps: int, per_step: bool = False) -> Future:
        """Queue one batch on the execution slot; returns its future."""
        with self._lock:
            executor = self._executor
        return executor.submit(self._run, x, int(timesteps), per_step)

    async def run_async(
        self,
        x,
        timesteps: int,
        per_step: bool = False,
        timeout: Optional[float] = None,
    ) -> EngineRun:
        """Await one batch through the slot, with a hang deadline.

        On timeout the wedged slot is replaced (:meth:`restart`) and
        :class:`WorkerTimeout` raised — the circuit breaker's signal.
        The abandoned thread may still be executing; it holds only the
        abandoned model clone, so the replacement slot is unaffected.
        """
        future = self.submit(x, timesteps, per_step)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            self.restart()
            raise WorkerTimeout(
                f"engine run exceeded its {timeout:.3f}s budget; the worker "
                f"slot was abandoned and rebuilt"
            ) from None

    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Abandon the (possibly wedged) slot and rebuild it.

        The old executor is shut down without waiting — its thread, if
        stuck, keeps the *old* model's interceptors and dies with the
        process.  The replacement engine is a sibling (same
        configuration, shared thread-safe cross-run caches, so compiled
        plans and effective weights stay warm) bound to a fresh
        structural clone that shares every weight array with the
        original model.
        """
        with self._lock:
            self._executor.shutdown(wait=False)
            self._executor = self._fresh_executor()
            replacement = self._engine._sibling()
            replacement.bind(clone_for_inference(self._source_model))
            self._engine = replacement
            self.restarts += 1
        logger.warning(
            "engine worker restarted (%d restart(s) total): wedged slot "
            "abandoned, engine rebuilt on a weight-sharing model clone",
            self.restarts,
        )

    # ------------------------------------------------------------------
    def planner_snapshot(self) -> Optional[dict]:
        """The engine's planner state, when the engine has a planner.

        ``AutoEngine.planner_snapshot()`` passed through (cached plans,
        calibration/re-plan counters, cost-model fit quality); ``None``
        for fixed-backend engines.  Slot restarts preserve it: sibling
        engines share the plan cache and cost model.
        """
        snapshot = getattr(self._engine, "planner_snapshot", None)
        if snapshot is None:
            return None
        return snapshot()

    # ------------------------------------------------------------------
    def health_probe(self, timeout: Optional[float] = 5.0) -> ProbeResult:
        """Run a canary inference through the slot, bounded by ``timeout``.

        A probe that times out reports unhealthy *and* restarts the
        slot, so the next probe exercises the replacement — the
        half-open handshake the circuit breaker builds on.
        """
        if self.probe_shape is None:
            return ProbeResult(
                ok=False, latency_seconds=0.0,
                error="no probe shape known yet (no batch seen, none configured)",
            )
        canary = np.zeros((1,) + self.probe_shape, dtype=np.float32)
        started = time.perf_counter()
        future = self.submit(canary, self.probe_timesteps)
        try:
            future.result(timeout)
        except Exception as error:  # noqa: BLE001 - probes report, never raise
            elapsed = time.perf_counter() - started
            if not future.done():
                self.restart()
                return ProbeResult(
                    ok=False, latency_seconds=elapsed,
                    error=f"probe timed out after {elapsed:.3f}s",
                )
            return ProbeResult(
                ok=False, latency_seconds=elapsed,
                error=f"{type(error).__name__}: {error}",
            )
        return ProbeResult(ok=True, latency_seconds=time.perf_counter() - started)

    async def health_probe_async(
        self, timeout: Optional[float] = 5.0
    ) -> ProbeResult:
        """:meth:`health_probe` off the event loop thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.health_probe, timeout)

    def shutdown(self) -> None:
        """Release the slot's thread (idempotent)."""
        self._executor.shutdown(wait=False)
