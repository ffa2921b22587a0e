"""An async-friendly, replaceable execution slot over a bound engine.

The serving layer (:mod:`repro.serve`) needs three things the raw
:class:`~repro.snn.engines.base.SimulationEngine` interface does not
give it:

* **Serialised submission.**  An engine instance is not reentrant — a
  run may install forward interceptors on the bound model for its
  duration — so concurrent requests must queue behind one another.
  :class:`EngineWorker` owns one slot per engine: a daemon thread
  reading a queue, which *is* the engine's execution slot, and the
  queue in front of it is the natural backpressure the micro-batcher
  measures.
* **An awaitable API.**  :meth:`EngineWorker.run_async` wraps the
  slot's future for ``asyncio`` callers with an optional wall-clock
  timeout, so the event loop never blocks on a GEMM.
* **A health probe and a poison recovery path.**  A slot thread stuck
  inside a wedged run cannot be killed; what *can* be done is to
  abandon the wedged thread together with the model whose interceptors
  it still holds, and rebuild the slot on a sibling engine bound to a
  weight-sharing clone (:func:`clone_for_inference`).  Weights are
  never copied, and warm cross-run caches (effective weights) are
  shared with the replacement.  The slot thread is a daemon, so an
  abandoned thread never keeps the process alive: the interpreter
  exits without joining it.  :meth:`EngineWorker.health_probe` runs a
  tiny canary inference through the same slot so liveness means "the
  engine actually completes work", not "the process exists".

A run inside the slot is one plain ``engine.run``; a large batch still
uses every core through the engine's block lanes.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.snn.engines.base import EngineRun, SimulationEngine
from repro.snn.engines.lanes import clone_for_inference

logger = logging.getLogger(__name__)

_WORKER_IDS = itertools.count(1)


class WorkerTimeout(RuntimeError):
    """A submitted run outlived its wall-clock budget; the worker's
    execution slot was abandoned and rebuilt on a model clone."""


class _Slot:
    """One daemon thread that runs queued calls in order, completing
    each call's :class:`~concurrent.futures.Future`."""

    def __init__(self) -> None:
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self.thread = threading.Thread(
            target=self._serve, name=f"engine-worker-{next(_WORKER_IDS)}", daemon=True
        )
        self.thread.start()

    def _serve(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, fn, args = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = fn(*args)
            except BaseException as error:  # noqa: BLE001 - handed to the caller
                future.set_exception(error)
            else:
                future.set_result(result)

    def submit(self, fn, *args) -> Future:
        if self._closed:
            raise RuntimeError("cannot schedule new runs after shutdown")
        future: Future = Future()
        self._queue.put((future, fn, args))
        return future

    @property
    def queued(self) -> int:
        return self._queue.qsize()

    def close(self) -> None:
        """Let the thread exit once the calls queued before it ran."""
        self._closed = True
        self._queue.put(None)


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
        self._slot = _Slot()
        self._abandoned: list = []  # slots given up by restart()
        self.restarts = 0          # wedged slots abandoned and rebuilt
        self.runs_completed = 0

    # ------------------------------------------------------------------
    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def pending(self) -> int:
        """Queued-but-unfinished runs (approximate; for metrics only)."""
        return self._slot.queued

    @property
    def abandoned_alive(self) -> int:
        """Abandoned slot threads still running — each still inside the
        wedged run it was given up on (an abandoned thread exits once
        that run returns).  Slots whose thread has exited are forgotten."""
        with self._lock:
            self._abandoned = [s for s in self._abandoned if s.thread.is_alive()]
            return len(self._abandoned)

    # ------------------------------------------------------------------
    def _run(self, x, timesteps: int, per_step: bool) -> EngineRun:
        if self.probe_shape is None and hasattr(x, "shape"):
            self.probe_shape = tuple(int(s) for s in x.shape[1:])
        run = self._engine.run(x, timesteps, per_step=per_step)
        with self._lock:
            self.runs_completed += 1
        return run

    def submit(self, x, timesteps: int, per_step: bool = False) -> Future:
        """Queue one batch on the execution slot; returns its future."""
        with self._lock:
            slot = self._slot
        return slot.submit(self._run, x, int(timesteps), per_step)

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

        The old slot is closed without waiting — its thread, if stuck,
        keeps the *old* model's interceptors, and being a daemon it
        never delays the process's exit.  The replacement engine is a sibling (same
        configuration, shared thread-safe cross-run caches, so
        effective weights stay warm) bound to a fresh structural clone that shares every weight array with the
        original model.
        """
        with self._lock:
            self._slot.close()
            self._abandoned.append(self._slot)
            self._slot = _Slot()
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
        """Release the slot's thread once its queued runs are done
        (idempotent)."""
        self._slot.close()
