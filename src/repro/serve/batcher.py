"""Deadline-aware micro-batching with admission control.

The serving fast path.  Incoming single-image requests land in one
bounded queue; a single dispatch loop coalesces whatever is waiting
into a ``(N, C, H, W)`` batch and runs it through the warm
:class:`~repro.snn.engines.service.EngineWorker`.  Batching is how an
SNN accelerator serves load: per-run overhead (interceptor install,
state reset) is paid once per *batch* instead of once per
request, so throughput under concurrency multiplies while the engine
itself stays untouched.

Robustness decisions all happen here, at well-defined points:

* **Admission** (:meth:`MicroBatcher.submit`): draining and an open
  circuit breaker fast-fail immediately (503); a full queue — by depth
  *or* by queued payload bytes — sheds load (429 + ``Retry-After``);
  a deadline that the current backlog provably cannot meet is rejected
  up front (504) rather than wasting a queue slot on a doomed request.
* **Work-conserving dispatch**: the worker gets whatever is queued
  the moment it is idle — no timer holds a lone request for co-riders,
  and one batch is in flight at a time.  Requests that arrive while a
  batch runs coalesce in the queue, and the next gather takes up to
  ``max_batch_size`` of them, so batches grow with load on their own.
* **Culling**: disconnected and deadline-expired entries are dropped
  *before* dispatch so the engine never spends cycles on an answer
  nobody is waiting for.  Every dropped entry's future is cancelled
  (or failed) and counted, so no handler awaits it forever.
* **Degradation**: when observed p99 exceeds the configured budget,
  :class:`DegradePolicy` halves the timestep ceiling.  Degraded
  requests still ride the same batch — the engine runs to the largest
  effective T with ``per_step=True`` and each entry is answered from
  the cumulative logits at *its* effective timestep, which makes a
  degraded answer exactly the prefix of the full-T answer.
* **Breaker integration**: dispatch failures (engine errors, worker
  hang timeouts) feed the breaker; when it trips,
  everything still queued is fast-failed, and the half-open probe is a
  real single-entry batch.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from collections import deque

import numpy as np

from repro.serve.breaker import CircuitBreaker, OPEN
from repro.serve.metrics import ServingMetrics
from repro.serve.middleware import (
    BreakerOpenError,
    DeadlineError,
    DrainingError,
    ShedError,
    WorkerFailedError,
)
from repro.snn.engines.service import EngineWorker, WorkerTimeout

logger = logging.getLogger(__name__)

_REQUEST_IDS = itertools.count(1)


class ServiceEstimator:
    """EWMA model of engine service time: ``overhead + unit * N * T``.

    ``unit`` is seconds per sample-timestep, learned from every
    completed batch; ``overhead`` is the fixed per-dispatch cost.  The
    estimate feeds admission feasibility (behind a safety factor) and
    queue culling, so the model only needs to be roughly right and
    quick to adapt.
    """

    def __init__(
        self,
        initial_unit: float = 2e-3,
        overhead: float = 2e-3,
        alpha: float = 0.3,
    ) -> None:
        self.unit = float(initial_unit)
        self.overhead = float(overhead)
        self.alpha = float(alpha)
        self.observations = 0

    def estimate(self, samples: int, timesteps: int) -> float:
        return self.overhead + self.unit * max(samples, 1) * max(timesteps, 1)

    def update(self, samples: int, timesteps: int, elapsed: float) -> None:
        work = max(samples * timesteps, 1)
        observed = max(elapsed - self.overhead, 1e-6) / work
        self.unit += self.alpha * (observed - self.unit)
        self.observations += 1


class DegradePolicy:
    """Shrink the timestep ceiling when p99 latency blows its budget.

    Fewer timesteps is the one knob an SNN gives away almost for free:
    logits accumulate over T, so truncating T trades a little accuracy
    for proportionally less compute while answers stay prefixes of the
    full-T result.  The policy halves the ceiling (down to
    ``min_timesteps``) whenever observed p99 exceeds ``p99_budget_ms``,
    and doubles it back once p99 falls below ``recover_fraction`` of
    the budget; a cooldown between moves keeps it from oscillating on
    a noisy percentile.
    """

    def __init__(
        self,
        full_timesteps: int,
        min_timesteps: int = 1,
        p99_budget_ms: Optional[float] = None,
        recover_fraction: float = 0.6,
        cooldown_seconds: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if full_timesteps < 1:
            raise ValueError("full_timesteps must be >= 1")
        self.full_timesteps = int(full_timesteps)
        self.min_timesteps = max(1, min(int(min_timesteps), self.full_timesteps))
        self.p99_budget_ms = p99_budget_ms
        self.recover_fraction = float(recover_fraction)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._last_change = -float("inf")
        self.current = self.full_timesteps
        self.degradations = 0
        self.recoveries = 0

    @property
    def degraded(self) -> bool:
        return self.current < self.full_timesteps

    def observe(self, p99_ms: Optional[float]) -> int:
        """Feed one p99 reading; returns the (possibly new) ceiling."""
        if self.p99_budget_ms is None or p99_ms is None:
            return self.current
        now = self._clock()
        if now - self._last_change < self.cooldown_seconds:
            return self.current
        if p99_ms > self.p99_budget_ms and self.current > self.min_timesteps:
            self.current = max(self.min_timesteps, self.current // 2)
            self.degradations += 1
            self._last_change = now
            logger.warning(
                "p99 %.1fms over %.1fms budget: degrading timestep ceiling to T=%d",
                p99_ms, self.p99_budget_ms, self.current,
            )
        elif (
            p99_ms < self.recover_fraction * self.p99_budget_ms
            and self.current < self.full_timesteps
        ):
            self.current = min(self.full_timesteps, self.current * 2)
            self.recoveries += 1
            self._last_change = now
            logger.info(
                "p99 %.1fms back under budget: raising timestep ceiling to T=%d",
                p99_ms, self.current,
            )
        return self.current


@dataclass
class InferenceRequest:
    """One admitted request waiting in (or leaving) the queue."""

    batch: np.ndarray          # (1, C, H, W)
    timesteps: int             # requested T (<= the server's full T)
    deadline: float            # absolute monotonic deadline
    enqueued_at: float
    future: "asyncio.Future"
    is_disconnected: Optional[Callable[[], bool]] = None
    id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    @property
    def nbytes(self) -> int:
        return int(self.batch.nbytes)

    def alive(self) -> bool:
        if self.future.done():
            return False
        if self.is_disconnected is not None and self.is_disconnected():
            return False
        return True


@dataclass
class BatcherConfig:
    """Knobs for the queue, the coalescer and the failure paths."""

    max_batch_size: int = 8
    max_queue_depth: int = 64
    max_inflight_bytes: int = 64 * 1024 * 1024
    safety_factor: float = 2.0          # estimate multiplier for feasibility
    hang_timeout_seconds: float = 30.0   # worker-level wedge deadline
    idle_tick_seconds: float = 0.05      # queue poll cadence when idle


class MicroBatcher:
    """The bounded queue + dispatch loop between HTTP and the engine."""

    def __init__(
        self,
        worker: EngineWorker,
        breaker: CircuitBreaker,
        metrics: ServingMetrics,
        degrade: DegradePolicy,
        config: Optional[BatcherConfig] = None,
        estimator: Optional[ServiceEstimator] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.worker = worker
        self.breaker = breaker
        self.metrics = metrics
        self.degrade = degrade
        self.config = config or BatcherConfig()
        self.estimator = estimator or ServiceEstimator()
        self._clock = clock
        self._queue: Deque[InferenceRequest] = deque()
        self._queued_bytes = 0
        self._inflight = 0          # entries inside in-flight dispatches
        self._inflight_work = 0     # sample-timesteps in flight
        self._draining = False
        self._closed = False
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="microbatcher-dispatch"
            )

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def begin_drain(self) -> None:
        """Stop admitting; in-flight and queued work keeps completing."""
        self._draining = True
        self._wake.set()

    async def drain(self, timeout: float) -> bool:
        """Wait (bounded) for the queue and in-flight batch to empty.

        Returns True if everything flushed inside ``timeout``; on False
        the stragglers are failed with 503 so no future is left hanging.
        """
        self.begin_drain()
        deadline = self._clock() + timeout
        while (self._queue or self._inflight) and self._clock() < deadline:
            await asyncio.sleep(0.01)
        flushed = not self._queue and not self._inflight
        if not flushed:
            self._fail_queue(DrainingError("drain deadline elapsed"), "drain_expired")
        return flushed

    async def close(self) -> None:
        self._closed = True
        self._wake.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._task = None
        self._fail_queue(DrainingError("server shut down"), "shutdown_dropped")

    # -- admission -----------------------------------------------------
    def submit(
        self,
        batch: np.ndarray,
        timesteps: int,
        deadline_ms: float,
        is_disconnected: Optional[Callable[[], bool]] = None,
    ) -> "asyncio.Future":
        """Admit one request or raise the matching :class:`ServeError`."""
        cfg = self.config
        self.metrics.inc("requests_total")
        if self._draining or self._closed:
            self.metrics.inc("rejected_draining")
            raise DrainingError("server is draining; not admitting new work")
        allowed, retry_after = self.breaker.allow_request()
        if not allowed:
            self.metrics.inc("rejected_breaker")
            raise BreakerOpenError(
                "execution substrate is failing; circuit breaker is open",
                retry_after=retry_after,
            )
        if len(self._queue) >= cfg.max_queue_depth:
            self.metrics.inc("shed_queue")
            raise ShedError(
                f"queue depth limit ({cfg.max_queue_depth}) reached",
                retry_after=self._drain_time_estimate(),
            )
        if self._queued_bytes + batch.nbytes > cfg.max_inflight_bytes:
            self.metrics.inc("shed_bytes")
            raise ShedError(
                "in-flight payload byte limit reached",
                retry_after=self._drain_time_estimate(),
            )
        now = self._clock()
        effective_t = min(int(timesteps), self.degrade.current)
        wait = self.estimator.unit * (self._pending_work() + self._inflight_work)
        service = self.estimator.estimate(1, effective_t) * cfg.safety_factor
        budget = deadline_ms / 1e3
        if wait + service > budget:
            self.metrics.inc("rejected_deadline")
            raise DeadlineError(
                f"deadline of {deadline_ms:.1f}ms cannot be met: estimated "
                f"queue wait {wait * 1e3:.1f}ms + service {service * 1e3:.1f}ms"
            )
        entry = InferenceRequest(
            batch=batch,
            timesteps=int(timesteps),
            deadline=now + budget,
            enqueued_at=now,
            future=asyncio.get_running_loop().create_future(),
            is_disconnected=is_disconnected,
        )
        self._queue.append(entry)
        self._queued_bytes += entry.nbytes
        self.metrics.set_gauge("queue_depth", len(self._queue))
        self.metrics.set_gauge("queued_bytes", self._queued_bytes)
        self._wake.set()
        return entry.future

    def _pending_work(self) -> int:
        return sum(min(e.timesteps, self.degrade.current) for e in self._queue)

    def _drain_time_estimate(self) -> float:
        """Seconds until today's backlog plausibly clears — the 429
        ``Retry-After``.

        Derived from actual load, not a constant: queued plus in-flight
        sample-timesteps priced at the EWMA unit cost, plus one
        per-dispatch overhead for every batch the backlog will need.  A
        client shed at depth 60 therefore backs off proportionally
        longer than one shed at depth 8, instead of every shed client
        retrying into the same wall simultaneously.
        """
        cfg = self.config
        entries = len(self._queue) + self._inflight
        batches = math.ceil(max(entries, 1) / max(cfg.max_batch_size, 1))
        work = self._pending_work() + self._inflight_work
        return batches * self.estimator.overhead + self.estimator.unit * work

    # -- queue maintenance ---------------------------------------------
    def _remove(self, entry: InferenceRequest) -> None:
        try:
            self._queue.remove(entry)
        except ValueError:
            return
        self._queued_bytes -= entry.nbytes
        self.metrics.set_gauge("queue_depth", len(self._queue))
        self.metrics.set_gauge("queued_bytes", self._queued_bytes)

    def _fail_queue(self, error: Exception, counter: str) -> None:
        while self._queue:
            entry = self._queue.popleft()
            self._queued_bytes -= entry.nbytes
            if not entry.future.done():
                entry.future.set_exception(error)
            self.metrics.inc(counter)
        self._queued_bytes = 0
        self.metrics.set_gauge("queue_depth", 0)
        self.metrics.set_gauge("queued_bytes", 0)

    def _cancel_dropped(self, entry: InferenceRequest) -> None:
        """Resolve and count an entry dropped because nobody awaits it."""
        if not entry.future.done():
            entry.future.cancel()
        self.metrics.inc("cancelled_in_queue")

    def _cull(self, now: float) -> None:
        """Drop disconnected / already-doomed entries before dispatch."""
        for entry in list(self._queue):
            if not entry.alive():
                self._remove(entry)
                self._cancel_dropped(entry)
                continue
            effective_t = min(entry.timesteps, self.degrade.current)
            min_service = self.estimator.estimate(1, effective_t)
            if now + min_service > entry.deadline:
                self._remove(entry)
                if not entry.future.done():
                    entry.future.set_exception(
                        DeadlineError("deadline expired while queued")
                    )
                self.metrics.inc("expired_in_queue")

    # -- dispatch ------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        cfg = self.config
        while not self._closed:
            if not self._queue:
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=cfg.idle_tick_seconds
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            now = self._clock()
            self._cull(now)
            if not self._queue:
                continue
            mode = self.breaker.before_dispatch()
            if mode is None:
                if self.breaker.state == OPEN:
                    self._fail_queue(
                        BreakerOpenError(
                            "circuit breaker opened while queued",
                            retry_after=self.breaker.retry_after(),
                        ),
                        "rejected_breaker",
                    )
                else:
                    await asyncio.sleep(cfg.idle_tick_seconds)
                continue
            # One batch in flight: it is awaited before the next gather,
            # and arrivals meanwhile queue up to ride the next batch.
            members = self._gather(1 if mode == "probe" else cfg.max_batch_size)
            if members:
                await self._dispatch(members, probe=(mode == "probe"))
                self.degrade.observe(self.metrics.p99_ms())
                self.metrics.set_gauge("degrade_timesteps", self.degrade.current)

    def _gather(self, limit: int) -> List[InferenceRequest]:
        members: List[InferenceRequest] = []
        while self._queue and len(members) < limit:
            entry = self._queue.popleft()
            self._queued_bytes -= entry.nbytes
            if entry.alive():
                members.append(entry)
            else:
                self._cancel_dropped(entry)
        self.metrics.set_gauge("queue_depth", len(self._queue))
        self.metrics.set_gauge("queued_bytes", self._queued_bytes)
        return members

    async def _dispatch(
        self, members: List[InferenceRequest], probe: bool = False
    ) -> None:
        cfg = self.config
        effective = [min(e.timesteps, self.degrade.current) for e in members]
        t_exec = max(effective)
        stacked = (
            members[0].batch
            if len(members) == 1
            else np.concatenate([e.batch for e in members], axis=0)
        )
        self._inflight += len(members)
        self._inflight_work += sum(effective)
        self.metrics.set_gauge("inflight_requests", self._inflight)
        started = self._clock()
        try:
            run = await self.worker.run_async(
                stacked, t_exec, per_step=True, timeout=cfg.hang_timeout_seconds
            )
        except Exception as error:  # noqa: BLE001 - every failure feeds the breaker
            elapsed = self._clock() - started
            if isinstance(error, WorkerTimeout):
                self.metrics.inc("worker_timeouts")
            self.metrics.inc("dispatch_failures")
            self.breaker.record_failure(
                probe=probe, reason=f"{type(error).__name__}: {error}"
            )
            failure = WorkerFailedError(
                f"batch of {len(members)} failed after {elapsed * 1e3:.1f}ms "
                f"({type(error).__name__}: {error})"
            )
            for entry in members:
                if not entry.future.done():
                    entry.future.set_exception(failure)
            return
        finally:
            self._inflight = max(self._inflight - len(members), 0)
            self._inflight_work = max(self._inflight_work - sum(effective), 0)
            self.metrics.set_gauge("inflight_requests", self._inflight)
            self._export_worker_counters()

        elapsed = self._clock() - started
        self.estimator.update(len(members), t_exec, elapsed)
        self.breaker.record_success(probe=probe)
        self.metrics.inc("batches_dispatched")
        self.metrics.inc("batch_samples", len(members))
        now = self._clock()
        for row, (entry, t_eff) in enumerate(zip(members, effective)):
            logits = run.per_step[t_eff - 1][row]
            degraded = t_eff < entry.timesteps
            if degraded:
                self.metrics.inc("degraded_responses")
            if now > entry.deadline:
                self.metrics.inc("deadline_missed")
            if not entry.future.done():
                entry.future.set_result(
                    {
                        "logits": [float(v) for v in logits],
                        "prediction": int(np.argmax(logits)),
                        "timesteps_requested": entry.timesteps,
                        "timesteps_executed": t_eff,
                        "degraded": degraded,
                        "batch_size": len(members),
                        "latency_ms": round((now - entry.enqueued_at) * 1e3, 3),
                    }
                )
            self.metrics.inc("responses_ok")
            self.metrics.observe_latency(now - entry.enqueued_at)

    def _export_worker_counters(self) -> None:
        self.metrics.set_gauge("worker_restarts", self.worker.restarts)
