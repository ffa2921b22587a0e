"""Process-parallel engine replicas behind one ``EngineWorker``-shaped facade.

One :class:`~repro.snn.engines.service.EngineWorker` serializes every
batch through a single GIL-bound thread, so serving throughput is
capped at one core.  :class:`EngineWorkerPool` replicates the engine
across **N worker processes** and keeps the rest of the serving stack
unchanged: it duck-types the worker's surface (``run_async`` /
``submit`` / counters / ``health_probe`` /
``shutdown``) plus a ``capacity`` attribute the micro-batcher uses to
keep up to N batches in flight.

Transport is the replicas' ``multiprocessing`` queues themselves: the
input batch rides pickled inside the dispatch dict on the replica's
request queue, and the stacked per-step cumulative logits ride back
inside the response dict on the shared response queue.  The README's
mechanism-decision table records the cost of that pickling.

Replication strategy:

* **fork** (Linux/macOS): replicas are forked *after* the parent probes
  the engine, so model weights and the effective-weight cache are
  inherited copy-on-write — zero weight copies.  Every engine is
  bitwise equal to its own single-worker run, so pool responses are
  bit-identical to the single-worker path.
* **spawn** (elsewhere): the model and engine spec are pickled once per
  replica at start — a one-time weight broadcast, never per-request.

Scheduling is least-outstanding-work: each dispatch lands on the live
replica with the smallest sum of queued sample-timesteps whose
per-replica circuit breaker admits traffic.  A replica that hangs past
the worker timeout is killed and rebuilt alone; a replica that *dies*
(crash, OOM-kill, chaos test) has its outstanding dispatches re-queued
onto surviving replicas — the parent keeps every input batch until its
answer arrives — so the pool keeps answering through a replica's death.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import queue as queue_module
import signal
import stat
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.breaker import CircuitBreaker
from repro.snn.engines.service import ProbeResult, WorkerTimeout

logger = logging.getLogger(__name__)

#: Times a dispatch may be (re)assigned across replica deaths before it
#: fails out to the caller — bounds the blast radius of a poison batch
#: that crashes every replica it touches.
MAX_DISPATCH_ATTEMPTS = 2


def pool_start_method() -> str:
    """``"fork"`` where available (zero-copy weights), else ``"spawn"``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Replica process
# ----------------------------------------------------------------------
def _materialise_engine(payload: dict):
    """Build the replica's bound engine from the start-method payload."""
    if payload["mode"] == "fork":
        # Nothing was pickled: the engine (weights, caches) arrived
        # copy-on-write through fork.
        return payload["engine"]
    from repro.snn.engines import make_engine

    engine = make_engine(payload["spec"])
    engine.bind(payload["model"])
    return engine


def _drop_inherited_sockets() -> None:
    """Release the copies of the parent's sockets a forked replica holds.

    A replica rebuilt while the server runs inherits every open client
    connection; while it holds a copy, the parent's close never reaches
    the client, which then waits for EOF.  Each socket descriptor is
    pointed at ``/dev/null`` rather than closed, so the number stays
    taken and an inherited socket object can never close an unrelated
    descriptor that reused it.
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            try:
                fd = int(name)
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except (ValueError, OSError):
                continue  # e.g. the listing's own, already closed descriptor
    finally:
        os.close(devnull)


def _replica_main(index: int, payload: dict, request_queue, response_queue) -> None:
    """One replica: take batches off its queue, answer on the shared one.

    Every answer carries the dispatch's ``req`` id and ``attempt`` tag so
    the parent can match it and drop a superseded attempt's.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if payload["mode"] == "fork":
        _drop_inherited_sockets()
    engine = _materialise_engine(payload)
    while True:
        try:
            item = request_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if item is None:
            break
        response = {
            "req": item.get("req"), "replica": index,
            "attempt": item.get("attempt"),
        }
        try:
            run = engine.run(item["x"], int(item["timesteps"]), per_step=True)
            response.update(
                ok=True,
                per_step=np.stack(run.per_step),
                stats={"wall_clock_seconds": float(run.stats.wall_clock_seconds)},
            )
        except BaseException as error:  # noqa: BLE001 - replica must answer
            response.update(ok=False, error=f"{type(error).__name__}: {error}")
        try:
            response_queue.put(response)
        except (EOFError, OSError):
            break


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _Dispatch:
    """One in-flight batch: its descriptor (input included) and caller future."""

    rid: int
    descriptor: dict
    work: int                       # sample-timesteps, for scheduling
    timesteps: int
    per_step: bool
    future: Future = field(default_factory=Future)
    replica: Optional["_Replica"] = None
    attempts: int = 0


class _Replica:
    """A replica process plus its queue, breaker and outstanding work."""

    def __init__(self, index: int, breaker: CircuitBreaker) -> None:
        self.index = index
        self.breaker = breaker
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.request_queue = None
        self.outstanding: Dict[int, _Dispatch] = {}
        self.restarts = 0
        self.completed = 0
        self.stopping = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def outstanding_work(self) -> int:
        return sum(d.work for d in self.outstanding.values())


@dataclass
class _PoolStats:
    """Minimal ``RunStats``-shaped view for pool responses."""

    batch_size: int
    timesteps: int
    engine: str
    wall_clock_seconds: float


@dataclass
class PoolRun:
    """``EngineRun``-shaped result assembled from a replica's answer."""

    logits: np.ndarray
    stats: _PoolStats
    per_step: Optional[List[np.ndarray]] = None


class EngineWorkerPool:
    """N process-backed engine replicas behind the worker interface.

    Parameters mirror :class:`EngineWorker` where they overlap; the
    engine must already be bound.  The parent runs warm-up probes
    through its own engine *before* starting replicas so fork children
    inherit its warm caches.
    """

    def __init__(
        self,
        engine,
        replicas: int,
        probe_shape: Optional[Sequence[int]] = None,
        probe_timesteps: int = 2,
        serve_timesteps: Optional[int] = None,
        max_batch_size: int = 8,
        breaker_failure_threshold: int = 3,
        breaker_reset_seconds: float = 2.0,
        spawn_spec: Optional[str] = None,
    ) -> None:
        if engine.model is None:
            raise ValueError("engine must be bound to a model (call bind() first)")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if probe_shape is None:
            raise ValueError("the pool needs probe_shape for its warm-up runs")
        self._engine = engine
        self.probe_shape: Tuple[int, ...] = tuple(int(s) for s in probe_shape)
        self.probe_timesteps = int(probe_timesteps)
        self.capacity = int(replicas)
        self.max_batch_size = int(max_batch_size)
        self.start_method = pool_start_method()
        self._spawn_spec = spawn_spec

        # Worker-interface counters (the batcher and /metrics read these).
        self.restarts = 0
        self.runs_completed = 0

        self._lock = threading.Lock()
        self._closed = False
        # Set by shutdown() once every replica has exited; until then the
        # reader keeps draining answers, so a replica whose answer is
        # still in its queue's pipe can flush it and exit.
        self._replicas_joined = threading.Event()
        self._rid_counter = 0
        self._dispatches: Dict[int, _Dispatch] = {}

        # Warm the parent engine before forking: the single-sample and
        # full-batch runs fill the caches replicas inherit.
        probe = np.zeros((1,) + self.probe_shape, dtype=np.float32)
        serve_t = int(serve_timesteps or self.probe_timesteps)
        self._engine.run(probe, serve_t, per_step=True)
        if self.max_batch_size > 1:
            batch = np.zeros(
                (self.max_batch_size,) + self.probe_shape, dtype=np.float32
            )
            self._engine.run(batch, serve_t, per_step=True)

        self._context = multiprocessing.get_context(self.start_method)
        self._response_queue = self._context.Queue()
        self._replicas: List[_Replica] = []
        for index in range(self.capacity):
            replica = _Replica(
                index,
                CircuitBreaker(
                    failure_threshold=breaker_failure_threshold,
                    reset_timeout=breaker_reset_seconds,
                    name=f"replica-{index}",
                ),
            )
            self._start_replica(replica)
            self._replicas.append(replica)
        self._reader = threading.Thread(
            target=self._reader_loop, name="pool-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # Replica lifecycle
    # ------------------------------------------------------------------
    def _replica_payload(self) -> dict:
        if self.start_method == "fork":
            # Process args are not pickled under fork: the engine rides
            # into the child copy-on-write.
            return {"mode": "fork", "engine": self._engine}
        return {
            "mode": "spawn",
            "spec": self._spawn_spec or "auto",
            "model": self._engine.model,
        }

    def _start_replica(self, replica: _Replica) -> None:
        replica.request_queue = self._context.Queue()
        replica.process = self._context.Process(
            target=_replica_main,
            args=(
                replica.index,
                self._replica_payload(),
                replica.request_queue,
                self._response_queue,
            ),
            name=f"engine-replica-{replica.index}",
            daemon=True,
        )
        replica.process.start()

    def _rebuild_replica(self, replica: _Replica, reason: str) -> List[_Dispatch]:
        """Kill + restart one replica; returns its orphaned dispatches.

        Called with the pool lock held.  The process is killed *before*
        its outstanding work is re-queued; a late answer it managed to
        send is dropped by its stale ``attempt`` tag.
        """
        process = replica.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        if replica.request_queue is not None:
            # Batches the dead replica never read may still sit in the
            # queue's feeder thread, blocked on a full pipe; don't let
            # interpreter exit wait for them.
            replica.request_queue.cancel_join_thread()
        orphans = list(replica.outstanding.values())
        replica.outstanding.clear()
        replica.restarts += 1
        self.restarts += 1
        # A fresh breaker: the replacement process starts with a clean
        # failure history.
        replica.breaker = CircuitBreaker(
            failure_threshold=replica.breaker.failure_threshold,
            reset_timeout=replica.breaker.reset_timeout,
            name=f"replica-{replica.index}",
        )
        self._start_replica(replica)
        logger.warning(
            "pool replica %d rebuilt (%s); %d outstanding dispatch(es) "
            "re-queued", replica.index, reason, len(orphans),
        )
        return orphans

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _pick_replica(self) -> _Replica:
        """Least outstanding work among breaker-admitting live replicas.

        Falls back to all live replicas when every breaker is open —
        the pool's contract is to keep answering; per-replica breakers
        only *steer* load away from a flapping replica.
        """
        live = [r for r in self._replicas if r.alive() and not r.stopping]
        if not live:
            raise RuntimeError("no live replicas in the pool")
        admitting = [r for r in live if r.breaker.allow_request()[0]]
        candidates = admitting or live
        return min(candidates, key=lambda r: (r.outstanding_work(), r.index))

    def _assign(self, dispatch: _Dispatch) -> None:
        """Place one dispatch on a replica (lock held)."""
        replica = self._pick_replica()
        dispatch.replica = replica
        dispatch.attempts += 1
        # The attempt tag lets _handle_response drop a late answer from
        # a superseded attempt: a replica that finished just before its
        # SIGKILL may have enqueued a response that would otherwise be
        # taken for the re-queued attempt's.  Each put gets its own dict
        # because the queue pickles it later, on its feeder thread.
        replica.outstanding[dispatch.rid] = dispatch
        replica.request_queue.put(
            dict(dispatch.descriptor, attempt=dispatch.attempts)
        )

    # ------------------------------------------------------------------
    # Submission (worker interface)
    # ------------------------------------------------------------------
    def submit(self, x, timesteps: int, per_step: bool = False) -> Future:
        """Queue one batch on a replica; the future resolves to a PoolRun."""
        # A private copy: the queue pickles it later, on its feeder
        # thread, and a re-queue after a replica death sends it again.
        x = np.array(x, order="C")
        timesteps = int(timesteps)
        with self._lock:
            if self._closed:
                raise RuntimeError("the worker pool is shut down")
            self._rid_counter += 1
            rid = self._rid_counter
            dispatch = _Dispatch(
                rid=rid,
                descriptor={
                    "req": rid,
                    "x": x,
                    "timesteps": timesteps,
                },
                work=int(x.shape[0]) * timesteps,
                timesteps=timesteps,
                per_step=per_step,
            )
            self._dispatches[rid] = dispatch
            try:
                self._assign(dispatch)
            except Exception:
                self._dispatches.pop(rid, None)
                raise
        return dispatch.future

    async def run_async(
        self,
        x,
        timesteps: int,
        per_step: bool = False,
        timeout: Optional[float] = None,
    ):
        """Await one batch through the pool, with a hang deadline.

        A timeout means the assigned replica wedged: it alone is killed
        and rebuilt (:class:`WorkerTimeout` raised, feeding the global
        breaker) while the other replicas keep serving.
        """
        future = self.submit(x, timesteps, per_step)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            self._handle_hang(future)
            raise WorkerTimeout(
                f"pool dispatch exceeded its {timeout:.3f}s budget; the "
                f"replica was killed and rebuilt"
            ) from None

    def _handle_hang(self, future: Future) -> None:
        with self._lock:
            dispatch = next(
                (d for d in self._dispatches.values() if d.future is future), None
            )
            if dispatch is None or dispatch.replica is None:
                return
            replica = dispatch.replica
            replica.breaker.record_failure(reason="hang timeout")
            orphans = self._rebuild_replica(replica, "hang timeout")
            for orphan in orphans:
                if orphan.rid == dispatch.rid:
                    # The hung dispatch itself fails (the caller already
                    # got WorkerTimeout); innocent co-residents re-queue.
                    self._dispatches.pop(orphan.rid, None)
                    continue
                self._requeue(orphan, "replica hang")

    # ------------------------------------------------------------------
    # Response handling
    # ------------------------------------------------------------------
    def _requeue(self, dispatch: _Dispatch, reason: str) -> None:
        """Give an orphaned dispatch another replica (lock held)."""
        if dispatch.attempts >= MAX_DISPATCH_ATTEMPTS:
            self._dispatches.pop(dispatch.rid, None)
            if not dispatch.future.done():
                dispatch.future.set_exception(
                    RuntimeError(
                        f"dispatch failed after {dispatch.attempts} attempt(s) "
                        f"({reason})"
                    )
                )
            return
        try:
            self._assign(dispatch)
        except Exception as error:  # no live replica left
            self._dispatches.pop(dispatch.rid, None)
            if not dispatch.future.done():
                dispatch.future.set_exception(RuntimeError(str(error)))

    def _handle_response(self, message: dict) -> None:
        rid = message.get("req")
        with self._lock:
            dispatch = self._dispatches.get(rid)
            if dispatch is None:
                return  # stale duplicate (answered via re-queue already)
            attempt = message.get("attempt")
            if attempt is not None and attempt != dispatch.attempts:
                # A superseded attempt's late answer (the replica died
                # right after responding and the work was re-queued):
                # the live attempt answers for this dispatch.
                return
            self._dispatches.pop(rid, None)
            replica = dispatch.replica
            if replica is not None:
                replica.outstanding.pop(rid, None)
            if not message.get("ok"):
                if replica is not None:
                    replica.breaker.record_failure(
                        reason=message.get("error", "replica error")
                    )
                error: Optional[Exception] = RuntimeError(
                    message.get("error", "replica failed")
                )
                result = None
            else:
                error, result = None, self._collect_result(dispatch, message)
                if replica is not None:
                    replica.breaker.record_success()
                    replica.completed += 1
                self.runs_completed += 1
        if dispatch.future.done():
            return
        if error is not None:
            dispatch.future.set_exception(error)
        else:
            dispatch.future.set_result(result)

    def _collect_result(self, dispatch: _Dispatch, message: dict) -> PoolRun:
        """Assemble the caller's result from a replica's answer."""
        stacked = message["per_step"]
        raw = message.get("stats") or {}
        stats = _PoolStats(
            batch_size=int(stacked.shape[1]) if stacked.ndim >= 2 else 1,
            timesteps=dispatch.timesteps,
            engine=type(self._engine).__name__,
            wall_clock_seconds=float(raw.get("wall_clock_seconds", 0.0)),
        )
        per_step = [stacked[t] for t in range(stacked.shape[0])]
        return PoolRun(
            logits=per_step[-1],
            stats=stats,
            per_step=per_step if dispatch.per_step else None,
        )

    def _reader_loop(self) -> None:
        last_reap = time.monotonic()
        while True:
            if self._replicas_joined.is_set():
                return
            try:
                message = self._response_queue.get(timeout=0.2)
            except queue_module.Empty:
                self._reap_dead_replicas()
                last_reap = time.monotonic()
                continue
            except (EOFError, OSError):
                return
            self._handle_response(message)
            now = time.monotonic()
            if now - last_reap > 0.5:
                # Death detection must not starve while responses flow.
                self._reap_dead_replicas()
                last_reap = now

    def _reap_dead_replicas(self) -> None:
        """Detect crashed replicas; rebuild and re-queue their work."""
        with self._lock:
            if self._closed:
                return
            for replica in self._replicas:
                if replica.alive() or replica.stopping:
                    continue
                code = (
                    replica.process.exitcode if replica.process is not None else None
                )
                orphans = self._rebuild_replica(
                    replica, f"process died (exitcode {code})"
                )
                for orphan in orphans:
                    self._requeue(orphan, f"replica death (exitcode {code})")

    # ------------------------------------------------------------------
    # Worker-interface odds and ends
    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self._engine

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._dispatches)

    def health_probe(self, timeout: Optional[float] = 5.0) -> ProbeResult:
        """One canary batch through the pool's normal scheduling path."""
        canary = np.zeros((1,) + self.probe_shape, dtype=np.float32)
        started = time.perf_counter()
        try:
            future = self.submit(canary, self.probe_timesteps)
        except Exception as error:  # noqa: BLE001 - probes report, never raise
            return ProbeResult(
                ok=False, latency_seconds=0.0,
                error=f"{type(error).__name__}: {error}",
            )
        try:
            future.result(timeout)
        except Exception as error:  # noqa: BLE001
            elapsed = time.perf_counter() - started
            if not future.done():
                self._handle_hang(future)
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
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.health_probe, timeout)

    def snapshot(self) -> dict:
        """The ``/metrics`` ``pool`` section."""
        with self._lock:
            replicas = [
                {
                    "index": r.index,
                    "pid": r.pid,
                    "alive": r.alive(),
                    "depth": len(r.outstanding),
                    "outstanding_work": r.outstanding_work(),
                    "completed": r.completed,
                    "restarts": r.restarts,
                    "breaker_state": r.breaker.state,
                }
                for r in self._replicas
            ]
        return {
            "replicas": self.capacity,
            "start_method": self.start_method,
            "restarts": self.restarts,
            "runs_completed": self.runs_completed,
            "per_replica": replicas,
        }

    def shutdown(self) -> None:
        """Stop replicas and fail stragglers (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stragglers = list(self._dispatches.values())
            self._dispatches.clear()
            for replica in self._replicas:
                replica.stopping = True
                replica.outstanding.clear()
        for dispatch in stragglers:
            if not dispatch.future.done():
                dispatch.future.set_exception(
                    RuntimeError("the worker pool is shutting down")
                )
        for replica in self._replicas:
            try:
                if replica.request_queue is not None:
                    replica.request_queue.put(None)
            except (EOFError, OSError, ValueError):
                pass
        for replica in self._replicas:
            process = replica.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
                replica.request_queue.cancel_join_thread()
        self._replicas_joined.set()
        if self._reader.is_alive() and threading.current_thread() is not self._reader:
            self._reader.join(timeout=2.0)
