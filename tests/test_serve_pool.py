"""Process-parallel pool: bit-identity, failure recovery, lifecycle.

Covers the pool-specific serving guarantees the single-worker suite
cannot: replica responses are bit-identical to an in-process engine run
under both fork and spawn, also for batches larger than a pipe buffer;
a replica's death or hang re-queues work onto survivors while the pool
keeps answering, and a superseded attempt's late answer is dropped;
shutdown drains answers until the replicas have exited.
Also pins the queue-proportional 429 ``Retry-After`` estimate the
pool's ``capacity`` feeds into.
"""

import asyncio
import os
import signal
import socket
import time

import numpy as np
import pytest

from repro import nn
from repro.serve import (
    BatcherConfig,
    CircuitBreaker,
    DegradePolicy,
    EngineWorkerPool,
    MicroBatcher,
    ServiceEstimator,
    ServingMetrics,
    ShedError,
    build_demo_network,
    pool_start_method,
)
from repro.snn.engines import make_engine
from repro.serve import pool as pool_module
from repro.snn.engines.service import WorkerTimeout

SHAPE = (2, 4, 4)
CLASSES = 5


def tiny_model(seed=0, shape=SHAPE):
    model, _ = build_demo_network(input_shape=shape, classes=CLASSES, seed=seed)
    return model


def assert_matches_inprocess(run, x, timesteps, shape=SHAPE):
    """The pool's per-step logits equal a fresh in-process dense run."""
    control = make_engine("dense").bind(tiny_model(shape=shape))
    expect = control.run(x, timesteps, per_step=True)
    assert run.logits.dtype == expect.logits.dtype
    np.testing.assert_array_equal(run.logits, expect.logits)
    assert len(run.per_step) == timesteps
    for step, want in zip(run.per_step, expect.per_step):
        np.testing.assert_array_equal(step, want)


class FileStallLayer(nn.Module):
    """Pass-through that sleeps while a sentinel file exists.

    Both the switch *and the duration* live in the filesystem (the file
    holds the seconds), not process memory, so the parent can arm and
    re-tune stalls in replicas that forked long ago.
    """

    stall_file = ""

    def forward(self, x):
        path = type(self).stall_file
        if path and os.path.exists(path):
            try:
                with open(path) as handle:
                    seconds = float(handle.read().strip() or 0)
            except (OSError, ValueError):
                seconds = 0.0
            time.sleep(seconds)
        return x


@pytest.fixture
def stall(tmp_path):
    path = str(tmp_path / "stall")
    FileStallLayer.stall_file = path

    class Switch:
        def arm(self, seconds):
            with open(path, "w") as handle:
                handle.write(str(seconds))

        def disarm(self):
            if os.path.exists(path):
                os.remove(path)

    switch = Switch()
    yield switch
    switch.disarm()
    FileStallLayer.stall_file = ""


def make_pool(
    replicas=2, model=None, serve_timesteps=4, max_batch_size=4, shape=SHAPE
):
    engine = make_engine("dense").bind(
        model if model is not None else tiny_model(shape=shape)
    )
    return EngineWorkerPool(
        engine,
        replicas=replicas,
        probe_shape=shape,
        serve_timesteps=serve_timesteps,
        max_batch_size=max_batch_size,
        spawn_spec="dense",
    )


# ----------------------------------------------------------------------
# Correctness: the pool is invisible in the numbers
# ----------------------------------------------------------------------
class TestPoolBitIdentity:
    def test_pool_results_bit_identical_to_inprocess_run(self):
        pool = make_pool(replicas=2)
        try:
            rng = np.random.default_rng(11)
            x = rng.normal(size=(3,) + SHAPE).astype(np.float32)
            run = pool.submit(x, 4, per_step=True).result(timeout=60)
            assert_matches_inprocess(run, x, 4)
        finally:
            pool.shutdown()

    def test_spawn_replica_bit_identical_to_inprocess_run(self, monkeypatch):
        monkeypatch.setattr(pool_module, "pool_start_method", lambda: "spawn")
        pool = make_pool(replicas=1)
        try:
            assert pool.snapshot()["start_method"] == "spawn"
            x = np.random.default_rng(12).normal(size=(3,) + SHAPE)
            x = x.astype(np.float32)
            run = pool.submit(x, 4, per_step=True).result(timeout=120)
            assert_matches_inprocess(run, x, 4)
        finally:
            pool.shutdown()

    @pytest.mark.skipif(
        pool_start_method() != "fork", reason="fork start method unavailable"
    )
    def test_batch_larger_than_a_pipe_buffer_is_bit_identical(self):
        shape = (3, 32, 32)
        pool = make_pool(replicas=2, max_batch_size=1, shape=shape)
        try:
            x = np.random.default_rng(13).normal(size=(64,) + shape)
            x = x.astype(np.float32)
            assert x.nbytes > 64 * 1024
            run = pool.submit(x, 2, per_step=True).result(timeout=120)
            assert_matches_inprocess(run, x, 2, shape=shape)
        finally:
            pool.shutdown()

    def test_submissions_fan_out_and_all_complete(self):
        pool = make_pool(replicas=2)
        try:
            rng = np.random.default_rng(3)
            batches = [
                rng.normal(size=(2,) + SHAPE).astype(np.float32) for _ in range(8)
            ]
            futures = [pool.submit(x, 4) for x in batches]
            runs = [f.result(timeout=60) for f in futures]
            assert pool.runs_completed == 8
            assert all(r.logits.shape == (2, CLASSES) for r in runs)
            snap = pool.snapshot()
            assert snap["start_method"] == pool_start_method()
            assert sum(r["completed"] for r in snap["per_replica"]) == 8
            assert all(r["depth"] == 0 for r in snap["per_replica"])
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# Failure recovery: death and hang
# ----------------------------------------------------------------------
class TestPoolFailureRecovery:
    def test_replica_death_requeues_and_request_still_answers(self, stall):
        pool = make_pool(replicas=2, model=nn.Sequential(FileStallLayer(), tiny_model()))
        try:
            # Long enough that the victim is still mid-run when killed,
            # even on a loaded box (the re-queued attempt re-reads the
            # stall file, so the total wait stays ~2x the stall).
            stall.arm(1.0)
            x = np.random.default_rng(5).normal(size=(2,) + SHAPE)
            future = pool.submit(x.astype(np.float32), 4)
            victim = next(r for r in pool._replicas if r.outstanding)
            os.kill(victim.process.pid, signal.SIGKILL)

            run = future.result(timeout=60)  # re-queued onto the survivor
            assert run.logits.shape == (2, CLASSES)
            deadline = time.monotonic() + 30
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.restarts == 1
            # The rebuilt replica serves again.
            stall.disarm()
            ok = pool.submit(x.astype(np.float32), 4).result(timeout=60)
            assert ok.logits.shape == (2, CLASSES)
            assert all(r.alive() for r in pool._replicas)
        finally:
            pool.shutdown()

    def test_late_answer_from_superseded_attempt_is_dropped(self, stall):
        """A replica that answered just before dying must not have its
        late message taken for the re-queued attempt's answer."""
        pool = make_pool(replicas=2, model=nn.Sequential(FileStallLayer(), tiny_model()))
        try:
            stall.arm(2.0)
            x = np.random.default_rng(6).normal(size=(2,) + SHAPE)
            x = x.astype(np.float32)
            future = pool.submit(x, 4, per_step=True)
            victim = next(r for r in pool._replicas if r.outstanding)
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            with pool._lock:
                dispatch = next(iter(pool._dispatches.values()))
                assert dispatch.attempts == 2  # re-queued exactly once
                stale = {
                    "req": dispatch.rid,
                    "replica": victim.index,
                    "attempt": 1,
                    "ok": True,
                    "per_step": np.zeros((4, 2, CLASSES), dtype=np.float32),
                    "stats": {},
                }
            pool._handle_response(stale)
            assert dispatch.rid in pool._dispatches  # still registered
            assert not future.done()  # the stale answer resolved nothing
            stall.disarm()
            run = future.result(timeout=60)  # the live attempt answers
            assert_matches_inprocess(run, x, 4)
        finally:
            stall.disarm()
            pool.shutdown()

    def test_hang_timeout_rebuilds_only_the_wedged_replica(self, stall):
        pool = make_pool(replicas=2, model=nn.Sequential(FileStallLayer(), tiny_model()))
        try:
            x = np.zeros((1,) + SHAPE, dtype=np.float32)

            async def scenario():
                stall.arm(30.0)
                with pytest.raises(WorkerTimeout):
                    await pool.run_async(x, 2, timeout=0.5)
                stall.disarm()
                return await pool.run_async(x, 2, timeout=30.0)

            run = asyncio.run(scenario())
            assert run.logits.shape == (1, CLASSES)
            assert pool.restarts == 1
            snap = pool.snapshot()
            assert sum(r["restarts"] for r in snap["per_replica"]) == 1
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    @pytest.mark.skipif(
        pool_start_method() != "fork", reason="fork start method unavailable"
    )
    def test_forked_replica_does_not_hold_the_parents_sockets(self):
        """A connection open while a replica forks (a rebuild under
        load) must still reach EOF when the parent closes its end."""
        ours, peer = socket.socketpair()
        pool = make_pool(replicas=1)
        try:
            x = np.ones((1,) + SHAPE, dtype=np.float32)
            pool.submit(x, 2).result(timeout=60)  # the replica is running
            ours.close()
            peer.settimeout(10.0)
            assert peer.recv(1) == b""
        finally:
            peer.close()
            pool.shutdown()

    @pytest.mark.skipif(
        pool_start_method() != "fork", reason="fork start method unavailable"
    )
    def test_shutdown_drains_an_answer_larger_than_a_pipe(self, stall):
        """A replica still answering when shutdown starts gets its answer
        read, so it exits on its own instead of blocking on a full pipe
        until the join times out and it is killed."""
        shape = (3, 32, 32)
        model, _ = build_demo_network(input_shape=shape, classes=256, seed=0)
        pool = make_pool(
            replicas=1, model=nn.Sequential(FileStallLayer(), model),
            max_batch_size=1, shape=shape,
        )
        x = np.random.default_rng(14).normal(size=(64,) + shape)
        # The answer: 2 steps x 64 samples x 256 classes of float32.
        assert 2 * 64 * 256 * 4 > 64 * 1024
        stall.arm(0.5)  # still running when shutdown starts
        future = pool.submit(x.astype(np.float32), 2, per_step=True)
        started = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - started < 2.0
        assert future.done()
        assert [r.process.exitcode for r in pool._replicas] == [0]  # not killed

    def test_shutdown_is_idempotent_and_refuses_new_work(self):
        pool = make_pool(replicas=2)
        x = np.ones((2,) + SHAPE, dtype=np.float32)
        pool.submit(x, 4).result(timeout=60)
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(RuntimeError):
            pool.submit(x, 4)


# ----------------------------------------------------------------------
# Retry-After scales with load (satellite: no more constant 429 hint)
# ----------------------------------------------------------------------
class StubCapacityWorker:
    def __init__(self, capacity=1):
        self.capacity = capacity
        self.restarts = 0

    async def run_async(self, x, timesteps, per_step=False, timeout=None):
        await asyncio.sleep(3600)  # never completes: queue stays full


def retry_after_when_full(depth, capacity):
    async def scenario():
        worker = StubCapacityWorker(capacity=capacity)
        batcher = MicroBatcher(
            worker,
            CircuitBreaker(failure_threshold=100, reset_timeout=0.2),
            ServingMetrics(),
            DegradePolicy(full_timesteps=4, p99_budget_ms=None,
                          cooldown_seconds=0.0),
            config=BatcherConfig(
                max_batch_size=8,
                max_queue_depth=depth,
                gather_window_seconds=0.05,
                hang_timeout_seconds=5.0,
                idle_tick_seconds=0.01,
            ),
            estimator=ServiceEstimator(initial_unit=1e-3, overhead=1e-2),
        )
        x = np.zeros((1, 2, 2, 2), dtype=np.float32)
        fillers = [
            asyncio.ensure_future(
                batcher.submit(x, timesteps=4, deadline_ms=3_600_000.0)
            )
            for _ in range(depth)
        ]
        await asyncio.sleep(0)  # let the fillers enqueue
        with pytest.raises(ShedError) as err:
            await batcher.submit(x, timesteps=4, deadline_ms=3_600_000.0)
        for task in fillers:
            task.cancel()
        await asyncio.gather(*fillers, return_exceptions=True)
        return err.value.retry_after

    return asyncio.run(scenario())


class TestRetryAfterScalesWithLoad:
    def test_deeper_queue_means_longer_retry_after(self):
        shallow = retry_after_when_full(depth=4, capacity=1)
        deep = retry_after_when_full(depth=16, capacity=1)
        assert shallow is not None and deep is not None
        assert deep > shallow

    def test_more_worker_capacity_means_shorter_retry_after(self):
        solo = retry_after_when_full(depth=16, capacity=1)
        pooled = retry_after_when_full(depth=16, capacity=4)
        assert pooled < solo
