"""Serving robustness: batching, shedding, breaking, degrading, draining.

Unit layers (breaker, degrade policy, estimator, decoding) run against
fake clocks and stub workers so every timing-sensitive transition is
deterministic.  The integration layer starts a real server (ephemeral
port, background event-loop thread) over a tiny calibrated SNN and
exercises the failure paths end to end: a worker wedged mid-request
trips the breaker and is replaced while later requests still get
answers; unmeetable deadlines 504 before dispatch; a bounded queue
sheds with 429 + Retry-After; drain completes in-flight work; degraded
responses are exact prefixes of the full-T logits.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.serve import (
    BadRequestError,
    BatcherConfig,
    BreakerOpenError,
    CircuitBreaker,
    CLOSED,
    DeadlineError,
    DegradePolicy,
    DrainingError,
    HALF_OPEN,
    MicroBatcher,
    OPEN,
    ServeConfig,
    ServerHandle,
    ServiceEstimator,
    ServingMetrics,
    ShedError,
    WorkerFailedError,
    authenticate,
    build_demo_network,
    decode_infer_request,
    percentile,
)
from repro.serve.app import InferenceServer
from repro.snn.engines import EngineWorker, make_engine
from repro.snn.engines.service import WorkerTimeout


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=3, reset=2.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=threshold, reset_timeout=reset, clock=clock
        )
        return breaker, clock

    def test_trips_after_consecutive_failures_only(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # success resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_open_rejects_with_remaining_cooldown(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        allowed, retry_after = breaker.allow_request()
        assert not allowed and retry_after == pytest.approx(5.0)
        clock.advance(3.0)
        allowed, retry_after = breaker.allow_request()
        assert not allowed and retry_after == pytest.approx(2.0)
        assert breaker.before_dispatch() is None

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.state == HALF_OPEN
        assert breaker.before_dispatch() == "probe"
        assert breaker.before_dispatch() is None  # probe in flight: hold

    def test_probe_success_closes_and_counts_recovery(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.before_dispatch() == "probe"
        breaker.record_success(probe=True)
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1
        assert breaker.before_dispatch() == "normal"

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.before_dispatch() == "probe"
        breaker.record_failure(probe=True)
        assert breaker.state == OPEN
        assert breaker.trips == 2
        clock.advance(1.5)
        assert breaker.before_dispatch() == "probe"  # probes again

    def test_transition_callback_fires(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout=1.0,
            clock=clock,
            on_transition=lambda old, new, why: seen.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(1.5)
        _ = breaker.state
        breaker.record_success(probe=True)
        assert seen == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]


# ----------------------------------------------------------------------
# Degrade policy + estimator + metrics
# ----------------------------------------------------------------------
class TestDegradePolicy:
    def test_halves_toward_floor_and_recovers(self):
        clock = FakeClock()
        policy = DegradePolicy(
            full_timesteps=8, min_timesteps=2, p99_budget_ms=100.0,
            cooldown_seconds=1.0, clock=clock,
        )
        assert policy.observe(250.0) == 4
        clock.advance(1.1)
        assert policy.observe(250.0) == 2
        clock.advance(1.1)
        assert policy.observe(250.0) == 2  # floor holds
        clock.advance(1.1)
        assert policy.observe(30.0) == 4   # < 60% of budget: recover
        clock.advance(1.1)
        assert policy.observe(30.0) == 8
        assert policy.degradations == 2 and policy.recoveries == 2

    def test_cooldown_blocks_oscillation(self):
        clock = FakeClock()
        policy = DegradePolicy(
            full_timesteps=8, p99_budget_ms=100.0,
            cooldown_seconds=5.0, clock=clock,
        )
        assert policy.observe(300.0) == 4
        assert policy.observe(300.0) == 4  # within cooldown: no change
        assert policy.observe(10.0) == 4

    def test_disabled_without_budget(self):
        policy = DegradePolicy(full_timesteps=8)
        assert policy.observe(10_000.0) == 8 and not policy.degraded


class TestServiceEstimator:
    def test_estimate_scales_with_work(self):
        est = ServiceEstimator(initial_unit=1e-3, overhead=2e-3)
        assert est.estimate(4, 8) == pytest.approx(2e-3 + 32e-3)

    def test_update_tracks_observations(self):
        est = ServiceEstimator(initial_unit=1e-3, overhead=0.0, alpha=1.0)
        est.update(2, 4, elapsed=0.8)
        assert est.unit == pytest.approx(0.1)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == 51
        assert percentile(values, 0.99) == 99
        assert percentile([], 0.5) == 0.0

    def test_snapshot_and_p99(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock)
        assert metrics.p99_ms() is None
        metrics.inc("shed_queue")
        metrics.observe_latency(0.050)
        clock.advance(1.0)
        snap = metrics.snapshot()
        assert snap["counters"]["shed_queue"] == 1
        assert snap["latency_ms"]["p50"] == pytest.approx(50.0)
        assert metrics.p99_ms() == pytest.approx(50.0)


# ----------------------------------------------------------------------
# Request decoding / auth
# ----------------------------------------------------------------------
class TestDecoding:
    SHAPE = (2, 4, 4)

    def decode(self, body: bytes):
        return decode_infer_request(body, self.SHAPE, 1000.0, 8)

    def test_valid_roundtrip(self):
        sample = np.zeros(self.SHAPE, dtype=np.float32)
        body = ('{"input": ' + str(sample.tolist()) +
                ', "deadline_ms": 50, "timesteps": 4}').encode()
        batch, timesteps, deadline = self.decode(body)
        assert batch.shape == (1,) + self.SHAPE
        assert timesteps == 4 and deadline == 50.0

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[1, 2, 3]",
            b'{"nope": 1}',
            b'{"input": [[1, 2], [3]]}',
            b'{"input": [1.0, 2.0]}',
            b'{"input": "text"}',
        ],
    )
    def test_malformed_bodies_reject(self, body):
        with pytest.raises(BadRequestError):
            self.decode(body)

    def test_bad_timesteps_and_deadline_reject(self):
        flat = np.zeros(self.SHAPE, dtype=np.float32).tolist()
        for extra in ('"timesteps": 0', '"timesteps": 99',
                      '"timesteps": true', '"deadline_ms": -5',
                      '"deadline_ms": "soon"'):
            body = ('{"input": ' + str(flat) + ', ' + extra + '}').encode()
            with pytest.raises(BadRequestError):
                self.decode(body)

    def test_nonfinite_input_rejects(self):
        sample = np.zeros(self.SHAPE, dtype=np.float32)
        sample[0, 0, 0] = np.nan
        body = ('{"input": ' + str(
            sample.tolist()).replace("nan", "NaN") + '}').encode()
        with pytest.raises(BadRequestError):
            self.decode(body)

    def test_authenticate(self):
        authenticate({}, None)  # no token configured: open
        authenticate({"authorization": "Bearer s3cret"}, "s3cret")
        with pytest.raises(Exception):
            authenticate({}, "s3cret")
        with pytest.raises(Exception):
            authenticate({"authorization": "Bearer wrong"}, "s3cret")


# ----------------------------------------------------------------------
# Micro-batcher over a stub worker (timing-deterministic)
# ----------------------------------------------------------------------
class StubRun:
    """Shape-compatible EngineRun: cumulative per-step logits."""

    def __init__(self, n: int, timesteps: int, classes: int = 3) -> None:
        base = np.arange(n * classes, dtype=np.float32).reshape(n, classes)
        self.per_step = [base * (t + 1) for t in range(timesteps)]
        self.logits = self.per_step[-1]


class StubWorker:
    """Duck-typed EngineWorker: scripted delays and failures."""

    def __init__(self, delay: float = 0.0, fail_times: int = 0) -> None:
        self.delay = delay
        self.fail_times = fail_times
        self.calls = []
        self.restarts = 0

    async def run_async(self, x, timesteps, per_step=False, timeout=None):
        self.calls.append((int(x.shape[0]), int(timesteps)))
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail_times > 0:
            self.fail_times -= 1
            raise WorkerTimeout("scripted hang")
        return StubRun(x.shape[0], timesteps)


def make_batcher(worker, *, threshold=3, reset=0.2, queue=8,
                 degrade_budget=None, estimator=None, max_batch=8):
    metrics = ServingMetrics()
    breaker = CircuitBreaker(failure_threshold=threshold, reset_timeout=reset)
    degrade = DegradePolicy(
        full_timesteps=4, p99_budget_ms=degrade_budget, cooldown_seconds=0.0
    )
    batcher = MicroBatcher(
        worker,
        breaker,
        metrics,
        degrade,
        config=BatcherConfig(
            max_batch_size=max_batch,
            max_queue_depth=queue,
            hang_timeout_seconds=5.0,
            idle_tick_seconds=0.01,
        ),
        estimator=estimator or ServiceEstimator(initial_unit=1e-4, overhead=1e-4),
    )
    return batcher, breaker, metrics


def sample(n=1):
    return np.zeros((n, 2, 2, 2), dtype=np.float32)


class TestMicroBatcher:
    def test_coalesces_concurrent_requests_into_one_dispatch(self):
        async def scenario():
            worker = StubWorker(delay=0.01)
            batcher, _, _ = make_batcher(worker)
            batcher.start()
            futures = [
                batcher.submit(sample(), timesteps=4, deadline_ms=2000.0)
                for _ in range(4)
            ]
            results = await asyncio.gather(*futures)
            await batcher.close()
            return worker.calls, results

        calls, results = asyncio.run(scenario())
        total = sum(n for n, _ in calls)
        assert total == 4
        assert max(n for n, _ in calls) >= 3  # coalesced, not serial singles
        sizes = {r["batch_size"] for r in results}
        assert max(sizes) >= 3

    def test_unmeetable_deadline_rejected_at_admission(self):
        async def scenario():
            worker = StubWorker()
            slow = ServiceEstimator(initial_unit=0.5, overhead=0.1)
            batcher, _, metrics = make_batcher(worker, estimator=slow)
            batcher.start()
            with pytest.raises(DeadlineError):
                batcher.submit(sample(), timesteps=4, deadline_ms=10.0)
            await batcher.close()
            return metrics.counter("rejected_deadline"), worker.calls

        rejected, calls = asyncio.run(scenario())
        assert rejected == 1 and calls == []  # never dispatched

    def test_bounded_queue_sheds_with_retry_after(self):
        async def scenario():
            worker = StubWorker(delay=0.2)
            batcher, _, metrics = make_batcher(
                worker, queue=2, max_batch=1
            )
            batcher.start()
            futures = [batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)]
            await asyncio.sleep(0.05)  # first entry reaches the engine
            futures += [
                batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
                for _ in range(2)
            ]
            # One in flight + two queued: the queue is full now.
            with pytest.raises(ShedError) as shed:
                batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
            await asyncio.gather(*futures)
            await batcher.close()
            return shed.value, metrics.counter("shed_queue")

        error, shed_count = asyncio.run(scenario())
        assert error.retry_after is not None and error.retry_after >= 0.0
        assert shed_count == 1

    def test_breaker_trips_fast_fails_queue_then_recovers(self):
        async def scenario():
            worker = StubWorker(fail_times=2)
            batcher, breaker, metrics = make_batcher(
                worker, threshold=2, reset=0.05, max_batch=1
            )
            batcher.start()
            futures = [
                batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
                for _ in range(4)
            ]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            assert breaker.state in (OPEN, HALF_OPEN)
            # While open, admission fast-fails with Retry-After.
            if breaker.state == OPEN:
                with pytest.raises(BreakerOpenError):
                    batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
            # After the cooldown the next dispatch is the half-open
            # probe; the worker is healthy again, so it recovers.
            await asyncio.sleep(0.1)
            future = batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
            result = await future
            await batcher.close()
            return outcomes, breaker, result, metrics

        outcomes, breaker, result, metrics = asyncio.run(scenario())
        kinds = {type(o).__name__ for o in outcomes}
        assert kinds <= {"WorkerFailedError", "BreakerOpenError"}
        assert any(isinstance(o, WorkerFailedError) for o in outcomes)
        assert any(isinstance(o, BreakerOpenError) for o in outcomes)
        assert breaker.trips >= 1 and breaker.recoveries >= 1
        assert breaker.state == CLOSED
        assert result["batch_size"] == 1  # the recovery probe rode alone

    def test_drain_completes_inflight_then_refuses_admission(self):
        async def scenario():
            worker = StubWorker(delay=0.05)
            batcher, _, _ = make_batcher(worker)
            batcher.start()
            futures = [
                batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
                for _ in range(3)
            ]
            flushed = await batcher.drain(timeout=5.0)
            results = await asyncio.gather(*futures)
            with pytest.raises(DrainingError):
                batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
            await batcher.close()
            return flushed, results

        flushed, results = asyncio.run(scenario())
        assert flushed is True
        assert all(r["timesteps_executed"] == 4 for r in results)

    def test_expired_entry_dropped_before_dispatch(self):
        async def scenario():
            worker = StubWorker(delay=0.15)
            batcher, _, metrics = make_batcher(worker, max_batch=1)
            batcher.start()
            blocker = batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
            await asyncio.sleep(0.01)
            # Queued behind the blocker with a deadline the wait eats.
            doomed = batcher.submit(sample(), timesteps=4, deadline_ms=50.0)
            with pytest.raises(DeadlineError):
                await doomed
            await blocker
            await batcher.close()
            return metrics.counter("expired_in_queue"), worker.calls

        expired, calls = asyncio.run(scenario())
        assert expired == 1
        assert sum(n for n, _ in calls) == 1  # the doomed entry never ran


class TestRetryAfterScalesWithLoad:
    def test_deeper_queue_means_longer_retry_after(self):
        def retry_after_when_full(depth):
            async def scenario():
                batcher, _, _ = make_batcher(
                    StubWorker(), queue=depth,
                    estimator=ServiceEstimator(initial_unit=1e-3, overhead=1e-2),
                )
                futures = [
                    batcher.submit(sample(), timesteps=4, deadline_ms=3_600_000.0)
                    for _ in range(depth)
                ]
                with pytest.raises(ShedError) as shed:
                    batcher.submit(sample(), timesteps=4, deadline_ms=3_600_000.0)
                await batcher.close()
                await asyncio.gather(*futures, return_exceptions=True)
                return shed.value.retry_after

            return asyncio.run(scenario())

        shallow, deep = retry_after_when_full(4), retry_after_when_full(16)
        assert shallow is not None and deep is not None
        assert deep > shallow


class TestDispatchRule:
    """Dispatch is work-conserving: one batch in flight, no hold."""

    def test_lone_request_is_not_held_for_the_window(self):
        async def scenario():
            worker = StubWorker()
            batcher, _, _ = make_batcher(worker)
            batcher.start()
            started = time.monotonic()
            result = await batcher.submit(
                sample(), timesteps=4, deadline_ms=10_000.0
            )
            elapsed = time.monotonic() - started
            await batcher.close()
            return elapsed, result, worker.calls

        elapsed, result, calls = asyncio.run(scenario())
        assert elapsed < 0.5  # dispatched at once, not held for co-riders
        assert result["batch_size"] == 1 and calls == [(1, 4)]

    def test_arrivals_during_a_dispatch_ride_the_next_batch(self):
        async def scenario():
            worker = StubWorker(delay=0.05)
            batcher, _, _ = make_batcher(worker)
            batcher.start()
            futures = [batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)]
            while not worker.calls:  # wait until the first batch is in flight
                await asyncio.sleep(0.001)
            futures += [
                batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
                for _ in range(3)
            ]
            results = await asyncio.gather(*futures)
            await batcher.close()
            return worker.calls, results

        calls, results = asyncio.run(scenario())
        assert calls == [(1, 4), (3, 4)]
        assert [r["batch_size"] for r in results] == [1, 3, 3, 3]

    def test_client_leaving_while_queued_is_cancelled_and_counted(self):
        async def scenario():
            worker = StubWorker(delay=0.1)
            batcher, _, metrics = make_batcher(worker)
            batcher.start()
            first = batcher.submit(sample(), timesteps=4, deadline_ms=10_000.0)
            while not worker.calls:  # wait until the first batch is in flight
                await asyncio.sleep(0.001)
            gone = {"flag": False}
            leaving = batcher.submit(
                sample(), timesteps=4, deadline_ms=10_000.0,
                is_disconnected=lambda: gone["flag"],
            )
            gone["flag"] = True
            await first
            # The next gather drops it; at worst the wait times out.
            await asyncio.wait([leaving], timeout=5.0)
            await batcher.close()
            return leaving, metrics.counter("cancelled_in_queue"), worker.calls

        leaving, cancelled, calls = asyncio.run(scenario())
        assert leaving.cancelled()
        assert cancelled == 1
        assert calls == [(1, 4)]  # only the first request reached the worker


# ----------------------------------------------------------------------
# Degraded-T prefix consistency on the real engine
# ----------------------------------------------------------------------
def tiny_network(seed=0, shape=(2, 4, 4), classes=5):
    model, _ = build_demo_network(input_shape=shape, classes=classes, seed=seed)
    return model


class TestDegradedPrefixConsistency:
    def test_degraded_logits_are_prefix_of_full_run(self):
        shape = (2, 4, 4)
        model = tiny_network(shape=shape)
        engine = make_engine("dense").bind(model)
        worker = EngineWorker(engine, probe_shape=shape)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1,) + shape).astype(np.float32)

        async def scenario():
            batcher, _, _ = make_batcher(worker)
            batcher.degrade.current = 2  # force degradation
            batcher.start()
            result = await batcher.submit(x, timesteps=4, deadline_ms=30_000.0)
            await batcher.close()
            return result

        result = asyncio.run(scenario())
        assert result["degraded"] is True
        assert result["timesteps_executed"] == 2
        assert result["timesteps_requested"] == 4
        # The degraded answer must equal the cumulative logits after
        # the same number of steps of an independent full-T run.
        full = engine.run(x, 4, per_step=True)
        served = np.asarray(result["logits"], dtype=np.float32)
        np.testing.assert_array_equal(served, full.per_step[1][0])
        worker.shutdown()


# ----------------------------------------------------------------------
# Engine worker: hang recovery and health probes
# ----------------------------------------------------------------------
class StallLayer(nn.Module):
    """Pass-through that blocks while armed (class-level switch, so
    weight-sharing clones made after disarm run clean)."""

    stall_seconds = 0.0

    def forward(self, x):
        if type(self).stall_seconds:
            time.sleep(type(self).stall_seconds)
        return x


@pytest.fixture(autouse=True)
def _disarm_stall():
    yield
    StallLayer.stall_seconds = 0.0


class TestEngineWorker:
    def make_worker(self, shape=(2, 4, 4)):
        model = nn.Sequential(StallLayer(), tiny_network(shape=shape))
        engine = make_engine("dense").bind(model)
        return EngineWorker(engine, probe_shape=shape)

    def test_hung_run_times_out_and_rebuilds_slot(self):
        worker = self.make_worker()
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        StallLayer.stall_seconds = 30.0

        async def scenario():
            with pytest.raises(WorkerTimeout):
                await worker.run_async(x, 2, timeout=0.2)
            StallLayer.stall_seconds = 0.0
            # The replacement slot serves immediately; the wedged
            # thread is stranded with the abandoned clone.
            run = await worker.run_async(x, 2, timeout=10.0)
            return run

        run = asyncio.run(scenario())
        assert worker.restarts == 1
        assert run.logits.shape[0] == 1
        worker.shutdown()

    def test_health_probe_roundtrip(self):
        worker = self.make_worker()
        probe = worker.health_probe(timeout=10.0)
        assert probe.ok and probe.latency_seconds > 0.0
        worker.shutdown()

    def test_health_probe_times_out_and_restarts(self):
        worker = self.make_worker()
        StallLayer.stall_seconds = 30.0
        probe = worker.health_probe(timeout=0.2)
        assert not probe.ok and "timed out" in probe.error
        assert worker.restarts == 1
        StallLayer.stall_seconds = 0.0
        assert worker.health_probe(timeout=10.0).ok
        worker.shutdown()


# ----------------------------------------------------------------------
# End-to-end over HTTP
# ----------------------------------------------------------------------
SHAPE = (2, 4, 4)


def serve_config(**overrides):
    defaults = dict(
        port=0,
        timesteps=4,
        engine="dense",
        hang_timeout_seconds=20.0,
        drain_timeout_seconds=10.0,
        estimator_initial_unit=1e-4,
        estimator_overhead=1e-4,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestHTTPServer:
    def test_routes_and_infer(self):
        model = tiny_network(shape=SHAPE)
        with ServerHandle(model, SHAPE, serve_config()) as handle:
            assert handle.request("GET", "/healthz")[0] == 200
            assert handle.request("GET", "/readyz")[0] == 200
            assert handle.request("GET", "/nope")[0] == 404
            assert handle.request("POST", "/healthz")[0] == 405
            status, body, _ = handle.request("POST", "/v1/infer", {"input": [1]})
            assert status == 400
            x = np.zeros(SHAPE, dtype=np.float32)
            status, body = handle.infer(x, deadline_ms=30_000)
            assert status == 200
            assert body["timesteps_executed"] == 4 and not body["degraded"]
            metrics = handle.request("GET", "/metrics")[1]
            assert metrics["counters"]["responses_ok"] == 1
            assert metrics["breaker"]["state"] == "closed"

    def test_serial_responses_bit_identical_to_direct_engine_run(self):
        model = tiny_network(shape=SHAPE)
        rng = np.random.default_rng(11)
        samples = [
            rng.normal(size=SHAPE).astype(np.float32) for _ in range(3)
        ]
        with ServerHandle(model, SHAPE, serve_config()) as handle:
            served = []
            for x in samples:
                status, body = handle.infer(x, deadline_ms=30_000)
                assert status == 200 and not body["degraded"]
                served.append(np.asarray(body["logits"], dtype=np.float32))
            worker = handle.server.worker
            for x, logits in zip(samples, served):
                direct = worker.submit(x[None, ...], 4).result(30.0)
                np.testing.assert_array_equal(logits, direct.logits[0])

    def test_auth_required_when_token_configured(self):
        model = tiny_network(shape=SHAPE)
        config = serve_config(auth_token="hunter2")
        x = np.zeros(SHAPE, dtype=np.float32)
        with ServerHandle(model, SHAPE, config) as handle:
            assert handle.infer(x)[0] == 401
            assert handle.infer(x, token="wrong")[0] == 401
            assert handle.infer(x, token="hunter2", deadline_ms=30_000)[0] == 200

    def test_unmeetable_deadline_504_over_http(self):
        model = tiny_network(shape=SHAPE)
        config = serve_config(
            estimator_initial_unit=0.5, estimator_overhead=0.1
        )
        with ServerHandle(model, SHAPE, config) as handle:
            x = np.zeros(SHAPE, dtype=np.float32)
            status, body = handle.infer(x, deadline_ms=5)
            assert status == 504
            assert "deadline" in body["error"]

    def test_overload_sheds_429_with_retry_after(self):
        model = nn.Sequential(StallLayer(), tiny_network(shape=SHAPE))
        config = serve_config(max_queue_depth=1, max_batch_size=1)
        with ServerHandle(model, SHAPE, config) as handle:
            StallLayer.stall_seconds = 0.3
            x = np.zeros(SHAPE, dtype=np.float32)
            statuses = []
            headers = []
            threads = []

            def fire():
                status, _, hdrs = handle.request(
                    "POST", "/v1/infer",
                    {"input": x.tolist(), "deadline_ms": 60_000},
                )
                statuses.append(status)
                headers.append(hdrs)

            for _ in range(6):
                thread = threading.Thread(target=fire)
                thread.start()
                threads.append(thread)
                time.sleep(0.02)
            for thread in threads:
                thread.join(30.0)
            StallLayer.stall_seconds = 0.0
            assert 429 in statuses, statuses
            assert statuses.count(200) >= 1
            assert set(statuses) <= {200, 429}
            shed_headers = [
                h for s, h in zip(statuses, headers) if s == 429
            ]
            assert all("retry-after" in h for h in shed_headers)
            metrics = handle.request("GET", "/metrics")[1]
            assert metrics["counters"]["shed_queue"] >= 1

    def test_hung_worker_trips_breaker_then_recovers(self):
        model = nn.Sequential(StallLayer(), tiny_network(shape=SHAPE))
        config = serve_config(
            hang_timeout_seconds=0.3,
            breaker_failure_threshold=1,
            breaker_reset_seconds=0.3,
        )
        with ServerHandle(model, SHAPE, config) as handle:
            x = np.zeros(SHAPE, dtype=np.float32)
            StallLayer.stall_seconds = 30.0
            status, body = handle.infer(x, deadline_ms=60_000)
            assert status == 503
            # Tripped: fast-fail without touching the worker.
            status, body = handle.infer(x, deadline_ms=60_000)
            assert status == 503 and body["error"] == "circuit breaker open"
            assert handle.request("GET", "/readyz")[0] == 503
            assert handle.request("GET", "/healthz")[0] == 200  # liveness
            # Heal the substrate; the half-open probe recovers it.
            StallLayer.stall_seconds = 0.0
            deadline = time.monotonic() + 20.0
            status = None
            while time.monotonic() < deadline:
                time.sleep(0.2)
                status, body = handle.infer(x, deadline_ms=60_000)
                if status == 200:
                    break
            assert status == 200, f"never recovered: {status} {body}"
            metrics = handle.request("GET", "/metrics")[1]
            assert metrics["breaker"]["trips"] >= 1
            assert metrics["breaker"]["recoveries"] >= 1
            assert metrics["breaker"]["state"] == "closed"
            assert metrics["worker"]["restarts"] >= 1
            assert handle.request("GET", "/readyz")[0] == 200

    def test_drain_completes_inflight_work(self):
        model = nn.Sequential(StallLayer(), tiny_network(shape=SHAPE))
        with ServerHandle(model, SHAPE, serve_config()) as handle:
            StallLayer.stall_seconds = 0.2
            x = np.zeros(SHAPE, dtype=np.float32)
            outcome = {}

            def slow_request():
                outcome["status"], outcome["body"] = handle.infer(
                    x, deadline_ms=60_000
                )

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.05)  # let it reach the engine
            handle.stop(timeout=30.0)
            thread.join(30.0)
            StallLayer.stall_seconds = 0.0
            assert outcome.get("status") == 200, outcome
            assert outcome["body"]["timesteps_executed"] == 4

    def test_draining_server_refuses_new_work(self):
        model = tiny_network(shape=SHAPE)
        handle = ServerHandle(model, SHAPE, serve_config())
        try:
            handle.server.batcher.begin_drain()
            x = np.zeros(SHAPE, dtype=np.float32)
            status, body = handle.infer(x, deadline_ms=30_000)
            assert status == 503 and body["error"] == "draining"
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# A wedged engine does not keep the process alive
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parent.parent
HUNG_SERVE = REPO / "benchmarks" / "hung_engine_serve.py"


def _timed_lines(stream, lines):
    """Collect ``(monotonic time, line)`` pairs from a child's pipe."""
    for raw in iter(stream.readline, ""):
        lines.append((time.monotonic(), raw))


def _spawn(argv):
    process = subprocess.Popen(
        argv,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = []
    reader = threading.Thread(
        target=_timed_lines, args=(process.stdout, lines), daemon=True
    )
    reader.start()
    return process, lines, reader


def _exit_after(process, reader, lines, marker):
    """Seconds from the first output line containing ``marker`` to the
    child's exit, and its return code."""
    try:
        returncode = process.wait(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
    exited = time.monotonic()
    reader.join(10.0)
    marked = [at for at, line in lines if marker in line]
    assert marked, "".join(line for _, line in lines)
    return exited - marked[0], returncode


class TestWedgedEngineExit:
    """An abandoned slot thread still asleep in a hung engine run must
    not hold the interpreter open."""

    def test_worker_script_exits_after_its_work(self):
        script = textwrap.dedent(
            """
            import asyncio, time
            from repro.serve import build_demo_network
            from repro.snn.engines import make_engine
            from repro.snn.engines.service import EngineWorker, WorkerTimeout

            model, shape = build_demo_network((2, 8, 8))
            engine = make_engine("auto").bind(model)
            engine.run = lambda *args, **kwargs: time.sleep(120.0)
            worker = EngineWorker(engine, probe_shape=shape)
            x = [[[[0.0] * 8] * 8] * 2]

            async def main():
                try:
                    await worker.run_async(x, 2, timeout=0.2)
                except WorkerTimeout:
                    print("timed out", flush=True)

            asyncio.run(main())
            worker.shutdown()
            print("work done", flush=True)
            """
        )
        process, lines, reader = _spawn([sys.executable, "-c", script])
        seconds, returncode = _exit_after(process, reader, lines, "work done")
        assert returncode == 0
        assert any("timed out" in line for _, line in lines)
        assert seconds < 2.0, f"exited {seconds:.1f} s after its work"

    def test_serve_drains_and_exits_with_a_hung_engine(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        process, lines, reader = _spawn(
            [
                sys.executable, str(HUNG_SERVE), "--port", str(port),
                "--timesteps", "2", "--input-shape", "2,8,8",
                "--hang-timeout", "0.3",
            ]
        )
        try:
            deadline = time.monotonic() + 60.0
            while not any("serving on" in line for _, line in lines):
                assert process.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            body = json.dumps({"input": np.zeros((2, 8, 8)).tolist()}).encode()
            with socket.create_connection(("127.0.0.1", port), timeout=30.0) as conn:
                conn.sendall(
                    b"POST /v1/infer HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                status = int(conn.recv(65536).split(b" ", 2)[1])
            assert status == 503  # the run timed out; the slot was rebuilt
            process.send_signal(signal.SIGTERM)
        except BaseException:
            process.kill()
            raise
        seconds, returncode = _exit_after(process, reader, lines, "drain complete")
        assert returncode == 0
        assert seconds < 2.0, f"exited {seconds:.1f} s after the drain"
