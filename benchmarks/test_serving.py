"""Serving load benchmark: throughput, tail latency, failure semantics.

Drives a real :class:`repro.serve.app.InferenceServer` (ephemeral port,
tiny calibrated demo SNN, ``auto`` engine) through the full
robustness gauntlet and emits ``BENCH_serving.json`` (into
``$REPRO_BENCH_DIR`` when set, else a temp directory):

1. **Serial baseline** — HTTP requests one at a time; every response
   is checked bit-identical against a direct run on the server's own
   engine (same caches, same kernels), which pins down that the
   serving path adds *no* numerical drift.
2. **Coalescing** — closed-loop clients submit straight to the
   server's batcher (no HTTP), one client, then ``CONCURRENCY``.  The
   work-conserving dispatcher rides waiting requests in shared
   batches, so per-run engine overhead is paid once per batch.  The
   two drives alternate over ``THROUGHPUT_ROUNDS`` rounds; the
   tracked ``batching_throughput_gain`` is the median of the
   per-round ratios, and the concurrent drives' mean batch size must
   reach ``MIN_CONCURRENT_MEAN_BATCH``.
3. **2x overload with mixed deadlines** — more concurrent work than
   the bounded queue admits, some of it with unmeetable budgets:
   every response must be a definite 200/429/504, never a hang and
   never an unhandled 500.
4. **Hung worker** — the engine is wedged mid-request; the worker
   timeout abandons the slot, the circuit breaker trips (fast 503s),
   the substrate heals, and the half-open probe recovers it.
5. **Degraded timesteps** — with the ceiling forced down, the served
   logits must equal the cumulative per-step logits of a full-T run
   at the degraded step (prefix consistency).
6. **Graceful drain** — stop() with a request in flight: the request
   completes, the drain flushes.

Between phases 2 and 3, ``CONCURRENCY`` closed-loop HTTP clients load
the server for ``HTTP_ROUNDS`` rounds; the median req/s is recorded
(not gated) as ``http.single_worker_rps``, the figure that shows what
the request path outside the engine costs.

Ratio metrics only feed the trend gate (compare_bench.py); counts and
booleans are asserted here and schema-checked in CI.
"""

import asyncio
import gc
import platform
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import nn
from repro.serve import ServeConfig, ServerHandle, build_demo_network
from repro.utils.io import atomic_write_json

from bench_schema import assert_serving_schema

SHAPE = (2, 8, 8)
TIMESTEPS = 8
SERIAL_REQUESTS = 24
CONCURRENCY = 6
REQUESTS_PER_CLIENT = 8
#: Requests per batcher drive, split evenly over the clients.
BATCHER_REQUESTS = 192
#: The serial and concurrent batcher drives alternate over this many
#: rounds; tracked ratios are medians of per-round ratios, so one slow
#: phase on a shared box cannot move them.
THROUGHPUT_ROUNDS = 5
#: Rounds of the concurrent HTTP load; the record keeps their median.
HTTP_ROUNDS = 5
#: CONCURRENCY closed-loop clients against a work-conserving worker
#: must ride shared batches: while one batch runs, the clients it
#: does not hold queue up for the next.
MIN_CONCURRENT_MEAN_BATCH = 2.0


class BenchStall(nn.Module):
    """Pass-through that wedges the engine while armed."""

    stall_seconds = 0.0

    def forward(self, x):
        if type(self).stall_seconds:
            time.sleep(type(self).stall_seconds)
        return x


def build_server():
    core, shape = build_demo_network(input_shape=SHAPE, classes=10, seed=0)
    model = nn.Sequential(BenchStall(), core)
    config = ServeConfig(
        port=0,
        engine="auto",
        timesteps=TIMESTEPS,
        max_batch_size=8,
        max_queue_depth=8,
        hang_timeout_seconds=0.5,
        breaker_failure_threshold=2,
        breaker_reset_seconds=0.3,
        drain_timeout_seconds=15.0,
        estimator_initial_unit=2e-4,
        estimator_overhead=1e-3,
    )
    return ServerHandle(model, shape, config)


def make_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=SHAPE).astype(np.float32) for _ in range(n)]


@contextmanager
def gc_paused():
    """Hold off the cyclic collector while a phase is timed, as
    ``timeit`` does: a collection over what earlier tests left on the
    heap would land in whichever phase it happened to interrupt."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_serial_phase(handle):
    """One-at-a-time HTTP requests; bit-check each against the engine."""
    samples = make_samples(SERIAL_REQUESTS, seed=1)
    responses = []
    for x in samples:
        status, body = handle.infer(x, deadline_ms=60_000)
        assert status == 200, (status, body)
        assert body["degraded"] is False
        responses.append(np.asarray(body["logits"], dtype=np.float32))
    worker = handle.server.worker
    for x, served in zip(samples, responses):
        direct = worker.submit(x[None, ...], TIMESTEPS).result(60.0)
        if not np.array_equal(served, direct.logits[0]):
            return False
    return True


def drive_batcher(handle, samples, clients):
    """Closed-loop clients submitting straight to the server's batcher.

    ``clients`` coroutines on the server's event loop each await their
    share of ``samples`` one at a time; returns requests per second.
    HTTP is bypassed on purpose: its per-request parse and encode cost
    (about 3x the demo engine's run here) is paid per request however
    requests are batched, so it would bury what coalescing buys.
    """
    batcher = handle.server.batcher
    per_client = len(samples) // clients

    async def client(c):
        for x in samples[c * per_client:(c + 1) * per_client]:
            await batcher.submit(x[None, ...], TIMESTEPS, 60_000.0)

    async def drive():
        started = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(clients)))
        return time.perf_counter() - started

    with gc_paused():
        elapsed = handle.run_in_loop(drive(), timeout=120.0)
    return per_client * clients / elapsed


def _batch_counters(handle):
    counters = handle.server.metrics.snapshot()["counters"]
    return counters.get("batches_dispatched", 0), counters.get("batch_samples", 0)


def run_batching_phases(handle):
    """Alternate 1-client and CONCURRENCY-client batcher drives.

    Returns the median serial and concurrent req/s, the median of the
    per-round concurrent/serial ratios, and the concurrent drives' mean
    batch size.
    """
    samples = make_samples(BATCHER_REQUESTS, seed=2)
    serial, concurrent, ratios = [], [], []
    batches = samples_batched = 0
    for _ in range(THROUGHPUT_ROUNDS):
        serial.append(drive_batcher(handle, samples, 1))
        before = _batch_counters(handle)
        concurrent.append(drive_batcher(handle, samples, CONCURRENCY))
        after = _batch_counters(handle)
        batches += after[0] - before[0]
        samples_batched += after[1] - before[1]
        ratios.append(concurrent[-1] / serial[-1])
    return (
        statistics.median(serial),
        statistics.median(concurrent),
        statistics.median(ratios),
        samples_batched / max(batches, 1),
    )


def run_overload_phase(handle):
    """2x the queue bound, mixed deadlines: definite answers only."""
    attempted = 2 * (handle.server.config.max_queue_depth + 8)
    samples = make_samples(attempted, seed=3)
    outcomes = []
    lock = threading.Lock()

    def client(i):
        # A third of the load carries a hopeless budget (504 material);
        # the rest is generous and either serves (200) or sheds (429).
        deadline = 2.0 if i % 3 == 0 else 60_000.0
        try:
            status, _ = handle.infer(samples[i], deadline_ms=deadline, timeout=60.0)
        except Exception:  # noqa: BLE001 - a client-visible hang/crash
            status = -1
        with lock:
            outcomes.append(status)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(attempted)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    counts = {
        "attempted": attempted,
        "ok": outcomes.count(200),
        "shed": outcomes.count(429),
        "deadline_rejected": outcomes.count(504),
        "unhandled": sum(
            1 for s in outcomes if s not in (200, 429, 504)
        ),
    }
    assert counts["unhandled"] == 0, outcomes
    assert counts["ok"] >= 1
    assert counts["shed"] + counts["deadline_rejected"] >= 1, (
        "2x overload must shed or reject something"
    )
    return counts


def run_hung_worker_phase(handle):
    """Wedge the engine; breaker trips; heal; half-open probe recovers."""
    x = make_samples(1, seed=4)[0]
    BenchStall.stall_seconds = 30.0
    try:
        failures = 0
        for _ in range(3):
            status, _ = handle.infer(x, deadline_ms=60_000, timeout=60.0)
            if status == 503:
                failures += 1
        assert failures >= 2, "hung worker must surface as 503s"
    finally:
        BenchStall.stall_seconds = 0.0
    recovered = False
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        time.sleep(0.2)
        status, _ = handle.infer(x, deadline_ms=60_000, timeout=60.0)
        if status == 200:
            recovered = True
            break
    metrics = handle.request("GET", "/metrics")[1]
    assert recovered, "breaker never recovered after the substrate healed"
    assert metrics["breaker"]["trips"] >= 1
    assert metrics["breaker"]["recoveries"] >= 1
    assert metrics["worker"]["restarts"] >= 1
    return {
        "trips": metrics["breaker"]["trips"],
        "recoveries": metrics["breaker"]["recoveries"],
        "worker_restarts": metrics["worker"]["restarts"],
        "recovered": recovered,
    }


def run_degraded_phase(handle):
    """Force a lower T ceiling; served logits = full-T per-step prefix."""
    x = make_samples(1, seed=5)[0]
    degrade = handle.server.batcher.degrade
    degrade.current = TIMESTEPS // 2
    try:
        status, body = handle.infer(x, deadline_ms=60_000, timeout=60.0)
        assert status == 200 and body["degraded"] is True
        assert body["timesteps_executed"] == TIMESTEPS // 2
        served = np.asarray(body["logits"], dtype=np.float32)
    finally:
        degrade.current = TIMESTEPS
    full = handle.server.worker.submit(
        x[None, ...], TIMESTEPS, per_step=True
    ).result(60.0)
    consistent = np.array_equal(served, full.per_step[TIMESTEPS // 2 - 1][0])
    assert consistent, "degraded answer is not a prefix of the full-T run"
    return consistent


def run_drain_phase(handle):
    """stop() with a request in flight: it completes, drain flushes."""
    x = make_samples(1, seed=6)[0]
    BenchStall.stall_seconds = 0.2
    outcome = {}

    def slow_request():
        outcome["status"], outcome["body"] = handle.infer(
            x, deadline_ms=60_000, timeout=60.0
        )

    thread = threading.Thread(target=slow_request)
    thread.start()
    time.sleep(0.05)
    handle.stop(timeout=60.0)
    thread.join(60.0)
    BenchStall.stall_seconds = 0.0
    inflight_completed = outcome.get("status") == 200
    assert inflight_completed, outcome
    return {"flushed": True, "inflight_completed": inflight_completed}


def _measure_rps(handle, samples):
    """CONCURRENCY client threads over ``samples``; all must 200."""
    statuses = []
    lock = threading.Lock()
    per_client = len(samples) // CONCURRENCY

    def client(worker_id):
        for i in range(per_client):
            x = samples[worker_id * per_client + i]
            status, _ = handle.infer(x, deadline_ms=120_000, timeout=120.0)
            with lock:
                statuses.append(status)

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(CONCURRENCY)
    ]
    with gc_paused():
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180.0)
        elapsed = time.perf_counter() - started
    assert len(statuses) == per_client * CONCURRENCY
    assert all(s == 200 for s in statuses), statuses
    return len(statuses) / elapsed


def run_http_phase(handle):
    """Median req/s of HTTP_ROUNDS rounds of concurrent HTTP load."""
    samples = make_samples(CONCURRENCY * REQUESTS_PER_CLIENT, seed=8)
    return statistics.median(
        _measure_rps(handle, samples) for _ in range(HTTP_ROUNDS)
    )


def test_serving_load_and_failure_semantics(bench_dir):
    handle = build_server()
    try:
        bit_identical = run_serial_phase(handle)
        assert bit_identical, "serving path changed the logits bit pattern"
        sequential_rps, concurrent_rps, gain, mean_batch = run_batching_phases(
            handle
        )
        assert mean_batch >= MIN_CONCURRENT_MEAN_BATCH, (
            f"concurrent load rode batches of {mean_batch:.2f} on average; "
            f"the batcher is not coalescing"
        )
        snapshot = handle.request("GET", "/metrics")[1]
        http_rps = run_http_phase(handle)
        overload = run_overload_phase(handle)
        breaker = run_hung_worker_phase(handle)
        degraded_ok = run_degraded_phase(handle)
        final_metrics = handle.request("GET", "/metrics")[1]
    except BaseException:
        BenchStall.stall_seconds = 0.0
        handle.stop()
        raise
    drain = run_drain_phase(handle)

    record = {
        "benchmark": "serving_load",
        "scenario": {
            "model": "demo",
            "input_shape": list(SHAPE),
            "timesteps": TIMESTEPS,
            "engine": "auto",
            "max_batch": 8,
            "serial_requests": SERIAL_REQUESTS,
            "concurrency": CONCURRENCY,
            "concurrent_requests": BATCHER_REQUESTS,
            "rounds": THROUGHPUT_ROUNDS,
        },
        "throughput": {
            "sequential_rps": round(sequential_rps, 3),
            "concurrent_rps": round(concurrent_rps, 3),
            "batching_throughput_gain": round(gain, 3),
            "concurrent_mean_batch": round(mean_batch, 3),
        },
        "latency_ms": {
            "p50": snapshot["latency_ms"]["p50"],
            "p99": snapshot["latency_ms"]["p99"],
        },
        "robustness": {
            "overload": overload,
            "breaker": breaker,
            "bit_identical_serial_responses": bool(bit_identical),
            "degraded_prefix_consistent": bool(degraded_ok),
            "drain": drain,
        },
        "http": {"single_worker_rps": round(http_rps, 3), "rounds": HTTP_ROUNDS},
        "counters": final_metrics["counters"],
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    assert_serving_schema(record)
    bench_path = bench_dir / "BENCH_serving.json"
    atomic_write_json(bench_path, record, fsync=True)
    print(
        f"\nserving: serial {sequential_rps:.1f} req/s, concurrent "
        f"{concurrent_rps:.1f} req/s (gain {gain:.2f}x, mean batch "
        f"{mean_batch:.2f}), p50 "
        f"{record['latency_ms']['p50']:.1f}ms p99 "
        f"{record['latency_ms']['p99']:.1f}ms, breaker trips "
        f"{breaker['trips']}, HTTP {http_rps:.1f} req/s over "
        f"{CONCURRENCY} clients -> {bench_path}"
    )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
