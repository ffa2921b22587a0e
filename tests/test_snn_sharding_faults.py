"""Fault tolerance of the supervisor: capture, retry, degradation.

Runs generic tasks through :func:`run_supervised` — the substrate the
campaign runner fans its grid points over — and injects failures that
fire only off the supervising process/thread (a crash) or only in a
fork child (a hang).  The contract: failed tasks retry, then degrade
fork -> thread -> serial, the final results are bit-identical to
calling the tasks directly, and every failure is recorded.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.snn.engines import sharding
from repro.snn.engines.sharding import (
    ShardExecutionError,
    ShardFailure,
    ShardPolicy,
    fork_available,
    resolve_shard_mode,
    run_supervised,
)

MAIN_PID = os.getpid()

#: "off" | "crash" | "hang"; fork children inherit it copy-on-write.
POISON = {"mode": "off"}


def _in_child() -> bool:
    """True in a fork child or a worker thread, False in the supervisor."""
    return (
        os.getpid() != MAIN_PID
        or threading.current_thread() is not threading.main_thread()
    )


def _in_fork_child() -> bool:
    return os.getpid() != MAIN_PID


@pytest.fixture(autouse=True)
def _disarm_poison():
    yield
    POISON["mode"] = "off"


def task(index: int) -> np.ndarray:
    """A deterministic numpy task that misbehaves when poisoned."""
    if POISON["mode"] == "crash" and _in_child():
        raise RuntimeError("injected task poison")
    if POISON["mode"] == "hang" and _in_fork_child():
        time.sleep(60.0)
    rng = np.random.default_rng(index)
    a = rng.normal(size=(16, 16)).astype(np.float32)
    return a @ a.T


def direct(count: int):
    return [task(i) for i in range(count)]


def assert_results(outcome, count):
    assert len(outcome.results) == count
    for got, want in zip(outcome.results, direct(count)):
        np.testing.assert_array_equal(got, want)


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ShardPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            ShardPolicy(retries=-1)
        with pytest.raises(ValueError):
            ShardPolicy(backoff=-0.1)

    def test_defaults_are_valid(self):
        policy = ShardPolicy()
        assert policy.timeout is None
        assert policy.retries >= 0


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestCrashDegradation:
    def test_crash_degrades_to_serial_bit_identical(self):
        POISON["mode"] = "crash"
        outcome = run_supervised(
            count=2,
            mode="fork",
            policy=ShardPolicy(retries=1, backoff=0.01),
            serial_fn=task,
        )
        # The poison kills fork children AND thread workers, so only the
        # serial fallback can finish — and it must match exactly.
        assert_results(outcome, 2)
        assert outcome.degraded_mode == "serial"
        failures = outcome.failures
        assert all(isinstance(f, ShardFailure) for f in failures)
        assert {f.kind for f in failures} == {"exception"}
        assert {f.mode for f in failures} == {"fork", "thread"}
        # retries=1 => two attempts per substrate for both tasks.
        assert len([f for f in failures if f.mode == "fork"]) == 4
        assert len([f for f in failures if f.mode == "thread"]) == 4
        assert all("injected task poison" in f.error for f in failures)

    def test_clean_run_records_nothing(self):
        outcome = run_supervised(count=3, mode="fork", policy=None, serial_fn=task)
        assert_results(outcome, 3)
        assert outcome.failures == []
        assert outcome.degraded_mode == ""


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestHangDegradation:
    def test_hang_is_detected_and_degrades(self):
        POISON["mode"] = "hang"
        start = time.monotonic()
        outcome = run_supervised(
            count=2,
            mode="fork",
            policy=ShardPolicy(timeout=1.0, retries=0, backoff=0.01),
            serial_fn=task,
        )
        elapsed = time.monotonic() - start

        # The hang only triggers in fork children, so threads recover.
        assert_results(outcome, 2)
        assert outcome.degraded_mode == "thread"
        assert {f.kind for f in outcome.failures} == {"timeout"}
        assert {f.mode for f in outcome.failures} == {"fork"}
        # Hang detection means the deadline bounds the wait, not the
        # 60 s sleep; generous slack for pool setup.
        assert elapsed < 30.0


class TestSupervisor:
    def test_serial_failure_exhausts_chain(self):
        def always_fails(i):
            raise ValueError(f"task {i} is doomed")

        with pytest.raises(ShardExecutionError) as excinfo:
            run_supervised(
                count=2,
                mode="serial",
                policy=ShardPolicy(retries=1, backoff=0.0),
                serial_fn=always_fails,
            )
        failures = excinfo.value.failures
        assert len(failures) == 4  # 2 tasks x 2 attempts
        assert all(f.mode == "serial" for f in failures)
        assert all("doomed" in f.error for f in failures)

    def test_retry_recovers_transient_failure(self):
        attempts = {}

        def flaky(i):
            attempts[i] = attempts.get(i, 0) + 1
            if attempts[i] == 1:
                raise RuntimeError("transient")
            return i * 10

        outcome = run_supervised(
            count=3,
            mode="serial",
            policy=ShardPolicy(retries=1, backoff=0.0),
            serial_fn=flaky,
        )
        assert outcome.results == [0, 10, 20]
        assert outcome.degraded_mode == ""  # recovered without degrading
        assert len(outcome.failures) == 3
        assert all(f.attempt == 1 for f in outcome.failures)

    def test_thread_timeout_degrades_to_serial(self):
        released = threading.Event()

        def slow_off_main(i):
            if threading.current_thread() is not threading.main_thread():
                released.wait(5.0)  # hung until the test releases it
            return i

        start = time.monotonic()
        try:
            outcome = run_supervised(
                count=1,
                mode="thread",
                policy=ShardPolicy(timeout=0.2, retries=0, backoff=0.0),
                serial_fn=slow_off_main,
            )
        finally:
            released.set()
        # The supervisor abandons the hung thread instead of joining it.
        assert time.monotonic() - start < 4.0
        assert outcome.results == [0]
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert outcome.failures[0].mode == "thread"
        assert outcome.degraded_mode == "serial"


class TestForklessAuto:
    def test_auto_degrades_to_thread_without_fork(self, monkeypatch):
        monkeypatch.setattr(sharding, "fork_available", lambda: False)
        assert sharding.resolve_shard_mode("auto") == "thread"
        with pytest.raises(RuntimeError):
            sharding.resolve_shard_mode("fork")

    def test_auto_run_on_forkless_platform(self, monkeypatch):
        monkeypatch.setattr(sharding, "fork_available", lambda: False)
        ran_on = set()

        def recording(i):
            ran_on.add(threading.current_thread() is threading.main_thread())
            return task(i)

        outcome = run_supervised(
            count=2, mode=resolve_shard_mode("auto"), policy=None, serial_fn=recording
        )
        assert_results(outcome, 2)
        assert outcome.failures == []
        assert ran_on == {False}  # worker threads, never the serial path
