"""Fault tolerance of the supervisor: capture, retry, degradation.

Runs generic tasks through :func:`run_supervised` — the substrate the
campaign runner fans its grid points over — and injects failures that
fire only in a fork child (a crash or a hang).  The contract: failed
tasks retry, then degrade fork -> serial, the final results are
bit-identical to calling the tasks directly, and every failure is
recorded.
"""

import logging
import os
import time

import numpy as np
import pytest

from repro.eval import supervisor
from repro.eval.supervisor import (
    ShardExecutionError,
    ShardFailure,
    ShardPolicy,
    fork_available,
    run_supervised,
)

MAIN_PID = os.getpid()

#: "off" | "crash" | "hang"; fork children inherit it copy-on-write.
POISON = {"mode": "off"}


def _in_fork_child() -> bool:
    return os.getpid() != MAIN_PID


@pytest.fixture(autouse=True)
def _disarm_poison():
    yield
    POISON["mode"] = "off"


def task(index: int) -> np.ndarray:
    """A deterministic numpy task that misbehaves when poisoned."""
    if POISON["mode"] == "crash" and _in_fork_child():
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
            serial_fn=task,
            policy=ShardPolicy(retries=1, backoff=0.01),
            workers=2,
        )
        # The poison kills fork children, so only the serial fallback
        # can finish — and it must match exactly.
        assert_results(outcome, 2)
        assert outcome.degraded_mode == "serial"
        failures = outcome.failures
        assert all(isinstance(f, ShardFailure) for f in failures)
        assert {f.kind for f in failures} == {"exception"}
        assert {f.mode for f in failures} == {"fork"}
        # retries=1 => two fork attempts for both tasks.
        assert len(failures) == 4
        assert all("injected task poison" in f.error for f in failures)

    def test_clean_run_records_nothing(self):
        outcome = run_supervised(count=3, serial_fn=task, workers=3)
        assert_results(outcome, 3)
        assert outcome.failures == []
        assert outcome.requested_mode == "fork"
        assert outcome.degraded_mode == ""


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestHangDegradation:
    def test_hang_is_detected_and_degrades(self):
        POISON["mode"] = "hang"
        start = time.monotonic()
        outcome = run_supervised(
            count=2,
            serial_fn=task,
            policy=ShardPolicy(timeout=1.0, retries=0, backoff=0.01),
            workers=2,
        )
        elapsed = time.monotonic() - start

        # The hang only triggers in fork children, so serial recovers.
        assert_results(outcome, 2)
        assert outcome.degraded_mode == "serial"
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
                serial_fn=always_fails,
                policy=ShardPolicy(retries=1, backoff=0.0),
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
            serial_fn=flaky,
            policy=ShardPolicy(retries=1, backoff=0.0),
        )
        assert outcome.results == [0, 10, 20]
        assert outcome.degraded_mode == ""  # recovered without degrading
        assert len(outcome.failures) == 3
        assert all(f.attempt == 1 for f in outcome.failures)


class TestForkless:
    def test_workers_run_serially_without_fork(self, monkeypatch, caplog):
        monkeypatch.setattr(supervisor, "fork_available", lambda: False)
        ran_in = set()

        def recording(i):
            ran_in.add(os.getpid())
            return task(i)

        with caplog.at_level(logging.WARNING, logger=supervisor.__name__):
            outcome = run_supervised(count=2, serial_fn=recording, workers=2)
        assert_results(outcome, 2)
        assert outcome.failures == []
        assert outcome.requested_mode == "serial"
        assert ran_in == {MAIN_PID}  # the calling process, never a child
        assert len(caplog.records) == 1
        assert "'fork' start method is unavailable" in caplog.records[0].getMessage()
