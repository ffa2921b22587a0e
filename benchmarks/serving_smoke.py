#!/usr/bin/env python
"""CI smoke for the serving layer: chaos in-process, SIGTERM for real.

Usage::

    PYTHONPATH=src python benchmarks/serving_smoke.py

Two phases, exit 0 only if both hold:

1. **In-process chaos** — a server over a tiny calibrated SNN with a
   stallable layer: concurrent clients with mixed deadlines while the
   worker is wedged mid-request.  Asserts every request gets a definite
   status (200/429/503/504 — never a hang), ``/healthz`` stays green
   through the breaker trip (liveness is not readiness), the metrics
   report the shed and the trip, and the breaker recovers once the
   substrate heals.
2. **Subprocess SIGTERM** — ``python -m repro.cli serve`` as a real
   process: readiness polled over HTTP, load applied from threads,
   SIGTERM delivered mid-stream.  Asserts in-flight work completes
   (every client gets 200 or a clean draining 503), and the process
   exits 0 inside the drain deadline.  Then the same server on an
   engine that hangs (``benchmarks/hung_engine_serve.py``): its request
   times out with 503, and after SIGTERM the process drains and exits
   0 within 2 s of the drain, its wedged slot thread still asleep.

Standalone on purpose (plain script, not pytest): CI runs it as its
own job so a serving regression is visible as a named failing step.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import nn  # noqa: E402
from repro.serve import ServeConfig, ServerHandle, build_demo_network  # noqa: E402

SHAPE = (2, 8, 8)
TIMESTEPS = 6


class SmokeStall(nn.Module):
    stall_seconds = 0.0

    def forward(self, x):
        if type(self).stall_seconds:
            time.sleep(type(self).stall_seconds)
        return x


def check(condition, message):
    if not condition:
        print(f"SMOKE FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def phase_chaos():
    print("phase 1: in-process chaos (mixed deadlines + wedged worker)")
    core, shape = build_demo_network(input_shape=SHAPE, seed=0)
    model = nn.Sequential(SmokeStall(), core)
    config = ServeConfig(
        port=0,
        engine="auto",
        timesteps=TIMESTEPS,
        max_queue_depth=6,
        max_batch_size=4,
        hang_timeout_seconds=0.5,
        breaker_failure_threshold=2,
        breaker_reset_seconds=0.3,
        estimator_initial_unit=2e-4,
        estimator_overhead=1e-3,
    )
    rng = np.random.default_rng(1)
    with ServerHandle(model, shape, config) as handle:
        statuses = []
        lock = threading.Lock()

        def client(i):
            x = rng.normal(size=SHAPE).astype(np.float32)
            deadline = 2.0 if i % 4 == 0 else 60_000.0
            try:
                status, _ = handle.infer(x, deadline_ms=deadline, timeout=60.0)
            except Exception:  # noqa: BLE001
                status = -1
            with lock:
                statuses.append(status)

        # Wedge the worker, then apply concurrent mixed-deadline load.
        SmokeStall.stall_seconds = 30.0
        threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        health = handle.request("GET", "/healthz")[0]
        for thread in threads:
            thread.join(120.0)
        SmokeStall.stall_seconds = 0.0

        check(len(statuses) == 16, "all 16 concurrent requests answered")
        check(-1 not in statuses, "no client saw a hang or transport error")
        check(
            set(statuses) <= {200, 429, 503, 504},
            f"every answer definite: {sorted(set(statuses))}",
        )
        check(health == 200, "/healthz stayed green while the worker was wedged")

        metrics = handle.request("GET", "/metrics")[1]
        shed = metrics["counters"].get("shed_queue", 0)
        rejected = (
            metrics["counters"].get("rejected_deadline", 0)
            + metrics["counters"].get("rejected_breaker", 0)
        )
        check(shed + rejected >= 1, f"load was shed/rejected (shed={shed}, rejected={rejected})")
        check(metrics["breaker"]["trips"] >= 1, "circuit breaker tripped")

        # Healed substrate: the half-open probe must recover it.
        recovered = False
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            time.sleep(0.2)
            x = rng.normal(size=SHAPE).astype(np.float32)
            status, _ = handle.infer(x, deadline_ms=60_000, timeout=60.0)
            if status == 200:
                recovered = True
                break
        check(recovered, "breaker recovered after the substrate healed")
        metrics = handle.request("GET", "/metrics")[1]
        check(metrics["breaker"]["recoveries"] >= 1, "recovery visible in metrics")
        check(metrics["worker"]["restarts"] >= 1, "wedged worker slot was rebuilt")


def http_get(port, path, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(
            f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode()
        )
        raw = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            raw += chunk
    return int(raw.split(b" ", 2)[1])


def http_infer(port, sample, timeout=30.0):
    body = json.dumps({"input": sample.tolist(), "deadline_ms": 60_000}).encode()
    head = (
        f"POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(head + body)
        raw = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            raw += chunk
    return int(raw.split(b" ", 2)[1])


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def phase_sigterm():
    print("phase 2: subprocess SIGTERM drain")
    port = free_port()
    env = dict(os.environ, PYTHONPATH="src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--timesteps", str(TIMESTEPS),
            "--input-shape", "2,8,8", "--drain-timeout", "10",
        ],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        ready = False
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            try:
                if http_get(port, "/readyz") == 200:
                    ready = True
                    break
            except OSError:
                time.sleep(0.2)
        check(ready, "CLI server came up and reported ready")

        rng = np.random.default_rng(2)
        statuses = []
        lock = threading.Lock()

        def client():
            for _ in range(5):
                x = rng.normal(size=SHAPE).astype(np.float32)
                try:
                    status = http_infer(port, x)
                except OSError:
                    # Connection refused after the listener closed is a
                    # clean drain outcome, not a failure.
                    status = 0
                with lock:
                    statuses.append(status)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # requests in flight
        process.send_signal(signal.SIGTERM)
        for thread in threads:
            thread.join(60.0)
        returncode = process.wait(timeout=30.0)

        check(returncode == 0, f"SIGTERM drain exited 0 (got {returncode})")
        check(statuses.count(200) >= 1, "in-flight work completed during drain")
        bad = [s for s in statuses if s not in (200, 503, 0)]
        check(not bad, f"every response during drain was definite (bad: {bad})")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def phase_sigterm_hung_engine():
    print("phase 2b: subprocess SIGTERM drain with a hung engine")
    port = free_port()
    process = subprocess.Popen(
        [
            sys.executable, str(Path(__file__).resolve().parent / "hung_engine_serve.py"),
            "--port", str(port), "--timesteps", str(TIMESTEPS),
            "--input-shape", "2,8,8", "--hang-timeout", "0.3",
        ],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    drained = []

    def watch():
        for line in iter(process.stderr.readline, ""):
            if "drain complete" in line:
                drained.append(time.monotonic())

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        ready = False
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and process.poll() is None:
            try:
                if http_get(port, "/readyz") == 200:
                    ready = True
                    break
            except OSError:
                time.sleep(0.2)
        check(ready, "hung-engine server came up and reported ready")
        status = http_infer(port, np.zeros(SHAPE, dtype=np.float32))
        check(status == 503, f"the hung run timed out with 503 (got {status})")
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30.0)
        exited = time.monotonic()
        watcher.join(5.0)
        check(returncode == 0, f"hung-engine drain exited 0 (got {returncode})")
        check(bool(drained), "the drain completed")
        check(
            exited - drained[0] < 2.0,
            f"exited {exited - drained[0]:.2f} s after the drain (< 2 s)",
        )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def main():
    phase_chaos()
    phase_sigterm()
    phase_sigterm_hung_engine()
    print("serving smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
