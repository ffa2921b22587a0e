#!/usr/bin/env python
"""CI smoke for the process pool: replica murder in-process, SIGTERM for real.

Usage::

    PYTHONPATH=src python benchmarks/serving_pool_smoke.py

Two phases, exit 0 only if both hold:

1. **In-process replica kill** — a 3-replica ``--serve-workers`` pool
   under concurrent load; one replica is SIGKILLed mid-stream.  Asserts
   every response is 200 (the dead replica's outstanding work re-queues
   onto survivors — never a 5xx), ``/readyz`` stays green, and the pool
   metrics show the rebuild.
2. **Subprocess SIGTERM** — ``python -m repro.cli serve
   --serve-workers 3`` as a real process: readiness polled over HTTP,
   load applied from threads, SIGTERM delivered mid-stream.  Asserts
   the drain exits 0 and every client outcome is definite (200/503/clean
   close).

Standalone on purpose (plain script, not pytest): CI runs it as its
own job so a pool regression is visible as a named failing step.
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

from repro.serve import ServeConfig, ServerHandle, build_demo_network  # noqa: E402

SHAPE = (2, 8, 8)
TIMESTEPS = 6
REPLICAS = 3
CLIENTS = 4
REQUESTS_PER_CLIENT = 6


def check(condition, message):
    if not condition:
        print(f"SMOKE FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def phase_replica_kill():
    print(f"phase 1: in-process {REPLICAS}-replica pool, SIGKILL one mid-load")
    core, shape = build_demo_network(input_shape=SHAPE, seed=0)
    config = ServeConfig(
        port=0,
        engine="auto",
        timesteps=TIMESTEPS,
        max_batch_size=4,
        max_queue_depth=32,
        hang_timeout_seconds=30.0,
        drain_timeout_seconds=30.0,
        serve_workers=REPLICAS,
    )
    rng = np.random.default_rng(1)
    handle = ServerHandle(core, shape, config)
    pool = handle.server.worker
    try:
        statuses = []
        lock = threading.Lock()

        def client(worker_id):
            for _ in range(REQUESTS_PER_CLIENT):
                x = rng.normal(size=SHAPE).astype(np.float32)
                try:
                    status, _ = handle.infer(x, deadline_ms=120_000, timeout=120.0)
                except Exception:  # noqa: BLE001 - a client-visible hang
                    status = -1
                with lock:
                    statuses.append(status)

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # requests in flight
        victim = next(r for r in pool._replicas if r.alive())
        os.kill(victim.process.pid, signal.SIGKILL)
        print(f"  killed replica {victim.index} (pid {victim.process.pid})")
        for thread in threads:
            thread.join(180.0)

        total = CLIENTS * REQUESTS_PER_CLIENT
        check(len(statuses) == total, f"all {total} concurrent requests answered")
        check(
            all(s == 200 for s in statuses),
            f"no 5xx through a replica's death: {sorted(set(statuses))}",
        )
        ready = handle.request("GET", "/readyz")[0]
        check(ready == 200, "/readyz green after the replica was killed")

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and pool.restarts < 1:
            time.sleep(0.1)
        metrics = handle.request("GET", "/metrics")[1]
        check(
            metrics["pool"]["restarts"] >= 1,
            f"pool rebuilt the dead replica (restarts="
            f"{metrics['pool']['restarts']})",
        )
        check(
            metrics["pool"]["replicas"] == REPLICAS,
            f"pool still reports {REPLICAS} replicas",
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not all(
            r.alive() for r in pool._replicas
        ):
            time.sleep(0.1)
        check(all(r.alive() for r in pool._replicas), "every replica live again")
    finally:
        handle.stop(timeout=60.0)


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
    print(f"phase 2: subprocess --serve-workers {REPLICAS} SIGTERM drain")
    port = free_port()
    env = dict(os.environ, PYTHONPATH="src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--timesteps", str(TIMESTEPS),
            "--input-shape", "2,8,8", "--drain-timeout", "10",
            "--serve-workers", str(REPLICAS),
        ],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        ready = False
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            try:
                if http_get(port, "/readyz") == 200:
                    ready = True
                    break
            except OSError:
                time.sleep(0.2)
        check(ready, "CLI pool server came up and reported ready")

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
        returncode = process.wait(timeout=60.0)

        check(returncode == 0, f"SIGTERM drain exited 0 (got {returncode})")
        check(statuses.count(200) >= 1, "in-flight work completed during drain")
        bad = [s for s in statuses if s not in (200, 503, 0)]
        check(not bad, f"every response during drain was definite (bad: {bad})")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def main():
    phase_replica_kill()
    phase_sigterm()
    print("serving pool smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
