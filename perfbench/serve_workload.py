"""The ``serve`` workload: the HTTP server under open-loop Poisson traffic.

``python -m repro.cli serve`` runs as a subprocess with its defaults
(demo network 2x8x8, ``auto`` engine, T=8, batches of at most 8, a 2 ms
gather window) on an ephemeral port.  This process is the only client:
one asyncio thread, two keep-alive connections.  Arrivals are a Poisson
process at ``RATE`` requests per second, about a third of what two
connections sustain in a closed loop, each with a generous deadline, so
the server is never overloaded and no request should fail.

Latency runs from each request's *due* time, so a request that waited
for a free connection or a late generator carries that wait;
``client.lateness_ms`` reports how late the generator itself ran, so a
stalled client is not read as a slow server.

The server is pinned to one core and this process to the others, so
the load generator never takes CPU time from the server it measures;
unpinned on a 2-core VM, their contention made the median latency swing
by up to half between runs.  The serving path is bound by the interpreter lock and
its engine runs are too small for BLAS threads, so one core is what
the server uses either way.

Set-up (spawn, ``/readyz`` 200, warm-up traffic that lets the planner
calibrate batches of one and two, the sizes two connections produce)
is done ``SETUPS`` times, each on a fresh server; the last one serves
the timed window.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List

import numpy as np

from common import (OUT, ROOT, TIMESTEPS, Outcome, latency_summary, log, p50, p99,
                    process_peak_rss_mb)
from repro.serve import build_demo_network
from repro.snn import SpikingNetwork
from tracing import duration_ms, engine_layer_metrics, self_times_ms

RATE = 100.0            # requests per second
CONNECTIONS = 2
DEADLINE_MS = 10_000.0
SAMPLES = 64            # distinct request inputs
WARMUP_SINGLES = 20     # warm-up requests sent alone (batches of 1)
WARMUP_PAIRS = 20       # warm-up pairs sent together (batches of 2)
SETUPS = 5
INPUT_SHAPE = (2, 8, 8)
WARMUP_RID = 1_000_000  # warm-up request ids start here
HERE = Path(__file__).resolve().parent
_PORT = re.compile(r"serving on \S+:(\d+)")


def cpu_split():
    """(server cores, client cores): one core for the server, the rest for us."""
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, set(cpus[1:])) if len(cpus) > 1 else (set(cpus), set(cpus))


def pin(pid: int, cpus) -> None:
    """Pin every thread of process ``pid`` to ``cpus``."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:
            pass  # the thread ended


class Server:
    """One server subprocess, from spawn to ready; ``stop`` drains it."""

    def __init__(self, cpus, spans_path: Path = None) -> None:
        self.started = time.perf_counter()
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       str(spans_path), "--port", "0"]
        self.setup_s = None
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.process = subprocess.Popen(
            command, cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        # Pinned before the interpreter starts threads, which inherit it;
        # pinned again once ready in case one started first.
        pin(self.process.pid, cpus)
        self.log: List[str] = []
        self.port = None
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()
        try:
            if not self._bound.wait(60.0) or self.port is None:
                raise RuntimeError("server did not report its port:\n" + "".join(self.log))
            deadline = time.monotonic() + 30.0
            while self.get("/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
            pin(self.process.pid, cpus)
        except BaseException:
            self.stop()
            raise

    def _read_log(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)
            found = _PORT.search(line)
            if found and self.port is None:
                self.port = int(found.group(1))
                self._bound.set()
        self._bound.set()  # the process ended

    def get(self, path: str):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def stop(self) -> int:
        """SIGTERM (the drain path) and wait; kill only if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait(10.0)
        self._reader.join(10.0)
        return code


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
async def _exchange(reader, writer, body: bytes):
    writer.write(
        b"POST /v1/infer HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


async def _drive(port, dues, samples, first_rid, inputs, references):
    """Send request i at ``start + dues[i]``; returns one record per request."""
    queue: asyncio.Queue = asyncio.Queue()
    records = []

    async def connection():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while (item := await queue.get()) is not None:
                rid, sample, due, issued = item
                body = (b'{"input": ' + inputs[sample] + b', "deadline_ms": '
                        + str(DEADLINE_MS).encode() + b', "rid": ' + str(rid).encode() + b"}")
                sent = time.perf_counter()
                try:
                    status, payload = await _exchange(reader, writer, body)
                except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as error:
                    log(f"request {rid} failed: {error!r}")
                    status, payload = 0, {}
                    writer.close()
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                ok = (status == 200 and payload.get("timesteps_executed") == TIMESTEPS
                      and payload.get("logits") == references[sample])
                records.append({"rid": rid, "due": due, "issued": issued, "sent": sent,
                                "done": time.perf_counter(), "status": status, "ok": ok})
        finally:
            writer.close()

    workers = [asyncio.ensure_future(connection()) for _ in range(CONNECTIONS)]
    start = time.perf_counter() + 0.05
    for offset, (due, sample) in enumerate(zip(dues, samples)):
        delay = start + due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((first_rid + offset, int(sample), start + due, time.perf_counter()))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return start, sorted(records, key=lambda r: r["rid"])


def drive(server, dues, samples, first_rid, traffic, outcome: Outcome):
    start, records = asyncio.run(
        _drive(server.port, dues, samples, first_rid, *traffic)
    )
    for record in records:
        outcome.record(record["ok"])
    return start, records


def poisson_schedule(rng, seconds: float):
    """Arrival offsets of a rate-``RATE`` Poisson process given its count."""
    count = int(round(RATE * seconds))
    return np.sort(rng.uniform(0.0, seconds, count)), rng.integers(0, SAMPLES, count)


def make_traffic(seed: int):
    """Request inputs (JSON fragments) and their full-T reference logits."""
    samples = np.random.default_rng(seed).normal(size=(SAMPLES,) + INPUT_SHAPE).astype(np.float32)
    model, _ = build_demo_network(INPUT_SHAPE)
    reference = SpikingNetwork(model, timesteps=TIMESTEPS, engine="batched")
    # One sample per run: the server's batches hold one or two requests,
    # and at those sizes a row's logits do not depend on its batch.
    logits = [reference.forward_per_step(s[None])[-1][0] for s in samples]
    inputs = [json.dumps(s.tolist()).encode() for s in samples]
    return inputs, [[float(v) for v in row] for row in logits]


def set_up(cpus, traffic, outcome: Outcome, spans_path: Path = None) -> Server:
    server = Server(cpus, spans_path)
    warm = np.concatenate([np.arange(WARMUP_SINGLES) * 0.01,
                           WARMUP_SINGLES * 0.01 + np.repeat(np.arange(WARMUP_PAIRS) * 0.015, 2)])
    try:
        drive(server, warm, np.arange(len(warm)) % SAMPLES, WARMUP_RID, traffic, outcome)
    except BaseException:
        server.stop()
        raise
    server.setup_s = time.perf_counter() - server.started
    return server


def timed_window(server: Server, schedule, traffic, outcome: Outcome):
    """Drive one timed window, read the server's counters, then drain it."""
    try:
        before = server.get("/metrics")[1]
        start, records = drive(server, *schedule, 0, traffic, outcome)
        after = server.get("/metrics")[1]
        peak_rss = process_peak_rss_mb(server.process.pid)
    finally:
        stop_checked(server, outcome)
    return start, records, before, after, peak_rss


def latency_ms(records) -> List[float]:
    return [(r["done"] - r["due"]) * 1e3 for r in records]


def lateness_ms(records) -> List[float]:
    """How late the generator issued each request after it was due."""
    return [(r["issued"] - r["due"]) * 1e3 for r in records]


def counter_delta(before: dict, after: dict, *names: str) -> int:
    return sum(after["counters"].get(n, 0) - before["counters"].get(n, 0) for n in names)


def planner_delta(before: dict, after: dict, name: str) -> int:
    return after.get("planner", {}).get(name, 0) - before.get("planner", {}).get(name, 0)


def stop_checked(server: Server, outcome: Outcome) -> None:
    code = server.stop()
    if code != 0:
        log(f"server exited {code} after SIGTERM:\n" + "".join(server.log[-20:]))
        outcome.record(False)


def run(seed: int, seconds: float, trace: bool, process_start: float) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    server_cpus, client_cpus = cpu_split()
    os.sched_setaffinity(0, client_cpus)
    traffic = make_traffic(seed)
    shared_s = time.perf_counter() - process_start
    setups = []
    for _ in range(SETUPS):
        if setups:
            stop_checked(server, outcome)
        server = set_up(server_cpus, traffic, outcome)
        setups.append(server.setup_s)
    outcome.detail.update(setup_shared_s=shared_s, setup_server_s=setups)
    window = seconds / 2 if trace else seconds
    start, records, before, after, peak_rss = timed_window(
        server, poisson_schedule(rng, window), traffic, outcome
    )
    latencies = latency_ms(records)

    if trace:
        untraced_p50 = p50(latencies)
        spans_path = OUT / f"serve-seed{seed}-spans.json"
        server = set_up(server_cpus, traffic, outcome, spans_path)
        start, records, before, after, _ = timed_window(
            server, poisson_schedule(rng, window), traffic, outcome
        )
        latencies = latency_ms(records)
        outcome.metrics = layer_metrics(json.loads(spans_path.read_text()), records,
                                        before, after)
        outcome.metrics["trace.overhead_pct"] = (p50(latencies) / untraced_p50 - 1.0) * 100.0
    else:
        ok = sum(r["ok"] for r in records)
        outcome.metrics = {
            "throughput_sps": ok / (max(r["done"] for r in records) - start),
            "latency_p50_ms": p50(latencies),
            "setup_s": shared_s + statistics.median(setups),
            "peak_rss_mb": peak_rss,
        }
    lateness = lateness_ms(records)
    outcome.detail.update(
        latency=latency_summary(latencies),
        client_lateness_ms={"p50": p50(lateness), "p99": p99(lateness), "max": max(lateness)},
        server_counters={k: after["counters"].get(k, 0) - before["counters"].get(k, 0)
                         for k in after["counters"]},
        planner=after.get("planner", {}).get("plans"),
        planner_window={"calibration_runs": planner_delta(before, after, "calibration_runs"),
                        "replans": planner_delta(before, after, "replans_triggered")},
        load_generator={"loop": "open", "arrivals": "poisson", "rate_per_s": RATE,
                        "connections": CONNECTIONS, "threads": 1,
                        "server_cpus": sorted(server_cpus), "client_cpus": sorted(client_cpus),
                        "deadline_ms": DEADLINE_MS},
    )
    return outcome


def layer_metrics(spans, records, before, after) -> dict:
    """Per-layer serving metrics for the timed window's requests."""
    window = {r["rid"]: r for r in records}
    decode = [duration_ms(s) for s in spans if s["name"] == "serve.decode" and s["key"] in window]
    waits = {s["key"]: s for s in spans if s["name"] == "batcher.wait" and s["key"] in window}
    batches = {s["batch"] for s in waits.values()}
    workers = {s["key"]: s for s in spans if s["name"] == "worker.run" and s["key"] in batches}
    worker_ids = {s["id"] for s in workers.values()}
    engines = [s for s in spans if s["name"] == "engine.run" and s["parent"] in worker_ids]
    self_ms = self_times_ms([s for s in spans if s["id"] in worker_ids] + engines)
    http = [
        (window[rid]["done"] - window[rid]["sent"]) * 1e3
        - duration_ms(wait) - duration_ms(workers[wait["batch"]])
        for rid, wait in waits.items() if wait["batch"] in workers
    ]
    dispatched = counter_delta(before, after, "batches_dispatched")
    return {
        **engine_layer_metrics(engines),
        "planner.calibration_runs": planner_delta(before, after, "calibration_runs"),
        "planner.replans": planner_delta(before, after, "replans_triggered"),
        "serve.decode_ms": p50(decode),
        "serve.http_ms": p50(http),
        "batcher.wait_ms": p50([duration_ms(s) for s in waits.values()]),
        "batcher.batch_size": counter_delta(before, after, "batch_samples") / max(dispatched, 1),
        "worker.run_ms": p50([duration_ms(s) for s in workers.values()]),
        "worker.hop_ms": p50([self_ms[i] for i in worker_ids]),
        "serve.shed": counter_delta(before, after, "shed_queue", "shed_bytes"),
        "serve.deadline_rejected": counter_delta(before, after, "rejected_deadline",
                                                 "expired_in_queue"),
        "client.lateness_ms": p99(lateness_ms(records)),
    }
