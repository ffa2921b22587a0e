"""In-memory spans for the benchmark's traced runs.

A span records a name, start and end (``time.perf_counter`` seconds,
CLOCK_MONOTONIC on Linux, so spans from the server process and the
client line up), its parent span and a request or batch key.  Spans
stay in memory and are written once, when the run ends.

The spans are recorded from the benchmark's own files, around calls
into the program's public functions; the program itself carries no
tracing code.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans; thread-safe, nesting tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def reserve(self) -> int:
        """An id for a span recorded later, so children can name it now."""
        with self._lock:
            return next(self._ids)

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            key=None, span_id: Optional[int] = None, **attrs) -> int:
        """Record a span measured elsewhere (callbacks, other threads)."""
        with self._lock:
            if span_id is None:
                span_id = next(self._ids)
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "key": key, **attrs}
            )
        return span_id

    @contextmanager
    def span(self, name: str, key=None):
        """Time the body as a span nested under the current one."""
        parent = self.current()
        span_id = self.reserve()
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.add(name, start, time.perf_counter(), parent=parent, key=key,
                     span_id=span_id)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def run_attrs(stats) -> dict:
    """Span attributes from one engine run's ``RunStats`` profile rows."""
    rows = {"conv": 0.0, "linear": 0.0, "neuron": 0.0}
    for layer in stats.layers:
        if layer.kind in rows:
            rows[layer.kind] += layer.wall_clock_seconds * 1e3
    return {
        "conv_ms": rows["conv"],
        "linear_ms": rows["linear"],
        "neuron_ms": rows["neuron"],
        "batch": int(stats.batch_size),
        "sops": int(stats.total_synaptic_ops),
        "spikes": int(sum(l.spike_count for l in stats.layers)),
        "neuron_steps": int(sum(l.neuron_steps for l in stats.layers)),
        "coo_layers": sum(
            1 for l in stats.layers if l.backend in ("event", "event-batched")
        ),
    }


def instrument_engine_runs(
    tracer: Tracer, context_of: Optional[Callable] = None
) -> Callable[[], None]:
    """Record an ``engine.run`` span around every ``SimulationEngine.run``.

    ``context_of(x)`` may name the span's ``(key, parent)`` from the
    input batch, for runs started on another thread than their parent
    span; by default the parent is the caller's open span.  Returns a
    function that removes the instrumentation.
    """
    from repro.snn.engines.base import SimulationEngine

    original = SimulationEngine.run

    @functools.wraps(original)
    def run(self, x, timesteps, *args, **kwargs):
        key, parent = (
            context_of(x) if context_of is not None else (None, tracer.current())
        )
        start = time.perf_counter()
        result = original(self, x, timesteps, *args, **kwargs)
        end = time.perf_counter()
        tracer.add("engine.run", start, end, parent=parent, key=key,
                   **run_attrs(result.stats))
        return result

    SimulationEngine.run = run
    return lambda: setattr(SimulationEngine, "run", original)


def engine_layer_metrics(engine_spans: List[dict]) -> dict:
    """The ``engine.*`` per-layer metrics from a traced window's runs.

    The times come from the one run of median duration (upper median),
    so its profile rows plus the unattributed rest sum exactly to it.
    """
    mid = sorted(engine_spans, key=duration_ms)[len(engine_spans) // 2]
    rows = mid["conv_ms"] + mid["linear_ms"] + mid["neuron_ms"]
    samples = sum(s["batch"] for s in engine_spans)
    steps = sum(s["neuron_steps"] for s in engine_spans)
    coo = sorted(s["coo_layers"] for s in engine_spans)
    return {
        "engine.run_ms": duration_ms(mid),
        "engine.conv_ms": mid["conv_ms"],
        "engine.linear_ms": mid["linear_ms"],
        "engine.neuron_ms": mid["neuron_ms"],
        "engine.unattributed_ms": duration_ms(mid) - rows,
        "engine.sops_per_sample": sum(s["sops"] for s in engine_spans) / samples,
        "engine.spike_rate": sum(s["spikes"] for s in engine_spans) / max(steps, 1),
        "planner.coo_layers": coo[len(coo) // 2],
    }


def self_times_ms(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover, in ms."""
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (end - start - covered) * 1e3
    return result


def duration_ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3
