"""Serving metrics: counters, gauges and latency percentiles, as JSON.

One :class:`ServingMetrics` instance is shared by every component of
the request path — admission control increments shed counters, the
micro-batcher observes end-to-end latencies and queue depth, the
circuit breaker reports state transitions, the engine worker feeds
its restart count — and ``GET /metrics`` renders one snapshot.

Everything is stdlib and thread-safe: observations arrive from the
event loop *and* from engine worker threads.  Percentiles come from a
bounded ring of recent latencies (the last ``reservoir`` completions),
which is exact for the window it holds and O(1) per observation —
plenty for a p50/p99 readout; this is an operational signal, not a
statistics library.  Request rate is reported twice: over the whole
uptime and over a short sliding window, because "what is the server
doing *now*" is the question during an overload.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Optional


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


class LatencyReservoir:
    """Bounded ring of recent latency observations (seconds)."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._values: deque = deque(maxlen=int(capacity))
        self._count = 0

    def observe(self, seconds: float) -> None:
        self._values.append(float(seconds))
        self._count += 1

    @property
    def count(self) -> int:
        """Total observations ever made (not just the window)."""
        return self._count

    def quantiles(self, qs) -> Dict[float, float]:
        ordered = sorted(self._values)
        return {q: percentile(ordered, q) for q in qs}


class ServingMetrics:
    """Shared counters/gauges/latency state behind ``GET /metrics``."""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        reservoir: int = 2048,
        rate_window_seconds: float = 10.0,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self._latency = LatencyReservoir(reservoir)
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._labels: Dict[str, str] = {}
        self._rate_window = float(rate_window_seconds)
        self._completions: deque = deque()

    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def set_label(self, name: str, value: str) -> None:
        """A string-valued readout (e.g. the breaker state)."""
        with self._lock:
            self._labels[name] = str(value)

    def observe_latency(self, seconds: float) -> None:
        """Record one *completed* request: latency + rate bookkeeping."""
        now = self._clock()
        with self._lock:
            self._latency.observe(seconds)
            self._completions.append(now)
            cutoff = now - self._rate_window
            while self._completions and self._completions[0] < cutoff:
                self._completions.popleft()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-ready view of the whole serving state."""
        now = self._clock()
        with self._lock:
            uptime = max(now - self._started, 1e-9)
            window = min(self._rate_window, uptime)
            quantiles = self._latency.quantiles((0.5, 0.99))
            completed = self._latency.count
            payload = {
                "uptime_seconds": round(uptime, 3),
                "requests_per_second": round(completed / uptime, 3),
                "recent_requests_per_second": round(
                    len(self._completions) / max(window, 1e-9), 3
                ),
                "latency_ms": {
                    "p50": round(quantiles[0.5] * 1e3, 3),
                    "p99": round(quantiles[0.99] * 1e3, 3),
                    "completed": completed,
                },
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "labels": dict(self._labels),
            }
        return payload

    def p99_ms(self) -> Optional[float]:
        """Recent p99 latency in ms, or None before any completion
        (the degradation policy's input)."""
        with self._lock:
            if self._latency.count == 0:
                return None
            return self._latency.quantiles((0.99,))[0.99] * 1e3
