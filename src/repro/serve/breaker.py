"""Circuit breaker around the warm engine worker.

When the execution substrate starts failing — consecutive engine
errors, engine-worker hang timeouts — continuing to
queue work onto it makes everything worse: every queued request rides
the failure to its own deadline, and the backlog grows while the
substrate thrashes.  The breaker converts that cascade into fast,
honest failure:

* **closed** — normal operation.  ``failure_threshold`` *consecutive*
  dispatch failures trip it open (one success resets the count, so a
  healthy substrate with occasional faults never trips).
* **open** — every request is rejected immediately (HTTP 503 +
  ``Retry-After``) without touching the worker, for ``reset_timeout``
  seconds.  Fast-fail is the point: clients get an answer in
  microseconds instead of a queue slot on a dying substrate.
* **half-open** — after the cooldown, exactly one probe dispatch is
  admitted.  The probe is a real request through the worker (on a slot
  rebuilt after a hang), so "the probe succeeded" means the engine
  completed real work, not merely that a socket opened.  Success
  closes the breaker; failure reopens it for another cooldown.

Transitions are logged, counted, and exported through the shared
metrics (``breaker_state`` label, ``breaker_trips`` /
``breaker_fast_fails`` counters), because a breaker that flips
silently is a debugging session waiting to happen.  All methods are
thread-safe; the batcher drives it from the event loop but probes and
tests may poke it from worker threads.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Optional, Tuple

logger = logging.getLogger(__name__)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing.

    Parameters
    ----------
    failure_threshold:
        Consecutive dispatch failures that trip the breaker open.
    reset_timeout:
        Seconds the breaker stays open before admitting a probe.
    clock:
        Injectable monotonic clock (tests step it manually).
    on_transition:
        ``fn(old_state, new_state, reason)`` callback — the serving app
        wires this to logging + metrics.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self.trips = 0        # closed/half-open -> open transitions
        self.recoveries = 0   # half-open -> closed transitions

    # ------------------------------------------------------------------
    def _transition(self, new_state: str, reason: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        if new_state == OPEN:
            self.trips += 1
            self._opened_at = self._clock()
        if new_state == CLOSED and old == HALF_OPEN:
            self.recoveries += 1
        logger.warning("circuit breaker %s -> %s: %s", old, new_state, reason)
        if self._on_transition is not None:
            self._on_transition(old, new_state, reason)

    def _roll_open_to_half_open(self) -> None:
        """Open + cooldown elapsed => half-open (lock held)."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._probe_inflight = False
            self._transition(HALF_OPEN, "reset timeout elapsed; admitting a probe")

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._roll_open_to_half_open()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def retry_after(self) -> float:
        """Seconds until the next probe could be admitted (>= 0)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(
                self.reset_timeout - (self._clock() - self._opened_at), 0.0
            )

    # ------------------------------------------------------------------
    def allow_request(self) -> Tuple[bool, float]:
        """Admission gate: may a new request enter the queue?

        Returns ``(allowed, retry_after_seconds)``.  Open rejects with
        the remaining cooldown; half-open admits requests (one of them
        will become the probe at dispatch; the rest wait behind it).
        """
        with self._lock:
            self._roll_open_to_half_open()
            if self._state == OPEN:
                return False, max(
                    self.reset_timeout - (self._clock() - self._opened_at), 0.0
                )
            return True, 0.0

    def before_dispatch(self) -> Optional[str]:
        """Dispatch gate: ``"normal"``, ``"probe"`` or ``None`` (hold).

        Called by the batcher immediately before running a batch.
        Half-open grants exactly one in-flight probe; further batches
        hold (``None``) until the probe resolves.  Open returns
        ``None`` — entries that were already queued when the breaker
        tripped are fast-failed by the batcher rather than dispatched.
        """
        with self._lock:
            self._roll_open_to_half_open()
            if self._state == CLOSED:
                return "normal"
            if self._state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return "probe"
            return None

    def record_success(self, probe: bool = False) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probe_inflight = False
                self._transition(CLOSED, "half-open probe succeeded")

    def record_failure(self, probe: bool = False, reason: str = "") -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._probe_inflight = False
                self._opened_at = self._clock()
                self._transition(
                    OPEN, f"half-open probe failed ({reason or 'dispatch error'})"
                )
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(
                    OPEN,
                    f"{self._consecutive_failures} consecutive dispatch "
                    f"failure(s) ({reason or 'dispatch error'})",
                )
