"""Supervised campaign points: forked waves, deadlines, retries.

:func:`run_supervised` runs ``count`` independent tasks ``fn(index)``
with at most ``workers`` of them in flight:

* ``workers == 1`` without a deadline runs them serially, in the
  calling process;
* ``workers > 1``, or any ``workers`` with a :attr:`ShardPolicy.timeout`,
  runs them as forked *waves* of at most ``workers`` processes, because
  only a process can be killed when it hangs.  Children inherit the
  task closure copy-on-write, so nothing but the index and the result
  is pickled;
* on a platform without the ``fork`` start method they run serially,
  and one warning says so (and that a deadline cannot hold).

Every attempt runs under a **supervisor**:

* a task that raises comes back as a structured :class:`ShardFailure`
  instead of tearing down the whole wave;
* a task still running :attr:`ShardPolicy.timeout` seconds after its
  wave started is hung: the wave's processes are terminated and the
  task is treated as failed;
* failed tasks — and only those — are retried up to
  :attr:`ShardPolicy.retries` times with exponential backoff, then
  degrade ``fork -> serial``; a task that timed out is not re-run
  serially, where nothing could stop it hanging.

When a task failed on every substrate it may run on, the supervisor
raises (:class:`ShardExecutionError`, carrying every recorded failure)
after the other tasks finished.  Fork is the one parallel substrate
because only a process can be killed when it hangs.  The campaign
runner (:mod:`repro.eval.campaign`) fans its grid points out this way;
engine runs are not supervised (their only in-process parallelism is
block lanes, :mod:`repro.snn.engines.lanes`).
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Supervision policy and failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPolicy:
    """Failure-handling knobs for supervised tasks.

    ``timeout`` is the wall-clock budget (seconds) each wave of at most
    ``workers`` tasks gets; all tasks of a wave start together, so a
    task still unfinished at the deadline is hung and its wave's
    processes are terminated.  ``None`` disables hang detection (a
    clean run is never interrupted).  Serial runs have no deadline, so
    a timeout runs every attempt on fork, and a task that timed out is
    never re-run serially.  ``retries`` is the number of *extra*
    attempts the failed tasks get on each substrate before the
    supervisor degrades to the next one; ``backoff`` seconds are slept
    before the first retry and doubled for each further one (transient
    failures — memory pressure, a crashed child — often clear after a
    beat).
    """

    timeout: Optional[float] = None
    retries: int = 1
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None to disable)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")


DEFAULT_SHARD_POLICY = ShardPolicy()


@dataclass(frozen=True)
class ShardFailure:
    """One failed attempt of one supervised task (a campaign grid point).

    ``kind`` is ``"exception"`` (the task raised; ``error`` carries the
    exception's type and message) or ``"timeout"`` (the task was still
    running at the attempt deadline).  Instances are plain picklable
    data.
    """

    index: int
    mode: str       # substrate that failed: "fork" | "serial"
    attempt: int    # 1-based attempt number within that substrate
    kind: str       # "exception" | "timeout"
    error: str = ""

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)


class ShardExecutionError(RuntimeError):
    """Some task failed on every substrate it may run on: fork and
    serial, or fork alone once it timed out."""

    def __init__(self, label: str, failures: Sequence[ShardFailure]) -> None:
        self.failures = list(failures)
        last = self.failures[-1] if self.failures else None
        detail = f"; last: {last.kind} ({last.error})" if last else ""
        super().__init__(
            f"{label}: {len(self.failures)} failure(s) exhausted the "
            f"fork->serial degradation chain{detail}"
        )


@dataclass
class SupervisedOutcome:
    """Results plus the failure trail of one supervised run."""

    results: List
    failures: List[ShardFailure] = field(default_factory=list)
    requested_mode: str = "serial"
    completed_mode: str = "serial"

    @property
    def degraded_mode(self) -> str:
        """The substrate that finished the work when it is not the one
        requested (``""`` for a run that never degraded)."""
        if self.completed_mode != self.requested_mode:
            return self.completed_mode
        return ""


# ----------------------------------------------------------------------
# Per-substrate attempt primitives.  Each returns {index: (tag, value)}
# where tag is "ok" (value = task result), "exception" (value = message)
# or "timeout" (value = "").
# ----------------------------------------------------------------------
# The fork task, published immediately before a wave forks so children
# inherit the closure — point function, model, data — copy-on-write.
# Only the integer index and the result cross the pickle boundary.
_FORK_TASK: Optional[Callable[[int], object]] = None


def _fork_probe(index: int):
    """Child-side wrapper: exceptions become values, never pool crashes."""
    try:
        return ("ok", _FORK_TASK(index))
    except Exception as error:  # noqa: BLE001 - structured capture by design
        return ("exception", f"{type(error).__name__}: {error}")


def _attempt_fork(
    fn: Callable[[int], object],
    indices: Sequence[int],
    timeout: Optional[float],
    workers: int,
) -> Dict[int, Tuple[str, object]]:
    """Run ``indices`` as forked waves of at most ``workers`` tasks."""
    outcomes: Dict[int, Tuple[str, object]] = {}
    for start in range(0, len(indices), workers):
        outcomes.update(_fork_wave(fn, indices[start : start + workers], timeout))
    return outcomes


def _fork_wave(
    fn: Callable[[int], object],
    indices: Sequence[int],
    timeout: Optional[float],
) -> Dict[int, Tuple[str, object]]:
    global _FORK_TASK
    context = multiprocessing.get_context("fork")
    _FORK_TASK = fn
    outcomes: Dict[int, Tuple[str, object]] = {}
    pool = context.Pool(processes=len(indices))
    try:
        handles = {i: pool.apply_async(_fork_probe, (i,)) for i in indices}
        deadline = None if timeout is None else time.monotonic() + timeout
        breached = False
        for i, handle in handles.items():
            if breached:
                # The deadline already fell: harvest tasks that did
                # finish, mark the rest hung — no further waiting.
                if handle.ready():
                    outcomes[i] = _harvest_fork(handle, 0.0)
                else:
                    outcomes[i] = ("timeout", "")
                continue
            remaining = (
                None if deadline is None else max(deadline - time.monotonic(), 0.0)
            )
            outcomes[i] = _harvest_fork(handle, remaining)
            if outcomes[i][0] == "timeout":
                breached = True
        return outcomes
    finally:
        _FORK_TASK = None
        # terminate(), not close(): a hung worker never drains a close,
        # and even on the clean path the children are throwaway.
        pool.terminate()
        pool.join()


def _harvest_fork(handle, timeout: Optional[float]) -> Tuple[str, object]:
    try:
        return handle.get(timeout)
    except multiprocessing.TimeoutError:
        return ("timeout", "")
    except Exception as error:  # noqa: BLE001 - pool plumbing (pickling, crash)
        return ("exception", f"{type(error).__name__}: {error}")


def _attempt_serial(
    fn: Callable[[int], object], indices: Sequence[int]
) -> Dict[int, Tuple[str, object]]:
    outcomes: Dict[int, Tuple[str, object]] = {}
    for i in indices:
        try:
            outcomes[i] = ("ok", fn(i))
        except Exception as error:  # noqa: BLE001 - structured capture by design
            outcomes[i] = ("exception", f"{type(error).__name__}: {error}")
    return outcomes


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
def run_supervised(
    count: int,
    serial_fn: Callable[[int], object],
    policy: Optional[ShardPolicy] = None,
    workers: int = 1,
    label: str = "shard",
) -> SupervisedOutcome:
    """Run ``count`` independent tasks, at most ``workers`` at a time,
    under supervision: per-task failure capture, wave deadlines,
    bounded retries with backoff, and the fork->serial degradation
    chain re-running only the failed tasks that did not time out.

    ``serial_fn`` is the task body on both substrates: fork children
    inherit it copy-on-write, the serial fallback calls it directly.
    Raises :class:`ShardExecutionError` only when a task failed on
    every substrate it may run on.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    policy = DEFAULT_SHARD_POLICY if policy is None else policy
    mode = "serial"
    if count > 0 and (workers > 1 or policy.timeout is not None):
        if fork_available():
            mode = "fork"
        else:
            logger.warning(
                "%s supervisor: the 'fork' start method is unavailable on "
                "this platform; running %d task(s) serially%s%s",
                label,
                count,
                f", not {workers} at a time" if workers > 1 else "",
                f"; the {policy.timeout:g} s deadline cannot hold"
                if policy.timeout is not None else "",
            )
    chain = ("fork", "serial") if mode == "fork" else ("serial",)
    results: List = [None] * count
    failures: List[ShardFailure] = []
    pending = list(range(count))
    hung: List[int] = []
    completed_mode = mode
    for substrate in chain:
        if substrate == "serial":
            # Nothing could stop a task that hung from hanging here.
            timed_out = {f.index for f in failures if f.kind == "timeout"}
            hung = [i for i in pending if i in timed_out]
            pending = [i for i in pending if i not in timed_out]
        if not pending:
            break
        attempts = 1 + policy.retries
        for attempt in range(1, attempts + 1):
            if attempt > 1 and policy.backoff > 0:
                time.sleep(policy.backoff * (2 ** (attempt - 2)))
            if substrate == "fork":
                outcomes = _attempt_fork(serial_fn, pending, policy.timeout, workers)
            else:
                outcomes = _attempt_serial(serial_fn, pending)
            still_pending: List[int] = []
            for i in pending:
                tag, value = outcomes[i]
                if tag == "ok":
                    results[i] = value
                else:
                    failures.append(
                        ShardFailure(
                            index=i,
                            mode=substrate,
                            attempt=attempt,
                            kind=tag,
                            error=str(value),
                        )
                    )
                    still_pending.append(i)
            pending = still_pending
            if not pending:
                break
        completed_mode = substrate
    if pending or hung:
        raise ShardExecutionError(label, failures)
    if failures:
        by_kind = {
            kind: sum(1 for f in failures if f.kind == kind)
            for kind in ("exception", "timeout")
        }
        logger.warning(
            "%s supervisor: %d failure(s) (%d exception, %d timeout) across "
            "%d task(s); recovered on the %r substrate (requested %r)",
            label,
            len(failures),
            by_kind["exception"],
            by_kind["timeout"],
            count,
            completed_mode,
            mode,
        )
    return SupervisedOutcome(
        results=results,
        failures=failures,
        requested_mode=mode,
        completed_mode=completed_mode,
    )
