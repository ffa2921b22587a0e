"""Supervised parallel tasks, and weight-sharing model clones.

:func:`run_supervised` runs ``count`` independent tasks ``fn(index)``
on one of two substrates:

``fork``
    Worker processes forked from the parent inherit the task closure
    copy-on-write, so nothing but the index and the result is pickled.
    Only available where the platform has the ``fork`` start method.

``thread``
    A fresh thread pool per attempt.

``resolve_shard_mode("auto")`` picks fork where available and threads
otherwise.  Every wave runs under a **supervisor**:

* a task that raises comes back as a structured :class:`ShardFailure`
  instead of tearing down the whole wave;
* a task that hangs past :attr:`ShardPolicy.timeout` is detected, its
  substrate torn down (fork) or abandoned (thread), and the task is
  treated as failed;
* failed tasks — and only those — are retried up to
  :attr:`ShardPolicy.retries` times with exponential backoff, then the
  wave degrades down the substrate chain ``fork -> thread -> serial``.

Only when the serial fallback itself fails does the supervisor raise
(:class:`ShardExecutionError`, carrying every recorded failure).  The
campaign runner (:mod:`repro.eval.campaign`) fans its grid points out
this way.  Engine runs do not: their only in-process parallelism is
block lanes (:mod:`repro.snn.engines.lanes`).

The module also holds what lanes and :class:`EngineWorker` restarts
build on: :func:`clone_for_inference` (a structural model clone that
shares every weight array), :func:`_thread_peers_for` (sibling engines
over such clones, cached on the engine until the model changes under
them) and :func:`split_bounds` (the contiguous split rule).
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.nn.module import Module

logger = logging.getLogger(__name__)

SHARD_MODES = ("auto", "fork", "thread")

#: Substrate degradation chains, keyed by the resolved starting mode.
#: ``serial`` is not a user-facing shard mode — it is the supervisor's
#: last resort, always able to run because it is the parent process
#: executing the same kernels inline.
DEGRADATION_CHAIN = {
    "fork": ("fork", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def split_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row bounds splitting ``total`` rows into
    at most ``shards`` near-equal blocks (empty blocks dropped).

    The one splitting rule lanes use to group a call's sample blocks.
    """
    if total < 1 or shards < 1:
        return []
    shards = min(shards, total)
    step, extra = divmod(total, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + step + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def resolve_shard_mode(mode: str) -> str:
    """Normalise a user-facing shard mode to ``"fork"`` or ``"thread"``."""
    if mode == "thread":
        return "thread"
    if mode == "fork":
        if not fork_available():
            raise RuntimeError(
                "the 'fork' start method is unavailable on this platform; "
                "use mode 'thread' (or 'auto')"
            )
        return "fork"
    if mode == "auto":
        return "fork" if fork_available() else "thread"
    raise ValueError(f"unknown shard_mode {mode!r}; choose from {SHARD_MODES}")


# ----------------------------------------------------------------------
# Supervision policy and failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPolicy:
    """Failure-handling knobs for one supervised parallel wave.

    ``timeout`` is the wall-clock budget (seconds) each attempt's wave
    of tasks gets; all tasks of a wave start together, so a task still
    unfinished at the deadline is hung and its substrate is torn down.
    ``None`` disables hang detection (a clean run is never
    interrupted).  ``retries`` is the number of *extra* attempts the
    failed tasks get on each substrate before the supervisor degrades
    to the next one; ``backoff`` seconds are slept before the first
    retry and doubled for each further one (transient failures —
    memory pressure, a crashed child — often clear after a beat).
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
    mode: str       # substrate that failed: "fork" | "thread" | "serial"
    attempt: int    # 1-based attempt number within that substrate
    kind: str       # "exception" | "timeout"
    error: str = ""

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)


class ShardExecutionError(RuntimeError):
    """Every substrate — serial included — failed for some task."""

    def __init__(self, label: str, failures: Sequence[ShardFailure]) -> None:
        self.failures = list(failures)
        last = self.failures[-1] if self.failures else None
        detail = f"; last: {last.kind} ({last.error})" if last else ""
        super().__init__(
            f"{label}: {len(self.failures)} failure(s) exhausted the "
            f"fork->thread->serial degradation chain{detail}"
        )


@dataclass
class SupervisedOutcome:
    """Results plus the failure trail of one supervised wave."""

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
# The fork task, published immediately before the pool forks so children
# inherit the closure — engine, weights, input batch — copy-on-write.
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


def _attempt_thread(
    fn: Callable[[int], object],
    indices: Sequence[int],
    timeout: Optional[float],
    label: str,
) -> Dict[int, Tuple[str, object]]:
    pool = ThreadPoolExecutor(
        max_workers=len(indices), thread_name_prefix=f"{label}-supervised"
    )
    futures = {i: pool.submit(fn, i) for i in indices}
    deadline = None if timeout is None else time.monotonic() + timeout
    breached = False
    outcomes: Dict[int, Tuple[str, object]] = {}
    for i, future in futures.items():
        if breached:
            if future.done():
                outcomes[i] = _harvest_thread(future, 0.0)
            else:
                future.cancel()
                outcomes[i] = ("timeout", "")
            continue
        remaining = (
            None if deadline is None else max(deadline - time.monotonic(), 0.0)
        )
        outcomes[i] = _harvest_thread(future, remaining)
        if outcomes[i][0] == "timeout":
            breached = True
    # A thread cannot be killed: a hung task keeps its worker, which is
    # abandoned with the pool (no waiting); any further attempt gets a
    # fresh pool.
    pool.shutdown(wait=False)
    return outcomes


def _harvest_thread(future, timeout: Optional[float]) -> Tuple[str, object]:
    try:
        return ("ok", future.result(timeout))
    except FutureTimeoutError:
        future.cancel()
        return ("timeout", "")
    except Exception as error:  # noqa: BLE001 - structured capture by design
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
# The generic supervisor
# ----------------------------------------------------------------------
def run_supervised(
    count: int,
    mode: str,
    policy: Optional[ShardPolicy],
    serial_fn: Callable[[int], object],
    label: str = "shard",
) -> SupervisedOutcome:
    """Run ``count`` independent tasks on substrate ``mode`` under
    supervision: per-task failure capture, attempt deadlines, bounded
    retries with backoff, and the fork->thread->serial degradation
    chain re-running only the failed tasks.

    ``serial_fn`` is the task body on every substrate: fork children
    inherit it copy-on-write, threads and the serial fallback call it
    directly.  Raises :class:`ShardExecutionError` only when a task
    failed on every substrate in the chain.
    """
    if mode not in DEGRADATION_CHAIN:
        raise ValueError(
            f"unknown supervised mode {mode!r}; choose from "
            f"{tuple(DEGRADATION_CHAIN)}"
        )
    policy = DEFAULT_SHARD_POLICY if policy is None else policy
    if count == 0:
        return SupervisedOutcome(
            results=[], requested_mode=mode, completed_mode=mode
        )
    results: List = [None] * count
    failures: List[ShardFailure] = []
    pending = list(range(count))
    completed_mode = mode
    for substrate in DEGRADATION_CHAIN[mode]:
        attempts = 1 + max(policy.retries, 0)
        for attempt in range(1, attempts + 1):
            if attempt > 1 and policy.backoff > 0:
                time.sleep(policy.backoff * (2 ** (attempt - 2)))
            if substrate == "fork":
                outcomes = _attempt_fork(serial_fn, pending, policy.timeout)
            elif substrate == "thread":
                outcomes = _attempt_thread(serial_fn, pending, policy.timeout, label)
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
        if not pending:
            completed_mode = substrate
            break
    if pending:
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


# ----------------------------------------------------------------------
# Weight-sharing clones (block lanes, worker restarts)
# ----------------------------------------------------------------------
def clone_for_inference(module: Module) -> Module:
    """Structurally clone a module tree, sharing all parameters/buffers.

    Every :class:`Module` object is fresh (own ``_modules`` /
    ``_parameters`` / ``_buffers`` dicts, own neuron membrane and spike
    counters once it runs), while every Parameter and buffer array is
    the *same object* as the source's — weights are shared, never
    copied, and a training step that rebinds ``param.data`` is visible
    to every clone because the Parameter itself is shared.  Attributes
    that point at child modules (``self.conv1`` and friends) are
    remapped onto the corresponding clones; an installed forward
    interceptor (only present mid-run) is never carried over.
    """
    children = OrderedDict(
        (name, clone_for_inference(child)) for name, child in module._modules.items()
    )
    remap = {
        id(original): children[name]
        for name, original in module._modules.items()
    }
    clone = object.__new__(type(module))
    for key, value in module.__dict__.items():
        if key == "_modules":
            value = children
        elif key in ("_parameters", "_buffers"):
            value = OrderedDict(value)
        elif key == "forward":
            continue
        elif isinstance(value, Module):
            value = remap.get(id(value), value)
        elif isinstance(value, (list, tuple)):
            value = type(value)(remap.get(id(item), item) for item in value)
        object.__setattr__(clone, key, value)
    return clone


#: ``Module.__dict__`` entries :func:`clone_for_inference` rebuilds for
#: the clone instead of sharing them.
_CLONE_OWNED = frozenset({"_modules", "_parameters", "_buffers", "forward"})


def _peers_stale(engine, peers) -> bool:
    """Detect model changes the weight-sharing clones cannot mirror.

    A clone shares every attribute of its source by reference, so a
    change made in place (a ``param.data`` rebind on a shared Parameter,
    an in-place array update) reaches every peer for free.  A *rebind*
    on an original module — a neuron's ``threshold`` scaled, a BN buffer
    replaced by ``load_state_dict``, a train/eval flip, a child swapped
    — lands on the original only, and any one of them means the cached
    clones must be rebuilt.  The per-run state a module names in
    ``RUN_STATE`` (a neuron's membrane and spike counters) belongs to
    each clone and is not compared.
    """
    for peer in peers:
        if peer.model is None:
            return True
        for original, cloned in zip(engine.model.modules(), peer.model.modules()):
            if _clone_diverged(original, cloned):
                return True
    return False


def _clone_diverged(original: Module, cloned: Module) -> bool:
    """Whether ``original`` rebound anything ``cloned`` took from it."""
    if type(original) is not type(cloned):
        return True
    if original._modules.keys() != cloned._modules.keys():
        return True
    # Parameters and buffers are attributes too, so this loop sees them.
    run_state = getattr(original, "RUN_STATE", ())
    copied = cloned.__dict__
    for key, value in original.__dict__.items():
        if key in _CLONE_OWNED or key in run_state or isinstance(value, Module):
            continue  # child modules are compared through _modules
        if key not in copied:
            return True
        if isinstance(value, (list, tuple)):
            # Clones hold a remapped copy of a list or tuple: compare
            # its items, except the child modules in it.
            if len(value) != len(copied[key]) or any(
                item is not other
                for item, other in zip(value, copied[key])
                if not isinstance(item, Module)
            ):
                return True
        elif value is not copied[key]:
            return True
    return False


def _thread_peers_for(engine, count: int) -> List:
    """Sibling engines over model clones, cached on the engine.

    Rebuilding clones per run would defeat the cross-run caches (the
    effective-weight LRU is keyed by module identity, so fresh clone
    ids would miss it every time and fill it with dead entries); the
    peers persist until the bound model changes under them.
    """
    peers = engine._thread_peers.get(count)
    if peers is None or _peers_stale(engine, peers):
        peers = []
        for _ in range(count):
            peer = engine._sibling()
            peer.bind(clone_for_inference(engine.model))
            peers.append(peer)
        engine._thread_peers[count] = peers
    return peers
