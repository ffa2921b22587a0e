"""Supervised batch sharding across forked processes or a thread pool.

``SimulationEngine.run(workers=K)`` splits the batch into contiguous
shards and runs them in parallel.  Two substrates are available:

``fork``
    The classic path: worker processes forked from the parent inherit
    the engine, model weights and input batch copy-on-write, so nothing
    is pickled.  Only available where the platform has the ``fork``
    start method (not Windows, not some embedded interpreters).

``thread``
    A thread pool.  Each shard gets a *sibling* engine (same
    configuration, shared thread-safe cross-run caches) bound to a
    structural clone of the model that shares every parameter and
    buffer array but owns its own module objects — so concurrent shards
    never race on interceptors, membrane state or spike counters.  The
    hot work is BLAS GEMMs and large-array ufuncs, which release the
    GIL, so threads parallelise the same way fork does and work
    everywhere fork does not.

``resolve_shard_mode("auto")`` picks fork where available and threads
otherwise, so ``workers=K`` never silently degrades to sequential
execution.

Every parallel shard runs under a **supervisor** (:func:`run_supervised`):

* a shard that raises comes back as a structured :class:`ShardFailure`
  instead of tearing down the whole run;
* a shard that hangs past :attr:`ShardPolicy.timeout` is detected
  (``apply_async`` handles collected against a deadline), the wedged
  pool is torn down, and the shard is treated as failed;
* failed shards — and only the failed shards — are retried up to
  :attr:`ShardPolicy.retries` times with exponential backoff, then the
  run degrades down the substrate chain ``fork -> thread -> serial``.
  A shard is the same ``_run_blocked`` over the same contiguous slice
  (the same sample blocks) with the same kernels on every substrate,
  so a degraded re-run produces bit-identical logits.

Only when the serial fallback itself fails does the supervisor raise
(:class:`ShardExecutionError`, carrying every recorded failure).  The
failure trail and the degraded substrate land on
``RunStats.shard_failures`` / ``RunStats.degraded_shard_mode`` and one
``WARNING`` log line.

The supervisor is deliberately generic — tasks are ``fn(index)``
callables, not engine shards — so the campaign runner
(:mod:`repro.eval.campaign`) fans its grid points over the same
substrate with the same failure semantics.
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

    The one splitting rule whole-batch shards in
    :meth:`SimulationEngine.run` use, so a degraded re-run always
    re-executes the exact same slices.
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
                "use shard_mode='thread' (or 'auto')"
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
    of shards gets; all shards of a wave start together, so a shard
    still unfinished at the deadline is hung and its substrate is torn
    down.  ``None`` disables hang detection (a clean run is never
    interrupted).  ``retries`` is the number of *extra* attempts the
    failed shards get on each substrate before the supervisor degrades
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
    """One failed attempt of one supervised task (shard or grid point).

    ``kind`` is ``"exception"`` (the task raised; ``error`` carries the
    exception's type and message) or ``"timeout"`` (the task was still
    running at the attempt deadline).  Instances are plain picklable
    data so they ride back from fork children and onto merged
    :class:`repro.snn.stats.RunStats` untouched.
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
                # The deadline already fell: harvest shards that did
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
    executor_factory: Callable[[int], ThreadPoolExecutor],
    executor_discard: Callable[[], None],
) -> Dict[int, Tuple[str, object]]:
    pool = executor_factory(len(indices))
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
    if breached:
        # A thread cannot be killed: the hung worker keeps occupying its
        # pool slot, so the pool itself is abandoned and the owner told
        # to build a fresh one for any further attempt.
        executor_discard()
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
    fork_fn: Optional[Callable[[int], object]] = None,
    thread_fn: Optional[Callable[[int], object]] = None,
    thread_prepare: Optional[Callable[[], None]] = None,
    thread_executor_factory: Optional[Callable[[int], ThreadPoolExecutor]] = None,
    thread_executor_discard: Optional[Callable[[], None]] = None,
    label: str = "shard",
) -> SupervisedOutcome:
    """Run ``count`` independent tasks on substrate ``mode`` under
    supervision: per-task failure capture, attempt deadlines, bounded
    retries with backoff, and the fork->thread->serial degradation
    chain re-running only the failed tasks.

    ``serial_fn`` is the canonical task body and the fallback of last
    resort; ``fork_fn``/``thread_fn`` default to it (fork children
    inherit the closure copy-on-write, threads call it directly).
    ``thread_prepare`` runs once before each thread attempt — the place
    to build per-task thread peers.  ``thread_executor_factory`` lets a
    caller lend a cached pool; ``thread_executor_discard`` is invoked
    when a hang poisons that pool.  Raises :class:`ShardExecutionError`
    only when a task failed on every substrate in the chain.
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
    fork_fn = serial_fn if fork_fn is None else fork_fn
    thread_fn = serial_fn if thread_fn is None else thread_fn

    owned_pools: List[ThreadPoolExecutor] = []
    if thread_executor_factory is None:
        def thread_executor_factory(n: int) -> ThreadPoolExecutor:
            # A fresh pool per attempt: a breached attempt's hung
            # workers stay stranded in their old pool, which the exit
            # path below abandons without waiting.
            pool = ThreadPoolExecutor(
                max_workers=n, thread_name_prefix=f"{label}-supervised"
            )
            owned_pools.append(pool)
            return pool

    if thread_executor_discard is None:
        def thread_executor_discard() -> None:
            pass  # owned pools are shut down on exit below

    results: List = [None] * count
    failures: List[ShardFailure] = []
    pending = list(range(count))
    completed_mode = mode
    try:
        for substrate in DEGRADATION_CHAIN[mode]:
            attempts = 1 + max(policy.retries, 0)
            for attempt in range(1, attempts + 1):
                if attempt > 1 and policy.backoff > 0:
                    time.sleep(policy.backoff * (2 ** (attempt - 2)))
                if substrate == "fork":
                    outcomes = _attempt_fork(fork_fn, pending, policy.timeout)
                elif substrate == "thread":
                    if thread_prepare is not None:
                        thread_prepare()
                    outcomes = _attempt_thread(
                        thread_fn,
                        pending,
                        policy.timeout,
                        thread_executor_factory,
                        thread_executor_discard,
                    )
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
    finally:
        for pool in owned_pools:
            pool.shutdown(wait=False)
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
# Thread sharding
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


def _peers_stale(engine, peers) -> bool:
    """Detect model changes the weight-sharing clones cannot mirror.

    Shared Parameter objects track ``param.data`` rebinds for free, but
    a rebound *buffer* (``load_state_dict`` on BN running stats) or a
    train/eval flip only lands on the original modules — either one
    means the cached clones must be rebuilt.
    """
    for peer in peers:
        if peer.model is None or peer.model.training != engine.model.training:
            return True
        for (_, original), (_, cloned) in zip(
            engine.model.named_buffers(), peer.model.named_buffers()
        ):
            if original is not cloned:
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


def _thread_pool_for(engine, count: int) -> ThreadPoolExecutor:
    """One long-lived pool per engine, grown when more shards appear.

    Persistent worker threads keep their thread-local im2col pad
    workspaces warm across runs; Python's executor machinery drains and
    joins the threads at interpreter exit.
    """
    if engine._thread_pool is None or engine._thread_pool_size < count:
        if engine._thread_pool is not None:
            engine._thread_pool.shutdown(wait=False)
        engine._thread_pool = ThreadPoolExecutor(
            max_workers=count, thread_name_prefix="snn-shard"
        )
        engine._thread_pool_size = count
    return engine._thread_pool


def _discard_thread_pool(engine) -> None:
    """Abandon the engine's cached pool after a hang poisoned it.

    The wedged worker thread cannot be joined; the executor is shut
    down without waiting (its threads die with the process) and the
    cache cleared so the next thread attempt gets fresh workers.
    """
    if engine._thread_pool is not None:
        engine._thread_pool.shutdown(wait=False)
    engine._thread_pool = None
    engine._thread_pool_size = 0


# ----------------------------------------------------------------------
def run_batch_shards(
    engine,
    x,
    timesteps: int,
    per_step: bool,
    bounds: List[Tuple[int, int]],
    mode: str,
    policy: Optional[ShardPolicy] = None,
) -> SupervisedOutcome:
    """Run contiguous batch shards in parallel on the resolved substrate.

    ``mode`` must already be resolved (``"fork"`` or ``"thread"``).
    Every substrate — including a supervised degradation re-run —
    produces the same per-shard results and merged statistics: a shard
    is the same ``_run_blocked`` on the same contiguous slice with the
    same kernels, so it runs its slice as the same sample blocks.  A
    shard runs its blocks serially, never in lanes: the shards already
    own the cores.
    """
    if len(bounds) <= 1:
        runs = [
            engine._run_blocked(x[lo:hi], timesteps, per_step, lanes=False)
            for lo, hi in bounds
        ]
        return SupervisedOutcome(
            results=runs, requested_mode=mode, completed_mode=mode
        )

    def serial_fn(index: int):
        lo, hi = bounds[index]
        return engine._run_blocked(x[lo:hi], timesteps, per_step, lanes=False)

    # Thread shards run on per-shard sibling engines over model clones
    # so concurrent shards never race on module state.  The peers are
    # built lazily (a fork-first run only pays for clones if it actually
    # degrades to threads) and indexed by shard, so a retry wave of only
    # the failed shards still lands on each shard's own peer.
    peers_box: List[List] = []

    def thread_prepare() -> None:
        peers_box[:] = [_thread_peers_for(engine, len(bounds))]

    def thread_fn(index: int):
        lo, hi = bounds[index]
        return peers_box[0][index]._run_blocked(
            x[lo:hi], timesteps, per_step, lanes=False
        )

    return run_supervised(
        count=len(bounds),
        mode=mode,
        policy=policy,
        serial_fn=serial_fn,
        thread_fn=thread_fn,
        thread_prepare=thread_prepare,
        thread_executor_factory=lambda n: _thread_pool_for(engine, n),
        thread_executor_discard=lambda: _discard_thread_pool(engine),
        label="batch-shard",
    )

