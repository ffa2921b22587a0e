"""Block lanes: the sample blocks of one large call, run on every core.

A time-stacked engine runs a call above ``STACK_BLOCK_ROWS`` stack rows
as sample blocks (:meth:`SimulationEngine._run_blocked`).  The blocks
are independent, so on a machine with several usable cores the call's
unchanged block list is split into ``min(blocks, cores)`` contiguous
*lanes*:

* lane 0 runs on the calling thread, on the engine itself;
* every other lane runs on one process-wide pool of ``cores - 1``
  threads, each on a sibling engine bound to a weight-sharing model
  clone (:func:`_thread_peers_for`), so concurrent lanes never touch
  the same module state.  The clones are rebuilt when the bound model
  rebinds anything they share, such as a neuron's threshold or a BN
  buffer;
* each lane runs its blocks serially, and the runs are joined in batch
  order exactly like serial blocks.

OpenBLAS is pinned to one thread while lanes run, so the lanes split
the cores instead of oversubscribing them.  Most of a block's time is
single-threaded numpy (im2col gathers, BN, the IF step, pooling), which
one lane per core parallelises where BLAS threads could not.  OpenBLAS
splits a GEMM's output between its threads, never a reduction, so a
lane's one-thread GEMMs are bitwise equal to the serial path's
multi-thread ones; ``tests/test_snn_block_lanes.py`` checks logits,
per-step logits, spike and op counts bit for bit.

Blocks run serially, exactly as without lanes, when

* the call forms fewer than 2 blocks, or the process has fewer than 2
  usable cores (``os.sched_getaffinity``);
* the loaded BLAS does not export ``openblas_set_num_threads_local``
  (another BLAS, or an older OpenBLAS).

The module also holds what lanes build on: :func:`split_bounds` (the
contiguous split rule, which also forms a call's sample blocks) and
:func:`clone_for_inference` (a structural model clone that shares every
weight array, which :class:`~repro.snn.engines.service.EngineWorker`
also rebuilds a wedged slot on).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple

from repro.nn.module import Module

#: glibc's ``mallopt`` parameter for the number of malloc arenas.
M_ARENA_MAX = -8


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def blas_thread_setter() -> Optional[Callable[[int], int]]:
    """OpenBLAS's ``openblas_set_num_threads_local``, or None if absent.

    Looked up once, with ``ctypes``, in the OpenBLAS numpy loaded (found
    through ``/proc/self/maps``).  The setter returns the previous
    thread count.  Despite its name it sets OpenBLAS's process-wide
    count (OpenBLAS 0.3.31 as shipped in numpy's wheels), which is why
    :func:`one_blas_thread` holds one pin for all lanes in flight.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            setter = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = ctypes.c_int
            return setter
    return None


def lane_count(blocks: int) -> int:
    """Lanes a call of ``blocks`` sample blocks runs as (1: serial)."""
    if blocks < 2 or blas_thread_setter() is None:
        return 1
    return min(blocks, usable_cores())


# ----------------------------------------------------------------------
# Process-wide state: the lane pool and the BLAS pin.  A forked child
# starts without either (see _after_fork_in_child).
# ----------------------------------------------------------------------
_state_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_pool_size = 0
_arenas_capped = False
_pin_depth = 0
_pin_restore = 0


def _cap_malloc_arenas() -> None:
    """Keep lane threads on glibc's main malloc arena.

    glibc gives each new thread its own arena, and every arena keeps
    the numpy buffers its thread freed.  On a 2-core box the ``frames``
    benchmark's peak RSS was 333 MB serial, 419-430 MB with lanes on
    per-thread arenas and 356 MB with one arena, which is about the
    second lane's block in flight.  Other C libraries are left alone.
    """
    global _arenas_capped
    if _arenas_capped:
        return
    _arenas_capped = True
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return  # not glibc
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def _lane_pool(size: int) -> ThreadPoolExecutor:
    """The process-wide lane pool, grown when more cores appear."""
    global _pool, _pool_size
    with _state_lock:
        if _pool is None or _pool_size < size:
            _cap_malloc_arenas()
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(max_workers=size, thread_name_prefix="snn-lane")
            _pool_size = size
        return _pool


@contextlib.contextmanager
def one_blas_thread(setter: Callable[[int], int]):
    """Pin OpenBLAS to one thread while any lane call is in flight.

    The first call to enter saves the previous count and pins; the
    last to leave restores it, so concurrent lane calls from several
    threads never leave BLAS pinned.
    """
    global _pin_depth, _pin_restore
    with _state_lock:
        if _pin_depth == 0:
            _pin_restore = setter(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _state_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                setter(_pin_restore)


def _after_fork_in_child() -> None:
    # The parent's pool threads do not exist in the child: a child that
    # submitted to the inherited pool would wait forever.  A pin held by
    # another parent thread at fork time has no owner here either.
    global _state_lock, _pool, _pool_size, _pin_depth
    _state_lock = threading.Lock()
    _pool, _pool_size = None, 0
    if _pin_depth:
        _pin_depth = 0
        blas_thread_setter()(_pin_restore)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# ----------------------------------------------------------------------
def split_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row bounds splitting ``total`` rows into
    at most ``shards`` near-equal blocks (empty blocks dropped).

    The one splitting rule: it forms a call's sample blocks
    (``TimeBatchedEngine._sample_blocks``) and groups them into lanes.
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
    interceptor (only present mid-run on the time-outer path) is never
    carried over.
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


# ----------------------------------------------------------------------
def run_lanes(
    engine,
    x,
    timesteps: int,
    per_step: bool,
    bounds: Sequence[Tuple[int, int]],
    lanes: int,
) -> List:
    """Run one call's sample blocks as ``lanes`` concurrent lanes.

    Returns the blocks' :class:`EngineRun` records in batch order.
    Every lane joins before an error propagates (the first in batch
    order wins).
    """
    groups = [bounds[lo:hi] for lo, hi in split_bounds(len(bounds), lanes)]
    peers = _thread_peers_for(engine, len(groups) - 1)

    def lane(runner, blocks):
        return [runner._run_single(x[lo:hi], timesteps, per_step) for lo, hi in blocks]

    with one_blas_thread(blas_thread_setter()):
        pool = _lane_pool(max(usable_cores(), len(groups)) - 1)
        futures = [pool.submit(lane, peer, blocks) for peer, blocks in zip(peers, groups[1:])]
        try:
            runs = lane(engine, groups[0])
        finally:
            wait(futures)
        for future in futures:
            runs.extend(future.result())
    return runs
