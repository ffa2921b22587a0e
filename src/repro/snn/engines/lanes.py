"""Block lanes: the sample blocks of one large call, run on every core.

A time-stacked engine runs a call above ``STACK_BLOCK_ROWS`` stack rows
as sample blocks (:meth:`SimulationEngine._run_blocked`).  The blocks
are independent, so on a machine with several usable cores the call's
unchanged block list is split into ``min(blocks, cores)`` contiguous
*lanes*:

* lane 0 runs on the calling thread, on the engine itself;
* every other lane runs on one process-wide pool of ``cores - 1``
  threads, each on a sibling engine bound to a weight-sharing model
  clone (:func:`repro.snn.engines.sharding._thread_peers_for`), so
  concurrent lanes never touch the same module state.  The clones are
  rebuilt when the bound model rebinds anything they share, such as a
  neuron's threshold or a BN buffer;
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
  (another BLAS, or an older OpenBLAS);
* the engine declines (:meth:`SimulationEngine._lanes_ready`): the auto
  engine does until the call's block key has a plan, so a cold call
  still calibrates serially.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple

from repro.snn.engines.sharding import _thread_peers_for, split_bounds

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
    order wins), and the sibling engines' payloads are folded back into
    ``engine`` (:meth:`SimulationEngine._absorb_lanes`) either way.
    """
    groups = [bounds[lo:hi] for lo, hi in split_bounds(len(bounds), lanes)]
    peers = _thread_peers_for(engine, len(groups) - 1)

    def lane(runner, blocks):
        return [runner._run_single(x[lo:hi], timesteps, per_step) for lo, hi in blocks]

    with one_blas_thread(blas_thread_setter()):
        for peer in peers:
            engine._enter_lane(peer)
        pool = _lane_pool(max(usable_cores(), len(groups)) - 1)
        futures = [pool.submit(lane, peer, blocks) for peer, blocks in zip(peers, groups[1:])]
        try:
            runs = lane(engine, groups[0])
        finally:
            wait(futures)
            engine._absorb_lanes(peers)
        for future in futures:
            runs.extend(future.result())
    return runs
