"""Backward-compatible facade over :mod:`repro.snn.engines`.

The engine layer grew from one 800-line module into the
``repro.snn.engines`` package (``base`` / ``dense`` / ``event`` /
``batched`` / ``event_batched`` plus the ``profiling`` and ``sharding``
infrastructure).  Every public name that ever lived here keeps
importing from this module unchanged::

    from repro.snn.engine import DenseEngine, SparseEventEngine, TimeBatchedEngine
    from repro.snn.engine import make_engine, sparse_conv2d, sparse_linear

New code should import from :mod:`repro.snn.engines` directly.
"""

from __future__ import annotations

from repro.snn.engines import (
    DenseEngine,
    ENGINES,
    conv_active_windows,
    pooled_coords,
    EngineRun,
    EngineSpec,
    LRUCache,
    SHARD_MODES,
    SimulationEngine,
    SparseEventEngine,
    TimeBatchedEngine,
    WEIGHT_CACHE_CAPACITY,
    clone_for_inference,
    dense_conv2d,
    fork_available,
    make_engine,
    profiled_call,
    resolve_shard_mode,
    sparse_conv2d,
    sparse_linear,
)
from repro.snn.engines.base import _dense_op_count, _effective_weight

__all__ = [
    "DenseEngine",
    "ENGINES",
    "EngineRun",
    "EngineSpec",
    "LRUCache",
    "SHARD_MODES",
    "SimulationEngine",
    "SparseEventEngine",
    "TimeBatchedEngine",
    "WEIGHT_CACHE_CAPACITY",
    "clone_for_inference",
    "conv_active_windows",
    "dense_conv2d",
    "fork_available",
    "make_engine",
    "pooled_coords",
    "profiled_call",
    "resolve_shard_mode",
    "sparse_conv2d",
    "sparse_linear",
]
