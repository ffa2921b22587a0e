"""Backward-compatible facade over :mod:`repro.snn.engines`.

The engine layer grew from one 800-line module into the
``repro.snn.engines`` package (``base`` / ``dense`` / ``batched`` /
``event_batched`` / ``kernels`` plus the ``profiling`` and ``lanes``
infrastructure).  The public names of the surviving engines keep
importing from this module::

    from repro.snn.engine import DenseEngine, TimeBatchedEngine, make_engine

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
    SimulationEngine,
    TimeBatchedEngine,
    WEIGHT_CACHE_CAPACITY,
    clone_for_inference,
    dense_conv2d,
    make_engine,
    profiled_call,
)
from repro.snn.engines.base import _dense_op_count, _effective_weight

__all__ = [
    "DenseEngine",
    "ENGINES",
    "EngineRun",
    "EngineSpec",
    "LRUCache",
    "SimulationEngine",
    "TimeBatchedEngine",
    "WEIGHT_CACHE_CAPACITY",
    "clone_for_inference",
    "conv_active_windows",
    "dense_conv2d",
    "make_engine",
    "pooled_coords",
    "profiled_call",
]
