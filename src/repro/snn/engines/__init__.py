"""Pluggable simulation engines for timestep-unrolled SNN execution.

The paper's central claim is that event-driven, sparsity-exploiting
execution is what makes the accelerator fast: per timestep the hardware
only pays for kernel-row segments that actually carry spikes.  This
package structures SNN execution as an engine layer with three backends
behind one :class:`SimulationEngine` interface:

``DenseEngine`` (:mod:`repro.snn.engines.dense`)
    The per-step reference: one dense forward pass of the converted
    model per timestep.

``TimeBatchedEngine`` (:mod:`repro.snn.engines.batched`)
    The bitwise GEMM reference: layer-outer/time-inner execution, one
    GEMM per stateless layer over a ``(T*N, ...)`` stack.

``EventBatchedEngine`` (:mod:`repro.snn.engines.event_batched`)
    The time-stacked schedule with COO-native layers, and the default
    (``"auto"`` is its name too).  Like the paper's accelerator, it
    decides each synapse layer's kernel from the spikes that layer
    receives: one deterministic density rule picks the batched GEMM or
    the COO row-subset kernel (:mod:`repro.snn.engines.kernels`) per
    layer and per call, and both compute the same floats, so it is
    bitwise equal to the batched engine.  ``LayerStats.backend_source``
    names the gate that decided.

All engines run the *same* module graph — backends install
per-instance forward interceptors for the duration of a run — so
arbitrary models (VGG chains, ResNet residual graphs) work identically
on any backend, and their logits agree up to float summation order.
Every run produces a :class:`repro.snn.stats.RunStats` with per-layer
spike rates, synaptic-op counts and (when ``profile_layers`` is on, the
default) per-layer wall clock and input density — rendered by
``RunStats.profile_table()``.  Synaptic ops follow the SIA's rule on
every backend (:func:`repro.snn.engines.base.bill_synapse`): each
nonzero input value times its fan-out, whichever kernel ran.

One engine run is one datapath, like the paper's SIA running one
inference.  The only in-process parallelism is block lanes: the
time-stacked engines run a large call's sample blocks concurrently,
one lane per usable core (:mod:`repro.snn.engines.lanes`),
bit-identical to running them one after another.  ``dense`` uses every
core through multi-threaded BLAS instead.  Campaign grid points run in
parallel under the supervisor in :mod:`repro.eval.supervisor`, outside
this package.
"""

from __future__ import annotations

import warnings
from typing import Union

from repro.snn.engines.base import (
    EngineRun,
    LRUCache,
    SimulationEngine,
    WEIGHT_CACHE_CAPACITY,
    _dense_op_count,
    _effective_weight,
    bill_synapse,
)
from repro.snn.engines.batched import TimeBatchedEngine
from repro.snn.engines.dense import DenseEngine, dense_conv2d
from repro.snn.engines.event_batched import EventBatchedEngine
from repro.snn.engines.kernels import conv_active_windows, pooled_coords
from repro.snn.engines.lanes import clone_for_inference, split_bounds
from repro.snn.engines.profiling import profiled_call
from repro.snn.engines.service import (
    EngineWorker,
    ProbeResult,
    WorkerTimeout,
)

# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
ENGINES = {
    "dense": DenseEngine,
    "batched": TimeBatchedEngine,
    "time-batched": TimeBatchedEngine,  # alias
    "event-batched": EventBatchedEngine,
    "coo": EventBatchedEngine,  # alias
    "auto": EventBatchedEngine,  # the default name: the density rule
    "adaptive": EventBatchedEngine,  # alias
    "event": EventBatchedEngine,  # retired engine's name, deprecated
}

#: Retired names that still resolve, to the engine named here, with a
#: DeprecationWarning.
DEPRECATED_NAMES = {"event": "event-batched"}

EngineSpec = Union[str, SimulationEngine]


def make_engine(spec: EngineSpec = "dense") -> SimulationEngine:
    """Resolve an engine name or pass an instance through."""
    if isinstance(spec, SimulationEngine):
        return spec
    if isinstance(spec, str):
        name = spec.lower()
        try:
            engine = ENGINES[name]()
        except KeyError:
            raise ValueError(
                f"unknown engine {spec!r}; choose from {sorted(set(ENGINES))}"
            ) from None
        if name in DEPRECATED_NAMES:
            warnings.warn(
                f"engine {spec!r} is retired; it runs "
                f"{DEPRECATED_NAMES[name]!r} (also named 'auto')",
                DeprecationWarning,
                stacklevel=2,
            )
        return engine
    raise TypeError(f"engine must be a name or SimulationEngine, got {type(spec)!r}")


__all__ = [
    "DenseEngine",
    "ENGINES",
    "EngineRun",
    "EngineSpec",
    "EngineWorker",
    "ProbeResult",
    "WorkerTimeout",
    "EventBatchedEngine",
    "LRUCache",
    "SimulationEngine",
    "TimeBatchedEngine",
    "WEIGHT_CACHE_CAPACITY",
    "bill_synapse",
    "clone_for_inference",
    "split_bounds",
    "conv_active_windows",
    "dense_conv2d",
    "make_engine",
    "pooled_coords",
    "profiled_call",
]
