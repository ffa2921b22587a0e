"""Pluggable simulation engines for timestep-unrolled SNN execution.

The paper's central claim is that event-driven, sparsity-exploiting
execution is what makes the accelerator fast: per timestep the hardware
only pays for kernel-row segments that actually carry spikes.  This
package structures SNN execution as an engine layer with four backends
behind one :class:`SimulationEngine` interface:

``DenseEngine`` (:mod:`repro.snn.engines.dense`)
    The reference backend: one dense forward pass of the converted
    model per timestep (exactly the old ``SpikingNetwork`` behaviour).

``SparseEventEngine`` (:mod:`repro.snn.engines.event`)
    Propagates only active spike events; conv/linear cost scales with
    spike rate, mirroring the paper's aggregation core.

``TimeBatchedEngine`` (:mod:`repro.snn.engines.batched`)
    The wall-clock backend: layer-outer/time-inner execution, one GEMM
    per stateless layer over a ``(T*N, ...)`` stack.

``AutoEngine`` (:mod:`repro.snn.engines.auto`)
    The adaptive backend: profiles a calibration run (per-layer wall
    clock + observed density) and compiles a cached per-layer plan —
    batched GEMM where dense arithmetic wins, the COO row-subset kernel
    where the measured sparsity pays, the same measure-then-specialise
    loop the paper's mapper applies in hardware.  Both kernels compute
    the same floats, so every plan is bitwise equal to the batched
    engine.

All engines run the *same* module graph — backends install
per-instance forward interceptors for the duration of a run — so
arbitrary models (VGG chains, ResNet residual graphs) work identically
on any backend, and their logits agree up to float summation order.
Every run produces a :class:`repro.snn.stats.RunStats` with per-layer
spike rates, performed-vs-dense synaptic-op counts and (when
``profile_layers`` is on, the default) per-layer wall clock and input
density — rendered by ``RunStats.profile_table()``.

One engine run is one datapath, like the paper's SIA running one
inference.  The only in-process parallelism is block lanes: the
time-stacked engines run a large call's sample blocks concurrently,
one lane per usable core (:mod:`repro.snn.engines.lanes`),
bit-identical to running them one after another.  ``dense`` and
``event`` use every core through multi-threaded BLAS instead.  The
supervisor in :mod:`repro.snn.engines.sharding` parallelises campaign
grid points, not engine runs.
"""

from __future__ import annotations

from typing import Union

from repro.snn.engines.auto import (
    AutoEngine,
    DENSITY_BUCKET_EDGES,
    ExecutionPlan,
    LayerDecision,
    PLAN_CACHE_CAPACITY,
    density_bucket,
)
from repro.snn.engines.base import (
    EngineRun,
    LRUCache,
    SimulationEngine,
    WEIGHT_CACHE_CAPACITY,
    _dense_op_count,
    _effective_weight,
)
from repro.snn.engines.batched import TimeBatchedEngine
from repro.snn.engines.costmodel import (
    CostModel,
    cost_model_path_for,
    sparse_feature_ops,
)
from repro.snn.engines.dense import DenseEngine, dense_conv2d
from repro.snn.engines.event import (
    SparseEventEngine,
    conv_active_windows,
    pooled_coords,
    sparse_conv2d,
    sparse_linear,
)
from repro.snn.engines.event_batched import EventBatchedEngine
from repro.snn.engines.profiling import profiled_call
from repro.snn.engines.service import (
    EngineWorker,
    ProbeResult,
    WorkerTimeout,
)
from repro.snn.engines.sharding import (
    DEFAULT_SHARD_POLICY,
    SHARD_MODES,
    ShardExecutionError,
    ShardFailure,
    ShardPolicy,
    SupervisedOutcome,
    clone_for_inference,
    fork_available,
    resolve_shard_mode,
    run_supervised,
    split_bounds,
)

# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
ENGINES = {
    "dense": DenseEngine,
    "event": SparseEventEngine,
    "sparse": SparseEventEngine,  # alias
    "batched": TimeBatchedEngine,
    "time-batched": TimeBatchedEngine,  # alias
    "event-batched": EventBatchedEngine,
    "coo": EventBatchedEngine,  # alias
    "auto": AutoEngine,
    "adaptive": AutoEngine,  # alias
}

EngineSpec = Union[str, SimulationEngine]


def make_engine(spec: EngineSpec = "dense") -> SimulationEngine:
    """Resolve an engine name or pass an instance through."""
    if isinstance(spec, SimulationEngine):
        return spec
    if isinstance(spec, str):
        try:
            return ENGINES[spec.lower()]()
        except KeyError:
            raise ValueError(
                f"unknown engine {spec!r}; choose from {sorted(set(ENGINES))}"
            ) from None
    raise TypeError(f"engine must be a name or SimulationEngine, got {type(spec)!r}")


__all__ = [
    "AutoEngine",
    "CostModel",
    "DENSITY_BUCKET_EDGES",
    "DenseEngine",
    "ENGINES",
    "EngineRun",
    "EngineSpec",
    "EngineWorker",
    "ProbeResult",
    "WorkerTimeout",
    "EventBatchedEngine",
    "ExecutionPlan",
    "LRUCache",
    "LayerDecision",
    "PLAN_CACHE_CAPACITY",
    "DEFAULT_SHARD_POLICY",
    "SHARD_MODES",
    "ShardExecutionError",
    "ShardFailure",
    "ShardPolicy",
    "SimulationEngine",
    "SparseEventEngine",
    "SupervisedOutcome",
    "TimeBatchedEngine",
    "WEIGHT_CACHE_CAPACITY",
    "clone_for_inference",
    "run_supervised",
    "split_bounds",
    "conv_active_windows",
    "cost_model_path_for",
    "dense_conv2d",
    "density_bucket",
    "fork_available",
    "make_engine",
    "pooled_coords",
    "profiled_call",
    "resolve_shard_mode",
    "sparse_feature_ops",
    "sparse_linear",
    "sparse_conv2d",
]
