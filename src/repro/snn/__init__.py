"""Spiking runtime: neurons, ANN->SNN conversion and the spiking executor.

Implements the paper's conversion step (Fig. 1, right): every
:class:`repro.nn.QuantReLU` in a fine-tuned network is replaced in-place
by an integrate-and-fire neuron whose firing threshold is the learned
step size and whose membrane potential starts at threshold/2 (the QCFS
optimum), using reset-by-subtraction.  The resulting stateful network is
run for T timesteps by :class:`SpikingNetwork` on a pluggable
:mod:`repro.snn.engines` backend — ``"dense"`` (reference per-timestep
recompute), ``"event"`` (sparse event propagation whose cost scales
with spike rate, like the paper's hardware), ``"batched"``
(layer-sequential time batching: one big GEMM per stateless layer over
all T timesteps), ``"event-batched"`` (the time-batched schedule with
COO-native gathers: one row-subset GEMM per layer covering all T
timesteps, bitwise identical to ``"batched"`` and faster at low input
density) or ``"auto"`` (profiles a calibration run and compiles a
cached per-layer GEMM/event-batched plan, bitwise equal to
``"batched"``).  The time-stacked backends run a large batch as sample
blocks in lanes, one per usable core.
"""

from repro.snn.dynamics import (
    ResetMode,
    initial_membrane,
    multiplicative_leak,
    neuron_step,
    shift_leak,
)
from repro.snn.neurons import IFNeuron, LIFNeuron
from repro.snn.convert import convert_to_snn, spiking_layers
from repro.snn.spikes import SpikeStream, SpikeTrace, StepSpikes
from repro.snn.stats import LayerStats, RunStats
from repro.snn.engines import (
    AutoEngine,
    DenseEngine,
    EventBatchedEngine,
    SimulationEngine,
    SparseEventEngine,
    TimeBatchedEngine,
    make_engine,
)
from repro.snn.network import SpikingNetwork
from repro.snn.metrics import SpikeStats, collect_spike_stats
from repro.snn.surrogate import (
    SurrogateIFLayer,
    SurrogateSNN,
    evaluate_surrogate_snn,
    spike_with_surrogate,
    train_surrogate_snn,
)
from repro.snn.analysis import (
    conversion_error_curve,
    layerwise_rate_error,
    threshold_sweep,
)

__all__ = [
    "SurrogateIFLayer",
    "SurrogateSNN",
    "spike_with_surrogate",
    "train_surrogate_snn",
    "evaluate_surrogate_snn",
    "layerwise_rate_error",
    "conversion_error_curve",
    "threshold_sweep",
    "IFNeuron",
    "LIFNeuron",
    "ResetMode",
    "neuron_step",
    "initial_membrane",
    "multiplicative_leak",
    "shift_leak",
    "convert_to_snn",
    "spiking_layers",
    "SpikingNetwork",
    "SimulationEngine",
    "AutoEngine",
    "DenseEngine",
    "EventBatchedEngine",
    "SparseEventEngine",
    "TimeBatchedEngine",
    "make_engine",
    "LayerStats",
    "RunStats",
    "SpikeStream",
    "SpikeTrace",
    "StepSpikes",
    "SpikeStats",
    "collect_spike_stats",
]
