"""Spiking runtime: neurons, ANN->SNN conversion and the spiking executor.

Implements the paper's conversion step (Fig. 1, right): every
:class:`repro.nn.QuantReLU` in a fine-tuned network is replaced in-place
by an integrate-and-fire neuron whose firing threshold is the learned
step size and whose membrane potential starts at threshold/2 (the QCFS
optimum), using reset-by-subtraction.  The resulting stateful network is
run for T timesteps by :class:`SpikingNetwork` on a pluggable
:mod:`repro.snn.engines` backend — ``"dense"`` (the per-step reference
recompute), ``"batched"`` (layer-sequential time batching: one big
GEMM per stateless layer over all T timesteps, the bitwise reference)
and ``"event-batched"`` (the time-batched schedule with COO-native
layers: a per-layer density rule picks GEMM or a row-subset kernel on
every call, bitwise identical to ``"batched"`` and faster at low input
density; ``"auto"`` is another name for it, and the retired
``"event"`` resolves to it with a ``DeprecationWarning``).  Every
backend bills synaptic ops by the SIA's rule, so the counts do not
depend on the kernel.  The time-stacked backends run a large batch as
sample blocks in lanes, one per usable core.
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
    DenseEngine,
    EventBatchedEngine,
    SimulationEngine,
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
    "DenseEngine",
    "EventBatchedEngine",
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
