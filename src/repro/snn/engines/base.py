"""The engine interface: run schedule, instrumentation and shared caches.

:class:`SimulationEngine` owns everything common to all backends — the
block and lane orchestration in :meth:`SimulationEngine.run`, the
per-run reset/install/execute/collect cycle in
:meth:`SimulationEngine._run_single` (called once per sample block by
:meth:`SimulationEngine._run_blocked`), and the per-layer wall-clock
profiling wrappers (see :mod:`repro.snn.engines.profiling`) installed
around every interceptor, and the one synaptic-op rule every backend
bills by (:func:`bill_synapse`).  Backends customise per-layer execution by
overriding :meth:`SimulationEngine._make_interceptor` (synapse layers)
and :meth:`SimulationEngine._make_neuron_interceptor` (stateful
layers), or the whole schedule via :meth:`SimulationEngine._execute`.
"""

from __future__ import annotations

import abc
import functools
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.nn.quant import QuantConv2d, QuantLinear, _WeightFakeQuant
from repro.snn.engines.lanes import lane_count, run_lanes
from repro.snn.engines.profiling import profiled_call
from repro.snn.neurons import IFNeuron
from repro.snn.spikes import SpikeStream, StepSpikes
from repro.snn.stats import LayerStats, RunStats
from repro.tensor import Tensor, no_grad


@dataclass
class EngineRun:
    """Result of one engine invocation."""

    logits: np.ndarray
    stats: RunStats
    per_step: Optional[List[np.ndarray]] = None


# ----------------------------------------------------------------------
# Bounded caches
# ----------------------------------------------------------------------
class LRUCache:
    """A small thread-safe least-recently-used mapping.

    Long-lived processes bind engines to many models over time; every
    cross-run cache in the engine layer (effective weights) is bounded
    by one of these so memory cannot grow without limit.  The lock makes it shareable between the sibling
    engines lanes run on, which deduplicates work across lanes.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            if key not in self._data:
                return default
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def pop(self, key, default=None):
        """Remove and return an entry."""
        with self._lock:
            return self._data.pop(key, default)

    def items(self) -> List[Tuple]:
        """Snapshot of (key, value) pairs, least-recently-used first."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data


# An effective-weight cache entry: the exact source arrays it was
# computed from (held strongly, so their ids cannot be recycled) plus
# the result.  Every weight-update path in this repo *rebinds*
# ``param.data`` (optimizer steps and ``load_state_dict`` both assign a
# fresh array), so identity checks against the sources detect any
# training or checkpoint load and invalidate automatically.
_WeightEntry = Tuple[np.ndarray, Optional[np.ndarray], Optional[int], np.ndarray]

#: Entries the per-engine effective-weight LRU holds — comfortably more
#: than the synapse layers of the deepest model here, small enough that
#: a process cycling through many models stays bounded.
WEIGHT_CACHE_CAPACITY = 128


def _effective_weight(module: Module, cache: LRUCache) -> np.ndarray:
    """Fake-quantised weight of ``module``, cached across runs.

    Effective weights are constant across timesteps (and across runs,
    until the parameters are rebound by training), so engines that
    bypass the module's own forward pay the fake-quant
    straight-through op once instead of per call.
    """
    key = id(module)
    source = module.weight.data
    is_quant = isinstance(module, (QuantConv2d, QuantLinear))
    scale = module.weight_scale.data if is_quant else None
    bits = module.bits if is_quant else None
    entry = cache.get(key)
    if (
        entry is not None
        and entry[0] is source
        and entry[1] is scale
        and entry[2] == bits
    ):
        return entry[3]
    if is_quant:
        with no_grad():
            weight = _WeightFakeQuant.apply(
                module.weight, module.weight_scale, module.bits
            ).data
    else:
        weight = source
    cache.put(key, (source, scale, bits, weight))
    return weight


# ----------------------------------------------------------------------
# Op accounting
# ----------------------------------------------------------------------
def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _dense_op_count(module: Module, x_shape: Sequence[int]) -> int:
    """MACs a dense execution of ``module`` needs on input ``x_shape``."""
    if isinstance(module, Conv2d):
        n, c, h, w = x_shape
        oh = _conv_out_size(h, module.kernel_size, module.stride, module.padding)
        ow = _conv_out_size(w, module.kernel_size, module.stride, module.padding)
        taps = c * module.kernel_size * module.kernel_size
        return n * oh * ow * taps * module.out_channels
    return int(x_shape[0]) * module.in_features * module.out_features


@functools.lru_cache(maxsize=256)
def _coverage(size: int, kernel: int, stride: int, padding: int) -> np.ndarray:
    """How many output windows of a conv cover each of ``size`` input
    positions along one axis (padding never counts)."""
    cover = np.zeros(size + 2 * padding, dtype=np.int64)
    last = stride * (_conv_out_size(size, kernel, stride, padding) - 1)
    for tap in range(kernel):
        cover[tap : tap + last + 1 : stride] += 1
    cover = cover[padding : padding + size]
    cover.setflags(write=False)
    return cover


@functools.lru_cache(maxsize=256)
def _window_weights(h: int, w: int, kernel: int, stride: int, padding: int) -> np.ndarray:
    """How many output windows cover each pixel of an ``h x w`` conv
    input (``cy[y] * cx[x]``), flattened, in a float type that sums a
    channel's worth of them exactly."""
    cover = np.outer(
        _coverage(h, kernel, stride, padding), _coverage(w, kernel, stride, padding)
    ).ravel()
    # A channel sums to at most cover.sum(); float32 counts exactly below 2**24.
    cover = cover.astype(np.float32 if cover.sum() < 2**24 else np.float64)
    cover.setflags(write=False)
    return cover


def _conv_taps(plane: np.ndarray, module: Conv2d, nonzero: Optional[int]) -> Tuple[int, int]:
    """``(nonzeros, nonzero im2col entries)`` of a dense conv input.

    Each nonzero at ``(n, c, y, x)`` sits in ``cy[y] * cx[x]`` windows:
    one matrix-vector product of the plane's nonzero mask with those
    weights sums every channel at once, exactly (integer sums of the
    weights' float type).  ``nonzero``, when known exactly, spares the
    count.
    """
    n, c, h, w = plane.shape
    weights = _window_weights(h, w, module.kernel_size, module.stride, module.padding)
    mask = plane != 0
    per_channel = mask.reshape(n * c, h * w).astype(weights.dtype) @ weights
    if nonzero is None:
        nonzero = int(np.count_nonzero(mask))
    return nonzero, int(per_channel.sum(dtype=np.float64))


def bill_synapse(
    module: Module,
    stat: LayerStats,
    x: Union[np.ndarray, StepSpikes],
    nonzero: Optional[int] = None,
    repeat: int = 1,
    density: bool = True,
) -> None:
    """Bill one synapse-layer call by the SIA's rule, whichever kernel ran.

    Every nonzero input value costs one synaptic op per weight it fans
    out to: a linear bills ``nnz(x) * out_features``, a conv ``C_out``
    per nonzero im2col entry — each input nonzero times the number of
    output windows covering it (``SpikingCore.fc_timestep`` /
    ``conv_timestep``).  ``x`` is the layer's input: a dense plane, with
    its exact ``nonzero`` count when the caller knows it, or its events.
    ``repeat`` bills a plane that stands for that many copies (a
    constant frame's ``(N, ...)`` prefix, once per timestep).  The same
    count gives the dense MACs and, with ``density`` (the profiler), the
    layer's observed input density.
    """
    is_conv = isinstance(module, Conv2d)
    if isinstance(x, StepSpikes):
        nonzero = taps = x.num_events
        if is_conv and nonzero:
            _, _, h, w = x.shape
            k, s, p = module.kernel_size, module.stride, module.padding
            taps = int(
                _coverage(h, k, s, p)[x.coords[:, 2]]
                @ _coverage(w, k, s, p)[x.coords[:, 3]]
            )
    elif is_conv:
        nonzero, taps = _conv_taps(x, module, nonzero)
    else:
        if nonzero is None:
            nonzero = int(np.count_nonzero(x))
        taps = nonzero
    fan_out = module.out_channels if is_conv else module.out_features
    stat.synaptic_ops += taps * fan_out * repeat
    stat.dense_synaptic_ops += _dense_op_count(module, x.shape) * repeat
    if density:
        stat.input_nonzero += nonzero * repeat
        stat.input_size += math.prod(x.shape) * repeat


def _concat_runs(runs: List[EngineRun], timesteps: int, per_step: bool) -> EngineRun:
    """Join the runs of consecutive batch slices into one batch-order run.

    Logits and per-step logits are concatenated and statistics merged
    into the first run's record (:meth:`RunStats.merge`).
    """
    stats = runs[0].stats
    for run in runs[1:]:
        stats.merge(run.stats)
    outputs: Optional[List[np.ndarray]] = None
    if per_step:
        outputs = [
            np.concatenate([run.per_step[t] for run in runs], axis=0)
            for t in range(timesteps)
        ]
    return EngineRun(
        logits=np.concatenate([run.logits for run in runs], axis=0),
        stats=stats,
        per_step=outputs,
    )


# ----------------------------------------------------------------------
# Engine interface
# ----------------------------------------------------------------------
class SimulationEngine(abc.ABC):
    """Executes a converted spiking model for T timesteps.

    Engines are bound to a model once (:meth:`bind`) and then invoked
    through :meth:`run`, which owns the timestep loop, state reset and
    statistics collection.  Subclasses customise per-layer execution by
    installing instance-level forward interceptors for the duration of
    a run, and may replace the whole-run schedule via :meth:`_execute`.

    ``profile_layers`` (default on) wraps every interceptor in a
    near-zero-overhead ``perf_counter`` pair that attributes wall clock
    to each layer's :class:`repro.snn.stats.LayerStats`, and records
    each synapse layer's observed input density — the data behind
    :meth:`repro.snn.stats.RunStats.profile_table`.  Every backend bills
    synaptic ops with :func:`bill_synapse`, so the counts do not depend
    on the kernel that ran.
    """

    name: str = "abstract"

    def __init__(self, profile_layers: bool = True) -> None:
        self.profile_layers = bool(profile_layers)
        self.model: Optional[Module] = None
        self._synapse_modules: List[Tuple[str, Module]] = []
        self._neuron_modules: List[Tuple[str, IFNeuron]] = []
        # Synapse and neuron layers interleaved in graph (registration)
        # order: the order of a run's layer stats.
        self._layer_order: List[Tuple[str, Module]] = []
        self._installed: List[Module] = []
        # Lane peers, built lazily and reused across runs: sibling
        # engines bound to persistent model clones, keyed by count
        # (see repro.snn.engines.lanes._thread_peers_for).
        self._thread_peers: Dict[int, List["SimulationEngine"]] = {}

    # ------------------------------------------------------------------
    def bind(self, model: Module) -> "SimulationEngine":
        """Attach the engine to a converted model (discovers layers)."""
        if model is not self.model:
            self._thread_peers = {}  # clones mirror the previous model
        self.model = model
        self._synapse_modules = []
        self._neuron_modules = []
        self._layer_order = []
        for name, module in model.named_modules():
            layer = (name or type(module).__name__, module)
            if isinstance(module, (Conv2d, Linear)):
                self._synapse_modules.append(layer)
            elif isinstance(module, IFNeuron):
                self._neuron_modules.append(layer)
            else:
                continue
            self._layer_order.append(layer)
        return self

    # ------------------------------------------------------------------
    # Lane siblings
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        """Constructor kwargs that reproduce this engine's configuration."""
        return {"profile_layers": self.profile_layers}

    def _share_caches(self, peer: "SimulationEngine") -> None:
        """Point ``peer`` at this engine's cross-run caches (all the
        shared caches are thread-safe :class:`LRUCache` instances)."""

    def _sibling(self) -> "SimulationEngine":
        """A same-configuration engine for one lane (or worker restart).

        Siblings share the thread-safe cross-run caches but nothing
        run-scoped, and each binds to its own structural clone of the
        model, so concurrent lanes never touch the same module state.
        """
        peer = type(self)(**self._config())
        self._share_caches(peer)
        return peer

    # ------------------------------------------------------------------
    def run(self, x: np.ndarray, timesteps: int, per_step: bool = False) -> EngineRun:
        """Run a batch for T timesteps; accumulate logits in place.

        The time-stacked engines run a large call as sample blocks
        (:meth:`_run_blocked`), so their ``(T*N, ...)`` working set
        stays bounded, and run the blocks in lanes, one per usable core
        (:mod:`repro.snn.engines.lanes`); blocks are joined in batch
        order and their statistics merged.

        ``x`` may also be a COO :class:`repro.snn.spikes.SpikeStream`
        — per-timestep input planes instead of one direct-coded frame.
        The stream's ``timesteps`` must match ``timesteps``, and blocks
        slice the stream's batch axis exactly like a dense batch.
        """
        if self.model is None:
            raise RuntimeError("engine is not bound to a model; call bind() first")
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if isinstance(x, SpikeStream):
            if timesteps != x.timesteps:
                raise ValueError(
                    f"timesteps ({timesteps}) must match the input stream's "
                    f"({x.timesteps}); a SpikeStream carries its own time axis"
                )
        else:
            x = np.asarray(x)
        return self._run_blocked(x, timesteps, per_step)

    def _sample_blocks(self, batch: int, timesteps: int) -> List[Tuple[int, int]]:
        """Contiguous sample blocks one call runs as, in order.

        The default is the whole batch at once; the time-stacked
        engines bound their ``(T*N, ...)`` working set by returning
        several blocks for large batches.
        """
        return [(0, batch)]

    def _run_blocked(self, x, timesteps: int, per_step: bool) -> EngineRun:
        """One call as sample blocks.

        Every block is a plain :meth:`_run_single`; their logits are
        concatenated in batch order and their statistics merged.  Blocks
        run concurrently in lanes, one per usable core
        (:mod:`repro.snn.engines.lanes`), unless the machine cannot;
        otherwise serially.  The bound model's stateful neurons keep the
        membrane and spike state of the last block it ran.
        """
        bounds = self._sample_blocks(int(x.shape[0]), timesteps)
        if len(bounds) <= 1:
            return self._run_single(x, timesteps, per_step)
        started = time.perf_counter()
        count = lane_count(len(bounds))
        if count > 1:
            runs = run_lanes(self, x, timesteps, per_step, bounds, count)
        else:
            runs = [self._run_single(x[lo:hi], timesteps, per_step) for lo, hi in bounds]
        merged = _concat_runs(runs, timesteps, per_step)
        merged.stats.wall_clock_seconds = time.perf_counter() - started
        merged.stats.lanes = count
        return merged

    def _run_single(self, x: np.ndarray, timesteps: int, per_step: bool) -> EngineRun:
        """One in-process run: reset, instrument, execute, collect stats."""
        started = time.perf_counter()
        for _, module in self._neuron_modules:
            module.reset_state()
        synapse_stats = {
            name: LayerStats(name=name, kind="linear" if isinstance(m, Linear) else "conv")
            for name, m in self._synapse_modules
        }
        neuron_stats = {
            name: LayerStats(name=name, kind="neuron") for name, _ in self._neuron_modules
        }
        neuron_base = {
            name: (m.spike_count, m.neuron_steps) for name, m in self._neuron_modules
        }
        self._install(synapse_stats, neuron_stats)
        try:
            total, outputs = self._execute(x, timesteps, per_step)
        finally:
            self._uninstall()

        layers: List[LayerStats] = []
        for name, module in self._layer_order:
            if isinstance(module, IFNeuron):
                base_spikes, base_steps = neuron_base[name]
                stat = neuron_stats[name]
                stat.spike_count = module.spike_count - base_spikes
                stat.neuron_steps = module.neuron_steps - base_steps
                stat.timesteps = timesteps
                layers.append(stat)
            else:
                stat = synapse_stats[name]
                stat.timesteps = timesteps
                layers.append(stat)
        stats = RunStats(
            batch_size=int(x.shape[0]),
            timesteps=timesteps,
            layers=layers,
            engine=self.name,
            wall_clock_seconds=time.perf_counter() - started,
        )
        return EngineRun(logits=total, stats=stats, per_step=outputs)

    def _execute(
        self, x: np.ndarray, timesteps: int, per_step: bool
    ) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
        """The run schedule: default is time-outer/model-inner.

        Returns ``(accumulated_logits, per_step_cumulative_or_None)``.
        Subclasses may restructure the whole schedule (e.g. the
        time-batched engine runs the model once over a ``(T*N, ...)``
        stack).

        Dense inputs present the *same* direct-coded frame Tensor every
        timestep; a :class:`SpikeStream` presents one densified plane
        per timestep.
        """
        total: Optional[np.ndarray] = None
        outputs: Optional[List[np.ndarray]] = [] if per_step else None
        stream = isinstance(x, SpikeStream)
        inp = None if stream else Tensor(x)
        with no_grad():
            for t in range(timesteps):
                step_in = Tensor(x.step(t).to_dense()) if stream else inp
                logits = self.model(step_in).data
                if total is None:
                    total = logits.copy()
                else:
                    total += logits
                if outputs is not None:
                    outputs.append(total.copy())
        return total, outputs

    # ------------------------------------------------------------------
    # Per-run instrumentation hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _make_interceptor(
        self, module: Module, stat: LayerStats, orig: Callable[[Tensor], Tensor]
    ) -> Callable[[Tensor], Tensor]:
        """Build the forward replacement installed on ``module`` for a run."""

    def _make_neuron_interceptor(
        self, module: IFNeuron, stat: LayerStats
    ) -> Optional[Callable[[Tensor], Tensor]]:
        """Forward replacement for a stateful neuron layer, or None to
        run the module's own forward (the time-outer engines)."""
        return None

    def _set_forward(self, module: Module, forward: Callable) -> None:
        object.__setattr__(module, "forward", forward)
        self._installed.append(module)

    def _install(
        self,
        synapse_stats: Dict[str, LayerStats],
        neuron_stats: Dict[str, LayerStats],
    ) -> None:
        self._installed = []
        for name, module in self._synapse_modules:
            stat = synapse_stats[name]
            interceptor = self._make_interceptor(module, stat, module.forward)
            if self.profile_layers:
                interceptor = profiled_call(interceptor, stat)
            self._set_forward(module, interceptor)
        for name, module in self._neuron_modules:
            stat = neuron_stats[name]
            interceptor = self._make_neuron_interceptor(module, stat)
            if interceptor is None:
                if not self.profile_layers:
                    continue  # nothing to intercept: run the module as-is
                interceptor = module.forward
            if self.profile_layers:
                interceptor = profiled_call(interceptor, stat)
            self._set_forward(module, interceptor)

    def _uninstall(self) -> None:
        for module in self._installed:
            if "forward" in module.__dict__:
                object.__delattr__(module, "forward")
        self._installed = []
