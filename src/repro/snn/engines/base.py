"""The engine interface: run schedule, instrumentation and shared caches.

:class:`SimulationEngine` owns everything common to all backends — the
timestep/shard orchestration in :meth:`SimulationEngine.run`, the
per-run reset/install/execute/collect cycle in
:meth:`SimulationEngine._run_single` (called once per sample block by
:meth:`SimulationEngine._run_blocked`), and the per-layer wall-clock
profiling wrappers (see :mod:`repro.snn.engines.profiling`) installed
around every interceptor.  Backends customise per-layer execution by
overriding :meth:`SimulationEngine._make_interceptor` (synapse layers)
and :meth:`SimulationEngine._make_neuron_interceptor` (stateful
layers), or the whole schedule via :meth:`SimulationEngine._execute`.
"""

from __future__ import annotations

import abc
import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.nn.quant import QuantConv2d, QuantLinear, _WeightFakeQuant
from repro.snn.convert import reset_network_state
from repro.snn.engines.lanes import lane_count, run_lanes
from repro.snn.engines.profiling import profiled_call
from repro.snn.engines.sharding import (
    SHARD_MODES,
    ShardPolicy,
    resolve_shard_mode,
    run_batch_shards,
    split_bounds,
)

logger = logging.getLogger(__name__)
from repro.snn.neurons import IFNeuron
from repro.snn.spikes import SpikeStream
from repro.snn.stats import LayerStats, RunStats
from repro.tensor import Tensor, no_grad


@dataclass
class EngineRun:
    """Result of one engine invocation.

    ``plan``, ``dropped_plan_key`` and ``observations`` are
    engine-private payloads shipped back from shard workers (picklable,
    so they survive the fork-pool return trip): the auto engine uses
    them to hand a freshly compiled execution plan, a drift-guard
    eviction, or the calibration's raw ``(backend, ops, ms)`` cost
    samples from a worker back to the parent's surviving plan cache and
    cost model.
    """

    logits: np.ndarray
    stats: RunStats
    per_step: Optional[List[np.ndarray]] = None
    plan: Optional[object] = None
    dropped_plan_key: Optional[Tuple] = None
    observations: Optional[List[Tuple]] = None


# ----------------------------------------------------------------------
# Bounded caches
# ----------------------------------------------------------------------
class LRUCache:
    """A small thread-safe least-recently-used mapping.

    Long-lived processes bind engines to many models over time; every
    cross-run cache in the engine layer (effective weights, compiled
    execution plans) is bounded by one of these so memory cannot grow
    without limit.  The lock makes it shareable between the thread-shard
    sibling engines, which deduplicates work across shards.
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
        """Remove and return an entry (drift-triggered plan invalidation)."""
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


def _concat_runs(runs: List[EngineRun], timesteps: int, per_step: bool) -> EngineRun:
    """Join the runs of consecutive batch slices into one batch-order run.

    Logits and per-step logits are concatenated, statistics merged into
    the first run's record (:meth:`RunStats.merge`), and the engine
    -private payloads carried along so a forked shard's blocks still
    hand their plan, eviction and cost samples back to the parent.
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
    plans = [run.plan for run in runs if run.plan is not None]
    dropped = [run.dropped_plan_key for run in runs if run.dropped_plan_key is not None]
    observations = [o for run in runs for o in (run.observations or ())]
    return EngineRun(
        logits=np.concatenate([run.logits for run in runs], axis=0),
        stats=stats,
        per_step=outputs,
        plan=plans[-1] if plans else None,
        dropped_plan_key=dropped[-1] if dropped else None,
        observations=observations or None,
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
    (and, for synapse layers, observed input density) to each layer's
    :class:`repro.snn.stats.LayerStats` — the data behind
    :meth:`repro.snn.stats.RunStats.profile_table` and the adaptive
    engine's calibration.
    """

    name: str = "abstract"

    def __init__(self, profile_layers: bool = True) -> None:
        self.profile_layers = bool(profile_layers)
        self.model: Optional[Module] = None
        self._synapse_modules: List[Tuple[str, Module]] = []
        self._neuron_modules: List[Tuple[str, IFNeuron]] = []
        self._installed: List[Module] = []
        # Thread-shard infrastructure, built lazily and reused across
        # runs (see repro.snn.engines.sharding): sibling engines bound
        # to persistent model clones keyed by shard count, plus one
        # long-lived pool so worker threads (and their thread-local
        # im2col pad workspaces) survive between runs.
        self._thread_peers: Dict[int, List["SimulationEngine"]] = {}
        self._thread_pool = None
        self._thread_pool_size = 0

    # ------------------------------------------------------------------
    def bind(self, model: Module) -> "SimulationEngine":
        """Attach the engine to a converted model (discovers layers)."""
        if model is not self.model:
            self._thread_peers = {}  # clones mirror the previous model
        self.model = model
        self._synapse_modules = []
        self._neuron_modules = []
        for name, module in model.named_modules():
            if isinstance(module, (Conv2d, Linear)):
                self._synapse_modules.append((name or type(module).__name__, module))
            elif isinstance(module, IFNeuron):
                self._neuron_modules.append((name or type(module).__name__, module))
        return self

    # ------------------------------------------------------------------
    # Thread-shard siblings
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        """Constructor kwargs that reproduce this engine's configuration."""
        return {"profile_layers": self.profile_layers}

    def _share_caches(self, peer: "SimulationEngine") -> None:
        """Point ``peer`` at this engine's cross-run caches (all the
        shared caches are thread-safe :class:`LRUCache` instances)."""

    def _sibling(self) -> "SimulationEngine":
        """A same-configuration engine for one thread-shard worker.

        Siblings share the thread-safe cross-run caches but nothing
        run-scoped, and each binds to its own structural clone of the
        model, so concurrent shards never touch the same module state.
        """
        peer = type(self)(**self._config())
        self._share_caches(peer)
        return peer

    def _absorb_shard_runs(self, runs: List["EngineRun"]) -> None:
        """Fold shard-worker payloads back into the parent engine.

        Fork-pool workers are throwaway processes: anything they learn
        (the auto engine's compiled plans) is lost unless it rides back
        on the :class:`EngineRun`.  The base engine has nothing to
        absorb.
        """

    # ------------------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        timesteps: int,
        per_step: bool = False,
        workers: int = 1,
        shard_mode: str = "auto",
        shard_policy: Optional[ShardPolicy] = None,
    ) -> EngineRun:
        """Run a batch for T timesteps; accumulate logits in place.

        ``workers > 1`` shards the batch dimension into contiguous
        blocks executed in parallel; logits are concatenated in batch
        order and per-shard statistics merged, so rates and op counts
        match a single-worker run (up to float summation order at shard
        boundaries — a shard is a smaller GEMM, the same caveat as any
        BLAS reordering).  ``shard_mode`` picks the parallel substrate:
        ``"fork"`` (processes sharing weights copy-on-write),
        ``"thread"`` (a thread pool over model clones that share weight
        arrays — BLAS releases the GIL on the hot GEMMs, and it works
        where fork is unavailable), or ``"auto"`` (fork where the
        platform has it, threads otherwise).

        The time-stacked engines run a large call — and each shard its
        own slice — as sample blocks (:meth:`_run_blocked`), so their
        ``(T*N, ...)`` working set stays bounded; blocks are joined like
        shards.  An unsharded call runs its blocks in lanes, one per
        usable core (:mod:`repro.snn.engines.lanes`).

        ``x`` may also be a COO :class:`repro.snn.spikes.SpikeStream`
        — per-timestep input planes instead of one direct-coded frame.
        The stream's ``timesteps`` must match ``timesteps``, and shards
        slice the stream's batch axis exactly like a dense batch.

        Sharded runs execute under a supervisor (see
        :mod:`repro.snn.engines.sharding`): a shard that crashes or
        hangs past ``shard_policy.timeout`` is retried and, if
        necessary, re-run down the ``fork -> thread -> serial``
        degradation chain — logits stay bit-identical (same kernels,
        same slices) and the failure trail lands on
        ``RunStats.shard_failures`` / ``RunStats.degraded_shard_mode``.
        """
        if self.model is None:
            raise RuntimeError("engine is not bound to a model; call bind() first")
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_mode not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_mode {shard_mode!r}; choose from {SHARD_MODES}"
            )
        if isinstance(x, SpikeStream):
            if timesteps != x.timesteps:
                raise ValueError(
                    f"timesteps ({timesteps}) must match the input stream's "
                    f"({x.timesteps}); a SpikeStream carries its own time axis"
                )
        else:
            x = np.asarray(x)
        requested = int(workers)
        workers = min(requested, max(int(x.shape[0]), 1))
        if workers < requested:
            # Clamp instead of spawning empty shards; one warning so a
            # mis-sized fleet is visible without spamming per shard.
            logger.warning(
                "workers=%d exceeds the batch size %d; clamping to %d "
                "single-sample shard(s)",
                requested,
                int(x.shape[0]),
                workers,
            )
        if workers == 1:
            # No sharding happens: don't demand a working fork (a
            # shard_mode="fork" request must not crash single-worker
            # runs on fork-less platforms).
            return self._run_blocked(x, timesteps, per_step)
        mode = resolve_shard_mode(shard_mode)

        started = time.perf_counter()
        bounds = split_bounds(int(x.shape[0]), workers)
        outcome = run_batch_shards(
            self, x, timesteps, per_step, bounds, mode, policy=shard_policy
        )
        self._absorb_shard_runs(outcome.results)
        merged = _concat_runs(outcome.results, timesteps, per_step)
        stats = merged.stats
        stats.workers = len(bounds)
        stats.shard_mode = mode
        stats.shard_failures = list(outcome.failures)
        stats.degraded_shard_mode = outcome.degraded_mode
        # Shard wall clocks overlap; report the parent-observed elapsed.
        stats.wall_clock_seconds = time.perf_counter() - started
        return EngineRun(logits=merged.logits, stats=stats, per_step=merged.per_step)

    def _sample_blocks(self, batch: int, timesteps: int) -> List[Tuple[int, int]]:
        """Contiguous sample blocks one call runs as, in order.

        The default is the whole batch at once; the time-stacked
        engines bound their ``(T*N, ...)`` working set by returning
        several blocks for large batches.
        """
        return [(0, batch)]

    def _run_blocked(
        self, x, timesteps: int, per_step: bool, lanes: bool = True
    ) -> EngineRun:
        """One call (or one shard's slice) as sample blocks.

        Every block is a plain :meth:`_run_single`; their logits are
        concatenated in batch order and their statistics merged, exactly
        like batch shards.  Blocks run concurrently in lanes, one per
        usable core (:mod:`repro.snn.engines.lanes`), unless ``lanes``
        is off (batch-shard tasks, which already own the cores), the
        engine declines (:meth:`_lanes_ready`) or the machine cannot;
        otherwise serially.  The bound model's stateful neurons keep the
        membrane and spike state of the last block it ran.
        """
        bounds = self._sample_blocks(int(x.shape[0]), timesteps)
        if len(bounds) <= 1:
            return self._run_single(x, timesteps, per_step)
        started = time.perf_counter()
        count = lane_count(len(bounds)) if lanes and self._lanes_ready() else 1
        if count > 1:
            runs = run_lanes(self, x, timesteps, per_step, bounds, count)
        else:
            runs = [self._run_single(x[lo:hi], timesteps, per_step) for lo, hi in bounds]
        merged = _concat_runs(runs, timesteps, per_step)
        merged.stats.wall_clock_seconds = time.perf_counter() - started
        merged.stats.lanes = count
        return merged

    def _lanes_ready(self) -> bool:
        """Whether the current blocked call may run its blocks in lanes."""
        return True

    def _enter_lane(self, peer: "SimulationEngine") -> None:
        """Hand ``peer`` the call-scoped state it needs to run a lane."""

    def _absorb_lanes(self, peers: List["SimulationEngine"]) -> None:
        """Fold what the lane ``peers`` learned back into this engine."""

    def _run_single(self, x: np.ndarray, timesteps: int, per_step: bool) -> EngineRun:
        """One in-process run: reset, instrument, execute, collect stats."""
        started = time.perf_counter()
        reset_network_state(self.model)
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
        for name, module in self._all_layers_in_order():
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
        timestep (its stable array identity is what enables the event
        engine's frame-psum reuse); a :class:`SpikeStream` presents one
        materialised plane per timestep via :meth:`_stream_step_input`.
        """
        total: Optional[np.ndarray] = None
        outputs: Optional[List[np.ndarray]] = [] if per_step else None
        stream = isinstance(x, SpikeStream)
        inp = None if stream else Tensor(x)
        with no_grad():
            for t in range(timesteps):
                step_in = self._stream_step_input(x, t) if stream else inp
                logits = self.model(step_in).data
                if total is None:
                    total = logits.copy()
                else:
                    total += logits
                if outputs is not None:
                    outputs.append(total.copy())
        return total, outputs

    def _stream_step_input(self, stream: SpikeStream, t: int) -> Tensor:
        """Materialise one timestep of a COO input stream.

        The default densifies the step's coordinates; the event engine
        overrides this to also register the coordinates so downstream
        layers consume them without re-deriving sparsity from the plane.
        """
        return Tensor(stream.step(t).to_dense())

    def _all_layers_in_order(self) -> List[Tuple[str, Module]]:
        """Synapse and neuron layers interleaved in graph (registration) order."""
        synapse = dict(self._synapse_modules)
        neurons = dict(self._neuron_modules)
        ordered: List[Tuple[str, Module]] = []
        for name, module in self.model.named_modules():
            if name in synapse or name in neurons:
                ordered.append((name, module))
        return ordered

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

    def _input_nonzero_of(self, data: np.ndarray) -> Optional[int]:
        """Known nonzero count of an input plane, or None to scan it.

        The profiler asks here before paying a ``count_nonzero`` pass;
        the event engine answers from carried stream metadata (COO
        coordinates), so stream-fed layers record density without ever
        re-deriving it from the dense plane.
        """
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
                interceptor = profiled_call(
                    interceptor,
                    stat,
                    record_density=True,
                    nonzero_of=self._input_nonzero_of,
                )
            self._set_forward(module, interceptor)
        for name, module in self._neuron_modules:
            stat = neuron_stats[name]
            interceptor = self._make_neuron_interceptor(module, stat)
            if interceptor is None:
                if not self.profile_layers:
                    continue  # nothing to intercept: run the module as-is
                interceptor = module.forward
            if self.profile_layers:
                interceptor = profiled_call(interceptor, stat, record_density=False)
            self._set_forward(module, interceptor)

    def _uninstall(self) -> None:
        for module in self._installed:
            if "forward" in module.__dict__:
                object.__delattr__(module, "forward")
        self._installed = []
