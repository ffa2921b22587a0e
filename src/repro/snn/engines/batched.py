"""Layer-sequential backend: one pass over a ``(T*N, ...)`` stack."""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, MaxPool2d
from repro.nn.module import Module
from repro.snn.dynamics import ResetMode, initial_membrane, neuron_step
from repro.snn.engines.base import (
    LRUCache,
    SimulationEngine,
    WEIGHT_CACHE_CAPACITY,
    _effective_weight,
    bill_synapse,
)
from repro.snn.engines.dense import dense_conv2d
from repro.snn.engines.sharding import split_bounds
from repro.snn.neurons import IFNeuron
from repro.snn.spikes import SpikeStream
from repro.snn.stats import LayerStats
from repro.tensor import Tensor, no_grad

#: Stack rows (T x samples) one time-stacked pass covers at most.  A
#: larger call runs as balanced sample blocks of about
#: ``STACK_BLOCK_ROWS // T`` samples (never fewer than half that), so
#: activations and im2col matrices stay cache- and page-resident
#: instead of growing with the batch.  The blocks run concurrently, one
#: lane per usable core (:mod:`repro.snn.engines.lanes`), so each core
#: holds one block's working set at a time.  On a 2-core x86_64 box with
#: OpenBLAS 0.3.31, the converted VGG-11 (width 0.125) at T=8 and batch
#: 256 went from a 2048-row stack (67 MB activations and 151 MB im2col
#: matrices per layer) to 256-row blocks: 235 -> 310 samples/s, p50
#: 1090 -> 826 ms, peak RSS 1230 -> 347 MB (medians of 10 alternating
#: run pairs of the repository benchmark).  Running the 8 blocks in two
#: lanes took the same workload from 381 to 643 samples/s (medians of
#: 10 alternating pairs against serial blocks, measured later on the
#: same box).  It is a floor-aware constant, not a tunable: OpenBLAS
#: sums small GEMMs in another order, so a
#: 512->10 GEMM split into row blocks of fewer than 128 rows is not
#: bitwise equal to the unsplit one.  On that VGG, 64-row blocks
#: changed the last bits of the logits against an unblocked run;
#: 128-, 256- and 512-row blocks did not.
STACK_BLOCK_ROWS = 256


class TimeBatchedEngine(SimulationEngine):
    """Layer-sequential backend: one pass over a ``(T*N, ...)`` stack.

    The direct-coded input is tiled once along the batch axis, so every
    stateless layer executes exactly once per run — conv/linear become
    a single GEMM covering all T timesteps — and only the stateful
    neuron layers iterate over the time axis, stepping the shared
    :func:`repro.snn.dynamics.neuron_step` on a per-run membrane buffer
    vectorised over ``(N, ...)``.  This is valid for any feed-forward
    module graph (chains, residual blocks): stateless layers are
    pointwise in the batch dimension, so reordering time inside them
    changes nothing, and neuron layers see their T inputs in exactly
    the order the dense engine would feed them.

    Arithmetic is the dense reference arithmetic — same kernels, same
    per-sample summation order — so logits match ``DenseEngine``
    exactly, and ops are billed by the SIA rule from each layer's input
    (:func:`repro.snn.engines.base.bill_synapse`), as on every backend.
    The win is wall clock: T-fold fewer Python layer
    dispatches, T-fold larger matmuls (better BLAS utilisation), one
    im2col per layer per run, and the constant input frame's convolution
    is computed once and re-tiled instead of recomputed T times (the
    software twin of the accelerator's frame-psum cache).  Per-step
    logits fall out of the explicit time axis for free, which makes
    accuracy-vs-timesteps sweeps the biggest beneficiary.  A call larger
    than :data:`STACK_BLOCK_ROWS` stack rows runs as sample blocks, one
    lane of them per usable core, so the stack never outgrows the cache.
    """

    name = "batched"

    def __init__(self, profile_layers: bool = True) -> None:
        super().__init__(profile_layers=profile_layers)
        self._weight_cache = LRUCache(WEIGHT_CACHE_CAPACITY)
        # Arrays known to be T-fold tilings of an (N, ...) prefix, keyed
        # by id.  Strong references keep ids stable for the run's
        # duration.  Seeded with the tiled input; a synapse layer fed a
        # constant array computes its N-batch output once and re-tiles,
        # propagating constancy until a stateful layer breaks it.
        self._constant_arrays: Dict[int, np.ndarray] = {}
        # Arrays whose nonzero count is already known, keyed by id with
        # a weak reference, the count and whether it is exact (the
        # event-batched engine also notes upper bounds, which only its
        # density rule reads).  The neuron interceptor pays
        # one count_nonzero per run for its spike accounting; registering
        # the result here lets the *next* layer's op billing skip a
        # full re-count of the same plane.  Weak on purpose: pinning every
        # activation until run end would defeat numpy's buffer reuse,
        # and the consumer reads the count while the plane is its live
        # input anyway.  The identity check at lookup makes a recycled
        # id (dead entry, new array) a harmless miss.
        self._known_nonzero: Dict[int, Tuple[object, int, bool]] = {}
        self._run_timesteps = 0
        self._run_batch = 0
        self._stateless_modules: List[Module] = []

    def _share_caches(self, peer: "SimulationEngine") -> None:
        peer._weight_cache = self._weight_cache

    def bind(self, model: Module) -> "TimeBatchedEngine":
        super().bind(model)
        self._stateless_modules = [
            module
            for _, module in model.named_modules()
            if isinstance(module, (BatchNorm2d, AvgPool2d, MaxPool2d))
        ]
        return self

    # ------------------------------------------------------------------
    def _sample_blocks(self, batch: int, timesteps: int) -> List[Tuple[int, int]]:
        per_block = max(STACK_BLOCK_ROWS // timesteps, 1)
        return split_bounds(batch, -(-batch // per_block))

    def _execute(
        self, x, timesteps: int, per_step: bool
    ) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
        n = int(x.shape[0])
        self._run_timesteps = timesteps
        self._run_batch = n
        with no_grad():
            out = self._forward_stack(x)
        stepped = out.reshape((timesteps, n) + out.shape[1:])
        # Sequential cumulative sum over the time axis: identical float
        # summation order to the dense engine's ``total += logits``.
        cumulative = np.cumsum(stepped, axis=0)
        total = np.ascontiguousarray(cumulative[-1])
        outputs = None
        if per_step:
            outputs = [np.ascontiguousarray(cumulative[t]) for t in range(timesteps)]
        return total, outputs

    def _forward_stack(self, x) -> np.ndarray:
        """The model's ``(T*N, ...)`` output for one run's input."""
        if isinstance(x, SpikeStream):
            tiled = self._stack_stream(x)
        else:
            tiled = self._tile_constant(x)
        return self.model(Tensor(tiled)).data

    def _stack_stream(self, stream: SpikeStream) -> np.ndarray:
        """Materialise a COO stream as the engine's (T*N, ...) stack.

        A stream is genuinely time-varying: it densifies into the
        t-major stack with no constant-tiling tag, so every layer runs
        over the full stack.  The event-batched subclass overrides this
        to also note the stream's event count for its density rule.
        """
        dense = stream.to_dense(np.float32)
        return np.ascontiguousarray(
            dense.reshape((self._run_timesteps * stream.batch_size,) + dense.shape[2:])
        )

    def _tile(self, out: np.ndarray) -> np.ndarray:
        """Tile an (N, ...) array into the (T*N, ...) stack."""
        return np.ascontiguousarray(
            np.broadcast_to(out, (self._run_timesteps,) + out.shape)
        ).reshape((self._run_timesteps * out.shape[0],) + out.shape[1:])

    def _tile_constant(self, out: np.ndarray) -> np.ndarray:
        """Tile an (N, ...) array into the (T*N, ...) stack and mark it
        constant, so downstream stateless layers can keep computing on
        the N-batch prefix only."""
        tiled = self._tile(out)
        self._constant_arrays[id(tiled)] = tiled
        return tiled

    def _note_nonzero(self, plane: np.ndarray, count: int, exact: bool = True) -> None:
        """Remember ``plane``'s nonzero count (an upper bound unless
        ``exact``) for the layer that reads it next."""
        self._known_nonzero[id(plane)] = (weakref.ref(plane), int(count), exact)

    def _known(self, data: np.ndarray) -> Optional[Tuple[int, bool]]:
        """``(nonzero count, is_exact)`` noted for ``data``, or None."""
        known = self._known_nonzero.get(id(data))
        if known is None or known[0]() is not data:
            return None
        return known[1], known[2]

    # ------------------------------------------------------------------
    def _install(self, synapse_stats, neuron_stats) -> None:
        # The weight cache survives runs (entries self-invalidate on
        # parameter rebinds); constant-tiling tags and known nonzero
        # counts are run-scoped.
        self._constant_arrays = {}
        self._known_nonzero = {}
        super()._install(synapse_stats, neuron_stats)
        for module in self._stateless_modules:
            interceptor = self._make_stateless_interceptor(module)
            self._set_forward(module, interceptor)

    def _uninstall(self) -> None:
        super()._uninstall()
        self._constant_arrays = {}
        self._known_nonzero = {}

    # ------------------------------------------------------------------
    def _gemm(
        self, module, stat, data: np.ndarray, constant: bool, nonzero: Optional[int]
    ) -> np.ndarray:
        """The dense kernel of a synapse layer, billed by the SIA rule.

        A ``constant`` input runs (and is counted) on its (N, ...)
        prefix only; the caller re-tiles the (N, ...) result.
        ``nonzero`` is the input's exact nonzero count when known.
        """
        work = data[: self._run_batch] if constant else data
        bill_synapse(
            module,
            stat,
            work,
            nonzero=None if constant else nonzero,
            repeat=self._run_timesteps if constant else 1,
            density=self.profile_layers,
        )
        weight = _effective_weight(module, self._weight_cache)
        bias = module.bias.data if module.bias is not None else None
        if isinstance(module, Conv2d):
            return dense_conv2d(work, weight, bias, module.stride, module.padding)
        out = work @ weight.T
        if bias is not None:
            out += bias
        return out

    def _make_interceptor(self, module, stat, orig):
        def forward(x: Tensor) -> Tensor:
            data = x.data
            constant = id(data) in self._constant_arrays
            nonzero, exact = self._known(data) or (None, False)
            out = self._gemm(module, stat, data, constant, nonzero if exact else None)
            return Tensor(self._tile_constant(out) if constant else out)

        return forward

    def _stateless(self, module, forward, data: np.ndarray, constant: bool) -> np.ndarray:
        """Constancy propagation + lean eval-BN through a stateless layer.

        A stateless layer fed a known T-fold tiling computes its output
        on the N-batch prefix once (the caller re-tiles it); any other
        input runs once over the full (T*N, ...) stack.  Eval-mode
        BatchNorm runs the module's exact arithmetic directly on the
        ndarray — the same op sequence, so results are bitwise identical
        to the dense engine's, without the autograd wrappers.
        Training-mode BatchNorm depends on whole-batch statistics, so it
        always runs the module's own ``forward`` on the full stack.
        """
        if module.training:
            return forward(Tensor(data)).data
        work = data[: self._run_batch] if constant else data
        if not isinstance(module, BatchNorm2d):
            return forward(Tensor(work)).data
        shape = (1, module.num_features, 1, 1)
        # ((work - mu) * inv) * g + b, one allocation.
        out = np.subtract(work, module.running_mean.reshape(shape))
        out *= (module.running_var.reshape(shape) + module.eps) ** -0.5
        out *= module.gamma.data.reshape(shape)
        out += module.beta.data.reshape(shape)
        return out

    def _make_stateless_interceptor(
        self, module: Module
    ) -> Callable[[Tensor], Tensor]:
        orig = module.forward

        def forward(x: Tensor) -> Tensor:
            constant = id(x.data) in self._constant_arrays
            out = self._stateless(module, orig, x.data, constant)
            if constant and not module.training:
                out = self._tile_constant(out)
            return Tensor(out)

        return forward

    def _step_neuron(self, module: IFNeuron, data: np.ndarray) -> Tuple[np.ndarray, int]:
        """Step a neuron over the (T*N, ...) stack; returns its spike
        plane and spike count."""
        t = self._run_timesteps
        n = data.shape[0] // t
        stacked = data.reshape((t, n) + data.shape[1:])
        leak_fn = module._leak_fn()
        # The membrane buffer is private to this run (reset to None
        # at run start), so stepping integrates in place.
        v = module.v
        if v is None:
            v = initial_membrane(
                stacked.shape[1:],
                module.threshold,
                module.v_init_fraction,
                dtype=data.dtype,
            )
        out = np.empty(stacked.shape, dtype=np.float32)
        if module.reset == ResetMode.SUBTRACT and v.dtype == np.float32:
            # neuron_step's op sequence fused with the store: the
            # spike plane scaled by the threshold is written once,
            # into the output, and subtracted from it as the reset
            # (``spiked * thr`` is exactly that plane), so no step
            # allocates a temporary.
            thr = np.float32(module.threshold)
            mask = np.empty(stacked.shape[1:], dtype=bool)
            for step in range(t):
                if leak_fn is not None:
                    v = leak_fn(v)
                v += stacked[step]
                np.greater_equal(v, module.threshold, out=mask)
                np.multiply(mask, thr, out=out[step])
                v -= out[step]
        else:
            for step in range(t):
                v, spiked = neuron_step(
                    v,
                    stacked[step],
                    module.threshold,
                    reset=module.reset,
                    leak_fn=leak_fn,
                    in_place=True,
                )
                np.multiply(
                    spiked, module.threshold, out=out[step], casting="unsafe"
                )
        module.v = v
        # Spikes are exactly 0 or threshold (> 0), so one count over
        # the whole (T, N, ...) plane replaces T small reductions.
        spikes = int(np.count_nonzero(out))
        module.spike_count += spikes
        module.neuron_steps += int(out.size)
        module.last_spikes = out[-1] / module.threshold
        return out.reshape(data.shape), spikes

    def _make_neuron_interceptor(
        self, module: IFNeuron, stat: LayerStats
    ) -> Callable[[Tensor], Tensor]:
        def forward(x: Tensor) -> Tensor:
            emitted, spikes = self._step_neuron(module, x.data)
            self._note_nonzero(emitted, spikes)
            return Tensor(emitted)

        return forward
