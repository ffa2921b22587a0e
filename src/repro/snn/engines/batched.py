"""Layer-sequential backend: one pass over a ``(T*N, ...)`` stack.

:meth:`TimeBatchedEngine.bind` compiles the model into a layer schedule
(:func:`_compile`): a list of steps in call order, each taking and
returning one explicit carrier of a layer's output.  A model compiles
when its structure is its ``forward``: a plain :class:`repro.nn.Sequential`
chains its children, nested plain ``Sequential``s flatten into it, an
:class:`repro.nn.Identity` is no step at all, and an
:class:`repro.nn.Residual` whose ``forward`` is the base's becomes one
residual step, which runs its main branch and its shortcut on the same
carrier, adds them densely and runs its post-add module on the sum.
Every module must sit in exactly one slot.  The built-in VGG and
ResNet, the DVS CNN and the serving demo net all compile.  A model that
does not (an arbitrary ``forward``, a module in two slots) runs on the
time-outer path every engine shares, with the billing interceptor
(:meth:`repro.snn.engines.base.SimulationEngine._execute`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, Identity, Linear, MaxPool2d
from repro.nn.module import Module
from repro.nn.sequential import Residual, Sequential
from repro.snn.dynamics import ResetMode, initial_membrane, neuron_step
from repro.snn.engines.base import (
    LRUCache,
    SimulationEngine,
    WEIGHT_CACHE_CAPACITY,
    _effective_weight,
    bill_synapse,
)
from repro.snn.engines.dense import dense_conv2d
from repro.snn.engines.lanes import split_bounds
from repro.snn.neurons import IFNeuron
from repro.snn.spikes import SpikeStream
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


@dataclass(frozen=True)
class _Stack:
    """A dense ``(T*N, ...)`` stack and what is known of it.

    ``nonzero`` is its nonzero count — exact when ``exact``, otherwise
    an upper bound only the event-batched density rule's gates read —
    or None when unknown.  ``constant`` marks a T-fold tiling of an
    ``(N, ...)`` prefix (the direct-coded frame), which stateless layers
    compute once on the prefix and re-tile.
    """

    data: np.ndarray
    nonzero: Optional[int] = None
    exact: bool = False
    constant: bool = False

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape


#: A compiled model: ``(name, module, branches)`` per step, in call
#: order.  ``branches`` is None for a layer, or a residual block's
#: compiled ``(main, shortcut, post)``.
Compiled = List[Tuple[str, Module, Optional[tuple]]]


def _plain(module: Module, container: type) -> bool:
    """``module`` is a ``container`` whose ``forward`` is the container's
    own, so its declared structure is what it runs."""
    return isinstance(module, container) and type(module).forward is container.forward


def _compile(model: Module) -> Optional[Compiled]:
    """The steps ``model`` runs, named and in call order, or None when
    its ``forward`` is not provably them.

    Anything holding children other than a plain ``Sequential`` or
    ``Residual`` (a ``Sequential`` subclass with its own ``forward``)
    may read a plane twice, and a module held in two slots may be called
    from elsewhere, so either refuses the schedule.
    """
    if not model._modules:
        return None
    slots = Counter(
        id(child) for module in model.modules() for child in module._modules.values()
    )
    if any(count != 1 for count in slots.values()):
        return None
    names = {id(module): name for name, module in model.named_modules()}

    def chain(modules) -> Optional[Compiled]:
        steps: Compiled = []
        for module in modules:
            if _plain(module, Sequential):
                sub = chain(module._modules.values())
            elif _plain(module, Residual):
                sub = residual(module)
            elif module._modules:
                return None
            else:
                sub = [] if isinstance(module, Identity) else [(names[id(module)], module, None)]
            if sub is None:
                return None
            steps += sub
        return steps

    def residual(block: Residual) -> Optional[Compiled]:
        main, shortcut, post = block.parts()
        declared = [*main, shortcut, post]
        if sorted(map(id, declared)) != sorted(map(id, block._modules.values())):
            return None
        branches = (chain(main), chain([shortcut]), chain([post]))
        if any(branch is None for branch in branches):
            return None
        return [(names[id(block)], block, branches)]

    return chain([model])


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

    The model runs as its compiled layer schedule (module docstring);
    this engine's steps are its GEMM, stateless and neuron kernels
    (:meth:`_gemm`, :meth:`_stateless`, :meth:`_step_neuron`) over
    :class:`_Stack` carriers, and it is the bit reference the
    event-batched engine, which overrides only the steps, is held to.
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
        # The bound model's steps, compiled per bind (None: the model
        # runs on the time-outer path).
        self._schedule: Optional[list] = None
        self._run_timesteps = 0
        self._run_batch = 0

    def _share_caches(self, peer: "SimulationEngine") -> None:
        peer._weight_cache = self._weight_cache

    def bind(self, model: Module) -> "TimeBatchedEngine":
        super().bind(model)
        compiled = _compile(model)
        self._schedule = None if compiled is None else self._steps(compiled)
        return self

    def _steps(self, compiled: Compiled) -> list:
        """``(name, module, step)`` per compiled entry; a step maps
        ``(module, stat, carrier) -> carrier``, ``stat`` None for a
        module without a profile row."""
        return [
            (name, module, self._step_for(module) if branches is None
             else self._residual(*map(self._steps, branches)))
            for name, module, branches in compiled
        ]

    def _step_for(self, module: Module):
        if isinstance(module, (Conv2d, Linear)):
            return self._synapse
        if isinstance(module, IFNeuron):
            return self._neuron
        if isinstance(module, BatchNorm2d):
            return self._bn
        if isinstance(module, (AvgPool2d, MaxPool2d)):
            return self._pool
        return self._module_step

    # ------------------------------------------------------------------
    def _sample_blocks(self, batch: int, timesteps: int) -> List[Tuple[int, int]]:
        per_block = max(STACK_BLOCK_ROWS // timesteps, 1)
        return split_bounds(batch, -(-batch // per_block))

    def _execute(
        self, x, timesteps: int, per_step: bool
    ) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
        if self._schedule is None:
            return super()._execute(x, timesteps, per_step)
        n = int(x.shape[0])
        self._run_timesteps = timesteps
        self._run_batch = n
        with no_grad():
            out = self._dense(self._run_steps(self._schedule, self._input(x)))
        stepped = out.reshape((timesteps, n) + out.shape[1:])
        # Sequential cumulative sum over the time axis: identical float
        # summation order to the dense engine's ``total += logits``.
        cumulative = np.cumsum(stepped, axis=0)
        total = np.ascontiguousarray(cumulative[-1])
        outputs = None
        if per_step:
            outputs = [np.ascontiguousarray(cumulative[t]) for t in range(timesteps)]
        return total, outputs

    def _run_steps(self, steps: list, carrier):
        """Hand ``carrier`` through ``steps``, timing each profiled one."""
        for name, module, step in steps:
            stat = self._run_stats.get(name)
            if stat is None or not self.profile_layers:
                carrier = step(module, stat, carrier)
                continue
            started = time.perf_counter()
            carrier = step(module, stat, carrier)
            stat.wall_clock_seconds += time.perf_counter() - started
        return carrier

    def _input(self, x):
        """The first step's carrier: a stream's densified t-major stack,
        or the frame tiled T-fold and marked constant."""
        if isinstance(x, SpikeStream):
            dense = x.to_dense(np.float32)
            return _Stack(np.ascontiguousarray(dense.reshape((-1,) + dense.shape[2:])))
        return _Stack(self._tile(x), constant=True)

    def _dense(self, x) -> np.ndarray:
        """The dense stack a carrier stands for."""
        return x.data

    def _tile(self, out: np.ndarray) -> np.ndarray:
        """Tile an (N, ...) array into the (T*N, ...) stack."""
        return np.ascontiguousarray(
            np.broadcast_to(out, (self._run_timesteps,) + out.shape)
        ).reshape((self._run_timesteps * out.shape[0],) + out.shape[1:])

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def _residual(self, main: list, shortcut: list, post: list):
        """A residual block's step: both branches on the same carrier
        (steps never write their input), added densely, then ``post``."""

        def step(module, stat, x):
            out = self._run_steps(main, x)
            added = np.add(self._dense(out), self._dense(self._run_steps(shortcut, x)))
            return self._run_steps(post, _Stack(added))

        return step

    def _synapse(self, module, stat, x: _Stack) -> _Stack:
        out = self._gemm(module, stat, x.data, x.constant, x.nonzero if x.exact else None)
        return _Stack(self._tile(out), constant=True) if x.constant else _Stack(out)

    def _neuron(self, module: IFNeuron, stat, x) -> _Stack:
        # The step counts its spikes, so the output's exact nonzero
        # count is free: the next layer's billing skips a re-count.
        out, spikes = self._step_neuron(module, self._dense(x))
        return _Stack(out, spikes, exact=True)

    def _stateless_step(self, module, stat, x) -> _Stack:
        """A stateless layer on the dense stack; a constant tiling stays
        one, computed on its prefix (eval mode)."""
        constant = isinstance(x, _Stack) and x.constant
        out = self._stateless(module, self._dense(x), constant)
        if constant and not module.training:
            return _Stack(self._tile(out), constant=True)
        return _Stack(out)

    # BN and the pools run as any stateless layer here; the event-batched
    # engine gives each a step of its own.
    _bn = _pool = _stateless_step

    def _module_step(self, module, stat, x) -> _Stack:
        """Any other layer (``Flatten``, global pooling): its own forward."""
        return _Stack(module(Tensor(self._dense(x))).data)

    # ------------------------------------------------------------------
    # Kernels
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

    def _stateless(self, module, data: np.ndarray, constant: bool) -> np.ndarray:
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
            return module(Tensor(data)).data
        work = data[: self._run_batch] if constant else data
        if not isinstance(module, BatchNorm2d):
            return module(Tensor(work)).data
        shape = (1, module.num_features, 1, 1)
        # ((work - mu) * inv) * g + b, one allocation.
        out = np.subtract(work, module.running_mean.reshape(shape))
        out *= (module.running_var.reshape(shape) + module.eps) ** -0.5
        out *= module.gamma.data.reshape(shape)
        out += module.beta.data.reshape(shape)
        return out

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
