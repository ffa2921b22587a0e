"""COO-native time-batched backend: one gather per layer, sparsity carried explicitly.

:class:`EventBatchedEngine` (also named ``auto``) merges the two fast
paths the suite already has — the time-batched schedule (one pass over
the t-major ``(T*N, ...)`` stack, T-fold fewer layer dispatches) and
event-driven selection (compute scales with spikes, not plane size) —
and lets one per-layer density rule pick each synapse layer's kernel
from the spikes that layer receives on this call (see the class).  A
bound model runs on one of two paths.

**The layer schedule** (a plain :class:`repro.nn.Sequential`, nested
plain ``Sequential``s flattened, every module in one slot).
:meth:`EventBatchedEngine.bind` compiles the model into a list of
steps (:func:`_compile`).  Each step takes and returns one explicit
carrier of a layer's output:

* :class:`_Stack` — a dense stack, with its nonzero count (exact, or an
  upper bound) and whether it tiles the constant input frame T-fold;
* :class:`repro.snn.spikes.StepSpikes` — exact stacked coordinates
  (stream input, COO pool outputs, site-neuron outputs).  A conv builds
  its im2col rows by scattering each event into the windows it feeds
  (:func:`repro.snn.engines.event.conv_event_rows`) and runs one
  row-subset GEMM over all T timesteps
  (:func:`repro.snn.engines.event.conv_rows`); a non-overlapping pool
  maps the events through its windows, and an average pool looks each
  window's value up from its event count.  A linear never reads
  coordinates: it runs the full GEMM over every stack row, because a
  GEMM over a row subset may pick another BLAS kernel and differ in the
  last bit, and bills from the event count;
* :class:`_Sites` — a conv output that is a per-channel background
  everywhere except at its active rows, with the rows' ``(rows, C)``
  value block (or the dense plane holding it).  Eval BN maps the block
  and the background, and the neuron bounds every site's peak membrane
  from the block alone, steps only the sites whose bound reaches
  threshold and hands on its spikes as coordinates (``_site_neuron``),
  building no block sized by the plane.

A step that cannot read the carrier it receives builds the dense stack
from it (:func:`_plane`), once, where it is needed.  A ``Sequential``'s
``forward`` hands each child's output to the next child and to nothing
else, so compiling the chain *is* the proof that every carrier has
exactly one reader.

**Interceptors** (graph models: ResNet, VGG's own ``forward``,
``Sequential`` subclasses with their own ``forward``, modules held in
two slots).  Their ``forward`` code may read a plane twice, so the
batched engine's forward interceptors run the same density rule on
dense planes only; nonzero counts (exact spike counts, pool and conv
bounds) travel in ``TimeBatchedEngine._known_nonzero`` and every
neuron steps densely.

Nonzero counts are what make the backend safe at moderate density:
full-plane coordinate scans cost milliseconds at the sizes where dense
GEMM wins anyway, so the engine budgets them.  A conv first bounds its
active-window fraction from the carried count (``events x windows-per-
event / output rows``); only if the bound stays under ``window_pregate``
does it enumerate windows, and only if the enumerated fraction stays
under ``gather_limit`` does it gather — otherwise it falls back to the
dense kernel having spent O(1) or O(events), not O(plane).

Every fast path is *bitwise identical* to the dense time-batched
reference: row-subset GEMMs reduce each output element with the same
summation the full GEMM uses, silent rows come out exactly ``+0.0``,
BN and pooling replicate the reference kernels' exact op sequences at
active sites and on the background, and the screened membrane update
runs the stepper's exact op sequence at every site it keeps (at a
screened-out site no cell ever spikes).  Logits, per-step outputs,
spike counts, membranes and recorded densities all match
``TimeBatchedEngine`` exactly; op billing counts performed ops on
layers that took a coordinate path or are sparse linears, and full MACs
on layers a gate sent to the GEMM first — ``LayerStats.backend`` and
``LayerStats.backend_source`` record which, and a neuron's
``LayerStats.backend`` records whether it stepped ``sites`` or
``dense``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, Linear, MaxPool2d
from repro.nn.module import Module
from repro.nn.sequential import Sequential
from repro.snn.dynamics import ResetMode, initial_membrane
from repro.snn.engines.base import (
    _conv_out_size,
    _dense_op_count,
    _effective_weight,
)
from repro.snn.engines.batched import TimeBatchedEngine
from repro.snn.engines.dense import dense_conv2d
from repro.snn.engines.event import (
    conv_event_rows,
    conv_rows,
    distinct,
    pooled_coords,
)
from repro.snn.neurons import IFNeuron, LIFNeuron
from repro.snn.spikes import SpikeStream, StepSpikes
from repro.snn.stats import LayerStats
from repro.tensor import Tensor


@dataclass(frozen=True)
class _Stack:
    """A dense ``(T*N, ...)`` stack and what is known of it.

    ``nonzero`` is its nonzero count — exact when ``exact``, otherwise
    an upper bound only the density rule's gates read — or None when
    unknown.  ``constant`` marks a T-fold tiling of an ``(N, ...)``
    prefix (the direct-coded frame), which stateless layers compute
    once on the prefix and re-tile.
    """

    data: np.ndarray
    nonzero: Optional[int] = None
    exact: bool = False
    constant: bool = False

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape


@dataclass(frozen=True)
class _Sites:
    """A conv output that is a per-channel constant everywhere except at
    a few spatial sites.

    ``rows`` are the sorted flattened spatial sites ``b * OH * OW + oy *
    OW + ox`` (over the stacked ``(T*N, C, OH, OW)`` plane of ``shape``,
    channel axis excluded — a window touches all output channels at
    once) that a convolution actually computed; ``background`` is the
    ``(C,)`` value every *other* site holds — exactly zero for a
    bias-free conv, ``0 + bias`` for a biased conv, BN of that after
    eval BN.  A constant background is what licenses the screened
    membrane update downstream: untouched sites of one channel all
    follow a single shared trajectory.

    ``values`` is the ``(rows, C)`` block at ``rows``; when the conv
    ran its dense kernel, ``plane`` holds the dense plane instead.
    ``nonzero`` bounds the plane's nonzeros for the density rule.
    """

    shape: Tuple[int, ...]
    rows: np.ndarray
    background: np.ndarray
    values: Optional[np.ndarray] = None
    plane: Optional[np.ndarray] = None
    nonzero: Optional[int] = None


#: What one schedule step hands the next.
Carrier = Union[_Stack, StepSpikes, _Sites]


def _dense_plane(sites: _Sites) -> np.ndarray:
    """The dense plane site values stand for: the background broadcast,
    the values scattered — the dense kernels' exact values."""
    n, c, h, w = sites.shape
    s = h * w
    out = np.empty((n, c, s), dtype=sites.values.dtype)
    out[:] = sites.background[np.newaxis, :, np.newaxis]
    out[sites.rows // s, :, sites.rows % s] = sites.values
    return out.reshape(sites.shape)


def _plane(x: Carrier) -> np.ndarray:
    """The dense stack a carrier stands for, built only when a step
    that reads dense planes receives it."""
    if isinstance(x, _Stack):
        return x.data
    if isinstance(x, StepSpikes):
        return x.to_dense(np.float32)
    return x.plane if x.plane is not None else _dense_plane(x)


def _values(sites: _Sites) -> np.ndarray:
    """The ``(rows, C)`` value block of ``sites``."""
    if sites.values is not None:
        return sites.values
    n, c, h, w = sites.shape
    s = h * w
    return sites.plane.reshape(n, c, s)[sites.rows // s, :, sites.rows % s]


def _nonzero(x: Carrier) -> Optional[Tuple[int, bool]]:
    """``(nonzero count, is_exact)`` as carried; None when unknown."""
    if isinstance(x, StepSpikes):
        return x.num_events, True
    if x.nonzero is None:
        return None
    return x.nonzero, isinstance(x, _Stack) and x.exact


def _plain_sequential(module: Module) -> bool:
    """A :class:`repro.nn.Sequential` whose ``forward`` hands each
    child's output to the next child and to nothing else."""
    return (
        isinstance(module, Sequential)
        and type(module).forward is Sequential.forward
    )


def _compile(model: Module) -> Optional[List[Tuple[str, Module]]]:
    """The leaf modules a plain ``Sequential`` runs, named and in call
    order, or None when the model's forward is not provably that chain.

    Nested plain ``Sequential``s flatten into their parent.  Anything
    else holding children (a residual block, a ``Sequential`` subclass
    with its own ``forward``) may read a plane twice, and a module held
    in two slots may be called from elsewhere, so either refuses the
    schedule and the model runs on interceptors.
    """
    if not _plain_sequential(model) or not model._modules:
        return None
    slots = Counter(
        id(child) for module in model.modules() for child in module._modules.values()
    )
    leaves: List[Tuple[str, Module]] = []
    for name, module in model.named_modules():
        if module is model:
            continue
        if slots[id(module)] != 1:
            return None
        if _plain_sequential(module):
            continue
        if module._modules:
            return None
        leaves.append((name, module))
    return leaves


_POOLS = (MaxPool2d, AvgPool2d)


def _screen(
    xt: np.ndarray,
    site: np.ndarray,
    sites: int,
    background: np.ndarray,
    v0: np.floating,
    threshold: np.floating,
    timesteps: int,
) -> np.ndarray:
    """Ranks of the touched sites at which some channel's membrane may
    reach ``threshold``; at every other site no cell ever spikes.

    ``xt`` is the channel-major ``(C, rows)`` input of the touched
    sites, column ``i`` one step of site ``site[i]``; every other step
    of a site receives ``background``.  Until its first spike a cell
    integrates without reset, and neither a leak in ``(0, 1]`` nor an add
    lifts its membrane above ``max(v0, 0)`` plus the positive inputs so
    far, so its peak is at most ``max(v0, 0) + sum of max(x, 0) over its
    touched steps + (T - touched steps) * max(background, 0)``.  Taking
    each input's maximum over the channels bounds every cell of a site
    at once.  Each of the stepper's at most ``2T`` rounded ops inflates
    the bound by at most a factor ``1 + eps / 2``; the bound, a sum of
    non-negative terms, is summed in float64 and compared with a ``4T *
    eps`` margin, which covers both.  It reads the value block once, in
    one pass over the channels: no ``(T, sites, C)`` block is built.
    """
    rise = np.bincount(site, weights=np.maximum(xt.max(axis=0), 0), minlength=sites)
    quiet = timesteps - np.bincount(site, minlength=sites)
    peak = rise + quiet * max(float(background.max()), 0.0)
    margin = 1.0 + 4 * timesteps * float(np.finfo(xt.dtype).eps)
    return np.flatnonzero(peak >= float(threshold) / margin - max(float(v0), 0.0))


def _scanned_events(data: np.ndarray) -> StepSpikes:
    """The nonzeros of a dense plane as events, amplitudes included."""
    nonzero = np.nonzero(data)
    return StepSpikes(
        coords=np.stack(nonzero, axis=1), shape=data.shape, values=data[nonzero]
    )


@dataclass(frozen=True)
class _SiteRun:
    """What the site neuron computed, from which its membrane and last
    spike plane are built on first read.

    ``ind`` are the touched flat ``sample * H * W + spatial`` sites;
    ``step``/``site`` each value row's step and rank in ``ind``, and
    ``values`` the ``(rows, C)`` block; ``vbg`` and ``pattern`` the
    shared background trajectory's final membrane and ``(T, C)`` firing
    pattern; ``kept`` the ranks of the stepped sites, ``v`` their final
    ``(C, kept)`` membrane and ``last`` the flat positions in it that
    fired at the last step.
    """

    shape: Tuple[int, ...]
    ind: np.ndarray
    step: np.ndarray
    site: np.ndarray
    values: np.ndarray
    background: np.ndarray
    v0: np.floating
    leak_fn: object
    thr: np.ndarray
    threshold: float
    vbg: np.ndarray
    pattern: np.ndarray
    kept: np.ndarray
    v: np.ndarray
    last: np.ndarray

    def _scatter(self, fill: np.ndarray, block: np.ndarray) -> np.ndarray:
        """A ``shape`` plane holding ``fill[c]`` at every untouched site
        and the channel-major ``(C, sites)`` ``block`` at the touched
        ones."""
        n, c, hh, ww = self.shape
        sample, spatial = np.divmod(self.ind, hh * ww)
        out = np.empty((n, c, hh * ww), dtype=block.dtype)
        out[:] = fill[np.newaxis, :, np.newaxis]
        out[sample, :, spatial] = block.T
        return out.reshape(self.shape)

    def membrane(self) -> np.ndarray:
        """The stepped engines' final membrane: at every touched site the
        running sums in the stepper's op sequence (a site the screen
        dropped never spikes, so its sums are its membrane), the stepped
        sites' values over them, the background trajectory elsewhere."""
        t, c = self.pattern.shape
        x = np.empty((t, c, self.ind.size), dtype=self.values.dtype)
        x[:] = self.background[:, np.newaxis]
        x[self.step, :, self.site] = self.values
        v = np.full((c, self.ind.size), self.v0, dtype=self.values.dtype)
        for step in range(t):
            if self.leak_fn is not None:
                v = self.leak_fn(v)
            v += x[step]
        v[:, self.kept] = self.v
        return self._scatter(self.vbg, v)

    def last_spikes(self) -> np.ndarray:
        """The last step's spike plane over the threshold, as the
        stepped engines compute it."""
        c = self.pattern.shape[1]
        stepped = np.zeros(self.v.size, dtype=np.float32)
        stepped[self.last] = self.thr
        block = np.zeros((c, self.ind.size), dtype=np.float32)
        block[:, self.kept] = stepped.reshape(self.v.shape)
        fill = (self.pattern[-1] * self.thr).astype(np.float32)
        return self._scatter(fill, block) / self.threshold


def _site_events(
    shape: Tuple[int, ...],
    fired: np.ndarray,
    site: np.ndarray,
    quiet: np.ndarray,
    pattern: np.ndarray,
) -> np.ndarray:
    """The site neuron's ``(E, 4)`` stacked output coordinates.

    ``fired`` are the flat positions in the stepped ``(T, C, sites)``
    spike block, ``site`` the block's flat ``sample * H * W + spatial``
    sites; the untouched ``quiet`` sites fire at every ``(step,
    channel)`` of the background ``pattern``.  Built column by column,
    each over its contiguous event axis, and returned as the transposed
    view.
    """
    n, c, hh, ww = shape
    plane = fired // site.size  # step * C + channel
    step = plane // c
    on_step, on_channel = np.nonzero(pattern)
    out = np.empty((4, fired.size + on_step.size * quiet.size), dtype=np.int64)
    head = out[:, : fired.size]
    tail = out[:, fired.size :].reshape(4, on_step.size, quiet.size)
    for events, sites in ((head, site[fired - plane * site.size]), (tail, quiet)):
        sample = sites // (hh * ww)
        spatial = sites - sample * (hh * ww)
        events[0] = sample
        events[2] = spatial // ww
        events[3] = spatial - events[2] * ww
    head[0] += step * n
    head[1] = plane - step * c
    tail[0] += on_step[:, np.newaxis] * n
    tail[1] = on_channel[:, np.newaxis]
    return out.T


def _window_means(scale: float, counts: np.ndarray, k: int) -> np.ndarray:
    """Average-pooled values of ``k`` by ``k`` windows holding
    ``counts`` events of amplitude ``scale`` each.

    The dense kernel sums a window's taps in order, and adding a ``+0.0``
    tap is exact, so a window holding ``j`` events sums to the ``j``-th
    running sum of the amplitude (``s``, ``s + s``, ``(s + s) + s``, ...)
    wherever they sit; one float32 cumulative sum tabulates those, and
    the kernel's float32 ``1 / k²`` scales them — its bits.
    """
    sums = np.cumsum(np.full(k * k, scale, dtype=np.float32))
    return sums[counts - 1] * np.asarray(1.0 / (k * k), dtype=np.float32)


class EventBatchedEngine(TimeBatchedEngine):
    """Time-batched schedule with COO-native layer execution.

    See the module docstring for the dataflow.  Registered as
    ``"event-batched"`` and as ``"auto"``: one deterministic per-layer
    density rule picks each synapse layer's kernel from the spikes that
    layer receives on this call, as the paper's accelerator does.  Its
    gates, in order, each send the layer to the plain GEMM, and
    ``LayerStats.backend_source`` records the one that decided:

    * ``constant`` — the input is the tiled constant frame;
    * ``density`` — the nonzero fraction reaches ``density_threshold``
      (the GEMM bills dense MACs);
    * ``linear`` — a linear always runs the GEMM over every stack row
      and bills one op per input event and output feature;
    * ``pregate`` — the O(1) bound on a conv's active-window fraction
      reaches ``window_pregate``;
    * ``rows`` — the enumerated active-row fraction decides: under
      ``gather_limit`` the conv runs the COO row-subset kernel
      (backend ``event-batched``), above it one dense GEMM.

    Every path is bitwise identical to :class:`TimeBatchedEngine`, so
    the thresholds trade wall clock only.
    """

    name = "event-batched"

    #: Reject the conv gather in O(1) when ``events * windows-per-event``
    #: reaches this multiple of the output rows.  The bound counts every
    #: event of every channel as a separate window, so it overcounts
    #: badly: the DVS benchmark's third conv (16 input channels, ~0.5%
    #: dense) reads 0.84-0.95 (seeds 1-3) yet enumerates under
    #: ``gather_limit`` and runs about 0.8 ms on COO against 6.1 ms on
    #: GEMM, while every conv of the VGG frame benchmark past the input
    #: frame reads 18-123.  Any cut from about 1.5 to 10 separates them.
    window_pregate = 2.0
    #: Row gather + subset GEMM beat one dense GEMM below roughly this
    #: active-row fraction (measured crossover ~0.3 on OpenBLAS).
    gather_limit = 0.3
    #: Build pooled planes in COO form below this input density.
    pool_coo_limit = 0.25

    # perfbench reads these three on every engine run; a rule has no plan.
    calibration_runs = 0
    replans_triggered = 0

    def plan_for(self, input_shape, timesteps, kind="dense"):
        return None

    def __init__(
        self, density_threshold: float = 0.6, profile_layers: bool = True
    ) -> None:
        super().__init__(profile_layers=profile_layers)
        if not 0.0 < density_threshold <= 1.0:
            raise ValueError("density_threshold must be in (0, 1]")
        self.density_threshold = density_threshold
        # The bound model's steps, compiled per bind (None: the model
        # runs on interceptors), and the current run's layer stats.
        self._schedule: Optional[list] = None
        self._run_stats: dict = {}

    def bind(self, model: Module) -> "EventBatchedEngine":
        super().bind(model)
        leaves = _compile(model)
        self._schedule = None if leaves is None else [
            (name, module, self._step_for(module)) for name, module in leaves
        ]
        return self

    def _config(self) -> dict:
        config = super()._config()
        config["density_threshold"] = self.density_threshold
        return config

    def rule(self) -> str:
        """The density rule's thresholds, as one line (``--profile``)."""
        return (
            f"gemm at input density >= {self.density_threshold}, conv window "
            f"bound >= {self.window_pregate} or active rows >= "
            f"{self.gather_limit}; linears always gemm; else event-batched"
        )

    # ------------------------------------------------------------------
    # The layer schedule
    # ------------------------------------------------------------------
    def _step_for(self, module: Module):
        """The step that runs ``module``: ``(module, stat, carrier) ->
        carrier``; ``stat`` is None for layers without a profile row."""
        if isinstance(module, (Conv2d, Linear)):
            return self._synapse
        if isinstance(module, IFNeuron):
            return self._neuron
        if isinstance(module, BatchNorm2d):
            return self._bn
        if isinstance(module, _POOLS):
            return lambda m, stat, x: self._pool(m, m.forward, x)
        return lambda m, stat, x: _Stack(m(Tensor(_plane(x))).data)

    def _install(self, synapse_stats, neuron_stats) -> None:
        if self._schedule is None:
            super()._install(synapse_stats, neuron_stats)
        else:
            self._run_stats = {**synapse_stats, **neuron_stats}

    def _uninstall(self) -> None:
        if self._schedule is None:
            super()._uninstall()
        self._run_stats = {}

    def _forward_stack(self, x) -> np.ndarray:
        if self._schedule is None:
            return super()._forward_stack(x)
        if isinstance(x, SpikeStream):
            carrier: Carrier = x.stacked()
        else:
            carrier = _Stack(self._tile(x), constant=True)
        for name, module, step in self._schedule:
            stat = self._run_stats.get(name)
            if stat is None or not self.profile_layers:
                carrier = step(module, stat, carrier)
                continue
            if stat.kind != "neuron":
                # Counted outside the timed region, like profiled_call.
                stat.input_nonzero += self._input_nonzero(carrier)
                stat.input_size += int(math.prod(carrier.shape))
            started = time.perf_counter()
            carrier = step(module, stat, carrier)
            stat.wall_clock_seconds += time.perf_counter() - started
        return _plane(carrier)

    def _input_nonzero(self, x: Carrier) -> int:
        """The exact nonzero count of a synapse layer's input."""
        known = _nonzero(x)
        if known is not None and known[1]:
            return known[0]
        if isinstance(x, _Stack) and x.constant:
            return int(np.count_nonzero(x.data[: self._run_batch])) * self._run_timesteps
        return int(np.count_nonzero(_plane(x)))

    # ------------------------------------------------------------------
    # Interceptors (graph models): dense planes plus nonzero counts
    # ------------------------------------------------------------------
    def _stack_stream(self, stream: SpikeStream) -> np.ndarray:
        tiled = super()._stack_stream(stream)
        self._note_nonzero(tiled, stream.num_events)
        return tiled

    def _carrier_of(self, data: np.ndarray) -> _Stack:
        nonzero, exact = self._known(data) or (None, False)
        return _Stack(data, nonzero, exact, id(data) in self._constant_arrays)

    def _unwrap(self, x: Carrier) -> Tensor:
        """A step's output as the dense plane an interceptor returns,
        its constancy or nonzero count noted for the next layer."""
        plane = _plane(x)
        known = _nonzero(x)
        if isinstance(x, _Stack) and x.constant:
            self._constant_arrays[id(plane)] = plane
        elif known is not None:
            self._note_nonzero(plane, *known)
        return Tensor(plane)

    def _make_interceptor(self, module, stat, orig):
        return lambda x: self._unwrap(self._synapse(module, stat, self._carrier_of(x.data)))

    def _make_stateless_interceptor(self, module: Module):
        if not isinstance(module, _POOLS):
            return super()._make_stateless_interceptor(module)
        orig = module.forward
        return lambda x: self._unwrap(self._pool(module, orig, self._carrier_of(x.data)))

    def _make_neuron_interceptor(self, module: IFNeuron, stat: LayerStats):
        stat.backend = "dense"
        return super()._make_neuron_interceptor(module, stat)

    # ------------------------------------------------------------------
    # Synapse layers: the density rule
    # ------------------------------------------------------------------
    def _on_gemm(self, module, stat: LayerStats, source: str, x: _Stack) -> _Stack:
        stat.backend, stat.backend_source = "gemm", source
        out = self._gemm(module, stat, x.data, x.constant)
        return _Stack(self._tile(out), constant=True) if x.constant else _Stack(out)

    def _synapse(self, module, stat: LayerStats, x: Carrier) -> Carrier:
        # Each gate below may send the layer to the GEMM;
        # ``backend_source`` records the one that decided.
        if isinstance(x, _Sites):
            x = _Stack(_plane(x), x.nonzero)
        if isinstance(x, _Stack) and x.constant:
            return self._on_gemm(module, stat, "constant", x)
        known = _nonzero(x)
        if known is None:
            # Unknown plane (flattened features): one cheap count
            # decides; coordinates only if it pays.
            known = int(np.count_nonzero(x.data)), True
        count, exact = known
        if count >= self.density_threshold * math.prod(x.shape):
            return self._on_gemm(module, stat, "density", _Stack(_plane(x)))
        if not isinstance(module, Conv2d):
            return self._sparse_linear(module, stat, _plane(x), count, exact)
        k, s_, p = module.kernel_size, module.stride, module.padding
        oh = _conv_out_size(x.shape[2], k, s_, p)
        ow = _conv_out_size(x.shape[3], k, s_, p)
        nwin = (1 + (k - 1) // s_) ** 2
        if count * nwin >= self.window_pregate * x.shape[0] * oh * ow:
            # O(1) rejection: even the loosest bound on the active-window
            # fraction says one GEMM wins.
            return self._on_gemm(module, stat, "pregate", _Stack(_plane(x)))
        stat.dense_synaptic_ops += _dense_op_count(module, x.shape)
        out, performed, gathered = self._coo_conv(module, x)
        stat.synaptic_ops += performed
        stat.backend = "event-batched" if gathered else "gemm"
        stat.backend_source = "rows"
        return out

    def _coo_conv(self, module: Conv2d, x: Union[_Stack, StepSpikes]):
        """Run a conv from its input's events.

        Returns ``(sites, performed_ops, gathered)``; the output is
        bitwise identical to the dense kernel's either way.  The events
        are ``x``'s coordinates, or a scan of its dense plane.  The
        enumerated active-window fraction decides between the row-subset
        GEMM (:func:`repro.snn.engines.event.conv_rows`, over rows built
        from the events and their amplitudes by
        :func:`repro.snn.engines.event.conv_event_rows`) and one dense
        GEMM (``gathered`` records which); performed ops are billed from
        the events in both cases.
        """
        step = x if isinstance(x, StepSpikes) else _scanned_events(x.data)
        weight = _effective_weight(module, self._weight_cache)
        bias = module.bias.data if module.bias is not None else None
        k, s_, p = module.kernel_size, module.stride, module.padding
        n, _, h, w = x.shape
        oh, ow = _conv_out_size(h, k, s_, p), _conv_out_size(w, k, s_, p)
        shape = (n, module.out_channels, oh, ow)
        windows = n * oh * ow
        amplitude = step.scale if step.values is None else step.values
        dtype = x.data.dtype if isinstance(x, _Stack) else np.float32
        active_rows, entries, block = conv_event_rows(
            step.coords, amplitude, x.shape, k, s_, p, dtype,
            max_rows=self.gather_limit * windows,
        )
        background = np.zeros(
            module.out_channels, dtype=np.result_type(dtype, weight.dtype)
        )
        if bias is not None:
            background = background + bias  # a silent window's 0 + bias
        gathered = block is not None
        sites = _Sites(
            shape,
            active_rows,
            background,
            values=conv_rows(block, weight, bias, active_rows, windows) if gathered else None,
            plane=None if gathered else dense_conv2d(_plane(x), weight, bias, s_, p),
            nonzero=min(active_rows.size * module.out_channels, int(math.prod(shape))),
        )
        return sites, entries * module.out_channels, gathered

    def _sparse_linear(self, module, stat, dense, count: int, exact: bool) -> _Stack:
        """A sparse linear: the plain GEMM over every stack row, billed
        one op per (input event, output feature).

        A GEMM over the rows with events alone may pick another BLAS
        kernel for the smaller M and differ in the last bit, so the
        coordinates buy nothing here; only a bounded count is rescanned
        for the exact one.
        """
        if not exact:
            count = int(np.count_nonzero(dense))
        stat.synaptic_ops += count * module.out_features
        stat.dense_synaptic_ops += _dense_op_count(module, dense.shape)
        stat.backend, stat.backend_source = "gemm", "linear"
        out = dense @ _effective_weight(module, self._weight_cache).T
        if module.bias is not None:
            out += module.bias.data
        return _Stack(out)

    # ------------------------------------------------------------------
    # Stateless layers: BN at active sites, COO pooling
    # ------------------------------------------------------------------
    def _bn(self, module: BatchNorm2d, stat, x: Carrier) -> Carrier:
        if (
            isinstance(x, _Sites)
            and not module.training
            and 2 * x.rows.size < x.shape[0] * x.shape[2] * x.shape[3]
        ):
            # BN is site-local, so the sites survive it verbatim, with
            # BN(background) as the new background: its exact op
            # sequence on the ``(rows, C)`` block and on the ``(C,)``
            # background, at ``O(active sites · C)``.
            inv = (module.running_var + module.eps) ** -0.5
            mu, g, b = module.running_mean, module.gamma.data, module.beta.data
            return _Sites(
                x.shape,
                x.rows,
                background=((x.background - mu) * inv) * g + b,
                values=((_values(x) - mu) * inv) * g + b,
            )
        return self._dense_stateless(module, module.forward, x)

    def _dense_stateless(self, module, forward, x: Carrier) -> _Stack:
        """A stateless layer on the dense stack; a constant tiling stays
        one, computed on its prefix (eval mode)."""
        constant = isinstance(x, _Stack) and x.constant
        out = self._stateless(module, forward, _plane(x), constant)
        if constant and not module.training:
            return _Stack(self._tile(out), constant=True)
        return _Stack(out)

    def _pool(self, module, forward, x: Carrier) -> Carrier:
        if isinstance(x, _Stack) and x.constant:
            return self._dense_stateless(module, forward, x)
        if (
            isinstance(x, StepSpikes)
            and len(x.shape) == 4
            and x.density < self.pool_coo_limit
        ):
            out = self._coo_pool(module, x)
            if out is not None:
                return out
        known = _nonzero(x)
        plane = forward(Tensor(_plane(x))).data
        if isinstance(x, StepSpikes):
            # The COO kernel didn't apply, but the coordinates still map
            # through non-overlapping windows: an average is nonzero
            # where its window holds an event, a max where it holds a
            # positive one.
            coords = pooled_coords(x, module.kernel_size, module.stride, plane.shape)
            if coords is not None and (isinstance(module, AvgPool2d) or x.scale > 0):
                return _Stack(plane, coords.shape[0], exact=True)
        if known is None:
            return _Stack(plane)
        # Pooling cannot create nonzeros: the input count bounds the
        # output count, which keeps the O(1) conv pregate alive
        # downstream with no scan.
        return _Stack(plane, min(known[0], plane.size))

    def _coo_pool(self, module, step: StepSpikes) -> Optional[StepSpikes]:
        """The pooled plane's coordinates, or None.

        Applies to non-overlapping pools of exact coordinates with
        positive uniform amplitude, on dimensions the dense tiled kernel
        also handles (evenly divisible).  Max pooling puts the amplitude
        at the mapped coordinates (the max over a window of ``{0, s}``
        values is exactly ``s``); average pooling looks each window's
        value up from its event count (:func:`_window_means`), so both
        are bitwise identical to the reference kernels.
        """
        k, stride = module.kernel_size, module.stride
        n, c, h, w = step.shape
        if (
            k != stride
            or h % k
            or w % k
            or step.values is not None
            or step.scale <= 0
        ):
            return None
        out_shape = (n, c, h // k, w // k)
        if isinstance(module, MaxPool2d):
            coords = pooled_coords(step, k, stride, out_shape)
            return StepSpikes(coords=coords, shape=out_shape, scale=step.scale)
        coords, counts = pooled_coords(step, k, stride, out_shape, counts=True)
        return StepSpikes(
            coords=coords,
            shape=out_shape,
            values=_window_means(step.scale, counts, k),
        )

    # ------------------------------------------------------------------
    # Neuron layers
    # ------------------------------------------------------------------
    def _neuron(self, module: IFNeuron, stat: LayerStats, x: Carrier) -> Carrier:
        if (
            isinstance(x, _Sites)
            and module.v is None
            and module.reset == ResetMode.SUBTRACT
        ):
            out = self._site_neuron(module, stat, x)
            if out is not None:
                return out
        stat.backend = "dense"
        out, spikes = self._step_neuron(module, _plane(x))
        # The dense step already counted its spikes, so the output's
        # exact nonzero count is free — enough for the next conv's
        # O(1) decision without a coordinate scan.
        return _Stack(out, spikes, exact=True)

    def _site_neuron(self, module, stat: LayerStats, sites: _Sites) -> Optional[Carrier]:
        """Screened membrane update of a plane carried as site structure.

        Valid for subtract-reset IF/LIF neurons fed a plane that is a
        constant per-channel ``background`` everywhere except the
        carried sites: every untouched site of channel ``c`` receives
        the same input at every step, so its membrane follows one shared
        trajectory — computed once on a ``(C,)`` vector with the exact
        dense op sequence (leak, integrate, compare, subtract-reset) and
        broadcast.  Of the touched sites (every sample/site pair touched
        at any step), :func:`_screen` keeps those where some channel's
        bounded peak membrane reaches threshold, reading only the
        ``(rows, C)`` value block, and only their ``(C, kept)`` cells are
        stepped, with the stepper's exact op sequence (from step 0, which
        applies the ops a site shares with the background before its
        first touch, so this is bitwise equivalent); a kept site's input
        at a step is its value row then, or the background.  Membrane,
        spikes and counters come out bitwise identical to dense stepping
        at ``O(rows · C + kept sites · C · T)``.

        The output is handed on as stacked coordinates: the fired cells,
        plus every untouched site of each ``(step, channel)`` the
        background trajectory fired at.  The membrane (including the
        exact sums at the dropped sites) and ``last_spikes`` are built
        on first read (:meth:`repro.snn.neurons.IFNeuron.defer_state`).
        Returns None when the screen's bound does not cover the neuron's
        leak or the stack does not split into T steps.
        """
        t = self._run_timesteps
        b, c, hh, ww = sites.shape
        leak_fn = module._leak_fn()
        if t < 1 or b % t or not (leak_fn is None or isinstance(module, LIFNeuron)):
            return None
        n = b // t
        step_of, site_of = np.divmod(sites.rows, n * hh * ww)
        ind, site = distinct(site_of, n * hh * ww, inverse=True)
        stat.backend = "sites"
        values = _values(sites)
        dtype = values.dtype
        v0 = initial_membrane(
            (1,), module.threshold, module.v_init_fraction, dtype=dtype
        )[0]
        thr = np.asarray(module.threshold, dtype=dtype)
        vbg = np.full(c, v0, dtype=dtype)
        pattern = np.empty((t, c), dtype=bool)
        for step in range(t):
            if leak_fn is not None:
                vbg = leak_fn(vbg)
            vbg += sites.background
            pattern[step] = vbg >= thr
            vbg -= pattern[step] * thr
        # Channel-major from here on, so that each op runs over the long
        # site or row axis; a last column holds the background, a site's
        # input at an untouched step.
        rows = values.shape[0]
        xt = np.empty((c, rows + 1), dtype=dtype)
        xt[:, :rows] = values.T
        xt[:, rows] = sites.background
        kept = _screen(xt[:, :rows], site, ind.size, sites.background, v0, thr, t)
        # Step every channel of the kept sites: at each step a site's
        # input is the column of its value row then, or the background
        # column; spikes are collected once, after the last step.
        local = np.full(ind.size, -1, dtype=np.intp)
        local[kept] = np.arange(kept.size)
        hit = np.flatnonzero(local[site] >= 0)
        column = np.full((t, kept.size), rows, dtype=np.intp)
        column[step_of[hit], local[site[hit]]] = hit
        x = np.take(xt, column, axis=1)
        v = np.full((c, kept.size), v0, dtype=dtype)
        spiked = np.empty((t,) + v.shape, dtype=bool)
        reset = np.empty(v.shape, dtype=dtype)
        for step in range(t):
            if leak_fn is not None:
                v = leak_fn(v)
            v += x[:, step]
            np.greater_equal(v, thr, out=spiked[step])
            np.multiply(spiked[step], thr, out=reset)
            v -= reset
        fired = np.flatnonzero(spiked)
        quiet = ind[:0]
        if pattern.any():
            quiet = np.ones(n * hh * ww, dtype=bool)
            quiet[ind] = False
            quiet = np.flatnonzero(quiet)
        coords = _site_events((n, c, hh, ww), fired, ind[kept], quiet, pattern)
        last = fired[fired >= (t - 1) * v.size] - (t - 1) * v.size
        run = _SiteRun(
            (n, c, hh, ww), ind, step_of, site, values, sites.background, v0,
            leak_fn, thr, module.threshold, vbg, pattern, kept, v, last,
        )
        module.defer_state(v=run.membrane, last_spikes=run.last_spikes)
        module.spike_count += coords.shape[0]
        module.neuron_steps += int(math.prod(sites.shape))
        return StepSpikes(
            coords=coords, shape=sites.shape, scale=float(module.threshold)
        )
