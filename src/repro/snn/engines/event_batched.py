"""COO-native time-batched backend: one gather per layer.

:class:`EventBatchedEngine` merges the two fast paths the suite already
has — the time-batched schedule (one pass over the t-major ``(T*N, ...)``
stack, T-fold fewer layer dispatches) and the event-driven selection of
the sparse engine (compute scales with spikes, not plane size) — without
inheriting the per-step Python loop that makes the event engine lose
wall clock at low density.  A :class:`repro.snn.spikes.SpikeStream`
enters as one *stacked coordinate batch* (:meth:`SpikeStream.stacked`)
and its sparsity structure is carried across the layer graph alongside
the dense planes at four levels of detail:

* *exact coordinates* (stream input, COO pool outputs, site-neuron
  outputs) — a conv runs the bit-exact row-subset kernel
  (:func:`repro.snn.engines.event.conv_rows`): one GEMM covering all
  T timesteps over rows built by scattering each event into the
  windows it feeds (:func:`repro.snn.engines.event.conv_event_rows`).
  A linear never reads coordinates: it runs the full GEMM over every
  stack row, because a GEMM over a row subset may pick another BLAS
  kernel and differ in the last bit, and bills from the event count.
  Where the consumer is proven at bind time
  (:func:`_coordinate_handoffs`: a neuron feeding a pool, a pool or the
  model input feeding a conv, in a plain ``Sequential``) only the
  coordinates travel, behind an all-NaN placeholder, and no dense plane
  is built between the layers;
* *site values* (gathered conv outputs that feed a proven
  ``Conv2d -> [BatchNorm2d ->] IFNeuron`` chain of a ``Sequential``) —
  the active rows, their ``(rows, C)`` output block and the per-channel
  background every other site holds.  No dense plane is built: eval BN
  maps the block and the background, and the neuron builds one
  ``(T, sites, C)`` input block, screens out every cell whose running
  sum never reaches threshold and steps only the rest.  The chains are
  found once per :meth:`EventBatchedEngine.bind`; what flows between
  the modules meanwhile is an all-NaN placeholder, so a consumer that
  escaped the proof cannot compute on it silently;
* *active sites* (other conv outputs) — the same rows and background
  over a dense plane, which lets eval-mode BatchNorm and the neuron
  gather the values at the rows and run the same site kernels;
* *nonzero counts* (neuron outputs, pooled planes) — exact or bounded
  event counts that cost nothing to produce (the neuron already counts
  its spikes) and let the next conv reject the gather in O(1) without
  ever scanning the plane.

The count layer is what makes the backend safe at moderate density:
full-plane coordinate scans cost milliseconds at the sizes where dense
GEMM wins anyway, so the engine budgets them.  A conv first bounds its
active-window fraction from the carried count (``events x windows-per-
event / output rows``); only if the bound stays under ``window_pregate``
does it enumerate windows, and only if the enumerated fraction stays
under ``gather_limit`` does it gather — otherwise it falls back to the
dense kernel having spent O(1) or O(events), not O(plane).  These
gates are the engine's whole per-layer rule (see
:class:`EventBatchedEngine`).

Every fast path is *bitwise identical* to the dense time-batched
reference: row-subset GEMMs reduce each output element with the same
summation the full GEMM uses (unlike the event engine's column-subset
shrink, which only matches up to float summation order), silent rows
come out exactly ``+0.0``, BN and pooling replicate the reference
kernels' exact op sequences at active sites and on the background,
and the screened membrane update runs the stepper's exact op sequence
on every cell it keeps (a screened-out cell provably never spikes).
Logits, per-step outputs, spike counts, membranes and recorded
densities all match ``TimeBatchedEngine`` exactly; op billing
matches the event engine (performed ops) on layers that took a
coordinate path or are sparse linears, and the dense engines (full
MACs) on layers a gate sent to the GEMM first — ``LayerStats.backend``
and ``LayerStats.backend_source`` record which.

Dense inputs (analog frames) keep the inherited GEMM path per layer, so
the engine never loses to ``batched`` by more than the O(1) checks; at
low input density the gathers shrink with the event count and the
backend wins outright — see ``benchmarks/test_engine_speedup.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, MaxPool2d
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
    pooled_coords,
)
from repro.snn.neurons import IFNeuron
from repro.snn.spikes import SpikeStream, StepSpikes
from repro.snn.stats import LayerStats
from repro.tensor import Tensor


@dataclass(frozen=True)
class _Sites:
    """Carried structure of a plane that is a per-channel constant
    everywhere except at a few spatial sites.

    ``rows`` are the sorted flattened spatial sites ``b * OH * OW + oy *
    OW + ox`` (over the stacked ``(T*N, C, OH, OW)`` plane, channel
    axis excluded — a window touches all output channels at once) that
    a convolution actually computed, or that carried events;
    ``background`` is the ``(C,)`` value every *other* site holds —
    exactly zero for a bias-free conv or a spike plane, ``0 + bias``
    for a biased conv, BN of that after eval BN.  A constant background
    is what licenses the screened membrane update downstream: untouched
    sites of one channel all follow a single shared trajectory.

    ``values`` is the ``(rows, C)`` block of the plane at ``rows``, or
    None when a dense plane holds them.  A plane registered *with*
    values is a placeholder: the dense plane was never built (see
    :meth:`EventBatchedEngine._materialize`).
    """

    rows: np.ndarray
    background: np.ndarray
    values: Optional[np.ndarray] = None


def _slot_counts(model: Module) -> Counter:
    """How many child slots of the tree hold each module (by id)."""
    return Counter(
        id(child) for module in model.modules() for child in module._modules.values()
    )


def _plain_sequential(module: Module) -> bool:
    """A :class:`repro.nn.Sequential` whose ``forward`` hands each
    child's output to the next child and to nothing else."""
    return (
        isinstance(module, Sequential)
        and type(module).forward is Sequential.forward
    )


def _site_chains(model: Module) -> Dict[int, Optional[BatchNorm2d]]:
    """Convs whose output only a site-aware consumer reads.

    Maps ``id(conv)`` to the eval BN between it and its neuron (None
    for a direct ``Conv2d -> IFNeuron`` pair) for every adjacent
    ``Conv2d -> [BatchNorm2d ->] IFNeuron`` run of children of a plain
    :class:`repro.nn.Sequential` — its ``forward`` hands each child's
    output to the next child and nothing else, which proves the
    consumer.  A module registered in more than one place may be called
    from elsewhere, so chains through one are left out, as are
    ``Sequential`` subclasses with their own ``forward``.
    """
    slots = _slot_counts(model)
    chains: Dict[int, Optional[BatchNorm2d]] = {}
    for parent in model.modules():
        if not _plain_sequential(parent):
            continue
        children = list(parent._modules.values())
        for conv, after, third in zip(children, children[1:], children[2:] + [None]):
            bn = after if isinstance(after, BatchNorm2d) else None
            neuron = after if bn is None else third
            if (
                isinstance(conv, Conv2d)
                and isinstance(neuron, IFNeuron)
                and all(slots[id(m)] == 1 for m in (conv, bn, neuron) if m is not None)
            ):
                chains[id(conv)] = bn
    return chains


_POOLS = (MaxPool2d, AvgPool2d)


def _coordinate_handoffs(model: Module) -> Tuple[Set[int], bool]:
    """Producers whose output may travel as coordinates alone.

    Returns the ids of every ``IFNeuron`` directly followed by a
    ``MaxPool2d``/``AvgPool2d``, and of every such pool directly followed
    by a ``Conv2d``, among the children of a plain ``Sequential`` (the
    proof :func:`_site_chains` makes: neither module sits in another
    slot), plus whether the model's input reaches a ``Conv2d`` first
    the same way.  Those consumers read a coordinate plane through the
    registry, so its producer may hand them a NaN placeholder instead
    of building the dense plane.
    """
    slots = _slot_counts(model)
    handoffs: Set[int] = set()
    for parent in model.modules():
        if not _plain_sequential(parent):
            continue
        children = list(parent._modules.values())
        for producer, consumer in zip(children, children[1:]):
            if slots[id(producer)] != 1 or slots[id(consumer)] != 1:
                continue
            if (
                isinstance(producer, IFNeuron) and isinstance(consumer, _POOLS)
            ) or (isinstance(producer, _POOLS) and isinstance(consumer, Conv2d)):
                handoffs.add(id(producer))
    first = model
    while _plain_sequential(first) and first._modules:
        first = next(iter(first._modules.values()))
        if slots[id(first)] != 1:
            return handoffs, False
    return handoffs, isinstance(first, Conv2d)


def _screen(
    x: np.ndarray, v0: np.floating, threshold: np.floating, leak_fn
) -> Tuple[np.ndarray, np.ndarray]:
    """Running membrane sums of a ``(T, cells)`` input block, and the
    flat indices of the cells whose sum ever reaches ``threshold``.

    The sums use the stepper's exact op sequence (leak, then add, from
    the same initial membrane), so a cell that never reaches threshold
    never spikes and its final sum *is* its stepped membrane, bit for
    bit; only the returned cells need stepping.
    """
    v = np.full(x.shape[1], v0, dtype=x.dtype)
    peak = np.full(x.shape[1], -np.inf, dtype=x.dtype)
    for step in range(x.shape[0]):
        if leak_fn is not None:
            v = leak_fn(v)
        v += x[step]
        np.maximum(peak, v, out=peak)
    return v, np.flatnonzero(peak >= threshold)


def _scanned_events(data: np.ndarray) -> StepSpikes:
    """The nonzeros of a dense plane as events, amplitudes included."""
    nonzero = np.nonzero(data)
    return StepSpikes(
        coords=np.stack(nonzero, axis=1), shape=data.shape, values=data[nonzero]
    )


def _placeholder(shape: Tuple[int, ...]) -> np.ndarray:
    """Stand-in for a plane carried as site values.

    A zero-stride, read-only all-NaN view: a consumer that reads it
    without asking the site registry gets NaN everywhere, so a consumer
    that escaped :func:`_site_chains` fails bit-identity loudly instead
    of computing on a wrong plane.
    """
    return np.broadcast_to(np.float32(np.nan), shape)


def _dense_plane(shape: Tuple[int, ...], sites: _Sites) -> np.ndarray:
    """The dense plane site values stand for: the background broadcast,
    the values scattered — the dense kernels' exact values."""
    n, c, h, w = shape
    s = h * w
    out = np.empty((n, c, s), dtype=sites.values.dtype)
    out[:] = sites.background[np.newaxis, :, np.newaxis]
    out[sites.rows // s, :, sites.rows % s] = sites.values
    return out.reshape(shape)


def _spike_planes(
    pattern: np.ndarray,
    fired: List[np.ndarray],
    thr: np.ndarray,
    sample: np.ndarray,
    spatial: np.ndarray,
    shape: Tuple[int, ...],
) -> np.ndarray:
    """The site neuron's ``(steps, N, C, H, W)`` spike output: each
    step's background pattern broadcast, then its stepped sites' block
    (``thr`` at the fired cells) scattered at ``(sample, spatial)``."""
    n, c, hh, ww = shape
    out = np.empty((len(fired), n, c, hh * ww), dtype=np.float32)
    out[:] = (pattern * thr)[:, np.newaxis, :, np.newaxis]
    for step, cell in enumerate(fired):
        block = np.zeros(sample.size * c, dtype=np.float32)
        block[cell] = thr
        out[step][sample, :, spatial] = block.reshape(sample.size, c)
    return out.reshape((len(fired),) + shape)


def _last_spike_plane(
    pattern, fired, thr, sample, spatial, shape, threshold: float
) -> np.ndarray:
    """``last_spikes`` of the site neuron: its last step's output plane
    over the threshold, as the stepped engines compute it."""
    plane = _spike_planes(pattern[-1:], fired[-1:], thr, sample, spatial, shape)
    return plane[0] / threshold


def _site_membrane(
    vbg: np.ndarray,
    v: np.ndarray,
    sample: np.ndarray,
    spatial: np.ndarray,
    shape: Tuple[int, ...],
) -> np.ndarray:
    """The site neuron's membrane: the background trajectory's final
    ``(C,)`` value broadcast, the sites' values ``v`` scattered."""
    n, c, hh, ww = shape
    membrane = np.empty((n, c, hh * ww), dtype=v.dtype)
    membrane[:] = vbg[np.newaxis, :, np.newaxis]
    membrane[sample, :, spatial] = v.reshape(sample.size, c)
    return membrane.reshape(shape)


def _avg_pool_values(
    step: StepSpikes,
    coords: np.ndarray,
    k: int,
    out_shape: Tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    """Average-pooled values at the sorted output ``coords`` of a ``k``
    by ``k`` non-overlapping pool over uniform-amplitude events.

    Tap ``(i, j)`` of every output window is a row of a ``(k*k, outputs)``
    block holding the amplitude where an event sits and zero elsewhere
    — exactly the plane's value there — summed in the dense kernel's
    tap order and sequence, then scaled, so the values are its bits.
    """
    if not coords.shape[0]:
        return np.zeros(0, dtype=dtype)
    events = step.coords
    outputs = np.ravel_multi_index(tuple(coords.T), out_shape)
    owner = np.ravel_multi_index(
        (events[:, 0], events[:, 1], events[:, 2] // k, events[:, 3] // k),
        out_shape,
    )
    taps = np.zeros((k * k, coords.shape[0]), dtype=dtype)
    taps[
        (events[:, 2] % k) * k + events[:, 3] % k,
        np.searchsorted(outputs, owner),
    ] = step.scale
    if k == 1:
        acc = taps[0].copy()
    else:
        acc = taps[0] + taps[1]
        for tap in taps[2:]:
            np.add(acc, tap, out=acc)
    return acc * np.asarray(1.0 / (k * k), dtype=acc.dtype)


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
        # Carried sparsity structure of live planes, keyed by array id;
        # the entries hold the plane itself so ids cannot be recycled
        # while registered.  ``_coords`` holds *exact* nonzero
        # coordinates; ``_sites`` the active-window superset of conv
        # outputs (with their values, for placeholders); ``_counts``
        # nonzero counts (exact flag) for planes whose structure is
        # unknown but whose magnitude is.  A coordinate entry flagged
        # deferred is a placeholder: only its coordinates exist.
        self._coords: Dict[int, Tuple[np.ndarray, StepSpikes, bool]] = {}
        self._sites: Dict[int, Tuple[np.ndarray, _Sites]] = {}
        self._counts: Dict[int, Tuple[np.ndarray, int, bool]] = {}
        # Bound-model structure, rebuilt per bind, not per run: the convs
        # that may hand site values to their neuron (see _site_chains),
        # the neurons and pools that may hand on coordinates alone and
        # whether the model input may (see _coordinate_handoffs).
        self._chains: Dict[int, Optional[BatchNorm2d]] = {}
        self._handoffs: Set[int] = set()
        self._defer_input = False

    def bind(self, model: Module) -> "EventBatchedEngine":
        super().bind(model)
        self._chains = _site_chains(model)
        self._handoffs, self._defer_input = _coordinate_handoffs(model)
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
    # Carried-structure registry
    # ------------------------------------------------------------------
    def _register_coords(
        self, plane: np.ndarray, step: StepSpikes, deferred: bool = False
    ) -> None:
        """Register ``plane``'s exact nonzeros (coordinates and values);
        ``deferred`` marks ``plane`` as a placeholder for them."""
        self._coords[id(plane)] = (plane, step, deferred)
        self._counts[id(plane)] = (plane, step.num_events, True)

    def _register_sites(self, plane: np.ndarray, sites: _Sites) -> None:
        self._sites[id(plane)] = (plane, sites)

    def _register_count(self, plane: np.ndarray, count: int, exact: bool) -> None:
        self._counts[id(plane)] = (plane, int(count), exact)

    def _carried_coords(self, data: np.ndarray) -> Optional[StepSpikes]:
        entry = self._coords.get(id(data))
        return None if entry is None else entry[1]

    def _carried_count(self, data: np.ndarray) -> Optional[Tuple[int, bool]]:
        """``(nonzero count, is_exact)`` if carried; None when unknown."""
        entry = self._counts.get(id(data))
        return None if entry is None else (entry[1], entry[2])

    def _sites_of(self, data: np.ndarray) -> Optional[_Sites]:
        """Site structure of a 4D plane, from either registry; None when
        unknown.  Exact coordinates become sites on a zero background."""
        entry = self._sites.get(id(data))
        if entry is not None:
            return entry[1]
        step = self._carried_coords(data)
        if step is not None and len(step.shape) == 4:
            w = step.shape[3]
            s = step.shape[2] * w
            rows = np.unique(
                step.coords[:, 0] * s + step.coords[:, 2] * w + step.coords[:, 3]
            )
            return _Sites(rows=rows, background=np.zeros(data.shape[1], data.dtype))
        return None

    @staticmethod
    def _gathered(data: np.ndarray, sites: _Sites) -> _Sites:
        """``sites`` with their values (read from the dense plane)."""
        if sites.values is not None:
            return sites
        n, c, h, w = data.shape
        s = h * w
        values = data.reshape(n, c, s)[sites.rows // s, :, sites.rows % s]
        return _Sites(rows=sites.rows, background=sites.background, values=values)

    def _emit(self, shape: Tuple[int, ...], sites: _Sites, defer: bool) -> np.ndarray:
        """Hand on site values: as a placeholder carrying them when
        ``defer`` (the consumer is proven site-aware), else as their
        dense plane with the sites registered for the dense-plane site
        paths."""
        if defer:
            out = _placeholder(shape)
        else:
            out = _dense_plane(shape, sites)
            sites = _Sites(rows=sites.rows, background=sites.background)
        self._register_sites(out, sites)
        return out

    def _materialize(self, data: np.ndarray) -> np.ndarray:
        """The dense plane a placeholder stands for, built from its site
        values or coordinates; any other plane unchanged."""
        entry = self._sites.get(id(data))
        if entry is not None and entry[1].values is not None:
            return _dense_plane(data.shape, entry[1])
        entry = self._coords.get(id(data))
        if entry is not None and entry[2]:
            return entry[1].to_dense(data.dtype)
        return data

    def _defers(self, conv: Conv2d) -> bool:
        """Whether ``conv``'s gathered output may stay site values."""
        if id(conv) not in self._chains:
            return False
        bn = self._chains[id(conv)]
        return bn is None or not bn.training

    def _input_nonzero_of(self, data: np.ndarray) -> Optional[int]:
        # Exact carried counts make density recording free; bounds are
        # not exact, so those planes fall back to the batched engine's
        # shortcuts (neuron-emitted counts, constant-prefix scaling)
        # and only then to the profiler's scan.
        info = self._carried_count(data)
        if info is not None and info[1]:
            return info[0]
        return super()._input_nonzero_of(data)

    # ------------------------------------------------------------------
    def _stack_stream(self, stream: SpikeStream) -> np.ndarray:
        # The whole stream becomes one stacked coordinate batch: every
        # layer's gather covers all T timesteps in a single call.  A
        # model whose input provably reaches a conv first gets only the
        # coordinates, behind a placeholder.
        stacked = stream.stacked()
        if self._defer_input:
            tiled = _placeholder(stacked.shape)
        else:
            tiled = super()._stack_stream(stream)
        self._register_coords(tiled, stacked, deferred=self._defer_input)
        return tiled

    def _install(self, synapse_stats, neuron_stats) -> None:
        self._coords = {}
        self._sites = {}
        self._counts = {}
        super()._install(synapse_stats, neuron_stats)

    def _uninstall(self) -> None:
        super()._uninstall()
        self._coords = {}
        self._sites = {}
        self._counts = {}

    # ------------------------------------------------------------------
    # Synapse layers
    # ------------------------------------------------------------------
    def _coo_conv(
        self,
        module: Conv2d,
        data: np.ndarray,
        step: StepSpikes,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, int, bool]:
        """Run a conv from a coordinate batch.

        Returns ``(output, performed_ops, gathered)``; the output is
        bitwise identical to the dense kernel's either way.  The
        enumerated active-window fraction decides between the
        row-subset GEMM (:func:`repro.snn.engines.event.conv_rows`) and
        one dense GEMM (``gathered`` records which); performed ops are
        billed from the coordinates in both cases, and the active sites
        are registered for the downstream BN/neuron site paths.  The
        subset's rows are built from ``step``'s events and amplitudes
        (:func:`repro.snn.engines.event.conv_event_rows`), so ``data``
        may be a coordinate placeholder; every dense kernel reads its
        dense plane.  A gathered conv whose consumer is a proven site
        chain (:func:`_site_chains`) returns a placeholder carrying the
        site values instead of a dense plane.
        """
        k, s_, p = module.kernel_size, module.stride, module.padding
        oh = _conv_out_size(data.shape[2], k, s_, p)
        ow = _conv_out_size(data.shape[3], k, s_, p)
        shape = (data.shape[0], module.out_channels, oh, ow)
        windows = shape[0] * oh * ow
        amplitude = step.scale if step.values is None else step.values
        active_rows, entries, block = conv_event_rows(
            step.coords, amplitude, data.shape, k, s_, p, data.dtype,
            max_rows=self.gather_limit * windows,
        )
        performed = entries * module.out_channels
        background = np.zeros(
            module.out_channels, dtype=np.result_type(data.dtype, weight.dtype)
        )
        if bias is not None:
            background = background + bias  # a silent window's 0 + bias
        gathered = block is not None
        if gathered:
            values = conv_rows(block, weight, bias, active_rows, windows)
            out = self._emit(
                shape, _Sites(active_rows, background, values), self._defers(module)
            )
        else:
            out = dense_conv2d(self._materialize(data), weight, bias, s_, p)
            self._register_sites(out, _Sites(active_rows, background))
        self._register_count(
            out, min(active_rows.size * module.out_channels, out.size), exact=False
        )
        return out, performed, gathered

    def _make_interceptor(self, module, stat, orig):
        gemm = super()._make_interceptor(module, stat, orig)
        is_conv = isinstance(module, Conv2d)

        def on_gemm(source: str, x: Tensor) -> Tensor:
            stat.backend, stat.backend_source = "gemm", source
            return gemm(x)

        def forward(x: Tensor) -> Tensor:
            # The density rule: each gate below may send the layer to the
            # GEMM; ``backend_source`` records the one that decided.
            data = x.data
            if id(data) in self._constant_arrays:
                return on_gemm("constant", x)
            info = self._carried_count(data)
            if info is None:
                # Unknown plane (flattened features, residual sums):
                # one cheap count decides; coordinates only if it pays.
                count, exact = int(np.count_nonzero(data)), True
            else:
                count, exact = info
            if count >= self.density_threshold * data.size:
                return on_gemm("density", Tensor(self._materialize(data)))
            if not is_conv:
                return self._sparse_linear(module, stat, data, count, exact)
            k, s_, p = module.kernel_size, module.stride, module.padding
            oh = _conv_out_size(data.shape[2], k, s_, p)
            ow = _conv_out_size(data.shape[3], k, s_, p)
            nwin = (1 + (k - 1) // s_) ** 2
            if count * nwin >= self.window_pregate * data.shape[0] * oh * ow:
                # O(1) rejection: even the loosest bound on the
                # active-window fraction says one GEMM wins.
                return on_gemm("pregate", Tensor(self._materialize(data)))
            step = self._carried_coords(data)
            if step is None:
                step = _scanned_events(data)
            stat.dense_synaptic_ops += _dense_op_count(module, data.shape)
            weight = _effective_weight(module, self._weight_cache)
            bias = module.bias.data if module.bias is not None else None
            out, performed, gathered = self._coo_conv(module, data, step, weight, bias)
            stat.synaptic_ops += performed
            stat.backend = "event-batched" if gathered else "gemm"
            stat.backend_source = "rows"
            return Tensor(out)

        return forward

    def _sparse_linear(self, module, stat, data, count: int, exact: bool) -> Tensor:
        """A sparse linear: the plain GEMM over every stack row, billed
        one op per (input event, output feature).

        A GEMM over the rows with events alone may pick another BLAS
        kernel for the smaller M and differ in the last bit, so the
        coordinates buy nothing here; only a bounded count is rescanned
        for the exact one.
        """
        dense = self._materialize(data)
        if not exact:
            count = int(np.count_nonzero(dense))
        stat.synaptic_ops += count * module.out_features
        stat.dense_synaptic_ops += _dense_op_count(module, data.shape)
        stat.backend, stat.backend_source = "gemm", "linear"
        out = dense @ _effective_weight(module, self._weight_cache).T
        if module.bias is not None:
            out += module.bias.data
        return Tensor(out)

    # ------------------------------------------------------------------
    # Stateless layers: BN at active sites, COO pooling
    # ------------------------------------------------------------------
    def _make_stateless_interceptor(
        self, module: Module
    ) -> Callable[[Tensor], Tensor]:
        base = super()._make_stateless_interceptor(module)
        if isinstance(module, BatchNorm2d):
            return self._make_bn_interceptor(module, base)
        return self._make_pool_interceptor(module, base)

    def _make_bn_interceptor(self, module, base):
        terms: List[Optional[Tuple[np.ndarray, ...]]] = [None]

        def forward(x: Tensor) -> Tensor:
            data = x.data
            sites = None if module.training else self._sites_of(data)
            if sites is None or 2 * sites.rows.size >= data.shape[0] * (
                data.shape[2] * data.shape[3]
            ):
                return base(Tensor(self._materialize(data)))
            out = self._bn_at_sites(module, self._gathered(data, sites), terms)
            # BN is site-local, so the sites survive it verbatim, with
            # BN(background) as the new background; site values stay
            # deferred when they came in deferred (the chain's neuron
            # reads them).
            return Tensor(self._emit(data.shape, out, defer=sites.values is not None))

        return forward

    @staticmethod
    def _bn_at_sites(module, sites: _Sites, terms) -> _Sites:
        """Eval BN of site values: the module's exact op sequence on the
        ``(rows, C)`` value block and on the ``(C,)`` background, so
        both are bitwise what the dense kernel produces there, at
        ``O(active sites · C)`` instead of a full-plane pass."""
        if terms[0] is None:
            terms[0] = (
                module.running_mean,
                (module.running_var + module.eps) ** -0.5,
                module.gamma.data,
                module.beta.data,
            )
        mu, inv, g, b = terms[0]
        return _Sites(
            rows=sites.rows,
            background=((sites.background - mu) * inv) * g + b,
            values=((sites.values - mu) * inv) * g + b,
        )

    def _make_pool_interceptor(self, module, base):
        kernel, stride = module.kernel_size, module.stride

        def forward(x: Tensor) -> Tensor:
            data = x.data
            if id(data) in self._constant_arrays:
                return base(x)
            step = self._carried_coords(data)
            if (
                step is not None
                and data.ndim == 4
                and step.density < self.pool_coo_limit
            ):
                out = self._coo_pool(module, data, step)
                if out is not None:
                    return Tensor(out)
            result = base(Tensor(self._materialize(data)))
            rdata = result.data
            if id(rdata) in self._constant_arrays:
                return result
            if step is not None:
                # COO construction didn't apply, but the coordinates can
                # still map through non-overlapping windows for the
                # layers downstream.  Registered coordinates are exact,
                # values included: an average carries its pooled values,
                # a max its (positive) amplitude.
                coords = pooled_coords(step, kernel, stride, rdata.shape)
                pooled = None
                if coords is not None and isinstance(module, AvgPool2d):
                    pooled = StepSpikes(
                        coords=coords,
                        shape=rdata.shape,
                        values=rdata[tuple(coords.T)],
                    )
                elif coords is not None and step.scale > 0:
                    pooled = StepSpikes(
                        coords=coords, shape=rdata.shape, scale=step.scale
                    )
                if pooled is not None:
                    self._register_coords(rdata, pooled)
                    return result
            info = self._carried_count(data)
            if info is not None:
                # Pooling cannot create nonzeros: the input count bounds
                # the output count, which keeps the O(1) conv pregate
                # alive downstream with no scan.
                self._register_count(rdata, min(info[0], rdata.size), exact=False)
            return result

        return forward

    def _coo_pool(self, module, data, step) -> Optional[np.ndarray]:
        """Build the pooled plane directly in COO form, or None.

        Applies to non-overlapping pools of planes with exact carried
        coordinates and positive uniform amplitude, on dimensions the
        dense tiled kernel also handles (evenly divisible).  Max pooling
        puts the amplitude at the mapped coordinates (the max over a
        window of ``{0, s}`` values is exactly ``s``); average pooling
        builds each output's window taps from the input events, in the
        dense kernel's tap order, and replicates its summation sequence,
        so both are bitwise identical to the reference kernels.  Only
        the coordinates are read, never ``data``.  The output's
        coordinates are registered, keeping the stream alive with no
        plane scan; a pool whose consumer is a proven conv
        (:func:`_coordinate_handoffs`) hands on a placeholder for them.
        """
        k, stride = module.kernel_size, module.stride
        n, c, h, w = data.shape
        if (
            k != stride
            or h % k
            or w % k
            or step.values is not None
            or step.scale <= 0
        ):
            return None
        out_shape = (n, c, h // k, w // k)
        coords = pooled_coords(step, k, stride, out_shape)
        if coords is None:
            return None
        if isinstance(module, MaxPool2d):
            pooled = StepSpikes(coords=coords, shape=out_shape, scale=step.scale)
        else:
            pooled = StepSpikes(
                coords=coords,
                shape=out_shape,
                values=_avg_pool_values(step, coords, k, out_shape, data.dtype),
            )
        defer = id(module) in self._handoffs
        out = _placeholder(out_shape) if defer else pooled.to_dense(data.dtype)
        self._register_coords(out, pooled, deferred=defer)
        return out

    # ------------------------------------------------------------------
    # Neuron layers
    # ------------------------------------------------------------------
    def _make_neuron_interceptor(
        self, module: IFNeuron, stat: LayerStats
    ) -> Callable[[Tensor], Tensor]:
        dense_step = super()._make_neuron_interceptor(module, stat)

        def forward(x: Tensor) -> Tensor:
            data = x.data
            entry = self._sites.get(id(data))
            if (
                entry is not None
                and module.v is None
                and module.reset == ResetMode.SUBTRACT
            ):
                result = self._site_neuron(module, data, entry[1])
                if result is not None:
                    return result
            before = module.spike_count
            result = dense_step(Tensor(self._materialize(data)))
            # The dense step already counted its spikes, so the output's
            # exact nonzero count is free — enough for the next conv's
            # O(1) decision without a coordinate scan.
            self._register_count(
                result.data, int(module.spike_count - before), exact=True
            )
            return result

        return forward

    def _site_neuron(self, module, data, sites: _Sites) -> Optional[Tensor]:
        """Screened membrane update of a plane carried as site structure.

        Valid for subtract-reset IF/LIF neurons fed a plane that is a
        constant per-channel ``background`` everywhere except the
        carried sites: every untouched site of channel ``c`` receives
        the same input at every step, so its membrane follows one shared
        trajectory — computed once on a ``(C,)`` vector with the exact
        dense op sequence (leak, integrate, compare, subtract-reset) and
        broadcast.  The individual sites (every sample/site pair touched
        at any step; stepping one from step 0 applies the ops it would
        share before its first touch, so this is bitwise equivalent)
        get one ``(T, sites, C)`` input block: their values where
        touched, the background elsewhere.  :func:`_screen` drops every
        cell whose running sum never reaches threshold — it never
        spikes, and its sum is its membrane — and only the rest are
        stepped.  Membrane, spikes and counters come out bitwise
        identical to dense stepping at ``O(touched sites · C · T)``.

        When the background trajectory never fires (the common case:
        the zero-input response cannot climb to threshold), the fired
        cells are the output's exact coordinates, which re-enter the
        carried stream at no scan cost; a neuron feeding a proven pool
        (:func:`_coordinate_handoffs`) hands on only them, behind a
        placeholder.  The membrane and ``last_spikes`` are deferred
        (:meth:`repro.snn.neurons.IFNeuron.defer_state`).  Returns None
        when nearly every site is touched (a dense step is cheaper).
        """
        t = self._run_timesteps
        b, c, hh, ww = data.shape
        if t < 1 or b % t:
            return None
        n = b // t
        s = hh * ww
        step_of, site_of = np.divmod(sites.rows, n * s)
        mask = np.zeros(n * s, dtype=bool)
        mask[site_of] = True
        ind = np.flatnonzero(mask)
        if 2 * ind.size >= n * s:
            return None
        values = self._gathered(data, sites).values
        dtype = values.dtype
        v0 = initial_membrane(
            (1,), module.threshold, module.v_init_fraction, dtype=dtype
        )[0]
        thr = np.asarray(module.threshold, dtype=dtype)
        leak_fn = module._leak_fn()
        vbg = np.full(c, v0, dtype=dtype)
        pattern = np.empty((t, c), dtype=bool)
        for step in range(t):
            if leak_fn is not None:
                vbg = leak_fn(vbg)
            vbg += sites.background
            pattern[step] = vbg >= thr
            vbg -= pattern[step] * thr
        x = np.empty((t, ind.size, c), dtype=dtype)
        x[:] = sites.background
        x[step_of, np.searchsorted(ind, site_of)] = values
        xf = x.reshape(t, ind.size * c)
        v, cells = _screen(xf, v0, thr, leak_fn)
        vi = np.full(cells.size, v0, dtype=dtype)
        fired: List[np.ndarray] = []
        for step in range(t):
            if leak_fn is not None:
                vi = leak_fn(vi)
            vi += xf[step, cells]
            spiked = vi >= thr
            vi -= spiked * thr
            fired.append(cells[spiked])
        v[cells] = vi
        sample, spatial = np.divmod(ind, s)
        spikes = sum(int(f.size) for f in fired)
        spikes += int(pattern.sum(dtype=np.int64)) * (n * s - ind.size)
        shape = (n, c, hh, ww)
        if pattern.any():
            out = _spike_planes(pattern, fired, thr, sample, spatial, shape)
            out = out.reshape(data.shape)
            self._register_count(out, spikes, exact=True)
        else:
            # Fired cells are the output's nonzeros — assemble the
            # stacked coordinates O(spikes), no plane scan.  A proven
            # pool consumer reads only them, so no plane is built.
            site, channel = np.divmod(np.concatenate(fired), c)
            coords = np.stack(
                (
                    np.repeat(np.arange(t), [f.size for f in fired]) * n
                    + sample[site],
                    channel,
                    spatial[site] // ww,
                    spatial[site] % ww,
                ),
                axis=1,
            )
            emitted = StepSpikes(
                coords=coords, shape=data.shape, scale=float(module.threshold)
            )
            defer = id(module) in self._handoffs
            out = _placeholder(data.shape) if defer else emitted.to_dense(np.float32)
            self._register_coords(out, emitted, deferred=defer)
        # The dense membrane and last spike plane are built on first read.
        module.defer_state(
            v=partial(_site_membrane, vbg, v, sample, spatial, shape),
            last_spikes=partial(
                _last_spike_plane,
                pattern,
                fired,
                thr,
                sample,
                spatial,
                shape,
                module.threshold,
            ),
        )
        module.spike_count += spikes
        module.neuron_steps += int(data.size)
        return Tensor(out)
