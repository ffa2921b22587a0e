"""COO-native time-batched backend: one gather+scatter per layer.

:class:`EventBatchedEngine` merges the two fast paths the suite already
has — the time-batched schedule (one pass over the t-major ``(T*N, ...)``
stack, T-fold fewer layer dispatches) and the event-driven selection of
the sparse engine (compute scales with spikes, not plane size) — without
inheriting the per-step Python loop that makes the event engine lose
wall clock at low density.  A :class:`repro.snn.spikes.SpikeStream`
enters as one *stacked coordinate batch* (:meth:`SpikeStream.stacked`)
and its sparsity structure is carried across the layer graph alongside
the dense planes at three levels of detail:

* *exact coordinates* (stream input, COO pool outputs, sparse-neuron
  outputs) — conv/linear run the bit-exact row-subset kernels
  (:func:`repro.snn.engines.event.sparse_conv2d` with ``rows_only``,
  :func:`repro.snn.engines.event.sparse_linear` with ``rows``): one
  gather + one GEMM + one scatter covering all T timesteps;
* *active sites* (conv outputs) — the channel-collapsed superset of a
  conv output's nonzeros, which lets eval-mode BatchNorm fill the plane
  with its zero-input response and run the module's exact arithmetic
  only at touched sites, and licenses the sparse membrane update;
* *nonzero counts* (neuron outputs, pooled planes) — exact or bounded
  event counts that cost nothing to produce (the neuron already counts
  its spikes) and let the next conv reject the gather in O(1) without
  ever scanning the plane.

The count layer is what makes the backend safe at moderate density:
full-plane coordinate scans cost milliseconds at the sizes where dense
GEMM wins anyway, so the engine budgets them.  A conv first bounds its
active-window fraction from the carried count (``events x windows-per-
event / output rows``); only if the bound passes ``window_pregate``
does it enumerate windows, and only if the enumerated fraction passes
``gather_limit`` does it gather — otherwise it falls back to the dense
kernel having spent O(1) or O(events), not O(plane).

Every fast path is *bitwise identical* to the dense time-batched
reference: row-subset GEMMs reduce each output element with the same
summation the full GEMM uses (unlike the event engine's column-subset
shrink, which only matches up to float summation order), silent rows
come out exactly ``+0.0``, BN and pooling replicate the reference
kernels' exact op sequences at active sites, and the sparse membrane
update is gated to configurations where skipping zero-current sites
cannot change any value.  Logits, per-step outputs, spike counts and
recorded densities all match ``TimeBatchedEngine`` exactly; op billing
matches the event engine (performed ops) on layers that took a
coordinate path and the dense engines (full MACs) on layers that fell
back — ``LayerStats.backend`` records which.

Dense inputs (analog frames) keep the inherited GEMM path per layer, so
the engine never loses to ``batched`` by more than the O(1) checks; at
low input density the gathers shrink with the event count and the
backend wins outright — see ``benchmarks/test_engine_speedup.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, MaxPool2d
from repro.nn.module import Module
from repro.snn.dynamics import ResetMode, initial_membrane
from repro.snn.engines.base import (
    _conv_out_size,
    _dense_op_count,
    _effective_weight,
)
from repro.snn.engines.batched import TimeBatchedEngine
from repro.snn.engines.dense import dense_conv2d
from repro.snn.engines.event import (
    conv_active_windows,
    pooled_coords,
    sparse_conv2d,
    sparse_linear,
)
from repro.snn.neurons import IFNeuron
from repro.snn.spikes import SpikeStream, StepSpikes
from repro.snn.stats import LayerStats
from repro.tensor import Tensor


@dataclass(frozen=True)
class _ActiveSites:
    """Active-site metadata carried in place of exact coordinates.

    ``rows`` are the sorted flattened spatial sites ``b * OH * OW + oy *
    OW + ox`` (over the stacked ``(T*N, C, OH, OW)`` plane, channel
    axis excluded — a window touches all output channels at once) that
    a convolution actually computed (or that survived BN's site-local
    rewrite); ``background`` is the per-channel value every *other*
    site of the plane holds — exactly zero for a bias-free conv, the
    bias vector for a biased one, the zero-input response ``h0`` after
    eval BN.  A constant background is what licenses the sparse
    membrane update downstream: untouched sites of one channel all
    follow a single shared trajectory.
    """

    rows: np.ndarray
    background: np.ndarray


class EventBatchedEngine(TimeBatchedEngine):
    """Time-batched schedule with COO-native layer execution.

    See the module docstring for the dataflow.  ``density_threshold``
    gates the coordinate paths exactly like the event engine's: a plane
    whose nonzero fraction reaches it runs the inherited dense GEMM
    path (and bills dense MACs).  The class-level ``window_pregate``
    (O(1) bound on the active-window fraction before enumerating) and
    ``gather_limit`` (enumerated fraction above which one BLAS GEMM
    beats the row gather) encode this machine's measured crossover; all
    paths are bitwise identical to :class:`TimeBatchedEngine`, so the
    thresholds trade wall clock only.
    """

    name = "event-batched"

    #: Reject the conv gather in O(1) when ``events * windows-per-event``
    #: reaches this fraction of the output rows (the bound overcounts
    #: overlaps ~2x at low density, hence > ``gather_limit``).
    window_pregate = 0.75
    #: Row gather + subset GEMM beat one dense GEMM below roughly this
    #: active-row fraction (measured crossover ~0.3 on OpenBLAS).
    gather_limit = 0.3
    #: Build pooled planes in COO form below this input density.
    pool_coo_limit = 0.25

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
        # outputs; ``_counts`` nonzero counts (exact flag) for planes
        # whose structure is unknown but whose magnitude is.
        self._coords: Dict[int, Tuple[np.ndarray, StepSpikes]] = {}
        self._sites: Dict[int, Tuple[np.ndarray, _ActiveSites]] = {}
        self._counts: Dict[int, Tuple[np.ndarray, int, bool]] = {}

    def _config(self) -> dict:
        config = super()._config()
        config["density_threshold"] = self.density_threshold
        return config

    # ------------------------------------------------------------------
    # Carried-structure registry
    # ------------------------------------------------------------------
    def _register_coords(self, plane: np.ndarray, step: StepSpikes) -> None:
        self._coords[id(plane)] = (plane, step)
        self._counts[id(plane)] = (plane, step.num_events, True)

    def _register_sites(self, plane: np.ndarray, sites: _ActiveSites) -> None:
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

    def _site_rows(self, data: np.ndarray) -> Optional[np.ndarray]:
        """Flattened spatial sites (channel-collapsed) of a 4D plane's
        possible nonzeros, from either registry; None when unknown."""
        entry = self._sites.get(id(data))
        if entry is not None:
            return entry[1].rows
        step = self._carried_coords(data)
        if step is not None and len(step.shape) == 4:
            w = step.shape[3]
            s = step.shape[2] * w
            return np.unique(
                step.coords[:, 0] * s + step.coords[:, 2] * w + step.coords[:, 3]
            )
        return None

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
        tiled = super()._stack_stream(stream)
        # The whole stream becomes one stacked coordinate batch: every
        # layer's gather covers all T timesteps in a single call.
        self._register_coords(tiled, stream.stacked())
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
    def _coo_synapse(
        self,
        module: Module,
        data: np.ndarray,
        step: StepSpikes,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        register: bool = True,
    ) -> Tuple[np.ndarray, int, bool]:
        """Run a conv/linear from a coordinate batch.

        Returns ``(output, performed_ops, gathered)``; the output is
        bitwise identical to the dense kernel's either way.  For convs
        the enumerated active-window fraction decides between the
        row-subset gather and one dense GEMM (``gathered`` records
        which); performed ops are billed from the coordinates in both
        cases, and the active sites are registered for the downstream
        BN/neuron fast paths.  ``register=False`` skips registration
        (calibration trials whose outputs are discarded).
        """
        if isinstance(module, Conv2d):
            k, s_, p = module.kernel_size, module.stride, module.padding
            active_rows, entries = conv_active_windows(
                step.coords, data.shape, k, s_, p
            )
            performed = entries * module.out_channels
            oh = _conv_out_size(data.shape[2], k, s_, p)
            ow = _conv_out_size(data.shape[3], k, s_, p)
            n_rows = data.shape[0] * oh * ow
            if active_rows.size <= self.gather_limit * n_rows:
                out, _ = sparse_conv2d(
                    data,
                    weight,
                    bias,
                    s_,
                    p,
                    active_rows=active_rows,
                    performed=performed,
                    rows_only=True,
                )
                gathered = True
            else:
                out = dense_conv2d(data, weight, bias, s_, p)
                gathered = False
            if register:
                background = (
                    np.zeros(module.out_channels, dtype=out.dtype)
                    if bias is None
                    else np.asarray(bias, dtype=out.dtype)
                )
                self._register_sites(
                    out, _ActiveSites(rows=active_rows, background=background)
                )
                self._register_count(
                    out,
                    min(active_rows.size * module.out_channels, out.size),
                    exact=False,
                )
            return out, performed, gathered
        rows = np.unique(step.coords[:, 0])
        performed = step.num_events * weight.shape[0]
        out, _ = sparse_linear(data, weight, bias, performed=performed, rows=rows)
        return out, performed, True

    def _make_interceptor(self, module, stat, orig):
        gemm = super()._make_interceptor(module, stat, orig)
        is_conv = isinstance(module, Conv2d)

        def forward(x: Tensor) -> Tensor:
            data = x.data
            if id(data) in self._constant_arrays:
                stat.backend = "gemm"
                return gemm(x)
            info = self._carried_count(data)
            if info is None:
                # Unknown plane (flattened features, residual sums):
                # one cheap count decides; coordinates only if it pays.
                count, exact = int(np.count_nonzero(data)), True
            else:
                count, exact = info
            if count >= self.density_threshold * data.size:
                stat.backend = "gemm"
                return gemm(x)
            if is_conv:
                k, s_, p = module.kernel_size, module.stride, module.padding
                oh = _conv_out_size(data.shape[2], k, s_, p)
                ow = _conv_out_size(data.shape[3], k, s_, p)
                nwin = (1 + (k - 1) // s_) ** 2
                if count * nwin >= self.window_pregate * data.shape[0] * oh * ow:
                    # O(1) rejection: even the loosest bound on the
                    # active-window fraction says one GEMM wins.
                    stat.backend = "gemm"
                    return gemm(x)
            step = self._carried_coords(data)
            if step is None:
                coords = np.stack(np.nonzero(data), axis=1)
                step = StepSpikes(coords=coords, shape=data.shape)
            stat.dense_synaptic_ops += _dense_op_count(module, data.shape)
            weight = _effective_weight(module, self._weight_cache)
            bias = module.bias.data if module.bias is not None else None
            out, performed, gathered = self._coo_synapse(
                module, data, step, weight, bias
            )
            stat.synaptic_ops += performed
            stat.backend = "event-batched" if gathered else "gemm"
            return Tensor(out)

        return forward

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
            if (
                module.training
                or data.ndim != 4
                or id(data) in self._constant_arrays
            ):
                return base(x)
            rows = self._site_rows(data)
            spatial = data.shape[2] * data.shape[3]
            if rows is None or 2 * rows.size >= data.shape[0] * spatial:
                return base(x)
            return Tensor(self._bn_at_sites(module, data, rows, terms))

        return forward

    def _bn_at_sites(self, module, data, rows, terms) -> np.ndarray:
        """Eval BN applied only at active sites, zero-response elsewhere.

        The background fill is the per-channel response to a zero input
        computed with the module's exact op sequence, so it is bitwise
        what the dense kernel produces at silent sites; active sites run
        that same sequence on their gathered values.  BN-fold thus
        costs ``O(active sites · C)`` instead of a full-plane pass.
        """
        if terms[0] is None:
            mu = module.running_mean
            inv = (module.running_var + module.eps) ** -0.5
            g = module.gamma.data
            b = module.beta.data
            h0 = ((np.zeros_like(mu) - mu) * inv) * g + b
            terms[0] = (mu, inv, g, b, h0)
        mu, inv, g, b, h0 = terms[0]
        n, c, h, w = data.shape
        s = h * w
        out = np.empty_like(data)
        flat = out.reshape(n, c, s)
        flat[:] = h0.reshape(1, c, 1)
        bi = rows // s
        sp = rows % s
        vals = data.reshape(n, c, s)[bi, :, sp]  # (active sites, C)
        flat[bi, :, sp] = ((vals - mu) * inv) * g + b
        # BN is site-local, so the active sites survive it verbatim —
        # with the zero response as the new constant background.  This
        # keeps the sparse membrane update alive across BN.
        self._register_sites(
            out, _ActiveSites(rows=rows, background=h0.astype(out.dtype, copy=False))
        )
        return out

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
            result = base(x)
            rdata = result.data
            if id(rdata) in self._constant_arrays:
                return result
            if step is not None:
                # COO construction didn't apply, but the coordinates can
                # still map through non-overlapping windows for the
                # layers downstream.
                coords = pooled_coords(step, kernel, stride, rdata.shape)
                if coords is not None:
                    self._register_coords(
                        rdata,
                        StepSpikes(
                            coords=coords, shape=rdata.shape, scale=step.scale
                        ),
                    )
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
        scatters the amplitude at the mapped coordinates (the max over a
        window of ``{0, s}`` values is exactly ``s``); average pooling
        gathers the window taps in the dense kernel's tap order and
        replicates its summation sequence, so both are bitwise identical
        to the reference kernels.  The output's coordinates are
        registered, keeping the stream alive with no plane scan.
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
        out = np.zeros(out_shape, dtype=data.dtype)
        idx = tuple(coords.T)
        if isinstance(module, MaxPool2d):
            out[idx] = step.scale
            self._register_coords(
                out, StepSpikes(coords=coords, shape=out_shape, scale=step.scale)
            )
            return out
        if coords.shape[0]:
            bi, ci, oy, ox = idx
            taps = [
                data[bi, ci, oy * k + i, ox * k + j]
                for i in range(k)
                for j in range(k)
            ]
            if len(taps) == 1:
                acc = taps[0].copy()
            else:
                acc = taps[0] + taps[1]
                for tap in taps[2:]:
                    np.add(acc, tap, out=acc)
            vals = acc * np.asarray(1.0 / (k * k), dtype=acc.dtype)
            out[idx] = vals
        else:
            vals = np.zeros(0, dtype=data.dtype)
        self._register_coords(
            out, StepSpikes(coords=coords, shape=out_shape, values=vals)
        )
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
                and module._leak_fn() is None
            ):
                result = self._sparse_neuron(module, data, entry[1])
                if result is not None:
                    return result
            before = module.spike_count
            result = dense_step(x)
            # The dense step already counted its spikes, so the output's
            # exact nonzero count is free — enough for the next conv's
            # O(1) decision without a coordinate scan.
            self._register_count(
                result.data, int(module.spike_count - before), exact=True
            )
            return result

        return forward

    def _sparse_neuron(self, module, data, sites: _ActiveSites) -> Optional[Tensor]:
        """Membrane update via one shared trajectory per channel.

        Valid for leak-free IF neurons with subtract reset fed a plane
        that is a constant per-channel ``background`` everywhere except
        the carried active sites: every untouched site of channel ``c``
        receives the same input ``background[c]`` at every step, so its
        membrane follows one shared trajectory — computed once on a
        ``(C,)`` vector with the exact dense op sequence (integrate,
        compare, subtract-reset) and broadcast.  Only the sites a
        synapse actually touched (expanded across channels) are stepped
        individually, with their gathered inputs, using that same op
        sequence from the same uniform initial membrane.  Membrane,
        spikes and counters come out bitwise identical to dense
        stepping at ``O(touched sites · C · T)`` plus one broadcast
        fill, instead of ``O(plane · T)``.

        When the background trajectory never fires, the individually
        fired sites double as the output's exact coordinates, which
        re-enter the carried stream at no scan cost.
        """
        t = self._run_timesteps
        b = data.shape[0]
        if t < 1 or b % t or data.ndim != 4:
            return None
        n = b // t
        c = data.shape[1]
        hh, ww = data.shape[2], data.shape[3]
        s = hh * ww
        rows = sites.rows
        # Individual sites: the union over time of touched (sample,
        # spatial) pairs — a site diverges from the shared trajectory at
        # its first touch and must be tracked individually from then on
        # (stepping it individually from step 0 applies the identical
        # ops it would share before the touch, so tracking the union
        # from the start is bitwise equivalent and branch-free).
        mask = np.zeros(n * s, dtype=bool)
        mask[(rows // s) % n * s + rows % s] = True
        ind = np.flatnonzero(mask)
        if 2 * ind.size >= n * s:
            return None  # nearly every site diverges: dense is cheaper
        v0 = initial_membrane((1,), module.threshold, module.v_init_fraction,
                              dtype=data.dtype)[0]
        thr = np.asarray(module.threshold, dtype=data.dtype)
        bg = np.asarray(sites.background, dtype=data.dtype)
        # Shared background trajectory, exact dense op sequence on (C,).
        vbg = np.full(c, v0, dtype=data.dtype)
        pattern = np.empty((t, c), dtype=bool)
        for step in range(t):
            vbg += bg
            spiked_bg = vbg >= thr
            vbg -= spiked_bg * thr
            pattern[step] = spiked_bg
        # Individual sites, expanded across channels, stepped with their
        # gathered inputs.
        cells = (
            ((ind // s) * (c * s) + ind % s)[:, np.newaxis]
            + np.arange(c, dtype=np.int64) * s
        ).reshape(-1)
        xf = data.reshape(t, n * c * s)
        bg_fires = bool(pattern.any())
        # A silent background (the common case: the zero-input response
        # cannot climb to threshold) means the plane outside the
        # individual sites is exactly zero — calloc it instead of
        # broadcasting a fill every step.
        out = (np.empty if bg_fires else np.zeros)(data.shape, dtype=np.float32)
        o4 = out.reshape(t, n, c, s)
        of = out.reshape(t, n * c * s)
        vi = np.full(cells.size, v0, dtype=data.dtype)
        fired_parts: List[Tuple[int, np.ndarray]] = []
        spikes = 0
        bg_cells = n * s - ind.size  # background cells per channel
        for step in range(t):
            if bg_fires:
                o4[step] = (pattern[step] * thr)[np.newaxis, :, np.newaxis]
            vi += xf[step][cells]
            spiked = vi >= thr
            fired_thr = spiked * thr
            vi -= fired_thr
            of[step][cells] = fired_thr
            fired = cells[spiked]
            if fired.size:
                fired_parts.append((step, fired))
                spikes += int(fired.size)
        spikes += int(pattern.sum(dtype=np.int64)) * bg_cells
        v = np.empty((n, c, s), dtype=data.dtype)
        v[:] = vbg[np.newaxis, :, np.newaxis]
        v.reshape(-1)[cells] = vi
        module.v = v.reshape((n,) + data.shape[1:])
        module.spike_count += spikes
        module.neuron_steps += int(out.size)
        module.last_spikes = out[(t - 1) * n :] / module.threshold
        if not pattern.any():
            # Fired flat indices are the output's nonzeros — assemble
            # the stacked coordinates O(spikes), no plane scan.
            if fired_parts:
                cols = []
                for step, fired in fired_parts:
                    bi = step * n + fired // (c * s)
                    rem = fired % (c * s)
                    cols.append(
                        np.stack((bi, rem // s, (rem % s) // ww, rem % ww), axis=1)
                    )
                coords = np.concatenate(cols, axis=0)
            else:
                coords = np.zeros((0, 4), dtype=np.int64)
            self._register_coords(
                out,
                StepSpikes(
                    coords=coords, shape=out.shape, scale=float(module.threshold)
                ),
            )
        else:
            self._register_count(out, spikes, exact=True)
        return Tensor(out)
