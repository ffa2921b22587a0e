"""First-class COO spike dataflow: the :class:`SpikeStream` type.

The paper's platform is event-driven end-to-end — the ZYNQ PS "can
transfer event-driven data streams directly to the SIA" (§IV) — so the
reproduction carries spikes as *coordinates*, not dense planes, wherever
the consumer only needs to know where the spikes are:

:class:`SpikeStream`
    One batch of spiking input over T timesteps in COO form —
    ``coords`` (event, batch-space coordinate rows), ``timestep`` (one
    entry per event) and the per-timestep dense ``shape`` as metadata.
    Produced zero-densification by :meth:`repro.data.events.EventStream.
    to_spike_stream` and :func:`repro.data.encodings.rate_encode_stream`,
    consumed natively by every :mod:`repro.snn.engines` backend and by
    the integer accelerator model (:mod:`repro.hw.accelerator`).

:class:`StepSpikes`
    One timestep's slice of a stream (or of an inter-layer activation
    plane inside the event engine): coordinates over a single dense
    shape.  The event engine derives gathers, active-row selection and
    performed-op counts directly from these coordinates instead of
    scanning densified planes.

:class:`SpikeTrace`
    The per-synapse-layer observed input densities of one run —
    measured stream metadata in a compact, serialisable form that the
    hardware latency/traffic/throughput models accept in place of an
    assumed flat spike rate (Tables I and IV, DRAM traffic).

Dense GEMM remains the wall-clock fast path at the paper's spike rates
(a BLAS matmul outruns gather/scatter routes well past 10% density on
this numpy substrate); the COO representation is an *accounting and
memory fidelity* structure — op counts, traffic bytes and calibration
densities come from actual event coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["SpikeStream", "StepSpikes", "SpikeTrace"]


def _as_coords(coords: np.ndarray, ndim: int) -> np.ndarray:
    coords = np.asarray(coords)
    if coords.size == 0:
        return coords.reshape(0, ndim).astype(np.int64)
    if coords.ndim != 2 or coords.shape[1] != ndim:
        raise ValueError(
            f"coords must be (events, {ndim}) for a rank-{ndim} plane, "
            f"got {coords.shape}"
        )
    return coords.astype(np.int64, copy=False)


@dataclass(frozen=True)
class StepSpikes:
    """One timestep's spikes in COO form over a dense ``shape``.

    ``values`` is ``None`` for binary events (amplitude 1.0) — the
    common case for encoded input and for spike planes, whose uniform
    amplitude (the layer threshold) rides on ``scale`` instead so the
    coordinates stay amplitude-free.  Non-uniform amplitudes (an analog
    frame expressed as a stream, average-pooled spike planes) carry an
    explicit per-event ``values`` array.
    """

    coords: np.ndarray           # (E, len(shape)) int64
    shape: Tuple[int, ...]       # dense shape of the plane, batch first
    values: Optional[np.ndarray] = None  # (E,) amplitudes; None = scale
    scale: float = 1.0           # uniform amplitude when values is None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "coords", _as_coords(self.coords, len(self.shape)))
        if self.values is not None:
            values = np.asarray(self.values)
            if values.shape != (self.coords.shape[0],):
                raise ValueError("values must be one amplitude per event")
            object.__setattr__(self, "values", values)

    @property
    def num_events(self) -> int:
        return int(self.coords.shape[0])

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def density(self) -> float:
        """Nonzero fraction of the dense plane these events describe."""
        return self.num_events / max(self.size, 1)

    def to_dense(self, dtype=np.float32) -> np.ndarray:
        """Scatter the events onto a fresh dense plane."""
        out = np.zeros(self.shape, dtype=dtype)
        if self.num_events:
            idx = tuple(self.coords.T)
            if self.values is not None:
                out[idx] = self.values.astype(dtype, copy=False)
            else:
                out[idx] = self.scale
        return out


@dataclass(frozen=True)
class SpikeStream:
    """A COO spike batch: coordinates + timesteps + dense-shape metadata.

    ``coords`` holds one row of batch-space coordinates per event (for
    image planes ``(n, c, h, w)``); ``timestep`` assigns each event to a
    step in ``[0, timesteps)``.  Events are kept sorted by timestep so
    :meth:`step` is a contiguous slice.  ``values`` is ``None`` for
    binary events; a stream built from an analog direct-coded input
    carries the per-event float amplitudes so ``to_dense`` round-trips
    exactly.
    """

    coords: np.ndarray            # (E, len(shape)) int64
    timestep: np.ndarray          # (E,) int64, sorted ascending
    shape: Tuple[int, ...]        # per-timestep dense shape, batch first
    timesteps: int
    values: Optional[np.ndarray] = None
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "timesteps", int(self.timesteps))
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if not self.shape or any(s < 1 for s in self.shape):
            raise ValueError(f"invalid per-timestep shape {self.shape}")
        coords = _as_coords(self.coords, len(self.shape))
        timestep = np.asarray(self.timestep).astype(np.int64, copy=False).reshape(-1)
        if timestep.shape[0] != coords.shape[0]:
            raise ValueError("timestep must assign one step per event")
        values = self.values
        if values is not None:
            values = np.asarray(values)
            if values.shape != (coords.shape[0],):
                raise ValueError("values must be one amplitude per event")
        if timestep.size:
            if timestep.min() < 0 or timestep.max() >= self.timesteps:
                raise ValueError("timestep entries must be in [0, timesteps)")
            upper = np.asarray(self.shape, dtype=np.int64)
            if (coords < 0).any() or (coords >= upper).any():
                raise ValueError("coords out of range for the declared shape")
            if np.any(np.diff(timestep) < 0):  # canonicalise: sort by step
                order = np.argsort(timestep, kind="stable")
                coords = coords[order]
                timestep = timestep[order]
                if values is not None:
                    values = values[order]
            # Duplicate events would make the coordinate-derived
            # accounting (num_events, density, performed ops) disagree
            # with the densified plane, which scatters a cell once.
            cells = np.ravel_multi_index(tuple(coords.T), self.shape)
            keys = timestep * int(np.prod(self.shape, dtype=np.int64)) + cells
            if np.unique(keys).size != keys.size:
                raise ValueError(
                    "duplicate events at the same (timestep, coordinate); "
                    "deduplicate (e.g. np.unique) before building the stream"
                )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "timestep", timestep)
        object.__setattr__(self, "values", values)
        # Per-step slice boundaries: events of step t live in
        # coords[_offsets[t]:_offsets[t + 1]].
        offsets = np.searchsorted(timestep, np.arange(self.timesteps + 1))
        object.__setattr__(self, "_offsets", offsets)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls,
        coords: np.ndarray,
        timestep: np.ndarray,
        shape: Tuple[int, ...],
        timesteps: int,
        values: Optional[np.ndarray],
    ) -> "SpikeStream":
        """Construct without validation — for data derived from an
        already-validated stream (batch slices preserve sortedness,
        in-range coordinates and uniqueness), where re-running the
        O(E log E) duplicate scan per block/batch would be pure waste."""
        stream = object.__new__(cls)
        object.__setattr__(stream, "coords", coords)
        object.__setattr__(stream, "timestep", timestep)
        object.__setattr__(stream, "shape", tuple(shape))
        object.__setattr__(stream, "timesteps", int(timesteps))
        object.__setattr__(stream, "values", values)
        object.__setattr__(
            stream,
            "_offsets",
            np.searchsorted(timestep, np.arange(int(timesteps) + 1)),
        )
        return stream

    @classmethod
    def from_dense(cls, dense: np.ndarray, binary: Optional[bool] = None) -> "SpikeStream":
        """Build a stream from a dense ``(T,) + shape`` activation stack.

        ``binary=None`` (the default) keeps per-event values only when
        some nonzero entry differs from 1.0, so binary spike stacks
        produce amplitude-free streams; ``binary=True`` forces the
        values to be dropped, ``binary=False`` always keeps them.
        """
        dense = np.asarray(dense)
        if dense.ndim < 2:
            raise ValueError("dense stack must be (T, N, ...)")
        where = np.nonzero(dense)
        timestep = where[0].astype(np.int64)
        coords = np.stack(where[1:], axis=1).astype(np.int64) if timestep.size else (
            np.zeros((0, dense.ndim - 1), dtype=np.int64)
        )
        values: Optional[np.ndarray] = None
        if binary is not True and timestep.size:
            extracted = dense[where]
            if binary is False or not np.all(extracted == 1):
                values = extracted
        return cls(
            coords=coords,
            timestep=timestep,
            shape=dense.shape[1:],
            timesteps=dense.shape[0],
            values=values,
        )

    # ------------------------------------------------------------------
    # Metadata accessors
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return self.shape[0]

    @property
    def num_events(self) -> int:
        return int(self.coords.shape[0])

    @property
    def density(self) -> float:
        """Mean events per cell per timestep (the stream's spike rate)."""
        size = int(np.prod(self.shape, dtype=np.int64)) * self.timesteps
        return self.num_events / max(size, 1)

    def events_per_step(self) -> np.ndarray:
        """(T,) event counts — the time profile of the stream."""
        return np.diff(self._offsets)

    def density_per_step(self) -> np.ndarray:
        """(T,) nonzero fraction of each timestep's plane."""
        size = max(int(np.prod(self.shape, dtype=np.int64)), 1)
        return self.events_per_step() / size

    def __len__(self) -> int:
        return self.batch_size

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    def step(self, t: int) -> StepSpikes:
        """Timestep ``t`` as a :class:`StepSpikes` (contiguous slice)."""
        if not 0 <= t < self.timesteps:
            raise IndexError(f"timestep {t} out of range [0, {self.timesteps})")
        lo, hi = int(self._offsets[t]), int(self._offsets[t + 1])
        return StepSpikes(
            coords=self.coords[lo:hi],
            shape=self.shape,
            values=None if self.values is None else self.values[lo:hi],
        )

    def to_dense(self, dtype=np.float32) -> np.ndarray:
        """Scatter the whole stream onto a dense ``(T,) + shape`` stack."""
        out = np.zeros((self.timesteps,) + self.shape, dtype=dtype)
        if self.num_events:
            idx = (self.timestep,) + tuple(self.coords.T)
            out[idx] = 1 if self.values is None else self.values.astype(dtype, copy=False)
        return out

    def stacked(self) -> StepSpikes:
        """The whole stream as one :class:`StepSpikes` over the t-major
        ``(T*N, ...)`` stack — the multi-step coordinate batch the
        time-batched engines execute on.

        The batch coordinate of an event at step ``t`` on sample ``n``
        becomes the stacked row ``t * N + n``, matching exactly how the
        batched schedule reshapes ``(T, N, ...)`` into ``(T*N, ...)``.
        One such coordinate batch drives one gather+scatter per layer
        for all T timesteps, amortising index plans and coordinate
        bookkeeping across the whole stack instead of per-step loops.
        """
        n = self.batch_size
        coords = self.coords.copy()
        coords[:, 0] += self.timestep * n
        return StepSpikes(
            coords=coords,
            shape=(self.timesteps * n,) + self.shape[1:],
            values=self.values,
        )

    @classmethod
    def from_stacked(cls, step: StepSpikes, timesteps: int) -> "SpikeStream":
        """Rebuild a stream from a t-major stacked coordinate batch.

        The exact inverse of :meth:`stacked`: the stacked batch row
        ``b = t * N + n`` splits back into ``(t, n)``.  ``step.shape[0]``
        must be ``timesteps * N``.  Amplitudes round-trip: a uniform
        ``scale`` becomes per-event values only when it is not 1.0.
        """
        timesteps = int(timesteps)
        if timesteps < 1 or step.shape[0] % timesteps:
            raise ValueError(
                f"stacked batch of {step.shape[0]} rows does not divide "
                f"into {timesteps} timesteps"
            )
        n = step.shape[0] // timesteps
        timestep = step.coords[:, 0] // n
        coords = step.coords.copy()
        coords[:, 0] %= n
        values = step.values
        if values is None and step.scale != 1.0 and step.num_events:
            values = np.full(step.num_events, step.scale, dtype=np.float32)
        return cls(
            coords=coords,
            timestep=timestep,
            shape=(n,) + step.shape[1:],
            timesteps=timesteps,
            values=values,
        )

    def batch_slice(self, start: int, stop: int) -> "SpikeStream":
        """The sub-stream of samples ``start <= n < stop`` (sample blocks)."""
        start, stop = max(int(start), 0), min(int(stop), self.batch_size)
        if stop <= start:
            raise ValueError(f"empty batch slice [{start}, {stop})")
        keep = (self.coords[:, 0] >= start) & (self.coords[:, 0] < stop)
        coords = self.coords[keep].copy()
        if coords.size:
            coords[:, 0] -= start
        # A slice of a validated stream needs no re-validation: the
        # keep-mask preserves timestep order, uniqueness and bounds.
        return SpikeStream._trusted(
            coords=coords,
            timestep=self.timestep[keep],
            shape=(stop - start,) + self.shape[1:],
            timesteps=self.timesteps,
            values=None if self.values is None else self.values[keep],
        )

    def __getitem__(self, item) -> "SpikeStream":
        """Batch slicing (``stream[lo:hi]``), mirroring ndarray batches."""
        if not isinstance(item, slice) or item.step not in (None, 1):
            raise TypeError("SpikeStream supports contiguous batch slices only")
        start, stop, _ = item.indices(self.batch_size)
        return self.batch_slice(start, stop)


@dataclass(frozen=True)
class SpikeTrace:
    """Measured per-synapse-layer input densities of one simulated run.

    This is the compact, serialisable "spike trace" the hardware models
    accept in place of an assumed flat rate: entry *i* is the observed
    nonzero fraction of the spike plane feeding mapped synapse layer
    *i* (sourced from :class:`SpikeStream`/:class:`StepSpikes` metadata
    when the run consumed a stream, from dense scans otherwise).  The
    aggregate op counters ride along so Table IV's dense-equivalent
    throughput can be computed from a trace alone.
    """

    layers: Tuple[str, ...]
    densities: Tuple[float, ...]
    engine: str = ""
    synaptic_ops: int = 0
    dense_synaptic_ops: int = 0
    spike_rate: float = 0.0  # overall spikes / neuron / timestep

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(str(n) for n in self.layers))
        object.__setattr__(
            self, "densities", tuple(float(d) for d in self.densities)
        )
        if len(self.layers) != len(self.densities):
            raise ValueError("one density per synapse layer required")

    def __len__(self) -> int:
        return len(self.densities)

    def __iter__(self):
        return iter(self.densities)

    def rates(self, skip=None) -> Tuple[float, ...]:
        """Densities filtered by a layer-name predicate (e.g. shortcut
        convs the hardware mapper folds into their main layer)."""
        if skip is None:
            return self.densities
        return tuple(
            d for name, d in zip(self.layers, self.densities) if not skip(name)
        )

    # Aggregate views shared with RunStats so hardware consumers can
    # take either interchangeably.
    @property
    def total_synaptic_ops(self) -> int:
        return self.synaptic_ops

    @property
    def total_dense_synaptic_ops(self) -> int:
        return self.dense_synaptic_ops

    @property
    def overall_spike_rate(self) -> float:
        return self.spike_rate

    @property
    def synaptic_op_saving(self) -> float:
        if self.dense_synaptic_ops == 0:
            return 0.0
        return 1.0 - self.synaptic_ops / self.dense_synaptic_ops
