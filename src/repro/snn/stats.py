"""Unified run statistics for every SNN execution backend.

One pair of types — :class:`LayerStats` and :class:`RunStats` — is
shared by the software simulation engines (``repro.snn.engine``), the
integer accelerator model (``repro.hw.accelerator``) and the experiment
drivers (``repro.eval.experiments``), so the paper's Fig. 6/8 spike
rates and the synaptic-operation counts all come from a single
instrumentation point regardless of which backend produced them.

Conventions:

* ``synaptic_ops`` is the work the backend *performed* — for
  event-driven backends that is one op per (spike, fan-out weight)
  pair, which is what the paper's aggregation core executes; for dense
  backends it equals the full MAC count.
* ``dense_synaptic_ops`` is what a dense recompute of the same layer
  would have cost, so ``synaptic_ops / dense_synaptic_ops`` is the
  event-driven saving.
* ``wall_clock_seconds`` on a layer is the measured time spent inside
  that layer's forward across the run (near-zero-overhead
  ``perf_counter`` deltas recorded by the engine interceptors);
  ``input_nonzero`` / ``input_size`` accumulate the observed input
  density of synapse layers — together with each synapse layer's
  ``backend`` and the gate that chose it (``backend_source``) this is
  the profile rendered by :meth:`RunStats.profile_table`.
* Cycle fields are only filled by the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.snn.spikes import SpikeTrace


@dataclass
class LayerStats:
    """Accumulated execution statistics for one layer of one run."""

    name: str
    kind: str = ""               # "conv" | "linear" | "neuron" | hw layer kind
    spike_count: int = 0
    neuron_steps: int = 0        # neurons * timesteps * samples observed
    synaptic_ops: int = 0        # ops actually performed by the backend
    dense_synaptic_ops: int = 0  # ops a dense recompute would need
    core_cycles: int = 0         # hardware-only
    aggregation_cycles: int = 0  # hardware-only
    segment_activity_sum: float = 0.0
    timesteps: int = 0
    wall_clock_seconds: float = 0.0  # time spent inside this layer's forward
    input_nonzero: int = 0       # nonzero input elements seen (synapse layers)
    input_size: int = 0          # total input elements seen (synapse layers)
    # The kernel the event-batched rule chose for a synapse layer, or the
    # step a neuron ran ("sites" | "dense"); "" without a per-layer choice.
    backend: str = ""
    # Which gate of that rule decided ("constant" | "density" |
    # "pregate" | "rows" | "linear"; "" for engines without a per-layer
    # choice): why this kernel ran for this layer.
    backend_source: str = ""

    @property
    def spike_rate(self) -> float:
        """Average spikes per neuron per timestep (Fig. 6/8 y-axis)."""
        if self.neuron_steps == 0:
            return 0.0
        return self.spike_count / self.neuron_steps

    @property
    def input_density(self) -> float:
        """Observed nonzero fraction of this layer's input activations."""
        if self.input_size == 0:
            return 0.0
        return self.input_nonzero / self.input_size

    @property
    def density(self) -> float:
        """The profiling density: input density for synapse layers (what
        sets event-driven cost), spike rate for neuron layers."""
        return self.spike_rate if self.kind == "neuron" else self.input_density

    @property
    def mean_segment_activity(self) -> float:
        if self.timesteps == 0:
            return 0.0
        return self.segment_activity_sum / self.timesteps

    def merge(self, other: "LayerStats") -> "LayerStats":
        """Accumulate another run's counters for the same layer, in place."""
        if other.name != self.name:
            raise ValueError(f"cannot merge stats of {other.name!r} into {self.name!r}")
        self.spike_count += other.spike_count
        self.neuron_steps += other.neuron_steps
        self.synaptic_ops += other.synaptic_ops
        self.dense_synaptic_ops += other.dense_synaptic_ops
        self.core_cycles += other.core_cycles
        self.aggregation_cycles += other.aggregation_cycles
        self.segment_activity_sum += other.segment_activity_sum
        self.timesteps += other.timesteps
        self.wall_clock_seconds += other.wall_clock_seconds
        self.input_nonzero += other.input_nonzero
        self.input_size += other.input_size
        if not self.backend:
            self.backend = other.backend
        if not self.backend_source:
            self.backend_source = other.backend_source
        return self


def resolve_layer_rates(
    source: Union["RunStats", SpikeTrace, Sequence[float]], n_layers: int
) -> List[float]:
    """Resolve a measured-activity source into one rate per mapped layer.

    The single resolver behind every hardware consumer of measured
    activity (``table1_experiment(measured=...)``,
    ``TrafficModel.network_traffic(measured=...)``): a
    :class:`RunStats` resolves through
    :meth:`RunStats.input_spike_rates`, a
    :class:`repro.snn.spikes.SpikeTrace` through its recorded
    densities, and anything else as an explicit rate sequence.  The two
    measured kinds are related but *not* interchangeable numbers: a
    RunStats bills each layer at the spike rate of the neuron layer
    feeding it, while a trace records the observed nonzero fraction of
    the layer's actual input plane — downstream of pooling these
    differ (pooling concentrates spikes, raising observed density
    above the feeding neuron's rate).  The trace is the more faithful
    measure of what the layer's input transfer/gather actually
    carries; the RunStats form survives for callers without profiling.
    Both fall back to dropping ResNet projection shortcuts — which the
    hardware mapper folds into the main layer as an auxiliary pass —
    when the raw count does not match; a mismatch after that means the
    stats came from a different architecture, a caller error worth
    failing loudly on.
    """
    skip = lambda name: "shortcut" in name  # noqa: E731
    if isinstance(source, RunStats):
        rates = source.input_spike_rates()
        if len(rates) != n_layers:
            rates = source.input_spike_rates(skip=skip)
    elif isinstance(source, SpikeTrace):
        rates = list(source.densities)
        if len(rates) != n_layers:
            rates = list(source.rates(skip=skip))
    else:
        rates = [float(r) for r in source]
    if len(rates) != n_layers:
        raise ValueError(
            f"measured rates cover {len(rates)} synapse layers but the mapped "
            f"network has {n_layers}; stats must come from the same architecture"
        )
    return [float(r) for r in rates]


@dataclass
class RunStats:
    """Whole-network statistics for one batch of inferences."""

    batch_size: int
    timesteps: int
    layers: List[LayerStats] = field(default_factory=list)
    engine: str = ""
    wall_clock_seconds: float = 0.0
    # Block lanes the run's sample blocks ran in concurrently (1 when
    # serial).  Per-layer wall clock is busy time summed over lanes, so
    # with lanes > 1 it can exceed the run's elapsed wall clock.
    lanes: int = 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_core_cycles(self) -> int:
        return sum(l.core_cycles for l in self.layers)

    @property
    def cycles_per_inference(self) -> float:
        return self.total_core_cycles / max(self.batch_size, 1)

    @property
    def total_synaptic_ops(self) -> int:
        return sum(l.synaptic_ops for l in self.layers)

    @property
    def total_dense_synaptic_ops(self) -> int:
        return sum(l.dense_synaptic_ops for l in self.layers)

    @property
    def synaptic_op_saving(self) -> float:
        """Fraction of dense work skipped (0 when dense baseline unknown)."""
        dense = self.total_dense_synaptic_ops
        if dense == 0:
            return 0.0
        return 1.0 - self.total_synaptic_ops / dense

    def spike_rates(self) -> List[float]:
        """Per-layer spike rates, in depth order (layers with neurons only)."""
        return [l.spike_rate for l in self.layers if l.neuron_steps > 0]

    def input_spike_rates(
        self,
        frame_rate: float = 1.0,
        skip: Optional[Callable[[str], bool]] = None,
    ) -> List[float]:
        """Observed *input* activity of each synapse layer, in depth order.

        A synapse layer's event-driven cost is set by the spike rate of
        the neuron layer feeding it, so this is the per-layer rate
        vector the hardware latency/power models consume.  Layers fed
        by the analog input frame (no upstream neuron yet) are billed
        at ``frame_rate`` (dense, 1.0 by default), mirroring the
        PS-side frame convolution.  ``skip`` drops synapse layers by
        name — e.g. ResNet projection shortcuts, which the hardware
        mapper folds into the main layer as an auxiliary pass rather
        than mapping separately.

        The upstream rate is resolved by flat registration order, which
        is exact for chains; at residual merge points the consuming
        layer actually sees main-branch plus shortcut spikes, so its
        billed input rate is the trunk neuron's — an approximation that
        understates activity at the handful of merge convs.
        """
        rates: List[float] = []
        upstream: float = frame_rate
        for layer in self.layers:
            if layer.kind == "neuron":
                upstream = layer.spike_rate
            elif layer.kind in ("conv", "linear", "fc"):
                if skip is None or not skip(layer.name):
                    rates.append(upstream)
        return rates

    @property
    def overall_spike_rate(self) -> float:
        steps = sum(l.neuron_steps for l in self.layers)
        if steps == 0:
            return 0.0
        return sum(l.spike_count for l in self.layers) / steps

    def spike_trace(self) -> SpikeTrace:
        """The run's measured per-synapse-layer input densities as a
        portable :class:`repro.snn.spikes.SpikeTrace`.

        Densities are the *observed* nonzero fractions the profiler
        recorded (sourced from SpikeStream/StepSpikes metadata when the
        run consumed a COO stream), so the hardware latency, traffic
        and throughput models bill layers at actual event activity.
        Note this is a sharper measure than
        :meth:`input_spike_rates`' feeding-neuron rates: downstream of
        pooling the observed input density exceeds the upstream spike
        rate (pooling concentrates spikes), which is exactly what the
        layer's input transfer and gather pay for.  Requires a run
        with ``profile_layers`` on (the default).
        """
        synapse = [
            l for l in self.layers if l.kind in ("conv", "linear", "fc")
        ]
        if synapse and all(l.input_size == 0 for l in synapse):
            raise ValueError(
                "run recorded no input densities; re-run with "
                "profile_layers=True to derive a spike trace"
            )
        return SpikeTrace(
            layers=tuple(l.name for l in synapse),
            densities=tuple(l.input_density for l in synapse),
            engine=self.engine,
            synaptic_ops=self.total_synaptic_ops,
            dense_synaptic_ops=self.total_dense_synaptic_ops,
            spike_rate=self.overall_spike_rate,
        )

    # ------------------------------------------------------------------
    def merge(self, other: "RunStats") -> "RunStats":
        """Accumulate another run over the same network (batched eval)."""
        if len(other.layers) != len(self.layers):
            raise ValueError("cannot merge runs over different networks")
        if other.timesteps != self.timesteps:
            raise ValueError("cannot merge runs with different timesteps")
        for mine, theirs in zip(self.layers, other.layers):
            mine.merge(theirs)
        self.batch_size += other.batch_size
        self.wall_clock_seconds += other.wall_clock_seconds
        self.lanes = max(self.lanes, other.lanes)
        return self

    def layer_table(self) -> str:
        """Aligned text table of per-layer rates and op counts."""
        lines = ["layer                          kind     spike_rate  synaptic_ops"]
        for stat in self.layers:
            lines.append(
                f"{stat.name:<30} {stat.kind:<8} {stat.spike_rate:>10.4f}  {stat.synaptic_ops:>12d}"
            )
        lines.append(
            f"overall spike rate {self.overall_spike_rate:.4f}; "
            f"total synaptic ops {self.total_synaptic_ops}"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Per-layer wall-clock profile
    # ------------------------------------------------------------------
    def profile_records(self) -> List[dict]:
        """Per-layer profile rows: name, kind, backend, wall-clock ms,
        density and performed ops.

        This is the machine-readable form embedded in the engine
        benchmark artifact (``BENCH_engines.json``).  ``density`` is the
        layer's input density for synapse layers (what sets
        event-driven cost) and the spike rate for neuron layers;
        ``backend`` is the per-layer backend the run actually used
        (falling back to the engine name when the engine makes no
        per-layer choice); on a neuron row it is the step that ran —
        ``sites`` or ``dense`` on ``event-batched``, ``-`` on engines
        without a choice.  ``source`` is the gate of the event-batched
        rule that chose a synapse layer's kernel (``""`` without a
        per-layer choice).
        """
        return [
            {
                "name": layer.name,
                "kind": layer.kind,
                "backend": layer.backend
                or ("-" if layer.kind == "neuron" else self.engine),
                "source": layer.backend_source,
                "wall_clock_ms": round(layer.wall_clock_seconds * 1e3, 3),
                "density": round(layer.density, 6),
                "synaptic_ops": int(layer.synaptic_ops),
            }
            for layer in self.layers
        ]

    def profile_table(self) -> str:
        """Aligned text table of the per-layer wall-clock profile."""
        lines = [
            "layer                          kind     backend        source        wall_ms   density    synaptic_ops"
        ]
        for row in self.profile_records():
            lines.append(
                f"{row['name']:<30} {row['kind']:<8} {row['backend']:<13} "
                f"{row['source'] or '-':<12} {row['wall_clock_ms']:>9.3f}  "
                f"{row['density']:>8.4f}  {row['synaptic_ops']:>14d}"
            )
        attributed = sum(l.wall_clock_seconds for l in self.layers)
        lines.append(
            f"run wall clock {self.wall_clock_seconds * 1e3:.3f} ms "
            f"({attributed * 1e3:.3f} ms attributed to layers); "
            f"engine {self.engine or '?'}, lanes {self.lanes}"
        )
        return "\n".join(lines)
