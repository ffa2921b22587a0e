"""One driver per paper artefact (Figs. 6-9, Tables I-IV, ASIC note).

Accuracy experiments (Figs. 7/9) run the full three-stage pipeline on
the synthetic dataset at a reduced width (the numpy substrate trains in
minutes, not GPU-days); hardware experiments (Tables I-IV) use the
paper's *full-width* layer geometry, which needs no training — latency,
resources and throughput are functions of shapes and architecture only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.data.datasets import SyntheticCIFAR
from repro.eval.prior_art import PRIOR_ART, best_prior
from repro.hw.asic import AsicProjection, AsicReport
from repro.hw.config import ArchConfig, LayerConfig, LayerKind, PYNQ_Z2
from repro.hw.latency import LatencyModel, group_latencies_like_table1
from repro.hw.mapper import MappedNetwork, map_network
from repro.hw.power import PowerModel
from repro.hw.resources import ResourceModel, ThroughputModel
from repro.models import build_model
from repro.pipeline.conversion import (
    ConversionResult,
    build_quantized_twin,
    run_conversion_pipeline,
)
from repro.pipeline.trainer import TrainConfig
from repro.snn import SpikingNetwork, collect_spike_stats, convert_to_snn
from repro.snn.metrics import SpikeStats
from repro.snn.spikes import SpikeTrace
from repro.snn.stats import RunStats, resolve_layer_rates

# A measured-activity source for the hardware latency/power models:
# the RunStats of an actual simulated run (its per-layer input rates
# are derived via RunStats.input_spike_rates), a portable SpikeTrace
# (RunStats.spike_trace() — observed densities sourced from SpikeStream
# metadata on stream runs), or an explicit per-synapse-layer
# input-rate sequence.
RateSource = Union[RunStats, SpikeTrace, Sequence[float]]

#: Valid input formats for the spike-rate experiments.
INPUT_FORMATS = ("frames", "events")


# ----------------------------------------------------------------------
# Figs. 7 and 9: accuracy vs timesteps
# ----------------------------------------------------------------------
@dataclass
class AccuracyCurve:
    """Everything plotted in paper Fig. 7 / Fig. 9."""

    model_name: str
    ann_accuracy: float
    quant_accuracy: float
    per_step_accuracy: List[float]
    timesteps_to_match_quant: Optional[int]
    result: ConversionResult = field(repr=False, default=None)

    def within_of_ann(self, margin: float = 0.01) -> Optional[int]:
        """First timestep whose accuracy is within ``margin`` of the ANN."""
        for t, acc in enumerate(self.per_step_accuracy, start=1):
            if acc >= self.ann_accuracy - margin:
                return t
        return None


def accuracy_vs_timesteps_experiment(
    model_name: str,
    dataset: Optional[SyntheticCIFAR] = None,
    width: float = 0.25,
    levels: int = 2,
    max_timesteps: int = 32,
    ann_epochs: int = 8,
    finetune_epochs: int = 6,
    seed: int = 0,
    engine: str = "dense",
    timesteps: int = 8,
) -> AccuracyCurve:
    """Run the full pipeline and return the accuracy-vs-T curve.

    ``timesteps`` is the evaluated T the network is built for; the
    curve runs to ``max_timesteps``, which must reach it.

    ``engine`` selects the SNN simulation backend (``"dense"``,
    ``"batched"`` or ``"auto"``); accuracy is
    backend-independent, wall clock is not — the batched and auto
    backends compute the whole accuracy-vs-T curve from one
    layer-sequential pass.
    """
    dataset = dataset or SyntheticCIFAR(num_train=2000, num_test=500, noise=1.0, seed=seed)
    result = run_conversion_pipeline(
        model_name,
        dataset,
        width=width,
        levels=levels,
        timesteps=timesteps,
        max_timesteps=max_timesteps,
        ann_config=TrainConfig(epochs=ann_epochs, seed=seed),
        finetune_config=TrainConfig(epochs=finetune_epochs, lr=5e-4, seed=seed + 1),
        seed=seed,
        engine=engine,
    )
    match_t = None
    for t, acc in enumerate(result.snn_accuracy_per_step, start=1):
        if acc >= result.quant_accuracy:
            match_t = t
            break
    return AccuracyCurve(
        model_name=model_name,
        ann_accuracy=result.ann_accuracy,
        quant_accuracy=result.quant_accuracy,
        per_step_accuracy=result.snn_accuracy_per_step,
        timesteps_to_match_quant=match_t,
        result=result,
    )


# ----------------------------------------------------------------------
# Figs. 6 and 8: per-layer spike rates
# ----------------------------------------------------------------------
def spike_rate_experiment(
    curve: AccuracyCurve,
    dataset: SyntheticCIFAR,
    timesteps: int = 8,
    max_samples: int = 256,
    input_format: str = "frames",
) -> SpikeStats:
    """Per-layer average spike rate of the converted network (Fig. 6/8).

    ``input_format="frames"`` presents the direct-coded analog frames
    (the PS frame-conversion mode); ``"events"`` rate-encodes the same
    images into a binary COO :class:`repro.snn.spikes.SpikeStream` and
    runs the network on the event stream (the accelerator's
    event-driven input mode), so the reported rates reflect genuinely
    event-driven input statistics.
    """
    if input_format not in INPUT_FORMATS:
        raise ValueError(
            f"unknown input_format {input_format!r}; choose from {INPUT_FORMATS}"
        )
    network: SpikingNetwork = curve.result.snn
    x = dataset.test_x[:max_samples]
    if input_format == "events":
        from repro.data.encodings import rate_encode_stream

        x = rate_encode_stream(x, timesteps, rng=np.random.default_rng(0))
    return collect_spike_stats(network, x, timesteps=timesteps)


# ----------------------------------------------------------------------
# Geometry-only network builders for the hardware experiments
# ----------------------------------------------------------------------
def build_geometry_network(
    model_name: str,
    width: float = 1.0,
    levels: int = 2,
    seed: int = 0,
    arch: ArchConfig = PYNQ_Z2,
) -> MappedNetwork:
    """Map an untrained full-width network (shapes are all that matter).

    The hardware experiments (Tables I and II) depend only on layer
    geometry, the memory map and the clock — not on trained weights —
    so the network is instantiated, converted with its freshly
    initialised thresholds, and mapped.
    """
    model = build_quantized_twin(
        model_name, width=width, num_classes=10, levels=levels, seed=seed
    )
    convert_to_snn(model)
    return map_network(model, input_shape=(3, 32, 32), arch=arch)


# ----------------------------------------------------------------------
# Table I: layer-wise latency
# ----------------------------------------------------------------------
def _layer_input_rates(source: RateSource, n_layers: int) -> List[float]:
    """Resolve a measured-rate source into one input rate per synapse layer.

    The latency model bills each layer by the activity of the spike
    plane *feeding* it; resolution (RunStats / SpikeTrace / explicit
    sequence, with the mapper's shortcut-folding fallback) is the
    shared :func:`repro.snn.stats.resolve_layer_rates`, the same
    resolver the traffic model uses.
    """
    return resolve_layer_rates(source, n_layers)


def table1_experiment(
    timesteps: int = 8,
    spike_rate: float = 0.12,
    arch: ArchConfig = PYNQ_Z2,
    width: float = 1.0,
    measured: Optional[Mapping[str, RateSource]] = None,
) -> Dict[str, List[dict]]:
    """Layer-wise latency rows for ResNet-18 and VGG-11 (paper Table I).

    ``measured`` optionally maps a model name (``"resnet18"`` /
    ``"vgg11"``) to the :class:`RunStats` of a simulated run (e.g.
    ``SpikingNetwork.last_run_stats``) or an explicit per-layer
    input-rate list; those layers are then billed at the *observed*
    activity instead of the flat assumed ``spike_rate``.  Width-scaled
    simulation stats are fine: layer count, not layer width, must match.
    """
    model = LatencyModel(arch)
    out: Dict[str, List[dict]] = {}
    unknown = set(measured or {}) - {"resnet18", "vgg11"}
    if unknown:
        raise ValueError(
            f"unknown model names in measured rates: {sorted(unknown)}; "
            "expected 'resnet18' and/or 'vgg11'"
        )
    for name in ("resnet18", "vgg11"):
        mapped = build_geometry_network(name, width=width, arch=arch)
        configs = [layer.config for layer in mapped.layers]
        source = (measured or {}).get(name)
        if source is None:
            rates = [spike_rate] * len(configs)
        else:
            rates = _layer_input_rates(source, len(configs))
        latencies = model.network_latency(
            configs, timesteps=timesteps, spike_rates=rates
        )
        out[name] = group_latencies_like_table1(latencies, configs)
    return out


# ----------------------------------------------------------------------
# Table II: latency vs kernel size
# ----------------------------------------------------------------------
def table2_experiment(
    kernel_sizes=(3, 5, 7, 11),
    timesteps: int = 8,
    arch: ArchConfig = PYNQ_Z2,
) -> List[dict]:
    """Latency of Conv(kxk, 64) @ 32x32 for each kernel size."""
    model = LatencyModel(arch)
    rows = []
    for k in kernel_sizes:
        cfg = LayerConfig(
            kind=LayerKind.CONV,
            in_channels=3,
            out_channels=64,
            in_height=32,
            in_width=32,
            kernel_size=k,
            stride=1,
            padding=k // 2,
            name=f"Conv ({k}x{k},64)",
        )
        lat = model.layer_latency(cfg, timesteps=timesteps, frame_input=True)
        rows.append(
            {
                "layer": cfg.name,
                "output_size": f"{cfg.out_height}x{cfg.out_width}",
                "latency_ms": round(lat.milliseconds, 4),
                "pl_cycles": lat.pl_cycles,
                "kernel_cycles": arch.kernel_cycles(k),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table III: resource utilisation
# ----------------------------------------------------------------------
def table3_experiment(arch: ArchConfig = PYNQ_Z2) -> List[dict]:
    """FPGA resource rows (paper Table III)."""
    return ResourceModel(arch).report().rows()


# ----------------------------------------------------------------------
# Table IV: comparison with prior art
# ----------------------------------------------------------------------
def table4_experiment(
    arch: ArchConfig = PYNQ_Z2,
    power_watts: float = 1.54,
    run_stats: Optional[Union[RunStats, SpikeTrace]] = None,
) -> Dict[str, object]:
    """This-work column + prior art + the 2x / 4.5x headline ratios.

    ``run_stats`` (a simulated run's :class:`RunStats` or its portable
    :class:`repro.snn.spikes.SpikeTrace`) additionally reports the
    *measured* event-driven throughput: the core executes only the
    performed synaptic ops but delivers the dense network's work, so
    the dense-equivalent rate is ``peak GOPS x dense/performed ops`` —
    the quantity the paper's event-driven thesis says should beat a
    dense accelerator of the same PE budget.
    """
    ours = ThroughputModel(arch, power_watts=power_watts).report()
    rows = [
        {
            "paper": row.name,
            "platform": row.platform,
            "pes": row.num_pes if row.num_pes is not None else "N/A",
            "clock_mhz": row.clock_mhz,
            "gops": row.gops,
            "gops_per_pe": row.gops_per_pe if row.gops_per_pe is not None else "N/A",
            "gops_per_watt": (
                row.energy_eff_gops_per_watt
                if row.energy_eff_gops_per_watt is not None
                else "N/A"
            ),
            "dsp": row.dsp if row.dsp is not None else "N/A",
            "gops_per_dsp": row.gops_per_dsp if row.gops_per_dsp is not None else "N/A",
        }
        for row in PRIOR_ART
    ]
    rows.append(
        {
            "paper": "This Work",
            "platform": ours.platform,
            "pes": ours.num_pes,
            "clock_mhz": ours.clock_mhz,
            "gops": ours.gops,
            "gops_per_pe": ours.gops_per_pe,
            "gops_per_watt": ours.gops_per_watt,
            "dsp": ours.dsp,
            "gops_per_dsp": ours.gops_per_dsp,
        }
    )
    result: Dict[str, object] = {
        "rows": rows,
        "pe_efficiency_gain": ours.gops_per_pe / best_prior("gops_per_pe"),
        "dsp_efficiency_gain": ours.gops_per_dsp / best_prior("gops_per_dsp"),
        "energy_efficiency_gain": ours.gops_per_watt
        / best_prior("energy_eff_gops_per_watt"),
    }
    if run_stats is not None:
        performed = max(run_stats.total_synaptic_ops, 1)
        scale = run_stats.total_dense_synaptic_ops / performed
        result["measured_spike_rate"] = run_stats.overall_spike_rate
        result["measured_op_saving"] = run_stats.synaptic_op_saving
        result["dense_equivalent_gops"] = round(ours.gops * scale, 2)
        result["dense_equivalent_gops_per_watt"] = round(
            ours.gops * scale / power_watts, 2
        )
    return result


# ----------------------------------------------------------------------
# ASIC projection (paper §V)
# ----------------------------------------------------------------------
def asic_projection_experiment(
    arch: ArchConfig = PYNQ_Z2, clock_hz: float = 500e6
) -> AsicReport:
    return AsicProjection(arch, clock_hz=clock_hz).report()
