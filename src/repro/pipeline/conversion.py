"""End-to-end ANN -> quantised ANN -> SNN conversion pipeline.

Mirrors the paper's Fig. 1: the quantised twin of a trained ANN shares
the ANN's weights (transferred by name), replaces ReLU with
:class:`repro.nn.QuantReLU` (L levels, learnable step) and uses INT8
fake-quantised convolutions, then fine-tunes; conversion swaps the
QuantReLUs for IF neurons.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import nn
from repro.data.datasets import SyntheticCIFAR
from repro.models import build_model
from repro.nn.module import Module
from repro.pipeline.trainer import TrainConfig, Trainer, evaluate_model
from repro.snn import SpikingNetwork, convert_to_snn
from repro.snn.engine import EngineSpec
from repro.snn.neurons import ResetMode


def transfer_weights(source: Module, target: Module) -> List[str]:
    """Copy parameters/buffers from ``source`` into ``target`` by name.

    Keys present in only one model (e.g. the quantised twin's
    ``weight_scale`` and ``step`` parameters) are skipped.  Returns the
    list of copied keys; raises if nothing matched (a naming-scheme
    regression, not a user error worth silently accepting).
    """
    src_state = source.state_dict()
    dst_params = dict(target.named_parameters())
    dst_buffers = {name for name, _ in target.named_buffers()}
    copied: List[str] = []
    compatible: Dict[str, np.ndarray] = {}
    for key, value in src_state.items():
        if key in dst_params and dst_params[key].data.shape == value.shape:
            compatible[key] = value
            copied.append(key)
        elif key in dst_buffers:
            compatible[key] = value
            copied.append(key)
    if not copied:
        raise ValueError("no compatible keys between source and target models")
    # Route through load_state_dict for shape validation.
    merged = target.state_dict()
    merged.update(compatible)
    target.load_state_dict(merged)
    return copied


def build_quantized_twin(
    model_name: str,
    width: float,
    num_classes: int,
    levels: int,
    init_step: float = 4.0,
    weight_bits: int = 8,
    seed: int = 0,
) -> Module:
    """Instantiate the QuantReLU/INT8 version of a registered model."""
    activation = functools.partial(nn.QuantReLU, levels=levels, init_step=init_step)
    model = build_model(
        model_name,
        num_classes=num_classes,
        width=width,
        activation=activation,
        quantize=weight_bits is not None,
        seed=seed,
    )
    if weight_bits is not None and weight_bits != 8:
        for module in model.modules():
            if isinstance(module, (nn.QuantConv2d, nn.QuantLinear)):
                module.bits = weight_bits
    return model


def calibrate_quant_steps(
    model: Module,
    x: np.ndarray,
    percentile: float = 99.0,
    batch_size: int = 128,
) -> List[float]:
    """Set every QuantReLU step to a percentile of its pre-activations.

    Runs ``x`` through ``model`` in eval mode with the quantisers in
    pass-through recording mode, then fixes each step at ``percentile``
    of the observed positive inputs.  Returns the calibrated steps.
    """
    from repro.tensor import Tensor, no_grad

    quant_layers = [m for m in model.modules() if isinstance(m, nn.QuantReLU)]
    if not quant_layers:
        raise ValueError("model has no QuantReLU layers to calibrate")
    was_training = model.training
    model.eval()
    for layer in quant_layers:
        layer.begin_calibration()
    with no_grad():
        for start in range(0, len(x), batch_size):
            model(Tensor(x[start : start + batch_size]))
    for layer in quant_layers:
        layer.end_calibration(percentile)
    if was_training:
        model.train()
    return [float(layer.step.data) for layer in quant_layers]


class TimestepRangeError(ValueError):
    """The per-step accuracy curve stops before the evaluated T."""


@dataclass
class ConversionResult:
    """Everything the accuracy experiments need from one pipeline run."""

    model_name: str
    ann_model: Module
    quant_model: Module
    snn: SpikingNetwork
    ann_accuracy: float
    quant_accuracy: float
    snn_accuracy: float
    snn_accuracy_per_step: List[float]
    timesteps: int
    thresholds: List[float] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{self.model_name}: ANN={self.ann_accuracy:.4f} "
            f"quantANN={self.quant_accuracy:.4f} "
            f"SNN(T={self.timesteps})={self.snn_accuracy:.4f}"
        )


def run_conversion_pipeline(
    model_name: str,
    dataset: SyntheticCIFAR,
    width: float = 0.25,
    levels: int = 2,
    timesteps: int = 8,
    max_timesteps: Optional[int] = None,
    ann_config: Optional[TrainConfig] = None,
    finetune_config: Optional[TrainConfig] = None,
    neuron: str = "if",
    reset: ResetMode = ResetMode.SUBTRACT,
    v_init_fraction: float = 0.5,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    engine: EngineSpec = "dense",
) -> ConversionResult:
    """Run the full 3-stage pipeline on ``dataset``.

    ``max_timesteps`` (default ``max(timesteps, 16)``) controls how far
    the per-step accuracy curve extends — paper Figs. 7/9 plot up to ~30;
    it must reach ``timesteps``, or :class:`TimestepRangeError` is raised
    before any training.
    ``engine`` selects the SNN execution backend (``"dense"``,
    ``"batched"`` or ``"auto"``); the accuracy
    numbers are independent of it.
    """
    say = progress or (lambda message: None)
    ann_config = ann_config or TrainConfig(epochs=8, seed=seed)
    finetune_config = finetune_config or TrainConfig(epochs=4, lr=5e-4, seed=seed + 1)
    max_timesteps = max_timesteps or max(timesteps, 16)
    if max_timesteps < timesteps:
        raise TimestepRangeError(
            f"max_timesteps={max_timesteps} is below timesteps={timesteps}: "
            f"the per-step accuracy curve must reach the evaluated T"
        )

    train_x, train_y = dataset.train_split()
    test_x, test_y = dataset.test_split()

    # Stage 1: FP32 ANN.
    say("stage 1/3: training FP32 ANN")
    ann = build_model(
        model_name, num_classes=dataset.num_classes, width=width, seed=seed
    )
    Trainer(ann, ann_config).fit(train_x, train_y)
    ann_acc = evaluate_model(ann, test_x, test_y)

    # Stage 2: quantised twin, fine-tuned.
    say("stage 2/3: quantisation fine-tuning (QuantReLU + INT8 weights)")
    quant = build_quantized_twin(
        model_name,
        width=width,
        num_classes=dataset.num_classes,
        levels=levels,
        seed=seed,
    )
    transfer_weights(ann, quant)
    calibrate_quant_steps(quant, train_x[: min(len(train_x), 512)])
    Trainer(quant, finetune_config).fit(train_x, train_y)
    quant_acc = evaluate_model(quant, test_x, test_y)

    # Stage 3: swap QuantReLU -> IF and evaluate over timesteps.
    say("stage 3/3: converting to SNN and evaluating over timesteps")
    thresholds = [
        m.threshold for m in quant.modules() if isinstance(m, nn.QuantReLU)
    ]
    # Convert a fresh twin so the fine-tuned quantised ANN survives in
    # the result (conversion is in-place module surgery).
    snn_twin = build_quantized_twin(
        model_name,
        width=width,
        num_classes=dataset.num_classes,
        levels=levels,
        seed=seed,
    )
    snn_twin.load_state_dict(quant.state_dict())
    snn_model = convert_to_snn(
        snn_twin, neuron=neuron, reset=reset, v_init_fraction=v_init_fraction
    )
    snn = SpikingNetwork(snn_model, timesteps=timesteps, engine=engine)
    per_step = snn.accuracy_per_step(test_x, test_y, timesteps=max_timesteps)
    snn_acc = per_step[timesteps - 1]

    return ConversionResult(
        model_name=model_name,
        ann_model=ann,
        quant_model=quant,
        snn=snn,
        ann_accuracy=ann_acc,
        quant_accuracy=quant_acc,
        snn_accuracy=snn_acc,
        snn_accuracy_per_step=per_step,
        timesteps=timesteps,
        thresholds=thresholds,
    )
