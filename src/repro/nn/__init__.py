"""Neural-network layers on top of :mod:`repro.tensor`.

Contains everything needed to express the paper's software pipeline:
standard CNN layers (conv / batch-norm / pooling / linear), plus the
hardware-friendly quantisation layers — the L-level quantised ReLU with a
learnable step size and INT8 weight quantisers — that make a trained ANN
convertible to the accelerator's spiking domain.
"""

from repro.nn.module import Module, Parameter
from repro.nn.sequential import Residual, Sequential
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.quant import (
    QuantConv2d,
    QuantLinear,
    QuantReLU,
    dequantize_weight,
    quantize_weight_int8,
)

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Residual",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "Dropout",
    "QuantReLU",
    "QuantConv2d",
    "QuantLinear",
    "quantize_weight_int8",
    "dequantize_weight",
]
