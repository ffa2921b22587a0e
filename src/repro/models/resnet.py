"""CIFAR-style ResNet-18 with conversion-friendly activations.

Architecture (He et al. 2016, CIFAR variant, as used by the paper):
a 3x3 stem at 32x32 with 64 channels, then four stages of two basic
blocks each with [64, 128, 256, 512] channels and strides [1, 2, 2, 2],
global average pooling, and a 512->10 classifier — 17 convolutions + 1
FC, matching the paper's Table I layer groups (5 convs @32x32/64ch,
4 @16x16/128, 4 @8x8/256, 4 @4x4/512, FC 512x10).

Activations are built through a factory so the same graph can be
instantiated with plain ReLU (baseline ANN), QuantReLU (fine-tuning
stage) or swapped in-place for IF neurons (SNN inference); see
:func:`repro.snn.convert.convert_to_snn`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import nn

ActivationFactory = Callable[[], nn.Module]


def _scaled(channels: int, width: float) -> int:
    """Scale a channel count, keeping it a positive multiple of 4."""
    return max(4, int(round(channels * width / 4)) * 4)


def _make_conv(
    in_ch: int,
    out_ch: int,
    kernel: int,
    stride: int,
    padding: int,
    quantize: bool,
    rng: np.random.Generator,
) -> nn.Module:
    cls = nn.QuantConv2d if quantize else nn.Conv2d
    return cls(in_ch, out_ch, kernel, stride=stride, padding=padding, bias=False, rng=rng)


class BasicBlock(nn.Residual):
    """Two 3x3 convolutions with identity/projection shortcut."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        activation: ActivationFactory,
        quantize: bool,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.conv1 = _make_conv(in_channels, out_channels, 3, stride, 1, quantize, rng)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.act1 = activation()
        self.conv2 = _make_conv(out_channels, out_channels, 3, 1, 1, quantize, rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.act2 = activation()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                _make_conv(in_channels, out_channels, 1, stride, 0, quantize, rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def parts(self):
        return (
            (self.conv1, self.bn1, self.act1, self.conv2, self.bn2),
            self.shortcut,
            self.act2,
        )


class ResNet(nn.Sequential):
    """CIFAR ResNet; ``blocks_per_stage=[2,2,2,2]`` gives ResNet-18.

    A chain of its named children, registered in call order: stem
    (``conv1``, ``bn1``, ``act1``), four stages of :class:`BasicBlock`
    (``layer1`` .. ``layer4``), ``pool`` and ``fc``.
    """

    def __init__(
        self,
        blocks_per_stage=(2, 2, 2, 2),
        num_classes: int = 10,
        width: float = 1.0,
        in_channels: int = 3,
        activation: Optional[ActivationFactory] = None,
        quantize: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        activation = activation or nn.ReLU
        self.width = width
        channels = [_scaled(c, width) for c in (64, 128, 256, 512)]

        self.conv1 = _make_conv(in_channels, channels[0], 3, 1, 1, quantize, rng)
        self.bn1 = nn.BatchNorm2d(channels[0])
        self.act1 = activation()

        stages = []
        in_ch = channels[0]
        for stage_idx, (out_ch, blocks) in enumerate(zip(channels, blocks_per_stage)):
            stride = 1 if stage_idx == 0 else 2
            layers = []
            for block_idx in range(blocks):
                layers.append(
                    BasicBlock(
                        in_ch,
                        out_ch,
                        stride if block_idx == 0 else 1,
                        activation,
                        quantize,
                        rng,
                    )
                )
                in_ch = out_ch
            stages.append(nn.Sequential(*layers))
        self.layer1, self.layer2, self.layer3, self.layer4 = stages

        self.pool = nn.GlobalAvgPool2d()
        fc_cls = nn.QuantLinear if quantize else nn.Linear
        self.fc = fc_cls(channels[3], num_classes, rng=rng)


def resnet18(
    num_classes: int = 10,
    width: float = 1.0,
    activation: Optional[ActivationFactory] = None,
    quantize: bool = False,
    seed: int = 0,
) -> ResNet:
    """Build the CIFAR ResNet-18 used throughout the paper."""
    return ResNet(
        blocks_per_stage=(2, 2, 2, 2),
        num_classes=num_classes,
        width=width,
        activation=activation,
        quantize=quantize,
        seed=seed,
    )
