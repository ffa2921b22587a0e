"""CIFAR-style VGG-11 with conversion-friendly activations.

VGG-11 configuration 'A' (Simonyan & Zisserman), CIFAR variant:
8 convolutions in blocks [64], [128], [256,256], [512,512], [512,512]
with 2x2 max-pool between blocks, then a 512->10 classifier.  This
matches the paper's Table I VGG rows (1 conv @32x32/64, 1 @16x16/128,
2 @8x8/256, 3+... @4x4/512, FC 512x10).

As with :mod:`repro.models.resnet`, the activation is a factory so the
graph can carry ReLU, QuantReLU or (after conversion) IF neurons.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro import nn

ActivationFactory = Callable[[], nn.Module]

# 'M' denotes 2x2 max-pool; numbers are conv output channels.
VGG11_CONFIG: Sequence[Union[int, str]] = (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M")


def _scaled(channels: int, width: float) -> int:
    return max(4, int(round(channels * width / 4)) * 4)


class VGG(nn.Sequential):
    """VGG feature extractor + linear classifier: the chain ``features``,
    ``flatten``, ``fc``."""

    def __init__(
        self,
        config: Sequence[Union[int, str]] = VGG11_CONFIG,
        num_classes: int = 10,
        width: float = 1.0,
        in_channels: int = 3,
        activation: Optional[ActivationFactory] = None,
        quantize: bool = False,
        pool: str = "avg",
        seed: int = 0,
    ) -> None:
        super().__init__()
        if pool not in ("avg", "max"):
            raise ValueError("pool must be 'avg' or 'max'")
        rng = np.random.default_rng(seed)
        activation = activation or nn.ReLU
        self.width = width
        self.pool = pool
        conv_cls = nn.QuantConv2d if quantize else nn.Conv2d
        # Average pooling by default: max-pool does not commute with
        # spike-rate averaging (stepwise max over {0, theta} inflates
        # rates as T grows), so conversion-targeted VGGs use avg-pool
        # (Rueckauer et al. 2017); it is also what the accelerator's
        # adder-only datapath can execute.
        pool_cls = nn.AvgPool2d if pool == "avg" else nn.MaxPool2d

        layers: List[nn.Module] = []
        ch = in_channels
        for item in config:
            if item == "M":
                layers.append(pool_cls(2))
                continue
            out_ch = _scaled(int(item), width)
            layers.append(conv_cls(ch, out_ch, 3, stride=1, padding=1, bias=False, rng=rng))
            layers.append(nn.BatchNorm2d(out_ch))
            layers.append(activation())
            ch = out_ch
        self.features = nn.Sequential(*layers)
        self.flatten = nn.Flatten()
        fc_cls = nn.QuantLinear if quantize else nn.Linear
        self.fc = fc_cls(ch, num_classes, rng=rng)


def vgg11(
    num_classes: int = 10,
    width: float = 1.0,
    activation: Optional[ActivationFactory] = None,
    quantize: bool = False,
    pool: str = "avg",
    seed: int = 0,
) -> VGG:
    """Build the CIFAR VGG-11 used throughout the paper."""
    return VGG(
        config=VGG11_CONFIG,
        num_classes=num_classes,
        width=width,
        activation=activation,
        quantize=quantize,
        pool=pool,
        seed=seed,
    )
