"""Hardware-friendly quantisation layers (the paper's software half).

The conversion strategy (paper Fig. 1, following Li & Furber 2022 and Bu
et al. 2023 "QCFS") replaces each ReLU with an L-level quantised ReLU

    y = (s / L) * clip( floor(x * L / s + 1/2), 0, L )

whose step size ``s`` is *learned* per layer during fine-tuning, and
quantises the weights to INT8 with a learnable scale ``q_w`` (LSQ-style
straight-through estimators throughout).  After fine-tuning, the
quantised ReLU is swapped for an integrate-and-fire neuron with threshold
``s`` and initial membrane potential ``s/2`` (see
:mod:`repro.snn.convert`), and the INT8 weights/thresholds map directly
onto the accelerator's 8-bit datapath.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F


class QuantReLU(Module):
    """L-level quantised ReLU with a learnable step size.

    Parameters
    ----------
    levels:
        Number of quantisation levels L (the paper trains with L=2).
    init_step:
        Initial value of the learnable step size ``s`` (the clipping
        ceiling).  A good default is a high percentile of pre-activation
        values; 4.0 works for normalised inputs.

    Notes
    -----
    The forward pass is exactly the QCFS clip-floor-shift function.  The
    backward pass uses straight-through gradients for the floor and a
    clip mask, so both the inputs and ``s`` receive gradients.  When the
    module is converted to an SNN, ``step.item()`` becomes the layer's
    firing threshold.
    """

    def __init__(self, levels: int = 2, init_step: float = 4.0) -> None:
        super().__init__()
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.levels = int(levels)
        self.step = Parameter(np.float32(init_step))
        self._calibrating = False
        self._calib_values: list = []

    # ------------------------------------------------------------------
    # Step-size calibration: before fine-tuning, the step is set to a
    # high percentile of the observed positive pre-activations so the
    # learnable parameter starts near its optimum (the paper's
    # fine-tuning then only nudges it).
    # ------------------------------------------------------------------
    def begin_calibration(self) -> None:
        self._calibrating = True
        self._calib_values = []

    def end_calibration(self, percentile: float = 99.0) -> None:
        self._calibrating = False
        if self._calib_values:
            pooled = np.concatenate(self._calib_values)
            value = float(np.percentile(pooled, percentile)) if pooled.size else 0.0
            self.step.data = np.float32(max(value, 1e-2))
        self._calib_values = []

    def forward(self, x: Tensor) -> Tensor:
        if self._calibrating:
            positive = x.data[x.data > 0]
            # Subsample to bound memory during calibration sweeps.
            if positive.size > 65536:
                positive = positive[:: positive.size // 65536 + 1]
            self._calib_values.append(positive.astype(np.float32).ravel().copy())
            return x.relu()
        # Guard against the step collapsing to ~0 during optimisation.
        s = self.step.clip(1e-3, np.inf)
        ratio = x * (float(self.levels) / s)
        q = (ratio + 0.5).floor_ste().clip(0.0, float(self.levels))
        return q * (s * (1.0 / self.levels))

    @property
    def threshold(self) -> float:
        """The learned step size, used as the IF threshold after conversion."""
        return float(self.step.data)

    def extra_repr(self) -> str:
        return f"L={self.levels}, step={float(self.step.data):.4f}"


def quantize_weight_int8(
    weight: np.ndarray, scale: Optional[float] = None, bits: int = 8
) -> Tuple[np.ndarray, float]:
    """Symmetric integer quantisation of a weight array.

    Returns ``(w_int, scale)`` with ``w_int`` in
    [-2^{bits-1}, 2^{bits-1}-1] (int32 storage) such that
    ``w ≈ w_int * scale``.  When ``scale`` is None it is chosen so the
    maximum magnitude maps to the integer extreme.
    """
    qmax = 2 ** (bits - 1) - 1
    qmin = -(2 ** (bits - 1))
    if scale is None:
        scale = float(np.abs(weight).max()) / qmax
        if np.float32(scale) == 0:
            # All zeros, or magnitudes whose scale underflows the
            # float32 that dequantize_weight (and a float32 division
            # below) applies it in: 0/0 would cast NaN to an integer.
            scale = 1.0
    w_int = np.clip(np.round(weight / scale), qmin, qmax).astype(np.int32)
    return w_int, float(scale)


def dequantize_weight(w_int: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`quantize_weight_int8`."""
    return (w_int.astype(np.float32)) * np.float32(scale)


class _WeightFakeQuant:
    """Shared fake-quantisation forward used by QuantConv2d/QuantLinear."""

    @staticmethod
    def apply(weight: Parameter, scale: Parameter, bits: int) -> Tensor:
        qmax = float(2 ** (bits - 1) - 1)
        qmin = float(-(2 ** (bits - 1)))
        s = scale.clip(1e-6, np.inf)
        q = (weight / s).round_ste().clip(qmin, qmax)
        return q * s


class QuantConv2d(Conv2d):
    """Conv2d whose weights are fake-quantised to ``bits`` on the fly.

    The quantisation scale ``q_w`` is a learnable parameter (LSQ); during
    inference on the accelerator model the integer weights are recovered
    with :meth:`integer_weights` and streamed into the 8 kB weight
    memory.
    """

    def __init__(self, *args, bits: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bits = bits
        init_scale = float(np.abs(self.weight.data).max()) / (2 ** (bits - 1) - 1)
        self.weight_scale = Parameter(np.float32(max(init_scale, 1e-6)))

    def forward(self, x: Tensor) -> Tensor:
        w_q = _WeightFakeQuant.apply(self.weight, self.weight_scale, self.bits)
        return F.conv2d(x, w_q, self.bias, stride=self.stride, padding=self.padding)

    def integer_weights(self) -> Tuple[np.ndarray, float]:
        """INT-``bits`` weights and their scale, as stored in hardware."""
        return quantize_weight_int8(
            self.weight.data, scale=float(self.weight_scale.data), bits=self.bits
        )


class QuantLinear(Linear):
    """Linear layer with fake-quantised weights (see :class:`QuantConv2d`)."""

    def __init__(self, *args, bits: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bits = bits
        init_scale = float(np.abs(self.weight.data).max()) / (2 ** (bits - 1) - 1)
        self.weight_scale = Parameter(np.float32(max(init_scale, 1e-6)))

    def forward(self, x: Tensor) -> Tensor:
        w_q = _WeightFakeQuant.apply(self.weight, self.weight_scale, self.bits)
        return F.linear(x, w_q, self.bias)

    def integer_weights(self) -> Tuple[np.ndarray, float]:
        return quantize_weight_int8(
            self.weight.data, scale=float(self.weight_scale.data), bits=self.bits
        )
