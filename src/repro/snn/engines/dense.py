"""The reference backend: full dense recompute every timestep."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.snn.engines.base import SimulationEngine
from repro.tensor.functional import im2col


def dense_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Plain im2col convolution (the reference kernel, no sparsity scans)."""
    n = x.shape[0]
    c_out, _, k, _ = weight.shape
    cols, oh, ow = im2col(x, k, stride, padding)
    out = cols @ weight.reshape(c_out, -1).T
    if bias is not None:
        out += bias
    return np.ascontiguousarray(out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2))


class DenseEngine(SimulationEngine):
    """Reference backend: full dense recompute every timestep.

    It runs the modules' own ``forward``s on the time-outer schedule
    (:meth:`SimulationEngine._execute`), so it shares no kernel or
    schedule with the time-batched engines and is their independent
    oracle.
    """

    name = "dense"
