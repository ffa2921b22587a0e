"""Per-layer wall-clock attribution for the simulation engines.

The paper's mapper measures before it specialises: per-layer activity
decides how each layer is laid onto the aggregation core.  The software
twin needs the same signal, so every engine wraps its per-layer
interceptors in :func:`profiled_call` — two ``perf_counter`` reads per
layer *call* (one call per run on the batched schedule, one per
timestep on the time-outer engines), accumulated straight onto the
layer's :class:`repro.snn.stats.LayerStats`.  Synapse layers
additionally record the observed input density (nonzero fraction),
which is what sets event-driven cost.

The wrapper is only installed when ``SimulationEngine.profile_layers``
is on (the default); the overhead is a few hundred nanoseconds plus one
``count_nonzero`` pass per layer call, orders of magnitude below the
GEMMs it brackets — the engine benchmark asserts the end-to-end cost
stays under 5%.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.snn.stats import LayerStats
from repro.tensor import Tensor


def profiled_call(
    fn: Callable[[Tensor], Tensor],
    stat: LayerStats,
    record_density: bool = False,
    nonzero_of: Optional[Callable[[np.ndarray], Optional[int]]] = None,
) -> Callable[[Tensor], Tensor]:
    """Wrap a forward interceptor with wall-clock (and density) recording.

    The timer brackets only ``fn`` itself; the density count runs
    outside the timed region so profiling overhead is never billed to
    the layer.  ``nonzero_of`` lets the
    engine answer the nonzero count from metadata it already carries
    (COO stream coordinates) — a ``None`` return falls back to scanning
    the plane.
    """

    def profiled(x: Tensor) -> Tensor:
        data = x.data
        if record_density:
            nonzero = nonzero_of(data) if nonzero_of is not None else None
            if nonzero is None:
                nonzero = int(np.count_nonzero(data))
            stat.input_nonzero += nonzero
            stat.input_size += int(data.size)
        started = time.perf_counter()
        out = fn(x)
        stat.wall_clock_seconds += time.perf_counter() - started
        return out

    return profiled
