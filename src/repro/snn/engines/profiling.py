"""Per-layer wall-clock attribution for the simulation engines.

The paper's mapper measures before it specialises: per-layer activity
decides how each layer is laid onto the aggregation core.  The software
twin needs the same signal, so every engine wraps its per-layer
interceptors in :func:`profiled_call` — two ``perf_counter`` reads per
layer *call* (one call per run on the batched schedule, one per
timestep on the time-outer engines), accumulated straight onto the
layer's :class:`repro.snn.stats.LayerStats`.  Input densities come from
the op billing (:func:`repro.snn.engines.base.bill_synapse`), which
counts each synapse layer's input nonzeros once.

The wrapper is only installed when ``SimulationEngine.profile_layers``
is on (the default); its overhead is a few hundred nanoseconds per
layer call, orders of magnitude below the GEMMs it brackets — the
engine benchmark asserts the end-to-end cost stays under 5%.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.snn.stats import LayerStats
from repro.tensor import Tensor


def profiled_call(
    fn: Callable[[Tensor], Tensor], stat: LayerStats
) -> Callable[[Tensor], Tensor]:
    """Wrap a forward interceptor with wall-clock recording."""

    def profiled(x: Tensor) -> Tensor:
        started = time.perf_counter()
        out = fn(x)
        stat.wall_clock_seconds += time.perf_counter() - started
        return out

    return profiled
