"""Per-layer wall-clock attribution for the simulation engines.

The paper's mapper measures before it specialises: per-layer activity
decides how each layer is laid onto the aggregation core.  The software
twin needs the same signal: two ``perf_counter`` reads per layer *call*,
accumulated straight onto the layer's
:class:`repro.snn.stats.LayerStats`.  The time-batched engines take them
around each step of their compiled layer schedule (one call per run;
``TimeBatchedEngine._run_steps``); the time-outer path (``dense``, and
a model the time-batched engines cannot compile) wraps each layer's
forward in :func:`profiled_call` (one call per timestep).  Input
densities come from the op billing
(:func:`repro.snn.engines.base.bill_synapse`), which counts each
synapse layer's input nonzeros once.

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
