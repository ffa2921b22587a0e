"""Timestep-unrolled execution of a converted spiking network.

``SpikingNetwork`` wraps a converted model and runs it for T timesteps
with direct (constant-current) input encoding, accumulating the output
logits.  Classification uses the accumulated logits — the standard
readout for ANN-to-SNN converted networks and the one the accelerator's
host-side software implements.

Execution is delegated to a pluggable :mod:`repro.snn.engines`
backend: ``engine="dense"`` re-runs the full model every timestep (the
reference), ``engine="event"`` propagates only active spike events so
per-timestep cost scales with spike rate, like the paper's hardware,
``engine="batched"`` time-batches all T timesteps into one
layer-sequential pass, and ``engine="auto"`` profiles a calibration
run and compiles a cached per-layer GEMM/event plan (the fastest
software path).  The time-stacked engines run a large batch as sample
blocks in lanes, one per usable core.  Every run leaves a
:class:`repro.snn.stats.RunStats` on ``last_run_stats`` with per-layer
spike rates, synaptic-op counts and the wall-clock/density profile
behind ``RunStats.profile_table()``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.module import Module
from repro.snn.convert import spiking_layers
from repro.snn.engines import EngineSpec, SimulationEngine, make_engine
from repro.snn.spikes import SpikeStream
from repro.snn.stats import RunStats


class SpikingNetwork:
    """Run a converted SNN over time.

    Parameters
    ----------
    model:
        A model whose activations have been converted with
        :func:`repro.snn.convert.convert_to_snn`.
    timesteps:
        Default number of timesteps T per inference.
    engine:
        Execution backend: ``"dense"``, ``"event"``, ``"batched"``,
        ``"auto"`` or a bound-ready
        :class:`repro.snn.engines.SimulationEngine` instance.
    """

    def __init__(
        self,
        model: Module,
        timesteps: int = 8,
        engine: EngineSpec = "dense",
    ) -> None:
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if not spiking_layers(model):
            raise ValueError("model has no spiking layers; convert it first")
        self.model = model
        self.model.eval()
        self.timesteps = timesteps
        self.engine: SimulationEngine = make_engine(engine)
        if self.engine.model is not None and self.engine.model is not model:
            # Rebinding would silently redirect the other network's
            # runs to this model; demand a fresh instance instead.
            raise ValueError(
                "engine instance is already bound to a different model; "
                "pass a fresh engine or select one by name"
            )
        self.engine.bind(model)
        self.last_run_stats: Optional[RunStats] = None

    def _resolve_timesteps(self, timesteps: Optional[int], x=None) -> int:
        """Explicit validation: 0 is an error, not 'use the default'.

        A :class:`repro.snn.spikes.SpikeStream` input carries its own
        time axis, so with no explicit override its T wins over the
        network default (an explicit mismatch still fails loudly in the
        engine).
        """
        if timesteps is None and isinstance(x, SpikeStream):
            return x.timesteps
        steps = self.timesteps if timesteps is None else timesteps
        if steps < 1:
            raise ValueError("timesteps must be >= 1")
        return steps

    def forward(self, x: np.ndarray, timesteps: Optional[int] = None) -> np.ndarray:
        """Accumulated logits after T timesteps for a batch ``x``.

        ``x`` is a dense direct-coded batch (N, C, H, W) or a COO
        :class:`repro.snn.spikes.SpikeStream` (event-driven input).
        """
        run = self.engine.run(x, self._resolve_timesteps(timesteps, x))
        self.last_run_stats = run.stats
        return run.logits

    __call__ = forward

    def forward_per_step(
        self, x: np.ndarray, timesteps: Optional[int] = None
    ) -> List[np.ndarray]:
        """Cumulative logits after each timestep (for accuracy-vs-T curves).

        Returns a list of length T where entry t is the logits summed
        over timesteps 0..t.  One pass of this costs the same as a
        single forward at the maximum T, so accuracy-vs-timesteps
        figures (paper Figs. 7, 9) need only one sweep of the data —
        and the time-batched engine produces the whole curve from its
        single layer-sequential pass.
        """
        run = self.engine.run(x, self._resolve_timesteps(timesteps, x), per_step=True)
        self.last_run_stats = run.stats
        return run.per_step

    def predict(self, x: np.ndarray, timesteps: Optional[int] = None) -> np.ndarray:
        """Class predictions for a batch."""
        return self.forward(x, timesteps).argmax(axis=-1)

    def accuracy(
        self,
        x: np.ndarray,
        y: np.ndarray,
        timesteps: Optional[int] = None,
        batch_size: int = 256,
    ) -> float:
        """Top-1 accuracy over a dataset, evaluated in batches."""
        correct = 0
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            correct += int((self.predict(xb, timesteps) == yb).sum())
        return correct / len(x)

    def accuracy_per_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        timesteps: Optional[int] = None,
        batch_size: int = 256,
    ) -> List[float]:
        """Accuracy after each timestep 1..T (paper Figs. 7 and 9)."""
        steps = self._resolve_timesteps(timesteps, x)
        correct = np.zeros(steps, dtype=np.int64)
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            for t, logits in enumerate(self.forward_per_step(xb, steps)):
                correct[t] += int((logits.argmax(axis=-1) == yb).sum())
        return [c / len(x) for c in correct]
