"""Integrate-and-fire neuron layers matching the accelerator's activation unit.

The aggregation core (paper §III-B) supports two modes selected by a
mode bit: IF (mode=0) and LIF (mode=1), both with per-layer 16-bit
thresholds and **reset-by-subtraction** (the membrane keeps the residual
above threshold after a spike, which preserves information across
timesteps and is what makes low-latency conversion work).

These classes are thin stateful wrappers around the *single* dynamics
implementation in :mod:`repro.snn.dynamics` — the same
:func:`repro.snn.dynamics.neuron_step` the hardware model's activation
unit executes in integer arithmetic.  A neuron layer holds the membrane
array between timesteps and the spike bookkeeping for the Fig. 6 / 8
statistics; one forward call advances one timestep.  ``reset_state()``
re-arms the membrane for a new input sample; the initial membrane
potential is ``v_init_fraction * threshold`` (0.5 by default — the QCFS
optimum that centres the quantisation error).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn.module import Module
from repro.snn.dynamics import (
    LeakFn,
    ResetMode,
    initial_membrane,
    multiplicative_leak,
    neuron_step,
)
from repro.tensor import Tensor

__all__ = ["IFNeuron", "LIFNeuron", "ResetMode"]


class IFNeuron(Module):
    """Integrate-and-fire layer.

    Per timestep: ``v += x``; spike where ``v >= threshold``; reset by
    subtraction (or to zero); output is ``spike * threshold`` so the
    time-averaged output approximates the quantised ReLU it replaced.

    Parameters
    ----------
    threshold:
        Firing threshold (the learned QuantReLU step size).
    reset:
        Reset mode; the paper uses reset-by-subtraction.
    v_init_fraction:
        Initial membrane potential as a fraction of threshold (QCFS uses
        0.5).
    """

    #: Attributes every run rebinds: a weight-sharing clone keeps its own.
    #: ``v`` and ``last_spikes`` live in ``_v``/``_last_spikes``, each with
    #: an optional deferred builder (:meth:`defer_state`).
    RUN_STATE = frozenset(
        {
            "_v",
            "_v_builder",
            "spike_count",
            "neuron_steps",
            "_last_spikes",
            "_last_spikes_builder",
        }
    )

    def __init__(
        self,
        threshold: float,
        reset: ResetMode = ResetMode.SUBTRACT,
        v_init_fraction: float = 0.5,
    ) -> None:
        super().__init__()
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = float(threshold)
        self.reset = ResetMode(reset)
        self.v_init_fraction = float(v_init_fraction)
        self.v: Optional[np.ndarray] = None
        # Spike bookkeeping for Fig. 6 / Fig. 8 statistics.
        self.spike_count = 0
        self.neuron_steps = 0
        self.last_spikes: Optional[np.ndarray] = None

    @property
    def v(self) -> Optional[np.ndarray]:
        """Membrane potential; None until the first step after a reset.
        A deferred membrane (:meth:`defer_state`) is built on first read."""
        if self._v_builder is not None:
            self._v, self._v_builder = self._v_builder(), None
        return self._v

    @v.setter
    def v(self, value: Optional[np.ndarray]) -> None:
        self._v, self._v_builder = value, None

    @property
    def last_spikes(self) -> Optional[np.ndarray]:
        """Binary spike plane of the last step; built on first read when
        deferred, like :attr:`v`."""
        if self._last_spikes_builder is not None:
            self._last_spikes = self._last_spikes_builder()
            self._last_spikes_builder = None
        return self._last_spikes

    @last_spikes.setter
    def last_spikes(self, value: Optional[np.ndarray]) -> None:
        self._last_spikes, self._last_spikes_builder = value, None

    def defer_state(
        self,
        v: Callable[[], np.ndarray],
        last_spikes: Callable[[], np.ndarray],
    ) -> None:
        """Bind the membrane and last spike plane as builders.

        An engine that never builds these dense arrays during a run
        hands over functions that build them instead; the first read of
        :attr:`v` or :attr:`last_spikes` calls its builder once and keeps
        the result, so a caller that never reads them never pays.
        """
        self._v, self._v_builder = None, v
        self._last_spikes, self._last_spikes_builder = None, last_spikes

    def __getstate__(self) -> dict:
        # Builders are closures: build the state so the module pickles.
        _ = self.v, self.last_spikes
        return self.__dict__

    def reset_state(self) -> None:
        """Re-arm the membrane for a new input sample."""
        self.v = None

    def reset_stats(self) -> None:
        self.spike_count = 0
        self.neuron_steps = 0

    def _leak_fn(self) -> Optional[LeakFn]:
        """The leak applied before integration; None for pure IF."""
        return None

    def forward(self, x: Tensor) -> Tensor:
        data = x.data
        if self.v is None:
            self.v = initial_membrane(
                data.shape, self.threshold, self.v_init_fraction, dtype=data.dtype
            )
        self.v, spiked = neuron_step(
            self.v,
            data,
            self.threshold,
            reset=self.reset,
            leak_fn=self._leak_fn(),
        )
        spikes = spiked.astype(np.float32)
        self.spike_count += int(spiked.sum())
        self.neuron_steps += int(spiked.size)
        self.last_spikes = spikes
        return Tensor(spikes * self.threshold)

    @property
    def average_spike_rate(self) -> float:
        """Mean spikes per neuron per timestep since the last reset_stats."""
        if self.neuron_steps == 0:
            return 0.0
        return self.spike_count / self.neuron_steps

    def extra_repr(self) -> str:
        return f"threshold={self.threshold:.4f}, reset={self.reset.value}"


class LIFNeuron(IFNeuron):
    """Leaky integrate-and-fire layer (the accelerator's mode bit = 1).

    The leak is a multiplicative decay applied before integration:
    ``v <- leak * v + x``.  A hardware-friendly default of 0.9375
    (= 15/16, implementable as subtract-shift) is used.
    """

    def __init__(
        self,
        threshold: float,
        leak: float = 0.9375,
        reset: ResetMode = ResetMode.SUBTRACT,
        v_init_fraction: float = 0.5,
    ) -> None:
        super().__init__(threshold, reset=reset, v_init_fraction=v_init_fraction)
        if not 0.0 < leak <= 1.0:
            raise ValueError("leak must be in (0, 1]")
        self.leak = float(leak)

    def _leak_fn(self) -> Optional[LeakFn]:
        return multiplicative_leak(self.leak)

    def extra_repr(self) -> str:
        return f"threshold={self.threshold:.4f}, leak={self.leak}, reset={self.reset.value}"
