"""Analytic per-backend cost model fitted from profiler measurements.

Racing every kernel on every new (shape, T, density-bucket) key is how
:class:`~repro.snn.engines.auto.AutoEngine` learned its plans through
PR 8 — accurate, but the race itself costs several kernel executions
per layer, which is exactly the cold-start the serving layer eats
whenever a tenant's traffic mix shifts.  The fix mirrors the paper's
mapper: measurements accumulate into an *analytic* model, and once the
model is trustworthy the engine predicts instead of re-measuring.

The model is deliberately simple — per backend, wall clock is affine in
the work the backend performs::

    predicted_ms(backend, ops) = slope_ms[backend] * ops + intercept_ms[backend]

where ``ops`` is the backend's natural work unit: the dense MAC count
for the GEMM path, and ``density * dense_macs`` (events times fan-out)
for the COO row-subset kernel.  Affine-in-ops captures what actually
moves the GEMM/COO crossover — layer geometry scales both terms, density
scales only the sparse one — while staying fittable from a handful of
observations by least squares, with no iterative optimiser.  Slopes and
intercepts are clamped non-negative so a noisy fit can never predict
negative time.

Observations come from the calibration races the auto engine already
runs (every race yields one ``(backend, ops, ms)`` triple per kernel)
and from :meth:`repro.snn.stats.RunStats.profile_records` rows of
planned runs, so the model keeps learning from production traffic.
Models persist beside the engine's plan file via
:mod:`repro.utils.io` and degrade exactly like plans do: a corrupt,
truncated or foreign file logs one warning and yields a fresh empty
model — the engine simply keeps racing until enough observations
accumulate again.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.utils.io import atomic_write_json

logger = logging.getLogger(__name__)

#: On-disk format tag for persisted cost models.
COST_MODEL_FORMAT = "repro-cost-model/v1"

#: Backends the model prices: the auto engine's kernel menu.  "gemm"
#: is billed in dense MACs, the COO kernel in performed (event x
#: fan-out) ops.  Samples for any other backend (such as "event" in a
#: model persisted while the planner still raced the per-plane gather)
#: are ignored.
COST_BACKENDS = ("gemm", "event-batched")

#: Observations a backend needs before its fit is trusted.  One raced
#: calibration contributes one observation per raced layer, so a deep
#: network crosses this in a single cold start while the 2-3 layer toy
#: models in the test suite never flip behaviour by accident.
MIN_OBSERVATIONS = 6

#: Observations retained per backend (FIFO).  Enough to span several
#: models and density regimes; bounded so a long-lived serving process
#: cannot grow the model file without limit.
MAX_OBSERVATIONS = 256


def cost_model_path_for(plan_path: str) -> str:
    """The sibling file a plan file's cost model persists to.

    ``plans.json`` -> ``plans.cost.json``: alongside the plans (same
    directory, same stem) but a separate document, so a corrupt model
    never takes the plans down with it and vice versa.
    """
    stem, ext = os.path.splitext(str(plan_path))
    return f"{stem}.cost{ext or '.json'}"


def sparse_feature_ops(dense_ops: float, density: float) -> float:
    """The COO kernel's work feature: events times fan-out.

    The COO row-subset path does work proportional to the nonzero
    fraction of the dense MAC count; the
    same expression is used for fitting and for prediction so the
    learned slope absorbs any constant factor between this estimate and
    the kernels' exact billed ops.
    """
    return float(dense_ops) * min(max(float(density), 0.0), 1.0)


class CostModel:
    """Per-backend affine wall-clock model, fitted by least squares.

    Thread-safe: the serving layer's worker threads observe and refit
    concurrently with ``/metrics`` snapshots.  ``fit()`` is cheap (one
    2-column ``lstsq`` per backend) and runs automatically whenever a
    prediction or snapshot needs coefficients newer than the data.
    """

    def __init__(self, min_observations: int = MIN_OBSERVATIONS) -> None:
        if min_observations < 2:
            raise ValueError("min_observations must be >= 2")
        self.min_observations = int(min_observations)
        self._lock = threading.Lock()
        # backend -> list of (ops, ms) observations, oldest first.
        self._observations: Dict[str, List[Tuple[float, float]]] = {
            backend: [] for backend in COST_BACKENDS
        }
        # backend -> (slope_ms_per_op, intercept_ms), refit lazily.
        self._coefficients: Dict[str, Tuple[float, float]] = {}
        self._stale = False

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def observe(self, backend: str, ops: float, ms: float) -> None:
        """Record one measured ``(ops, wall-clock ms)`` sample."""
        if backend not in self._observations:
            return  # "stepped" neuron rows and unknown backends: not priced
        if not (math.isfinite(ops) and math.isfinite(ms)) or ms < 0 or ops < 0:
            return
        with self._lock:
            samples = self._observations[backend]
            samples.append((float(ops), float(ms)))
            if len(samples) > MAX_OBSERVATIONS:
                del samples[: len(samples) - MAX_OBSERVATIONS]
            self._stale = True

    def observe_many(self, observations: Iterable[Tuple[str, float, float]]) -> None:
        """Record ``(backend, ops, ms)`` triples (a run's calibration races)."""
        for backend, ops, ms in observations:
            self.observe(backend, ops, ms)

    def observe_records(self, records: Iterable[dict]) -> None:
        """Learn from :meth:`RunStats.profile_records` rows of a planned run.

        A GEMM row's ``synaptic_ops`` is its dense MAC count; a sparse
        row's is its performed ops — both already the model's work unit
        for that backend.  Neuron rows (backend ``"stepped"``) and rows
        without wall clock are skipped.
        """
        for row in records:
            backend = row.get("backend")
            if backend not in COST_BACKENDS:
                continue
            ms = float(row.get("wall_clock_ms", 0.0))
            ops = float(row.get("synaptic_ops", 0))
            if ms <= 0.0 or ops <= 0.0:
                continue
            self.observe(backend, ops, ms)

    # ------------------------------------------------------------------
    # Fitting and prediction
    # ------------------------------------------------------------------
    def _fit_locked(self) -> None:
        self._coefficients = {}
        for backend, samples in self._observations.items():
            usable = [s for s in samples if s[1] > 0.0]
            if len(usable) < self.min_observations:
                continue
            ops = np.array([s[0] for s in usable], dtype=np.float64)
            ms = np.array([s[1] for s in usable], dtype=np.float64)
            if np.unique(ops).size < 2:
                continue  # no spread: slope and intercept are confounded
            # Minimise *relative* residuals (each design row scaled by
            # 1/ms): kernel timings span orders of magnitude across
            # layers, and plain least squares would let the big layers
            # set the intercept — mispricing exactly the small
            # near-crossover layers the plan decisions hinge on.
            design = np.stack([ops / ms, 1.0 / ms], axis=1)
            (slope, intercept), *_ = np.linalg.lstsq(
                design, np.ones_like(ms), rcond=None
            )
            # Time never decreases with work and never goes negative; a
            # noisy fit that says otherwise is clamped rather than
            # allowed to invert a crossover.
            self._coefficients[backend] = (max(float(slope), 0.0), max(float(intercept), 0.0))
        self._stale = False

    def fit(self) -> None:
        """Refit all backend coefficients from the current observations."""
        with self._lock:
            self._fit_locked()

    def _coefficients_for(self, backend: str) -> Optional[Tuple[float, float]]:
        with self._lock:
            if self._stale:
                self._fit_locked()
            return self._coefficients.get(backend)

    def ready(self, backend: str) -> bool:
        """Whether ``backend`` has a trustworthy fit."""
        return self._coefficients_for(backend) is not None

    def plan_ready(self) -> bool:
        """Whether the model can compile/re-plan a full per-layer plan:
        it must price the GEMM incumbent and the bit-exact COO
        challenger (the pair a mid-run swap is allowed between)."""
        return self.ready("gemm") and self.ready("event-batched")

    def predict_ms(self, backend: str, ops: float) -> Optional[float]:
        """Predicted wall clock (ms) for ``ops`` work, or None if unfit."""
        coefficients = self._coefficients_for(backend)
        if coefficients is None:
            return None
        slope, intercept = coefficients
        return slope * max(float(ops), 0.0) + intercept

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def residuals(self) -> Dict[str, dict]:
        """Per-backend fit quality over the retained observations.

        ``rms_ms`` is the root-mean-square absolute residual;
        ``mean_abs_pct`` the mean relative error — the number the
        serving layer's ``/metrics`` exposes so an operator can see
        whether predicted plans are still tracking reality.
        """
        out: Dict[str, dict] = {}
        with self._lock:
            if self._stale:
                self._fit_locked()
            for backend, coefficients in self._coefficients.items():
                slope, intercept = coefficients
                samples = self._observations[backend]
                errors = [
                    (slope * ops + intercept) - ms for ops, ms in samples
                ]
                rel = [
                    abs(e) / ms for e, (_, ms) in zip(errors, samples) if ms > 0
                ]
                out[backend] = {
                    "observations": len(samples),
                    "rms_ms": round(
                        math.sqrt(sum(e * e for e in errors) / len(errors)), 6
                    ),
                    "mean_abs_pct": round(
                        100.0 * sum(rel) / len(rel), 3
                    ) if rel else 0.0,
                }
        return out

    def snapshot(self) -> dict:
        """JSON-ready summary for ``/metrics`` and ``--profile``."""
        with self._lock:
            if self._stale:
                self._fit_locked()
            coefficients = {
                backend: {
                    "slope_ms_per_op": pair[0],
                    "intercept_ms": pair[1],
                }
                for backend, pair in self._coefficients.items()
            }
            observations = {
                backend: len(samples)
                for backend, samples in self._observations.items()
            }
        return {
            "plan_ready": self.plan_ready(),
            "observations": observations,
            "coefficients": coefficients,
            "residuals": self.residuals(),
        }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._observations.values())

    # ------------------------------------------------------------------
    # Persistence (mirrors the plan file's corrupt-tolerant contract)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        with self._lock:
            return {
                "format": COST_MODEL_FORMAT,
                "min_observations": self.min_observations,
                "backends": {
                    backend: [[ops, ms] for ops, ms in samples]
                    for backend, samples in self._observations.items()
                    if samples
                },
            }

    @classmethod
    def from_payload(cls, payload: dict) -> "CostModel":
        if not isinstance(payload, dict) or payload.get("format") != COST_MODEL_FORMAT:
            found = (
                payload.get("format") if isinstance(payload, dict)
                else type(payload).__name__
            )
            raise ValueError(
                f"not a cost-model document (format {found!r}, expected "
                f"{COST_MODEL_FORMAT!r})"
            )
        model = cls(
            min_observations=int(payload.get("min_observations", MIN_OBSERVATIONS))
        )
        for backend, samples in payload.get("backends", {}).items():
            for entry in samples:
                ops, ms = entry
                model.observe(backend, float(ops), float(ms))
        return model

    def save(self, path: str) -> None:
        """Atomically persist the observations (coefficients refit on load)."""
        atomic_write_json(path, self.to_payload())

    @classmethod
    def load(cls, path: str, min_observations: int = MIN_OBSERVATIONS) -> "CostModel":
        """Load a persisted model; any failure yields a fresh empty one.

        The model file is a cache of measurements, never ground truth —
        corrupt, truncated or foreign documents log one warning and the
        engine simply races until observations accumulate again, exactly
        mirroring ``AutoEngine.load_plans`` hardening.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            model = cls.from_payload(payload)
        except FileNotFoundError:
            return cls(min_observations=min_observations)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                ValueError, TypeError, KeyError) as error:
            logger.warning(
                "ignoring unreadable cost-model file %s (%s); the engine "
                "will race kernels and rewrite it", path, error
            )
            return cls(min_observations=min_observations)
        model.min_observations = int(min_observations)
        return model
