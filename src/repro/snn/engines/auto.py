"""The adaptive backend: measure, model, specialise — and re-plan live.

The paper's accelerator wins by exploiting *per-layer* sparsity — the
mapper measures each layer's activity and lays it onto the aggregation
core accordingly.  A single global backend choice (dense / event /
batched) throws that structure away: measured densities vary widely
across layers, so the best kernel is a per-layer property.

:class:`AutoEngine` (``engine="auto"``) closes the same
measure-then-specialise loop in software, in two gears:

1. **Race (cold).** The first runs execute the time-batched GEMM
   schedule while the per-layer profiler records wall clock and input
   density; for every genuinely sparse layer both sparse kernels — the
   per-plane event gather and the bit-exact batched COO row-subset path
   (:mod:`repro.snn.engines.event_batched`) — are timed on the very
   activations the calibration run produced, and heavy GEMM layers
   additionally race a supervised row-sharded execution
   (:func:`repro.snn.engines.sharding.run_layer_shards`).  A layer
   switches off the GEMM only when a measured challenger beats its
   measured GEMM by a safety margin.
2. **Predict (warm).** Every race feeds ``(backend, ops, ms)`` samples
   into a fitted analytic :class:`repro.snn.engines.costmodel.CostModel`
   (wall clock affine in performed ops per backend).  Once the model is
   trustworthy, a plan-cache miss no longer races anything: one plain
   batched pass records densities and geometry, and the plan is
   *predicted* — cold-start calibration collapses to roughly the cost
   of a single ordinary run.  When only a *neighboring density bucket's*
   plan exists, calibration warm-starts from it instead: layers whose
   observed density still matches the neighbor's calibration copy its
   decision and skip the race.

Plans are cached by (bound model, input kind, input shape, T,
input-density bucket) in a bounded LRU and persisted as JSON beside the
cost model (``AutoEngine(plan_path=...)``).  A call the time-stacked
schedule runs as sample blocks (:data:`repro.snn.engines.batched.STACK_BLOCK_ROWS`)
uses one key for all its blocks: the first block's shape with the whole
call's density bucket, so a call calibrates at most once.  Its blocks
run in lanes (:mod:`repro.snn.engines.lanes`) only once that key has a
plan: a cold call calibrates serially.  Lane peers share the plan cache
and cost model and fold their planner counters back into the engine.

**Drift and mid-run re-planning.**  Every planned run watches observed
layer densities against the plan's calibration.  With a trustworthy
cost model, drift past ``drift_threshold`` triggers a *mid-run re-plan*:
at that very layer boundary the remaining schedule is re-predicted from
the cost model and swapped in place — the run completes under the new
plan, the cache and plan file are updated, and nothing recalibrates
cold.  Swaps are restricted to the bitwise-agreeing kernel pair (the
batched GEMM and the COO row-subset path compute identical floats), so
a re-planned run's logits are bit-identical to the same run without the
swap.  Without a fitted model the guard falls back to evict-next-run:
the plan is dropped and the next run recalibrates.

Op accounting follows the chosen backend per layer: GEMM layers bill
full dense MACs, event layers bill performed (per-spike) ops, and every
layer's :class:`repro.snn.stats.LayerStats` records which backend ran,
how it was chosen (``raced`` | ``cost-model`` | ``re-planned``) and the
planner's predicted wall clock (``profile_table`` /
``BENCH_engines.json`` show the plan).
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2d
from repro.snn.engines.base import LRUCache, _dense_op_count, _effective_weight
from repro.snn.engines.batched import STACK_BLOCK_ROWS, TimeBatchedEngine
from repro.snn.engines.costmodel import (
    CostModel,
    cost_model_path_for,
    sparse_feature_ops,
)
from repro.snn.engines.dense import dense_conv2d
from repro.snn.engines.event import sparse_conv2d, sparse_linear
from repro.snn.engines.event_batched import EventBatchedEngine
from repro.snn.engines.sharding import run_layer_shards, split_bounds
from repro.snn.spikes import SpikeStream, StepSpikes
from repro.tensor import Tensor
from repro.utils.io import atomic_write_json

logger = logging.getLogger(__name__)

#: Distinct (input shape, T) execution plans kept per engine.
PLAN_CACHE_CAPACITY = 8

#: On-disk format tag for persisted execution plans.
PLAN_FILE_FORMAT = "repro-execution-plans/v1"

#: Upper edges of the coarse input-density buckets baked into plan keys.
#: The GEMM/gather crossover moves with input density just like it moves
#: with the stack size, so a plan calibrated on a 1%-dense stream must
#: not be replayed on a 40%-dense one of the same shape.  Buckets are
#: deliberately coarse (log-spaced around the observed crossovers) so
#: ordinary batch-to-batch density jitter still hits the cached plan.
DENSITY_BUCKET_EDGES = (0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5)

#: Timing samples per kernel in the calibration race (best-of-N).  All
#: raced kernels — GEMM, event gather, COO row-subset, sharded GEMM —
#: get the same sample count: racing a min-of-N candidate against a
#: single-shot incumbent systematically favours the candidate (one
#: noisy-high GEMM sample near the crossover flips the layer to a slower
#: sparse kernel), which is exactly the miscalibration that pushes
#: ``auto_vs_best_fixed`` past its 1.1 acceptance bound.
CALIBRATION_REPEATS = 3

#: The kernels that compute bit-identical floats per layer: the batched
#: GEMM and the COO row-subset path share summation order exactly, so a
#: mid-run re-plan may swap a layer between them without perturbing the
#: logits.  The per-plane event gather accumulates in per-spike order
#: and is only summation-order equal, so re-plans never touch layers it
#: owns.
BITWISE_BACKENDS = ("gemm", "event-batched")

#: Observed-vs-calibrated density deviations below this absolute value
#: never count as drift: near-silent layers vary by large relative
#: factors between batches without moving any kernel crossover.
MIN_DRIFT_DEVIATION = 0.01

#: EWMA step for the serving-fed density prior: heavy enough to track a
#: tenant's traffic mix within tens of requests, light enough that one
#: outlier batch cannot yank the warm-start bucket.
DENSITY_PRIOR_ALPHA = 0.2

#: Per-layer shard race defaults: a GEMM layer is only worth row-sharding
#: when one calibration call already costs this much wall clock (the
#: thread fan-out has fixed overhead), and the race tries this many
#: workers.
LAYER_SHARD_MIN_SECONDS = 0.05
LAYER_SHARD_WORKERS = 2

#: Fewest stack rows a per-layer row shard may hold; a layer too short
#: for two such shards runs in-line.  Small GEMMs take another OpenBLAS
#: summation path (see :data:`STACK_BLOCK_ROWS`), so shorter row shards
#: would not be bitwise equal to the in-line kernel.
LAYER_SHARD_MIN_ROWS = STACK_BLOCK_ROWS // 2


def density_bucket(density: float) -> int:
    """The coarse plan-key bucket an input density falls into.

    Bucket ``i`` covers densities in ``(EDGES[i-1], EDGES[i]]``; the
    last bucket (``len(DENSITY_BUCKET_EDGES)``) is everything denser
    than the last edge, which is where direct-coded analog frames land.
    """
    return int(
        np.searchsorted(DENSITY_BUCKET_EDGES, float(density), side="left")
    )


@dataclass
class LayerDecision:
    """One synapse layer's planned backend choice.

    ``source`` records how the choice was made: ``"raced"`` (measured
    kernels), ``"cost-model"`` (predicted from the fitted model) or
    ``"re-planned"`` (swapped by the mid-run drift guard).
    ``shard_mode``/``workers`` extend the plan beyond kernel choice: a
    GEMM layer may execute as supervised row shards
    (:func:`~repro.snn.engines.sharding.run_layer_shards`) when the
    calibration race showed the fan-out pays.
    """

    name: str
    backend: str                 # "gemm" | "event" | "event-batched"
    density: float               # observed input density during calibration
    gemm_seconds: float          # measured batched-GEMM wall clock
    event_seconds: Optional[float] = None  # measured gather wall clock (if tried)
    coo_seconds: Optional[float] = None    # measured COO row-subset wall clock
    source: str = "raced"        # "raced" | "cost-model" | "re-planned"
    predicted_ms: float = 0.0    # planner-expected wall clock of the choice
    dense_ops: int = 0           # dense MAC count at the calibrated shape
    shard_mode: str = ""         # "" (in-line) | "thread" row sharding
    workers: int = 1             # row-shard fan-out when shard_mode set


@dataclass
class ExecutionPlan:
    """A compiled per-layer schedule for one (kind, shape, T, bucket) key.

    ``key`` is ``(input_kind, input_shape, timesteps, density_bucket)``
    where ``input_kind`` is ``"dense"`` for direct-coded frames and
    ``"stream"`` for COO spike-stream input — the two present very
    different densities to the layers, so they never share a plan — and
    ``density_bucket`` is the coarse :func:`density_bucket` of the
    input's own nonzero fraction, so same-shaped workloads at genuinely
    different activity levels calibrate separately.
    Plans serialise to JSON (:meth:`to_json` / :meth:`from_json`) so a
    compiled plan can persist beside a model checkpoint and be reloaded
    by another process (``AutoEngine(plan_path=...)``).
    """

    key: Tuple
    decisions: Dict[str, LayerDecision] = field(default_factory=dict)

    def backend_of(self, name: str) -> str:
        decision = self.decisions.get(name)
        return decision.backend if decision is not None else "gemm"

    @property
    def event_layers(self) -> int:
        return sum(1 for d in self.decisions.values() if d.backend == "event")

    @property
    def sharded_layers(self) -> int:
        return sum(1 for d in self.decisions.values() if d.workers > 1)

    @property
    def source(self) -> str:
        """How this plan was produced, taking the strongest claim:
        any re-planned layer marks the whole plan re-planned, any
        model-predicted layer (absent re-plans) marks it cost-model."""
        sources = {d.source for d in self.decisions.values()}
        if "re-planned" in sources:
            return "re-planned"
        if "cost-model" in sources:
            return "cost-model"
        return "raced"

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """This plan as a JSON-serialisable dict."""
        kind, shape, timesteps, bucket = self.key
        return {
            "format": PLAN_FILE_FORMAT,
            "key": {
                "input_kind": kind,
                "input_shape": list(shape),
                "timesteps": timesteps,
                "density_bucket": bucket,
            },
            "decisions": [
                {
                    "name": d.name,
                    "backend": d.backend,
                    "density": d.density,
                    "gemm_seconds": d.gemm_seconds,
                    "event_seconds": d.event_seconds,
                    "coo_seconds": d.coo_seconds,
                    "source": d.source,
                    "predicted_ms": d.predicted_ms,
                    "dense_ops": d.dense_ops,
                    "shard_mode": d.shard_mode,
                    "workers": d.workers,
                }
                for d in self.decisions.values()
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExecutionPlan":
        """Rebuild a plan from a :meth:`to_payload` dict."""
        if payload.get("format") != PLAN_FILE_FORMAT:
            raise ValueError(
                f"not an execution plan document (format "
                f"{payload.get('format')!r}, expected {PLAN_FILE_FORMAT!r})"
            )
        key_info = payload["key"]
        plan = cls(
            key=(
                str(key_info["input_kind"]),
                tuple(int(s) for s in key_info["input_shape"]),
                int(key_info["timesteps"]),
                # Plans persisted before density bucketing default to the
                # densest bucket — where a frame-calibrated plan belongs.
                int(key_info.get("density_bucket", len(DENSITY_BUCKET_EDGES))),
            )
        )
        for entry in payload["decisions"]:
            plan.decisions[entry["name"]] = LayerDecision(
                name=entry["name"],
                backend=entry["backend"],
                density=float(entry["density"]),
                gemm_seconds=float(entry["gemm_seconds"]),
                event_seconds=(
                    None
                    if entry["event_seconds"] is None
                    else float(entry["event_seconds"])
                ),
                coo_seconds=(
                    None
                    if entry.get("coo_seconds") is None
                    else float(entry.get("coo_seconds"))
                ),
                # Planner-v2 fields; plans persisted before them load as
                # plain raced, unsharded decisions.
                source=str(entry.get("source", "raced")),
                predicted_ms=float(entry.get("predicted_ms", 0.0)),
                dense_ops=int(entry.get("dense_ops", 0)),
                shard_mode=str(entry.get("shard_mode", "")),
                workers=int(entry.get("workers", 1)),
            )
        return plan

    def to_json(self) -> str:
        """This plan as a standalone JSON document."""
        return json.dumps(self.to_payload(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        """Rebuild a plan serialised by :meth:`to_json`."""
        return cls.from_payload(json.loads(text))


@dataclass
class _Capture:
    """Per-layer calibration measurement.

    Numbers only — the challenger kernels are raced inline while the
    layer's input is naturally live, so calibration never retains
    activation stacks (a batched run's whole working set would
    otherwise stay pinned until the plan compiles).  ``raceable`` marks
    layers whose input was sparse and non-constant (the only ones a
    sparse kernel could serve); ``seeded`` carries the neighboring
    bucket's decision when the warm start skipped this layer's race.
    """

    density: float
    gemm_seconds: float
    event_seconds: Optional[float]  # None: constant/dense input, not raced
    coo_seconds: Optional[float] = None  # COO row-subset kernel, if raced
    shard_seconds: Optional[float] = None  # row-sharded GEMM, if raced
    dense_ops: int = 0
    raceable: bool = False
    seeded: Optional[LayerDecision] = None


#: The planner's event counters; lane peers fold theirs into the parent.
PLANNER_COUNTERS = (
    "calibration_runs",
    "replans_triggered",
    "warm_starts",
    "prior_warm_starts",
)


class AutoEngine(EventBatchedEngine):
    """Adaptive backend: calibrated/predicted per-layer execution plan.

    Parameters
    ----------
    density_threshold:
        Input densities at or above this never try the sparse kernels
        (there is no sparsity to exploit; the gather would only copy).
    margin:
        A challenger kernel must beat the GEMM by this factor to be
        chosen (< 1.0 adds hysteresis against timing noise, so a
        borderline layer stays on the safe GEMM path).  The same
        hysteresis applies to cost-model predictions.
    drift_threshold:
        The drift guard: each planned layer's *observed* input density
        is compared with the density the plan was calibrated at.  With
        a trustworthy cost model, crossing the threshold re-plans the
        remaining layers *mid-run* (bit-identical swap at the layer
        boundary, ``RunStats.replan_triggered``); without one the plan
        is dropped so the next run recalibrates — the software twin of
        the mapper re-measuring when the workload distribution shifts.
    plan_path:
        Optional JSON file persisting compiled plans across processes
        (kept beside model checkpoints).  Existing plans are loaded at
        construction; every fresh calibration rewrites the file.  The
        cost model persists beside it (``<plan>.cost.json``).
    cost_model:
        Optional externally shared :class:`CostModel`; by default one
        is loaded from beside ``plan_path`` (or created empty).
    midrun_replan:
        Allow the drift guard to swap the plan at a layer boundary
        mid-run (requires a fitted cost model).  Off, drift always
        falls back to evict-next-run.
    layer_shard_workers / layer_shard_min_seconds:
        Per-layer shard race: GEMM layers whose calibration call costs
        at least ``layer_shard_min_seconds`` also race a supervised
        ``layer_shard_workers``-way row-sharded execution, and the plan
        records the fan-out when it wins.  ``layer_shard_workers <= 1``
        disables the race.
    """

    name = "auto"

    def __init__(
        self,
        density_threshold: float = 0.5,
        margin: float = 0.9,
        drift_threshold: float = 0.5,
        plan_path: Optional[str] = None,
        profile_layers: bool = True,
        cost_model: Optional[CostModel] = None,
        midrun_replan: bool = True,
        layer_shard_workers: int = LAYER_SHARD_WORKERS,
        layer_shard_min_seconds: float = LAYER_SHARD_MIN_SECONDS,
    ) -> None:
        # Calibration *is* the per-layer profile, so profiling stays on
        # regardless of the flag an explicit False would suggest.
        super().__init__(
            density_threshold=density_threshold, profile_layers=True
        )
        if not 0.0 < margin <= 1.0:
            raise ValueError("margin must be in (0, 1]")
        if drift_threshold <= 0.0:
            raise ValueError("drift_threshold must be > 0")
        if layer_shard_min_seconds < 0.0:
            raise ValueError("layer_shard_min_seconds must be >= 0")
        self.margin = margin
        self.drift_threshold = drift_threshold
        self.plan_path = plan_path
        self.midrun_replan = bool(midrun_replan)
        self.layer_shard_workers = int(layer_shard_workers)
        self.layer_shard_min_seconds = float(layer_shard_min_seconds)
        self.calibration_runs = 0
        self.replans_triggered = 0
        self.warm_starts = 0
        self.prior_warm_starts = 0
        # kind -> EWMA of serving-observed input density, fed by the
        # engine worker / pool so cold serving keys can warm-start from
        # what production traffic actually looks like.
        self._density_priors: Dict[str, float] = {}
        self._plans = LRUCache(PLAN_CACHE_CAPACITY)
        self._active_plan: Optional[ExecutionPlan] = None
        self._calibration: Optional[Dict[str, _Capture]] = None
        self._seed_plan: Optional[ExecutionPlan] = None
        self._predict_only = False
        self._replanned_at: Optional[str] = None
        self._replan_worst = 0.0
        self._run_observations: List[Tuple[str, float, float]] = []
        self._layer_shard_failures: List = []
        # The plan key every block of the current blocked call shares
        # (see _run_blocked); None outside a blocked call.
        self._block_key: Optional[Tuple] = None
        # Single-writer guard for the plan/cost files: fork-pool children
        # inherit this engine (and plan_path) copy-on-write, but only
        # the owning process persists — children ship plans/evictions/
        # observations back on the EngineRun for the parent to absorb
        # and write.
        self._owner_pid = os.getpid()
        if cost_model is not None:
            self.cost_model = cost_model
        elif plan_path is not None:
            self.cost_model = CostModel.load(cost_model_path_for(plan_path))
        else:
            self.cost_model = CostModel()
        if plan_path is not None:
            self.load_plans(plan_path, missing_ok=True)

    def _config(self) -> dict:
        # plan_path is deliberately not inherited by thread-shard
        # siblings: they share this engine's plan cache already, and
        # the parent is the single writer of the persistence file.
        config = super()._config()
        config["margin"] = self.margin
        config["drift_threshold"] = self.drift_threshold
        config["midrun_replan"] = self.midrun_replan
        config["layer_shard_workers"] = self.layer_shard_workers
        config["layer_shard_min_seconds"] = self.layer_shard_min_seconds
        return config

    def _share_caches(self, peer: "AutoEngine") -> None:
        super()._share_caches(peer)
        peer._plans = self._plans
        peer.cost_model = self.cost_model
        peer._density_priors = self._density_priors

    # ------------------------------------------------------------------
    # Plan persistence
    # ------------------------------------------------------------------
    def save_plans(self, path: Optional[str] = None) -> None:
        """Write every cached plan to ``path`` (default: ``plan_path``).

        The write is atomic (temp file + rename) so a concurrent
        ``AutoEngine(plan_path=...)`` in another process never reads a
        torn document.
        """
        path = path if path is not None else self.plan_path
        if path is None:
            raise ValueError("no path given and no plan_path configured")
        payload = {
            "format": PLAN_FILE_FORMAT,
            "plans": [plan.to_payload() for _, plan in self._plans.items()],
        }
        atomic_write_json(path, payload)

    def load_plans(self, path: Optional[str] = None, missing_ok: bool = False) -> int:
        """Load persisted plans into the cache; returns how many.

        A plan file is a cache, never ground truth: if it is corrupt,
        truncated (a crash on a filesystem without atomic rename) or
        written by an incompatible format version, loading logs one
        warning and returns 0 — the engine simply recalibrates, and the
        next persist atomically replaces the bad file.  Only a missing
        file with ``missing_ok=False`` (an explicit load of a path the
        caller asserted exists) still raises.
        """
        path = path if path is not None else self.plan_path
        if path is None:
            raise ValueError("no path given and no plan_path configured")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            if missing_ok:
                return 0
            raise
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            logger.warning(
                "ignoring unreadable plan file %s (%s); the engine will "
                "recalibrate and rewrite it", path, error
            )
            return 0
        if not isinstance(payload, dict) or payload.get("format") != PLAN_FILE_FORMAT:
            found = payload.get("format") if isinstance(payload, dict) else type(payload).__name__
            logger.warning(
                "ignoring plan file %s: format %r does not match %r; the "
                "engine will recalibrate and rewrite it",
                path, found, PLAN_FILE_FORMAT,
            )
            return 0
        try:
            plans = [
                ExecutionPlan.from_payload(dict(entry, format=PLAN_FILE_FORMAT))
                for entry in payload.get("plans", [])
            ]
        except (KeyError, TypeError, ValueError) as error:
            logger.warning(
                "ignoring plan file %s with malformed plan entries (%s); "
                "the engine will recalibrate and rewrite it", path, error
            )
            return 0
        for plan in plans:
            self._plans.put(plan.key, plan)
        return len(plans)

    def _persist_plans(self) -> None:
        # Fork children inherit plan_path but must not write: their
        # copy-on-write cache is partial, and concurrent writers would
        # race on the file.  The parent persists on absorb.
        if self.plan_path is not None and os.getpid() == self._owner_pid:
            self.save_plans(self.plan_path)

    def _persist_cost_model(self) -> None:
        if self.plan_path is not None and os.getpid() == self._owner_pid:
            self.cost_model.save(cost_model_path_for(self.plan_path))

    # ------------------------------------------------------------------
    @staticmethod
    def _plan_key(x, timesteps: int) -> Tuple:
        if isinstance(x, SpikeStream):
            # O(1) from the stream's own metadata — no plane scan.
            kind, density = "stream", x.density
        else:
            data = np.asarray(x)
            kind = "dense"
            density = np.count_nonzero(data) / max(data.size, 1)
        return (kind, tuple(x.shape), int(timesteps), density_bucket(density))

    def plan_for(
        self,
        input_shape,
        timesteps: int,
        kind: str = "dense",
        density_bucket: Optional[int] = None,
    ) -> Optional[ExecutionPlan]:
        """The cached plan for a full input shape (batch included) and T.

        A shape the engine runs as sample blocks resolves to its first
        block's shape, the key those blocks ran under.  With
        ``density_bucket=None`` the most recently cached plan for the
        (kind, shape, T) prefix is returned regardless of its bucket;
        pass a :func:`density_bucket` value to pin one.
        """
        shape = tuple(int(s) for s in input_shape)
        blocks = self._sample_blocks(shape[0], int(timesteps))
        if blocks:
            shape = (blocks[0][1],) + shape[1:]
        prefix = (str(kind), shape, int(timesteps))
        if density_bucket is not None:
            return self._plans.get(prefix + (int(density_bucket),))
        match = None
        for key, plan in self._plans.items():
            if key[:3] == prefix:
                match = plan
        return match

    def observe_density_prior(self, kind: str, density: float) -> None:
        """Feed one serving-observed input density into the EWMA prior.

        The serving layer (engine worker and pool replicas) calls this
        with the density of every dispatched batch.  The prior is keyed
        by input kind and shared across sibling engines, so a cold plan
        key can warm-start from what production traffic actually looks
        like instead of racing from scratch (:meth:`_prior_plan`).
        """
        density = min(max(float(density), 0.0), 1.0)
        prior = self._density_priors.get(kind)
        self._density_priors[kind] = (
            density if prior is None
            else prior + DENSITY_PRIOR_ALPHA * (density - prior)
        )

    def _prior_plan(self, key: Tuple) -> Optional[ExecutionPlan]:
        """Cross-shape warm-start seed picked by the serving density prior.

        When a cold key has no same-shape neighbour (a batch size this
        server has never seen), any cached same-(kind, T) plan whose
        density bucket is nearest the EWMA prior is still a useful
        seed: layer names and their per-layer densities transfer across
        batch sizes, and seed adoption in calibration re-checks each
        layer's density agreement before trusting it.
        """
        kind, _, timesteps, _ = key
        prior = self._density_priors.get(kind)
        if prior is None:
            return None
        target = density_bucket(prior)
        best: Optional[ExecutionPlan] = None
        best_distance: Optional[int] = None
        for cached_key, plan in self._plans.items():
            if len(cached_key) != 4:
                continue
            if cached_key[0] != kind or int(cached_key[2]) != int(timesteps):
                continue
            distance = abs(int(cached_key[3]) - target)
            if best_distance is None or distance <= best_distance:
                best, best_distance = plan, distance
        return best

    def _neighbor_plan(self, key: Tuple) -> Optional[ExecutionPlan]:
        """The nearest same-(kind, shape, T) plan in a *different*
        density bucket — the warm-start seed for a plan-key miss."""
        prefix, bucket = key[:3], key[3]
        best: Optional[ExecutionPlan] = None
        best_distance: Optional[int] = None
        for cached_key, plan in self._plans.items():
            if len(cached_key) != 4 or cached_key[:3] != prefix:
                continue
            distance = abs(int(cached_key[3]) - int(bucket))
            # <= so ties go to the most recently used (items() is
            # least-recent first).
            if best_distance is None or distance <= best_distance:
                best, best_distance = plan, distance
        return best

    def _run_blocked(self, x, timesteps, per_step, lanes=True):
        bounds = self._sample_blocks(int(x.shape[0]), timesteps)
        if len(bounds) <= 1:
            return self._run_single(x, timesteps, per_step)
        kind, _, steps, bucket = self._plan_key(x, timesteps)
        key = (kind, (bounds[0][1],) + tuple(x.shape[1:]), steps, bucket)
        plan = self._plans.get(key)
        self._block_key = key
        try:
            run = super()._run_blocked(x, timesteps, per_step, lanes)
        finally:
            self._block_key = None
        # The post-run drift guard judges the whole call once, so a
        # block that drifted cannot evict the plan and make the next
        # block of the same call recalibrate.
        if (
            plan is not None
            and not run.stats.replan_triggered
            and self._check_drift(key, plan, run.stats)
        ):
            run.dropped_plan_key = key
        return run

    def _lanes_ready(self) -> bool:
        # A cold key calibrates serially, and a plan that row-shards a
        # layer already spreads that layer over the cores.
        plan = self._plans.get(self._block_key)
        return plan is not None and plan.sharded_layers == 0

    def _enter_lane(self, peer: "AutoEngine") -> None:
        peer._block_key = self._block_key
        for name in PLANNER_COUNTERS:
            setattr(peer, name, 0)

    def _absorb_lanes(self, peers) -> None:
        # Peers share the plan cache and cost model, so only their
        # counters need folding; the parent is the single writer of the
        # persisted plan and cost files.
        learned = replanned = 0
        for peer in peers:
            peer._block_key = None
            for name in PLANNER_COUNTERS:
                setattr(self, name, getattr(self, name) + getattr(peer, name))
            learned += peer.calibration_runs
            replanned += peer.replans_triggered
        if learned or replanned:
            self._persist_plans()
        if learned:
            self._persist_cost_model()

    def _run_single(self, x, timesteps, per_step):
        key = self._block_key or self._plan_key(x, timesteps)
        plan = self._plans.get(key)
        self._active_plan = plan
        self._calibration = {} if plan is None else None
        self._seed_plan = None
        self._predict_only = False
        self._replanned_at = None
        self._replan_worst = 0.0
        self._run_observations = []
        self._layer_shard_failures = []
        if plan is None:
            if self.cost_model.plan_ready():
                # Warm cold start: no races — one plain batched pass
                # records densities, the model predicts the plan.
                self._predict_only = True
            else:
                self._seed_plan = self._neighbor_plan(key)
                if self._seed_plan is None:
                    self._seed_plan = self._prior_plan(key)
                    if self._seed_plan is not None:
                        self.prior_warm_starts += 1
        try:
            run = super()._run_single(x, timesteps, per_step)
            stats = run.stats
            if self._calibration is not None:
                plan = self._compile_plan(key, self._calibration)
                self._plans.put(key, plan)
                self.calibration_runs += 1
                self._persist_plans()
                # Ship the fresh plan back on the run: a fork-pool shard
                # compiles in a throwaway child process, and only this
                # payload (absorbed by the parent's _absorb_shard_runs)
                # gets it into the surviving cache.
                run.plan = plan
            elif self._replanned_at is not None:
                # The mid-run guard already swapped and re-cached the
                # plan; record the event and ship the new plan back.
                plan = self._active_plan
                stats.replan_triggered = True
                stats.plan_drift = self._replan_worst
                stats.replanned_at = self._replanned_at
                run.plan = plan
                self._persist_plans()
            elif self._block_key is None:
                if self._check_drift(key, plan, stats):
                    # Like a fresh plan, an eviction must ride back to
                    # the parent: a fork shard pops only its throwaway
                    # copy-on-write cache, and thread siblings carry no
                    # plan_path, so the parent re-drops and re-persists.
                    run.dropped_plan_key = key
            stats.plan_source = (
                "re-planned" if self._replanned_at is not None else plan.source
            )
            if self._run_observations:
                # Calibration races feed the cost model; ship the raw
                # samples too so fork-shard calibrations teach the
                # parent's model.
                self.cost_model.observe_many(self._run_observations)
                run.observations = list(self._run_observations)
                self._persist_cost_model()
            if self._layer_shard_failures:
                stats.shard_failures = (
                    list(stats.shard_failures) + list(self._layer_shard_failures)
                )
            for layer in stats.layers:
                if layer.kind == "neuron":
                    layer.backend = "stepped"
                    continue
                decision = plan.decisions.get(layer.name)
                layer.backend = decision.backend if decision else "gemm"
                if decision is not None:
                    layer.backend_source = decision.source
                    layer.predicted_ms = decision.predicted_ms
            return run
        finally:
            self._active_plan = None
            self._calibration = None
            self._seed_plan = None
            self._predict_only = False
            self._replanned_at = None
            self._run_observations = []
            self._layer_shard_failures = []

    def _check_drift(self, key, plan: ExecutionPlan, stats) -> bool:
        """Drop the plan when observed densities left its calibration.

        Relative drift is ``|observed - calibrated| / calibrated`` per
        planned synapse layer; crossing ``drift_threshold`` on any
        layer means the GEMM/event crossover the plan encodes was
        measured on a different activity regime (distribution shift),
        so the plan is evicted and the next run recalibrates.  (With a
        trustworthy cost model the mid-run guard usually re-plans
        before this post-run net is reached; it remains the fallback
        for plans without geometry or runs where the in-flight check
        was disabled.)  Layers whose *absolute* deviation is tiny are
        ignored: near-silent layers naturally vary by large relative
        factors between batches without moving the GEMM/gather
        crossover, and billing them would make the guard oscillate
        calibrate/drop forever.  Returns whether the plan was dropped.
        """
        worst = 0.0
        for layer in stats.layers:
            decision = plan.decisions.get(layer.name)
            if decision is None or layer.input_size == 0:
                continue
            deviation = abs(layer.input_density - decision.density)
            if deviation < MIN_DRIFT_DEVIATION:
                continue  # below any kernel crossover's resolution
            worst = max(worst, deviation / max(decision.density, 1e-6))
        stats.plan_drift = worst
        if worst <= self.drift_threshold:
            return False
        stats.replan_triggered = True
        self.replans_triggered += 1
        self._plans.pop(key)
        self._persist_plans()
        logger.info(
            "auto engine: observed layer density drifted %.0f%% from the "
            "compiled plan's calibration (threshold %.0f%%); plan %s "
            "dropped, next run recalibrates",
            worst * 100.0,
            self.drift_threshold * 100.0,
            key,
        )
        return True

    def _replan_mid_run(
        self, plan: ExecutionPlan, at_name: str, observed_density: float
    ) -> ExecutionPlan:
        """Swap the remaining schedule at the current layer boundary.

        Already-executed layers keep their decisions untouched (their
        work is done); the drifting layer and everything downstream are
        re-predicted from the cost model at densities scaled by the
        observed drift ratio.  Only bitwise-agreeing kernels are
        eligible targets, so the completed run's logits are
        bit-identical to the same run without the swap.  The re-planned
        schedule replaces the cached plan in place — the next run for
        this key starts on it with no cold recalibration.
        """
        at_decision = plan.decisions[at_name]
        scale = observed_density / max(at_decision.density, 1e-6)
        replanned = ExecutionPlan(key=plan.key)
        reached = False
        for name, decision in plan.decisions.items():
            if name == at_name:
                reached = True
            if not reached:
                replanned.decisions[name] = decision
                continue
            replanned.decisions[name] = self._repredict_decision(decision, scale)
        self._plans.put(plan.key, replanned)
        self._active_plan = replanned
        self._replanned_at = at_name
        self._replan_worst = abs(observed_density - at_decision.density) / max(
            at_decision.density, 1e-6
        )
        self.replans_triggered += 1
        swapped = sum(
            1
            for name, decision in replanned.decisions.items()
            if decision.backend != plan.decisions[name].backend
        )
        logger.info(
            "auto engine: density at %s drifted %.0f%% from calibration "
            "(threshold %.0f%%); re-planned mid-run from the cost model — "
            "%d backend swap(s) from %s onward, plan %s updated in place",
            at_name,
            self._replan_worst * 100.0,
            self.drift_threshold * 100.0,
            swapped,
            at_name,
            plan.key,
        )
        return replanned

    def _repredict_decision(
        self, decision: LayerDecision, scale: float
    ) -> LayerDecision:
        """One layer's cost-model re-prediction under a drift ratio."""
        density = min(max(decision.density * scale, 0.0), 1.0)
        if decision.backend not in BITWISE_BACKENDS or decision.dense_ops <= 0:
            # The per-plane gather is only summation-order equal to the
            # GEMM, and geometry-less decisions (old plan files) cannot
            # be priced — both keep their backend, updated density only.
            return replace(decision, density=density)
        gemm_ms = self.cost_model.predict_ms("gemm", decision.dense_ops)
        coo_ms = self.cost_model.predict_ms(
            "event-batched", sparse_feature_ops(decision.dense_ops, density)
        )
        if gemm_ms is None or coo_ms is None:
            return replace(decision, density=density)
        if density < self.density_threshold and coo_ms < gemm_ms * self.margin:
            backend, predicted = "event-batched", coo_ms
        else:
            backend, predicted = "gemm", gemm_ms
        return replace(
            decision,
            backend=backend,
            density=density,
            source="re-planned",
            predicted_ms=predicted,
            # Row sharding was raced for the GEMM only; a swapped layer
            # runs the COO kernel in-line.
            shard_mode=decision.shard_mode if backend == "gemm" else "",
            workers=decision.workers if backend == "gemm" else 1,
        )

    def _absorb_shard_runs(self, runs) -> None:
        changed = False
        learned = False
        for run in runs:
            if run is None:
                continue
            if run.plan is not None:
                self._plans.put(run.plan.key, run.plan)
                changed = True
            if run.dropped_plan_key is not None:
                # Re-drop in the surviving cache (a no-op for thread
                # siblings, which share it) and rewrite the plan file.
                self._plans.pop(run.dropped_plan_key)
                changed = True
            if run.observations:
                # Fork children race in throwaway processes; their cost
                # samples only reach the surviving model through here.
                self.cost_model.observe_many(run.observations)
                learned = True
        if changed:
            self._persist_plans()
        if learned:
            self._persist_cost_model()

    # ------------------------------------------------------------------
    def planner_snapshot(self) -> dict:
        """JSON-ready planner state for ``/metrics`` and ``--profile``.

        One stable shape for every operational consumer: the cached
        plans (key, provenance, specialised layer counts), the
        calibration/re-plan counters, and the cost model's fit quality
        (:meth:`CostModel.snapshot`, residuals included).
        """
        plans = []
        for key, plan in self._plans.items():
            kind, shape, timesteps, bucket = key
            plans.append(
                {
                    "input_kind": kind,
                    "input_shape": list(shape),
                    "timesteps": int(timesteps),
                    "density_bucket": int(bucket),
                    "source": plan.source,
                    "layers": len(plan.decisions),
                    "event_layers": plan.event_layers,
                    "sharded_layers": plan.sharded_layers,
                }
            )
        return {
            "plans": plans,
            "calibration_runs": self.calibration_runs,
            "replans_triggered": self.replans_triggered,
            "warm_starts": self.warm_starts,
            "prior_warm_starts": self.prior_warm_starts,
            "density_priors": {
                kind: round(value, 6)
                for kind, value in self._density_priors.items()
            },
            "cost_model": self.cost_model.snapshot(),
        }

    # ------------------------------------------------------------------
    def _compile_plan(
        self, key: Tuple, captures: Dict[str, _Capture]
    ) -> ExecutionPlan:
        """Turn calibration measurements into a per-layer schedule.

        Raced layers keep the PR 3 rule — a measured challenger must
        beat the measured GEMM by the ``margin`` hysteresis — now with
        the row-sharded GEMM as a fourth candidate.  In predict-only
        calibrations no races happened: every raceable layer is priced
        by the cost model instead (source ``"cost-model"``), and layers
        the warm start seeded copy the neighboring bucket's decision.
        """
        plan = ExecutionPlan(key=key)
        seeded_any = False
        for name, capture in captures.items():
            if capture.seeded is not None:
                seed = capture.seeded
                seeded_any = True
                plan.decisions[name] = replace(
                    seed,
                    name=name,
                    density=capture.density,
                    gemm_seconds=capture.gemm_seconds,
                    dense_ops=capture.dense_ops or seed.dense_ops,
                )
                continue
            if self._predict_only:
                plan.decisions[name] = self._predict_decision(name, capture)
                continue
            backend = "gemm"
            best = capture.gemm_seconds * self.margin
            for candidate, seconds in (
                ("event", capture.event_seconds),
                ("event-batched", capture.coo_seconds),
            ):
                if seconds is not None and seconds < best:
                    backend, best = candidate, seconds
            shard_mode, workers = "", 1
            if (
                backend == "gemm"
                and capture.shard_seconds is not None
                and capture.shard_seconds < capture.gemm_seconds * self.margin
            ):
                shard_mode, workers = "thread", self.layer_shard_workers
                best = capture.shard_seconds
            chosen_seconds = (
                capture.gemm_seconds if backend == "gemm" and workers == 1 else best
            )
            plan.decisions[name] = LayerDecision(
                name=name,
                backend=backend,
                density=capture.density,
                gemm_seconds=capture.gemm_seconds,
                event_seconds=capture.event_seconds,
                coo_seconds=capture.coo_seconds,
                source="raced",
                predicted_ms=chosen_seconds * 1e3,
                dense_ops=capture.dense_ops,
                shard_mode=shard_mode,
                workers=workers,
            )
        if seeded_any:
            self.warm_starts += 1
        return plan

    def _predict_decision(self, name: str, capture: _Capture) -> LayerDecision:
        """Price one layer's kernels from the fitted cost model."""
        gemm_ms = self.cost_model.predict_ms("gemm", capture.dense_ops)
        backend = "gemm"
        predicted = gemm_ms if gemm_ms is not None else capture.gemm_seconds * 1e3
        if capture.raceable and gemm_ms is not None:
            # Only the bit-exact COO challenger is predictable: the
            # per-plane gather's cost has per-plane geometry terms the
            # affine-in-ops model cannot see, so it is chosen by
            # measured races only.  This also keeps every predicted
            # plan inside the bitwise pair a mid-run re-plan may swap.
            ops = sparse_feature_ops(capture.dense_ops, capture.density)
            coo_ms = self.cost_model.predict_ms("event-batched", ops)
            if coo_ms is not None and coo_ms < gemm_ms * self.margin:
                backend, predicted = "event-batched", coo_ms
        return LayerDecision(
            name=name,
            backend=backend,
            density=capture.density,
            gemm_seconds=capture.gemm_seconds,
            source="cost-model",
            predicted_ms=float(predicted),
            dense_ops=capture.dense_ops,
        )

    # ------------------------------------------------------------------
    def _layer_shard_output(
        self, module, data, weight, bias, is_conv: bool, workers: int, mode: str
    ):
        """One layer's output computed as supervised row shards.

        Returns ``(out, failures)``.  Each output row is an independent
        reduction over the same input rows with the same kernel, but
        that alone does not make the concatenation bitwise identical to
        the in-line kernel: OpenBLAS takes another summation path for
        small GEMMs (a 512->10 GEMM split into blocks of fewer than 128
        rows is not bitwise equal to the unsplit one).  So no shard
        holds fewer than :data:`LAYER_SHARD_MIN_ROWS` rows; a layer too
        short for two shards runs in-line.
        """
        rows = int(data.shape[0])
        bounds = split_bounds(rows, min(workers, rows // LAYER_SHARD_MIN_ROWS))

        def kernel(lo: int, hi: int):
            block = data[lo:hi]
            if is_conv:
                return dense_conv2d(
                    block, weight, bias, module.stride, module.padding
                )
            out = block @ weight.T
            if bias is not None:
                out = out + bias
            return out

        if len(bounds) <= 1:
            return kernel(0, rows), []
        outcome = run_layer_shards(kernel, bounds, mode or "thread")
        return (
            np.concatenate(outcome.results, axis=0),
            list(outcome.failures),
        )

    # ------------------------------------------------------------------
    def _make_interceptor(self, module, stat, orig):
        # The pure GEMM closure, bypassing EventBatchedEngine's COO
        # dispatch: the plan, not a per-layer density check, decides
        # which kernel runs here.
        gemm = TimeBatchedEngine._make_interceptor(self, module, stat, orig)
        is_conv = isinstance(module, Conv2d)
        name = stat.name

        def coords_of(data) -> StepSpikes:
            carried = self._carried_coords(data)
            if carried is not None:
                return carried
            return StepSpikes(
                coords=np.stack(np.nonzero(data), axis=1), shape=data.shape
            )

        def calibrate(x: Tensor, data) -> Tensor:
            # Calibration: time the GEMM path, then (unless the cost
            # model already prices the kernels, or the warm-start seed
            # still matches) race the challengers right here while the
            # input is naturally live — recording numbers, never
            # activations, keeps the calibration run's memory profile
            # identical to a plain batched run.
            constant = id(data) in self._constant_arrays
            counted = self._carried_count(data)
            if counted is not None and counted[1]:
                density = counted[0] / max(data.size, 1)
            else:
                density = np.count_nonzero(data) / max(data.size, 1)
            dense_ops = _dense_op_count(module, data.shape)
            started = time.perf_counter()
            out = gemm(x)
            gemm_seconds = time.perf_counter() - started
            event_seconds: Optional[float] = None
            coo_seconds: Optional[float] = None
            shard_seconds: Optional[float] = None
            seeded: Optional[LayerDecision] = None
            raceable = not constant and density < self.density_threshold
            seed_decision = (
                self._seed_plan.decisions.get(name)
                if self._seed_plan is not None
                else None
            )
            if seed_decision is not None:
                deviation = abs(density - seed_decision.density)
                if (
                    deviation < MIN_DRIFT_DEVIATION
                    or deviation / max(seed_decision.density, 1e-6)
                    <= self.drift_threshold
                ):
                    # The neighboring bucket calibrated this layer at an
                    # activity level the drift guard would accept: adopt
                    # its decision, skip the race.
                    seeded = seed_decision
            if raceable and seeded is None and not self._predict_only:
                weight = _effective_weight(module, self._weight_cache)
                bias = module.bias.data if module.bias is not None else None
                # Every raced kernel gets the same best-of-N
                # sampling, the GEMM included: its real forward
                # above is one sample, and the raw kernel is
                # re-timed to fill the rest.  An asymmetric race
                # (min-of-N candidates vs a one-shot incumbent)
                # flips crossover layers onto slower sparse kernels
                # whenever the single GEMM sample lands high.
                for _ in range(CALIBRATION_REPEATS - 1):
                    trial = time.perf_counter()
                    if is_conv:
                        dense_conv2d(
                            data, weight, bias, module.stride, module.padding
                        )
                    else:
                        redo = data @ weight.T
                        if bias is not None:
                            redo += bias
                    gemm_seconds = min(
                        gemm_seconds, time.perf_counter() - trial
                    )
                event_seconds = float("inf")
                for _ in range(CALIBRATION_REPEATS):
                    trial = time.perf_counter()
                    if is_conv:
                        sparse_conv2d(
                            data, weight, bias, module.stride, module.padding
                        )
                    else:
                        sparse_linear(data, weight, bias)
                    event_seconds = min(
                        event_seconds, time.perf_counter() - trial
                    )
                coo_seconds = float("inf")
                for _ in range(CALIBRATION_REPEATS):
                    # The coordinate scan stays inside the timed
                    # region when no coordinates are carried — the
                    # planned path pays it too.
                    trial = time.perf_counter()
                    self._coo_synapse(
                        module, data, coords_of(data), weight, bias,
                        register=False,
                    )
                    coo_seconds = min(
                        coo_seconds, time.perf_counter() - trial
                    )
                # The measured race feeds the analytic model: one
                # (backend, ops, ms) sample per kernel, billed in each
                # backend's own work unit.
                sparse_ops = sparse_feature_ops(dense_ops, density)
                self._run_observations.extend(
                    [
                        ("gemm", float(dense_ops), gemm_seconds * 1e3),
                        ("event", sparse_ops, event_seconds * 1e3),
                        ("event-batched", sparse_ops, coo_seconds * 1e3),
                    ]
                )
            if (
                not constant
                and seeded is None
                and not self._predict_only
                and self.layer_shard_workers > 1
                and data.shape[0] >= 2 * LAYER_SHARD_MIN_ROWS
                and gemm_seconds > self.layer_shard_min_seconds
            ):
                weight = _effective_weight(module, self._weight_cache)
                bias = module.bias.data if module.bias is not None else None
                shard_seconds = float("inf")
                for _ in range(CALIBRATION_REPEATS):
                    trial = time.perf_counter()
                    self._layer_shard_output(
                        module, data, weight, bias, is_conv,
                        self.layer_shard_workers, "thread",
                    )
                    shard_seconds = min(
                        shard_seconds, time.perf_counter() - trial
                    )
            self._calibration[name] = _Capture(
                density=density,
                gemm_seconds=gemm_seconds,
                event_seconds=event_seconds,
                coo_seconds=coo_seconds,
                shard_seconds=shard_seconds,
                dense_ops=dense_ops,
                raceable=raceable,
                seeded=seeded,
            )
            return out

        def forward(x: Tensor) -> Tensor:
            data = x.data
            plan = self._active_plan
            if plan is None:
                return calibrate(x, data)
            constant = id(data) in self._constant_arrays
            decision = plan.decisions.get(name)
            if (
                decision is not None
                and not constant
                and self.midrun_replan
                and self._replanned_at is None
                and stat.input_size > 0
                and self.cost_model.plan_ready()
            ):
                # The profiler recorded this layer's density just before
                # this call, so the drift check is free here — and this
                # is exactly the layer boundary a swap must happen at.
                observed = stat.input_nonzero / stat.input_size
                deviation = abs(observed - decision.density)
                if (
                    deviation >= MIN_DRIFT_DEVIATION
                    and deviation / max(decision.density, 1e-6)
                    > self.drift_threshold
                ):
                    plan = self._replan_mid_run(plan, name, observed)
                    decision = plan.decisions.get(name)
            backend = decision.backend if decision is not None else "gemm"
            if backend == "gemm" or constant:
                if (
                    decision is not None
                    and decision.workers > 1
                    and not constant
                ):
                    # Planned row sharding: same GEMM kernel over
                    # contiguous row blocks under the shard supervisor,
                    # billed exactly like the in-line GEMM.
                    ops = _dense_op_count(module, data.shape)
                    stat.synaptic_ops += ops
                    stat.dense_synaptic_ops += ops
                    weight = _effective_weight(module, self._weight_cache)
                    bias = (
                        module.bias.data if module.bias is not None else None
                    )
                    out, failures = self._layer_shard_output(
                        module, data, weight, bias, is_conv,
                        decision.workers, decision.shard_mode,
                    )
                    if failures:
                        self._layer_shard_failures.extend(failures)
                    return Tensor(out)
                return gemm(x)
            # Planned sparse layer: one gather over the whole (T*N, ...)
            # stack; bills performed (per-spike) ops like the event
            # engine, with the dense MAC count as the baseline.
            stat.dense_synaptic_ops += _dense_op_count(module, data.shape)
            weight = _effective_weight(module, self._weight_cache)
            bias = module.bias.data if module.bias is not None else None
            if backend == "event-batched":
                out, billed, _ = self._coo_synapse(
                    module, data, coords_of(data), weight, bias
                )
            elif is_conv:
                out, billed = sparse_conv2d(
                    data, weight, bias, module.stride, module.padding
                )
            else:
                out, billed = sparse_linear(data, weight, bias)
            stat.synaptic_ops += billed
            return Tensor(out)

        return forward
