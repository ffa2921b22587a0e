#!/usr/bin/env python
"""CI smoke for Planner v2: predict-mode serving plus a mid-run re-plan.

Usage::

    PYTHONPATH=src python benchmarks/planner_smoke.py

One scenario, exit 0 only if every check holds:

1. **Organic calibration** — an auto engine races a small two-conv SNN
   across several timestep keys; the cost model must become
   ``plan_ready`` purely from those measured races (no synthetic
   observations), every raced plan's logits must equal the ``batched``
   engine's bit for bit, and every plan ``/metrics`` reports must count
   its ``coo_layers``.
2. **Predict-mode serving** — the engine is handed to a live server;
   the serve-shaped key is cold, so its first plan must come from the
   cost model (``plan_source == "cost-model"``) and ``/metrics`` must
   expose the planner section with fit residuals.
3. **Mid-run re-plan under drift** — the client's traffic shifts
   amplitude, moving downstream spike densities far past the drift
   threshold while the plan key stays the same.  The worker must
   re-plan *inside* a run (``replans_seen`` in ``/metrics``), keep
   every response a 200 (no 5xx, no hang), keep ``/readyz`` green
   throughout, and the re-planned run's logits must be bit-identical
   to a frozen-plan control run — the re-plan is allowed to change
   wall clock, never arithmetic.

Standalone on purpose (plain script, not pytest): CI runs it as its
own job so a planner regression is visible as a named failing step.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import nn  # noqa: E402
from repro.serve import ServeConfig, ServerHandle  # noqa: E402
from repro.snn import SpikingNetwork, convert_to_snn  # noqa: E402
from repro.snn.engines import AutoEngine, ExecutionPlan  # noqa: E402
from repro.tensor import Tensor, no_grad  # noqa: E402

SHAPE = (2, 12, 12)
SERVE_TIMESTEPS = 6
DRIFT_THRESHOLD = 0.3
DRIFT_SCALE = 2.5  # amplitude swing that moves spike densities ~33%


def check(condition, message):
    if not condition:
        print(f"SMOKE FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def build_model(shape=SHAPE, classes=4, seed=0):
    """A two-conv SNN whose second conv is spike-fed (raceable).

    The demo network's only conv sees the constant input frame, which
    never races the sparse kernels — so the cost model would starve.
    Conv2 here is fed by conv1's spike train, making every calibration
    contribute real (backend, ops, ms) observations.
    """
    c, h, w = shape
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(c, 8, 3, padding=1, rng=np.random.default_rng(seed + 1)),
        nn.BatchNorm2d(8),
        nn.QuantReLU(levels=4, init_step=1.0),
        nn.Conv2d(8, 8, 3, padding=1, rng=np.random.default_rng(seed + 2)),
        nn.BatchNorm2d(8),
        nn.QuantReLU(levels=4, init_step=1.0),
        nn.AvgPool2d(2),
        nn.Flatten(),
        nn.Linear(8 * (h // 2) * (w // 2), classes, rng=np.random.default_rng(seed + 3)),
    )
    model.train()
    with no_grad():
        for _ in range(4):
            model(Tensor(rng.normal(size=(8,) + shape).astype(np.float32)))
    model.eval()
    return convert_to_snn(model)


def main():
    print("phase 1: organic cost-model calibration from measured races")
    model = build_model()
    engine = AutoEngine(drift_threshold=DRIFT_THRESHOLD)
    rng = np.random.default_rng(5)
    warm = rng.normal(size=(4,) + SHAPE).astype(np.float32)
    bitwise = True
    for t in range(2, 8):
        raced = SpikingNetwork(model, timesteps=t, engine=engine)
        reference = SpikingNetwork(model, timesteps=t, engine="batched").forward(warm)
        for _ in range(2):  # the calibration run, then the raced plan
            bitwise = np.array_equal(raced.forward(warm), reference) and bitwise
    check(
        engine.cost_model.plan_ready(),
        f"cost model fit from races alone ({len(engine.cost_model)} observations)",
    )
    check(bitwise, "raced plans' logits bit-identical to batched")
    raced_calibrations = engine.calibration_runs

    sample = rng.normal(size=SHAPE).astype(np.float32)
    config = ServeConfig(
        port=0,
        engine=engine,  # pre-calibrated instance rides into the worker
        timesteps=SERVE_TIMESTEPS,
        max_batch_size=1,  # serial clients -> batch-1 runs, one plan key
        default_deadline_ms=60_000.0,
    )
    statuses = []
    with ServerHandle(model, SHAPE, config) as handle:
        print("phase 2: predict-mode serving on a cold key")
        for _ in range(3):
            status, body = handle.infer(sample, timeout=60.0)
            statuses.append(status)
        check(statuses == [200, 200, 200], "baseline requests all 200")
        check(
            engine.calibration_runs == raced_calibrations + 1,
            "cold serve key calibrated exactly once (then cached)",
        )
        serve_batch = sample[np.newaxis].astype(np.float32)
        plan = engine.plan_for(serve_batch.shape, SERVE_TIMESTEPS)
        check(plan is not None, "serve-shaped plan cached")
        check(
            plan.source == "cost-model",
            f"cold key planned by prediction, not racing (got {plan.source!r})",
        )
        frozen_json = plan.to_json()

        metrics = handle.request("GET", "/metrics")[1]
        planner = metrics.get("planner")
        check(planner is not None, "/metrics exposes the planner section")
        check(planner["cost_model"]["plan_ready"] is True, "metrics report model ready")
        check(
            all("coo_layers" in p for p in planner["plans"]),
            "every /metrics plan reports coo_layers",
        )
        check(
            any(p["source"] == "cost-model" for p in planner["plans"]),
            "metrics show the predicted plan",
        )
        check(metrics["worker"]["replans_seen"] == 0, "no re-plan before drift")
        check(handle.request("GET", "/readyz")[0] == 200, "/readyz green pre-drift")

        print("phase 3: density drift -> mid-run re-plan, bit-identical")
        drifted = (sample * DRIFT_SCALE).astype(np.float32)
        status, body = handle.infer(drifted, timeout=60.0)
        statuses.append(status)
        check(status == 200, "drifted request served 200")
        served_logits = np.asarray(body["logits"], dtype=np.float64)

        check(handle.request("GET", "/readyz")[0] == 200, "/readyz green across the re-plan")
        metrics = handle.request("GET", "/metrics")[1]
        check(
            metrics["worker"]["replans_seen"] >= 1,
            f"mid-run re-plan fired (replans_seen={metrics['worker']['replans_seen']})",
        )
        check(
            any(p["source"] == "re-planned" for p in metrics["planner"]["plans"]),
            "re-planned plan visible in /metrics",
        )

        for _ in range(3):
            status, _ = handle.infer(drifted, timeout=60.0)
            statuses.append(status)
        check(
            all(s == 200 for s in statuses),
            f"no 5xx across the whole stream ({statuses})",
        )
        check(handle.request("GET", "/readyz")[0] == 200, "/readyz green post-drift")

    # Control: the same drifted batch under the frozen pre-drift plan,
    # re-planning disabled.  The swap guarantee is that a mid-run
    # re-plan only moves between bitwise-identical kernels, so the
    # served logits must match this run exactly.
    control_engine = AutoEngine(
        drift_threshold=DRIFT_THRESHOLD, midrun_replan=False
    )
    control_engine.bind(model)
    drift_batch = (sample * DRIFT_SCALE)[np.newaxis].astype(np.float32)
    key = AutoEngine._plan_key(drift_batch, SERVE_TIMESTEPS)
    control_engine._plans.put(key, ExecutionPlan.from_json(frozen_json))
    control = SpikingNetwork(
        model, timesteps=SERVE_TIMESTEPS, engine=control_engine
    ).forward(drift_batch)
    check(
        np.array_equal(served_logits, np.asarray(control[0], dtype=np.float64)),
        "re-planned logits bit-identical to frozen-plan control",
    )

    print("planner smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
