"""Planner v2: predict-mode calibration, warm starts, mid-run re-plans,
per-layer shard plans.

The contracts under test:

* a plan-cache miss with a trustworthy cost model compiles the plan
  from predictions (no kernel races) and marks its provenance;
* a miss whose neighboring density bucket holds a plan warm-starts from
  it instead of racing cold;
* drift during a planned run swaps the remaining schedule at a layer
  boundary with **bit-identical** logits versus the un-swapped run;
* per-layer shard decisions execute through the shard supervisor, so an
  injected shard fault degrades and completes instead of failing the
  run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.snn import AutoEngine, SpikingNetwork
from repro.snn.engines import EngineWorker, ExecutionPlan, make_engine
from repro.snn.engines import auto as auto_module
from repro.snn.engines.auto import LayerDecision
from repro.snn.engines.costmodel import CostModel
from repro.snn.engines.sharding import run_layer_shards, split_bounds

from test_snn_engine import converted_pooled_toy, converted_toy


def ready_cost_model(
    gemm=(1e-6, 0.1), event=(2e-6, 0.2), coo=(5e-7, 0.05)
) -> CostModel:
    """A fitted model with known affine laws per backend."""
    model = CostModel()
    ops = np.linspace(1e4, 1e6, 8)
    for backend, (slope, intercept) in (
        ("gemm", gemm), ("event", event), ("event-batched", coo),
    ):
        for o in ops:
            model.observe(backend, float(o), slope * float(o) + intercept)
    assert model.plan_ready()
    return model


class TestPredictModeCalibration:
    def test_plan_miss_with_ready_model_skips_races(self):
        engine = AutoEngine(cost_model=ready_cost_model())
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(10).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        stats = net.last_run_stats
        assert stats.plan_source == "cost-model"
        plan = engine.plan_for((4, 2, 4, 4), 4)
        assert plan is not None
        assert plan.source == "cost-model"
        for decision in plan.decisions.values():
            assert decision.source == "cost-model"
            assert decision.predicted_ms > 0.0
        # No races ran, so the model gained no new samples.
        assert not engine._run_observations

    def test_predicted_plan_logits_match_raced_plan(self):
        x = np.random.default_rng(11).normal(size=(4, 2, 4, 4)).astype(np.float32)
        raced = SpikingNetwork(converted_toy(), timesteps=4, engine="auto")
        predicted = SpikingNetwork(
            converted_toy(),
            timesteps=4,
            engine=AutoEngine(cost_model=ready_cost_model()),
        )
        lr = raced.forward(x)
        lp = predicted.forward(x)
        assert np.allclose(lr, lp, atol=1e-4)

    def test_profile_records_carry_provenance(self):
        engine = AutoEngine(cost_model=ready_cost_model())
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(12).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        synapse_rows = [
            r for r in net.last_run_stats.profile_records()
            if r["kind"] in ("conv", "linear")
        ]
        assert synapse_rows
        for row in synapse_rows:
            assert row["source"] == "cost-model"
            assert row["predicted_ms"] > 0.0

    def test_profile_table_shows_plan_source(self):
        engine = AutoEngine(cost_model=ready_cost_model())
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(13).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        table = net.last_run_stats.profile_table()
        assert "plan source cost-model" in table
        assert "source" in table.splitlines()[0]


class TestWarmStart:
    def test_neighbor_bucket_seeds_calibration(self):
        # A huge drift threshold makes every seed admissible, so the
        # second calibration copies the neighbor's decisions wholesale.
        engine = AutoEngine(drift_threshold=50.0)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        rng = np.random.default_rng(20)
        dense_x = rng.normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(dense_x)  # cold calibration, densest bucket
        assert engine.warm_starts == 0
        first = engine.plan_for((4, 2, 4, 4), 4)
        # Same shape, ~40% input density: a different plan-key bucket.
        mask = rng.random(dense_x.shape) < 0.4
        sparse_x = (dense_x * mask).astype(np.float32)
        net.forward(sparse_x)
        assert engine.calibration_runs == 2
        assert engine.warm_starts == 1
        second = engine.plan_for((4, 2, 4, 4), 4)
        assert second is not first
        # Seeded decisions copy the neighbor's backend choice.
        for name, decision in second.decisions.items():
            assert decision.backend == first.decisions[name].backend

    def test_cold_start_without_neighbor_does_not_count(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(21).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert engine.warm_starts == 0


class TestMidRunReplan:
    def _calibrated_engine(self, drift_threshold=0.3, midrun=True):
        engine = AutoEngine(
            drift_threshold=drift_threshold,
            midrun_replan=midrun,
            cost_model=ready_cost_model(),
        )
        return engine

    def test_drift_replans_mid_run_and_keeps_plan(self):
        engine = self._calibrated_engine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        rng = np.random.default_rng(30)
        calm = rng.normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(calm)  # compiles the plan (predict mode)
        shifted = np.abs(rng.normal(size=(4, 2, 4, 4))).astype(np.float32) * 10.0
        net.forward(shifted)
        stats = net.last_run_stats
        assert stats.replan_triggered
        assert stats.plan_source == "re-planned"
        assert stats.replanned_at != ""
        assert stats.plan_drift > 0.3
        assert engine.replans_triggered == 1
        # Unlike the evict-next-run fallback, the plan survives — updated
        # in place, no cold recalibration queued.
        plan = engine.plan_for((4, 2, 4, 4), 4)
        assert plan is not None
        assert plan.source == "re-planned"
        assert engine.calibration_runs == 1
        net.forward(shifted)
        assert engine.calibration_runs == 1  # still no recalibration

    def test_replanned_logits_bit_identical_to_unswapped_run(self):
        rng = np.random.default_rng(31)
        calm = rng.normal(size=(4, 2, 4, 4)).astype(np.float32)
        shifted = np.abs(rng.normal(size=(4, 2, 4, 4))).astype(np.float32) * 10.0

        replanning = self._calibrated_engine(midrun=True)
        net_a = SpikingNetwork(converted_toy(), timesteps=4, engine=replanning)
        net_a.forward(calm)
        original = replanning.plan_for((4, 2, 4, 4), 4)
        frozen = ExecutionPlan.from_json(original.to_json())

        # The control engine executes the *same* original plan with the
        # mid-run guard disabled (its post-run fallback may evict, which
        # does not affect this run's logits).
        control = AutoEngine(drift_threshold=0.3, midrun_replan=False)
        net_b = SpikingNetwork(converted_toy(), timesteps=4, engine=control)
        control._plans.put(frozen.key, frozen)

        out_replanned = net_a.forward(shifted)
        assert net_a.last_run_stats.replan_triggered
        out_control = net_b.forward(shifted)
        assert not net_b.last_run_stats.replanned_at
        assert np.array_equal(out_replanned, out_control)

    def test_disabled_midrun_falls_back_to_evict(self):
        engine = self._calibrated_engine(midrun=False)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        rng = np.random.default_rng(32)
        net.forward(rng.normal(size=(4, 2, 4, 4)).astype(np.float32))
        shifted = np.abs(rng.normal(size=(4, 2, 4, 4))).astype(np.float32) * 10.0
        net.forward(shifted)
        stats = net.last_run_stats
        assert stats.replan_triggered
        assert stats.replanned_at == ""
        # Evicted: the next run recalibrates (predict mode, still a
        # calibration pass).
        assert engine.plan_for((4, 2, 4, 4), 4) is None

    def test_event_layers_never_swapped(self):
        # The per-plane gather is only summation-order equal to the
        # GEMM; a re-plan must leave such layers on their backend.
        decision = LayerDecision(
            name="fc", backend="event", density=0.1,
            gemm_seconds=1.0, dense_ops=10_000,
        )
        engine = self._calibrated_engine()
        repredicted = engine._repredict_decision(decision, scale=5.0)
        assert repredicted.backend == "event"
        assert repredicted.density == pytest.approx(0.5)

    def test_geometry_less_decisions_keep_backend(self):
        # Plans persisted before Planner v2 carry no dense_ops; they
        # cannot be priced, so a re-plan leaves them untouched.
        decision = LayerDecision(
            name="fc", backend="gemm", density=0.1, gemm_seconds=1.0,
        )
        engine = self._calibrated_engine()
        repredicted = engine._repredict_decision(decision, scale=3.0)
        assert repredicted.backend == "gemm"
        assert repredicted.source == "raced"


class TestSplitBounds:
    def test_partition_covers_range(self):
        bounds = split_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_near_equal_blocks(self):
        sizes = [hi - lo for lo, hi in split_bounds(11, 4)]
        assert sorted(sizes) == [2, 3, 3, 3]

    def test_more_shards_than_rows(self):
        bounds = split_bounds(2, 5)
        assert len(bounds) == 2
        assert bounds == [(0, 1), (1, 2)]

    def test_degenerate_inputs(self):
        assert split_bounds(0, 4) == []
        assert split_bounds(4, 0) == []


class TestLayerShardPlans:
    @pytest.fixture(autouse=True)
    def _shard_short_layers(self, monkeypatch):
        # The toy's layers are far shorter than the production row floor;
        # lower it so these plans really split their layers into shards.
        monkeypatch.setattr(auto_module, "LAYER_SHARD_MIN_ROWS", 1)

    def _planned_net(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_pooled_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(40).normal(size=(6, 2, 8, 8)).astype(np.float32)
        net.forward(x)  # calibrate
        return engine, net, x

    def _shard_last_gemm_layer(self, engine, workers=2):
        plan = engine.plan_for((6, 2, 8, 8), 4)
        name = list(plan.decisions)[-1]
        plan.decisions[name] = replace(
            plan.decisions[name],
            backend="gemm", shard_mode="thread", workers=workers,
        )
        return name

    def test_sharded_layer_output_bitwise_equal(self):
        engine, net, x = self._planned_net()
        plan = engine.plan_for((6, 2, 8, 8), 4)
        # Pin every layer to the in-line GEMM for the baseline run.
        for name in list(plan.decisions):
            plan.decisions[name] = replace(
                plan.decisions[name], backend="gemm", shard_mode="", workers=1
            )
        baseline = net.forward(x)
        self._shard_last_gemm_layer(engine)
        sharded = net.forward(x)
        assert np.array_equal(baseline, sharded)
        assert not net.last_run_stats.shard_failures

    def test_injected_shard_fault_degrades_and_completes(self, monkeypatch):
        engine, net, x = self._planned_net()
        plan = engine.plan_for((6, 2, 8, 8), 4)
        for name in list(plan.decisions):
            plan.decisions[name] = replace(
                plan.decisions[name], backend="gemm", shard_mode="", workers=1
            )
        baseline = net.forward(x)
        self._shard_last_gemm_layer(engine)

        boom = {"remaining": 1}

        def flaky_run_layer_shards(kernel, bounds, mode, policy=None, label=""):
            def wrapped(lo, hi):
                if boom["remaining"] > 0:
                    boom["remaining"] -= 1
                    raise RuntimeError("injected shard fault")
                return kernel(lo, hi)

            return run_layer_shards(
                wrapped, bounds, mode, policy=policy, label=label
            )

        monkeypatch.setattr(
            auto_module, "run_layer_shards", flaky_run_layer_shards
        )
        recovered = net.forward(x)
        stats = net.last_run_stats
        assert stats.shard_failures  # the fault was seen and absorbed
        assert np.array_equal(baseline, recovered)

    def test_shard_decision_round_trips_through_plan_file(self):
        engine, net, _ = self._planned_net()
        name = self._shard_last_gemm_layer(engine)
        plan = engine.plan_for((6, 2, 8, 8), 4)
        reloaded = ExecutionPlan.from_json(plan.to_json())
        assert reloaded.decisions[name].shard_mode == "thread"
        assert reloaded.decisions[name].workers == 2
        assert reloaded.sharded_layers == 1


class TestPlanPayloadCompat:
    def test_legacy_payload_defaults_new_fields(self):
        plan = ExecutionPlan(
            key=("dense", (2, 2, 4, 4), 4, 7),
            decisions={
                "0": LayerDecision(
                    name="0", backend="gemm", density=1.0, gemm_seconds=0.01
                )
            },
        )
        payload = plan.to_payload()
        for entry in payload["decisions"]:
            for field in ("source", "predicted_ms", "dense_ops",
                          "shard_mode", "workers"):
                entry.pop(field)
        loaded = ExecutionPlan.from_payload(payload)
        decision = loaded.decisions["0"]
        assert decision.source == "raced"
        assert decision.predicted_ms == 0.0
        assert decision.dense_ops == 0
        assert decision.shard_mode == ""
        assert decision.workers == 1


class TestPersistence:
    def test_cost_model_persists_beside_plan_file(self, tmp_path):
        plan_path = str(tmp_path / "plans.json")
        engine = AutoEngine(plan_path=plan_path)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(50).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert (tmp_path / "plans.json").exists()
        assert (tmp_path / "plans.cost.json").exists()
        # A fresh engine loads both the plans and the measurements.
        peer = AutoEngine(plan_path=plan_path)
        assert peer.plan_for((4, 2, 4, 4), 4) is not None
        assert len(peer.cost_model) == len(engine.cost_model) > 0


class TestPlannerSnapshot:
    def test_snapshot_shape(self):
        engine = AutoEngine(cost_model=ready_cost_model())
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(60).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        snapshot = engine.planner_snapshot()
        assert snapshot["calibration_runs"] == 1
        assert snapshot["replans_triggered"] == 0
        assert snapshot["cost_model"]["plan_ready"] is True
        (entry,) = snapshot["plans"]
        assert entry["source"] == "cost-model"
        assert entry["input_shape"] == [2, 2, 4, 4]
        assert entry["layers"] >= 1

    def test_worker_passthrough_and_fixed_engine_none(self):
        engine = AutoEngine()
        engine.bind(converted_toy())
        worker = EngineWorker(engine, probe_shape=(2, 4, 4))
        try:
            assert worker.planner_snapshot() is not None
        finally:
            worker.shutdown()
        fixed = make_engine("batched")
        fixed.bind(converted_toy())
        worker = EngineWorker(fixed, probe_shape=(2, 4, 4))
        try:
            assert worker.planner_snapshot() is None
        finally:
            worker.shutdown()
