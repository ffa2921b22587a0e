"""Planner v2: predict-mode calibration, warm starts, mid-run re-plans,
one bitwise kernel menu.

The contracts under test:

* a plan-cache miss with a trustworthy cost model compiles the plan
  from predictions (no kernel races) and marks its provenance;
* a miss whose neighboring density bucket holds a plan warm-starts from
  it instead of racing cold;
* drift during a planned run swaps the remaining schedule at a layer
  boundary with **bit-identical** logits versus the un-swapped run;
* every plan — raced, predicted or re-planned — uses only the GEMM and
  COO kernels, and its logits are bitwise equal to the batched engine.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.data.events import SyntheticDVS
from repro.snn import AutoEngine, SpikingNetwork, convert_to_snn
from repro.snn.engines import EngineWorker, ExecutionPlan, make_engine
from repro.snn.engines import auto as auto_module
from repro.snn.engines.auto import BITWISE_BACKENDS, PLAN_FILE_FORMAT, LayerDecision
from repro.snn.engines.costmodel import CostModel
from repro.snn.engines.sharding import split_bounds
from repro.tensor import Tensor, no_grad

from test_snn_coo_handoffs import converted_coo_cnn, sparse_stream
from test_snn_engine import converted_pooled_toy, converted_resnet, converted_toy


def ready_cost_model(gemm=(1e-6, 0.1), coo=(5e-7, 0.05)) -> CostModel:
    """A fitted model with known affine laws per backend."""
    model = CostModel()
    ops = np.linspace(1e4, 1e6, 8)
    for backend, (slope, intercept) in (("gemm", gemm), ("event-batched", coo)):
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
            for field in ("source", "predicted_ms", "dense_ops"):
                entry.pop(field)
        loaded = ExecutionPlan.from_payload(payload)
        decision = loaded.decisions["0"]
        assert decision.source == "raced"
        assert decision.predicted_ms == 0.0
        assert decision.dense_ops == 0
        assert decision.workers == 1

    def _calibrated_payload(self, x):
        engine = AutoEngine()
        SpikingNetwork(converted_pooled_toy(), timesteps=4, engine=engine).forward(x)
        return engine.plan_for(x.shape, 4).to_payload()

    def test_legacy_shard_decision_runs_inline_bitwise(self, tmp_path):
        x = np.random.default_rng(41).normal(size=(6, 2, 8, 8)).astype(np.float32)
        payload = self._calibrated_payload(x)
        for entry in payload["decisions"]:
            # As persisted when the planner still raced row shards.
            entry.update(event_seconds=None, shard_mode="", workers=1)
        gemm = next(e for e in payload["decisions"] if e["backend"] == "gemm")
        gemm.update(shard_mode="thread", workers=2)
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"format": PLAN_FILE_FORMAT, "plans": [payload]}))
        engine = AutoEngine(plan_path=str(path))
        assert engine.plan_for(x.shape, 4).decisions[gemm["name"]].workers == 1
        model = converted_pooled_toy()
        logits = SpikingNetwork(model, timesteps=4, engine=engine).forward(x)
        assert engine.calibration_runs == 0
        reference = SpikingNetwork(model, timesteps=4, engine="batched").forward(x)
        assert np.array_equal(logits, reference)

    def test_gather_decision_rejected_and_recalibrated(self, tmp_path, caplog):
        x = np.random.default_rng(42).normal(size=(6, 2, 8, 8)).astype(np.float32)
        payload = self._calibrated_payload(x)
        payload["decisions"][-1]["backend"] = "event"
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"format": PLAN_FILE_FORMAT, "plans": [payload]}))
        with caplog.at_level("WARNING", logger=auto_module.__name__):
            engine = AutoEngine(plan_path=str(path))
        assert len([r for r in caplog.records if r.levelname == "WARNING"]) == 1
        assert engine.load_plans() == 0
        with pytest.raises(ValueError, match="event"):
            ExecutionPlan.from_payload(payload)
        net = SpikingNetwork(converted_pooled_toy(), timesteps=4, engine=engine)
        net.forward(x)
        net.forward(x)
        assert engine.calibration_runs == 1


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
        plan = engine.plan_for((2, 2, 4, 4), 4)
        assert entry["coo_layers"] == sum(
            d.backend == "event-batched" for d in plan.decisions.values()
        )
        assert "event_layers" not in entry and "sharded_layers" not in entry

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


def converted_dvs_toy():
    """A two-conv CNN on 16x16 two-polarity event frames."""
    rng = np.random.default_rng(70)
    model = nn.Sequential(
        nn.Conv2d(2, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.QuantReLU(levels=2, init_step=1.0),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 8, 3, padding=1, rng=rng),
        nn.QuantReLU(levels=2, init_step=1.0),
        nn.AvgPool2d(2),
        nn.Flatten(),
        nn.Linear(8 * 4 * 4, 4, rng=rng),
    )
    model.train()
    with no_grad():
        for _ in range(4):
            model(Tensor((rng.random((8, 2, 16, 16)) < 0.05).astype(np.float32)))
    model.eval()
    return convert_to_snn(model)


def dvs_stream():
    events = SyntheticDVS(num_train=0, num_test=4, height=16, width=16,
                          timesteps=4, noise_rate=0.01, seed=7)
    return events.spike_stream("test")[0]


MENU_MODELS = {
    "vgg": (converted_pooled_toy,
            lambda: np.random.default_rng(80).normal(size=(4, 2, 8, 8)).astype(np.float32)),
    "resnet": (converted_resnet,
               lambda: np.random.default_rng(81).normal(size=(2, 3, 32, 32)).astype(np.float32)),
    "dvs": (converted_dvs_toy, dvs_stream),
}


class TestBitwiseMenu:
    """Every auto plan, however it was made, stays on the GEMM/COO pair
    and computes the batched engine's logits bit for bit."""

    def test_calibration_observes_only_the_menu(self):
        engine = AutoEngine().bind(converted_pooled_toy())
        samples = []
        observe_many = engine.cost_model.observe_many

        def recording(observations):
            observations = list(observations)
            samples.extend(observations)
            observe_many(observations)

        engine.cost_model.observe_many = recording
        x = np.random.default_rng(82).normal(size=(4, 2, 8, 8)).astype(np.float32)
        engine.run(x, 4)
        assert samples
        assert {backend for backend, _, _ in samples} == set(BITWISE_BACKENDS)
        assert len(engine.cost_model) == len(samples)

    @pytest.mark.parametrize("source", ["raced", "cost-model", "re-planned"])
    @pytest.mark.parametrize("family", sorted(MENU_MODELS))
    def test_plan_is_bitwise_batched(self, family, source):
        build, make_input = MENU_MODELS[family]
        model, x = build(), make_input()
        timesteps = 4
        reference = SpikingNetwork(model, timesteps=timesteps, engine="batched").forward(x)
        engine = AutoEngine(cost_model=None if source == "raced" else ready_cost_model())
        net = SpikingNetwork(model, timesteps=timesteps, engine=engine)
        outputs = [net.forward(x)]  # calibration run
        key = AutoEngine._plan_key(x, timesteps)
        plan = engine._plans.get(key)
        assert plan.source == ("raced" if source == "raced" else "cost-model")
        if source == "re-planned":
            # Claim every layer was calibrated fully dense: the sparse
            # layers' observed densities then drift past the threshold.
            for name, decision in list(plan.decisions.items()):
                plan.decisions[name] = replace(decision, density=1.0)
        outputs.append(net.forward(x))  # planned (or re-planned) run
        plan = engine._plans.get(key)
        assert plan.source == source
        assert net.last_run_stats.plan_source == source
        for decision in plan.decisions.values():
            assert decision.backend in BITWISE_BACKENDS
        outputs.append(net.forward(x))  # the settled plan
        for out in outputs:
            assert np.array_equal(out, reference)


class TestRaceOnCarriedCoordinates:
    def test_downstream_race_reads_carried_coordinates(self, monkeypatch):
        """A calibration call hands on what the planned run will: once
        conv ``0`` is decided COO, its output carries coordinates through
        BN, neuron and pool, so conv ``4`` races on them instead of
        paying a plane scan the planned run never pays."""
        model = converted_coo_cnn(nn.MaxPool2d(2), seed=1)
        stream = sparse_stream((4, 2, 24, 24), 4, 0.004, seed=1)
        names = {id(m): name for name, m in model.named_modules()}
        raced = {}
        coo_synapse = AutoEngine._coo_synapse

        def spy(self, module, data, step, weight, bias, register=True):
            if not register:
                carried = self._carried_coords(data) is step
                raced.setdefault(names[id(module)], set()).add(carried)
            return coo_synapse(self, module, data, step, weight, bias, register)

        monkeypatch.setattr(AutoEngine, "_coo_synapse", spy)
        # Every raced COO kernel wins, whatever the timings say.
        monkeypatch.setattr(
            AutoEngine,
            "_coo_won",
            lambda self, capture: capture.coo_seconds is not None,
        )
        reference = SpikingNetwork(model, timesteps=4, engine="batched").forward(stream)
        engine = AutoEngine()
        logits = SpikingNetwork(model, timesteps=4, engine=engine).forward(stream)
        assert engine.calibration_runs == 1
        assert raced["0"] == {True} and raced["4"] == {True}
        assert np.array_equal(logits, reference)
