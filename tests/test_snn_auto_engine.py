"""Adaptive (auto) engine tests: calibration, plan caching, equivalence.

The auto engine runs the time-batched GEMM schedule while profiling a
calibration pass, then compiles a per-layer GEMM/COO plan cached by
(input shape, T).  Logits must match the dense reference within float
summation-order tolerance on every model family, calibration must not
repeat for a cached key, and the per-layer profile (wall clock,
density, chosen backend) must be populated for downstream consumers
(``profile_table`` / BENCH_engines.json).
"""

import numpy as np
import pytest

from repro.snn import AutoEngine, SpikingNetwork, make_engine
from repro.snn.engines import ExecutionPlan
from repro.snn.engines.auto import BITWISE_BACKENDS

from test_snn_engine import (
    converted_pooled_toy,
    converted_resnet,
    converted_toy,
    force_lanes,
)


def _dense_vs_auto(model_factory, x, timesteps, atol):
    dense = SpikingNetwork(model_factory(), timesteps=timesteps, engine="dense")
    auto = SpikingNetwork(model_factory(), timesteps=timesteps, engine="auto")
    ld = dense.forward(x)
    la_calibration = auto.forward(x)   # first run calibrates
    la_planned = auto.forward(x)       # second run executes the plan
    for la in (la_calibration, la_planned):
        assert np.allclose(ld, la, atol=atol)
        assert np.array_equal(ld.argmax(1), la.argmax(1))
    return dense, auto


class TestMakeAutoEngine:
    def test_names(self):
        assert isinstance(make_engine("auto"), AutoEngine)
        assert isinstance(make_engine("adaptive"), AutoEngine)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AutoEngine(density_threshold=0.0)
        with pytest.raises(ValueError):
            AutoEngine(margin=0.0)

    def test_profiling_cannot_be_disabled(self):
        # Calibration is the profile; the flag is forced on.
        assert AutoEngine(profile_layers=False).profile_layers is True


class TestEquivalence:
    """Auto logits match dense on every model family, both on the
    calibration run and on the planned runs that may reroute sparse
    layers through the COO kernel."""

    def test_if_toy(self):
        x = np.random.default_rng(50).normal(size=(6, 2, 4, 4)).astype(np.float32)
        _dense_vs_auto(lambda: converted_toy(), x, timesteps=6, atol=1e-4)

    def test_lif_toy(self):
        x = np.random.default_rng(51).normal(size=(5, 2, 4, 4)).astype(np.float32)
        _dense_vs_auto(
            lambda: converted_toy(neuron="lif"), x, timesteps=5, atol=1e-4
        )

    def test_pooled_chain(self):
        x = np.random.default_rng(52).normal(size=(4, 2, 8, 8)).astype(np.float32)
        _dense_vs_auto(lambda: converted_pooled_toy(), x, timesteps=4, atol=1e-4)

    def test_resnet_residual_graph(self):
        model = converted_resnet()
        x = np.random.default_rng(53).normal(size=(4, 3, 32, 32)).astype(np.float32)
        dense = SpikingNetwork(model, timesteps=4, engine="dense")
        ld = dense.forward(x)
        auto = SpikingNetwork(model, timesteps=4, engine="auto")
        for _ in range(2):  # calibration run, then planned run
            la = auto.forward(x)
            assert np.allclose(ld, la, atol=1e-3)
            assert np.array_equal(ld.argmax(1), la.argmax(1))
        assert auto.last_run_stats.spike_rates() == pytest.approx(
            dense.last_run_stats.spike_rates(), abs=1e-3
        )

    def test_per_step_matches_dense(self):
        x = np.random.default_rng(54).normal(size=(4, 2, 4, 4)).astype(np.float32)
        dense = SpikingNetwork(converted_toy(), timesteps=4, engine="dense")
        auto = SpikingNetwork(converted_toy(), timesteps=4, engine="auto")
        auto.forward_per_step(x, 5)  # calibrate the (shape, T=5) key
        steps_d = dense.forward_per_step(x, 5)
        steps_a = auto.forward_per_step(x, 5)
        assert len(steps_a) == 5
        for a, b in zip(steps_d, steps_a):
            assert np.allclose(a, b, atol=1e-4)


class TestPlanCache:
    def test_calibration_runs_once_per_key(self):
        model = converted_toy()
        engine = AutoEngine()
        net = SpikingNetwork(model, timesteps=4, engine=engine)
        x = np.random.default_rng(60).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert engine.calibration_runs == 1
        net.forward(x)
        net.forward(x)  # same full input shape and T: same plan key
        assert engine.calibration_runs == 1

    def test_new_key_recalibrates(self):
        model = converted_toy()
        engine = AutoEngine()
        net = SpikingNetwork(model, timesteps=4, engine=engine)
        x = np.random.default_rng(61).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        net.forward(x, timesteps=7)  # different T: a different plan
        # A different batch size moves the (T*N, ...) GEMM/gather
        # crossover, so it calibrates its own plan too.
        net.forward(x[:2])
        assert engine.calibration_runs == 3
        assert engine.plan_for(x.shape, 4) is not None
        assert engine.plan_for(x.shape, 7) is not None
        assert engine.plan_for(x[:2].shape, 4) is not None

    def test_plan_contents(self):
        model = converted_toy()
        engine = AutoEngine()
        net = SpikingNetwork(model, timesteps=4, engine=engine)
        x = np.random.default_rng(62).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        plan = engine.plan_for(x.shape, 4)
        assert isinstance(plan, ExecutionPlan)
        assert set(plan.decisions) == {"0", "4"}  # the conv and the linear
        for decision in plan.decisions.values():
            assert decision.backend in BITWISE_BACKENDS
            assert 0.0 <= decision.density <= 1.0
            assert decision.gemm_seconds > 0.0
        # The frame conv sees the dense constant input: never event.
        assert plan.decisions["0"].backend == "gemm"

    def test_stats_record_chosen_backends(self):
        model = converted_pooled_toy()
        net = SpikingNetwork(model, timesteps=4, engine="auto")
        x = np.random.default_rng(63).normal(size=(4, 2, 8, 8)).astype(np.float32)
        net.forward(x)
        net.forward(x)
        stats = net.last_run_stats
        assert stats.engine == "auto"
        for layer in stats.layers:
            if layer.kind == "neuron":
                assert layer.backend == "stepped"
            else:
                assert layer.backend in BITWISE_BACKENDS
        table = stats.profile_table()
        assert "backend" in table
        assert "gemm" in table


class TestProfile:
    def test_layer_wall_clock_and_density_populated(self):
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="auto")
        x = np.random.default_rng(70).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        stats = net.last_run_stats
        assert sum(l.wall_clock_seconds for l in stats.layers) > 0.0
        for layer in stats.layers:
            assert layer.wall_clock_seconds >= 0.0
            assert 0.0 <= layer.density <= 1.0
        # The first conv reads the dense analog frame.
        assert stats.layers[0].input_density > 0.9

    def test_profile_records_shape(self):
        net = SpikingNetwork(converted_toy(), timesteps=3, engine="auto")
        x = np.random.default_rng(71).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        records = net.last_run_stats.profile_records()
        assert [r["name"] for r in records] == ["0", "2", "4"]
        for row in records:
            assert set(row) == {
                "name", "kind", "backend", "source", "wall_clock_ms",
                "predicted_ms", "density", "synaptic_ops",
            }
            if row["kind"] in ("conv", "linear"):
                assert row["source"] in ("raced", "cost-model", "re-planned")

    def test_batched_engine_profile_can_be_disabled(self):
        from repro.snn import TimeBatchedEngine

        net = SpikingNetwork(
            converted_toy(), timesteps=3, engine=TimeBatchedEngine(profile_layers=False)
        )
        x = np.random.default_rng(72).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        stats = net.last_run_stats
        assert all(l.wall_clock_seconds == 0.0 for l in stats.layers)
        assert all(l.input_size == 0 for l in stats.layers)
        # Op and spike accounting is unaffected by the profiler switch.
        assert stats.total_synaptic_ops > 0
        assert stats.spike_rates()


class TestDriftGuard:
    """The plan's calibration densities are compared against every
    planned run's observed densities; drifting past the threshold drops
    the plan (one log line + RunStats flag) so the next run
    recalibrates — the ROADMAP's distribution-shift follow-up."""

    def _net(self, **kwargs):
        engine = AutoEngine(**kwargs)
        return engine, SpikingNetwork(converted_toy(), timesteps=4, engine=engine)

    def test_stable_input_keeps_plan(self):
        engine, net = self._net(drift_threshold=0.5)
        x = np.random.default_rng(90).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        net.forward(x)
        stats = net.last_run_stats
        assert stats.replan_triggered is False
        assert stats.plan_drift < 0.5
        assert engine.replans_triggered == 0
        assert engine.plan_for(x.shape, 4) is not None

    def test_distribution_shift_triggers_replan(self, caplog):
        import logging

        engine, net = self._net(drift_threshold=0.3)
        rng = np.random.default_rng(91)
        x = rng.normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)  # calibrate
        shifted = np.abs(rng.normal(size=(4, 2, 4, 4))).astype(np.float32) * 10
        with caplog.at_level(logging.INFO, logger="repro.snn.engines.auto"):
            net.forward(shifted)  # planned run on drifted densities
        stats = net.last_run_stats
        assert stats.replan_triggered is True
        assert stats.plan_drift > 0.3
        assert engine.replans_triggered == 1
        assert engine.plan_for(x.shape, 4) is None  # plan dropped
        assert any("recalibrates" in r.message for r in caplog.records)
        net.forward(shifted)  # next run recalibrates on the new regime
        assert engine.calibration_runs == 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            AutoEngine(drift_threshold=0.0)

    def test_tiny_absolute_deviation_never_triggers(self):
        """Near-silent layers vary hugely in *relative* terms between
        batches; the guard must ignore them or it oscillates
        calibrate/drop on every run."""
        from repro.snn.engines import LayerDecision
        from repro.snn.stats import LayerStats, RunStats

        engine = AutoEngine(drift_threshold=0.5)
        plan = ExecutionPlan(key=("dense", (1, 2, 4, 4), 4))
        plan.decisions["l"] = LayerDecision(
            name="l", backend="gemm", density=1e-6, gemm_seconds=1.0
        )
        stats = RunStats(
            batch_size=1,
            timesteps=4,
            layers=[
                LayerStats(name="l", kind="conv", input_nonzero=1, input_size=10_000)
            ],
        )
        # Observed 1e-4 vs calibrated 1e-6: relative drift ~99x but the
        # absolute deviation is far below any kernel crossover.
        assert engine._check_drift(plan.key, plan, stats) is False
        assert stats.replan_triggered is False

    def test_laned_drift_evicts_plan_and_plan_file(self, tmp_path, monkeypatch):
        """A call whose blocks ran in lanes is judged for drift once, on
        the parent engine — the lane siblings carry no plan_path — so
        the drifted plan must leave both the cache and the plan file,
        or 'next run recalibrates' silently never happens."""
        force_lanes(monkeypatch, 2)
        path = str(tmp_path / "plans.json")
        engine = AutoEngine(drift_threshold=0.3, plan_path=path, midrun_replan=False)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        rng = np.random.default_rng(96)
        x = rng.normal(size=(6, 2, 4, 4)).astype(np.float32)
        net.forward(x)  # calibrates the (2, 2, 4, 4) block key serially
        assert engine.plan_for(x.shape, 4) is not None
        shifted = np.abs(rng.normal(size=(6, 2, 4, 4))).astype(np.float32) * 10
        net.forward(shifted)  # drifted planned blocks, in lanes
        assert net.last_run_stats.lanes == 2
        assert net.last_run_stats.replan_triggered
        assert engine.plan_for(x.shape, 4) is None
        # The persisted file lost the plan as well: a fresh process
        # must recalibrate rather than reload the drifted plan.
        reloaded = AutoEngine(plan_path=path)
        assert reloaded.plan_for(x.shape, 4) is None


class TestPlanPersistence:
    """ExecutionPlan JSON round-trips and AutoEngine(plan_path=...)
    persists compiled plans beside model checkpoints."""

    def test_plan_json_round_trip(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(92).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        plan = engine.plan_for(x.shape, 4)
        back = ExecutionPlan.from_json(plan.to_json())
        assert back.key == plan.key
        assert set(back.decisions) == set(plan.decisions)
        for name, decision in plan.decisions.items():
            restored = back.decisions[name]
            assert restored.backend == decision.backend
            assert restored.density == pytest.approx(decision.density)
            assert restored.gemm_seconds == pytest.approx(decision.gemm_seconds)

    def test_from_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            ExecutionPlan.from_json('{"format": "something-else"}')

    def test_plan_path_round_trip_across_engines(self, tmp_path):
        path = str(tmp_path / "plans.json")
        first = AutoEngine(plan_path=path)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=first)
        x = np.random.default_rng(93).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert first.calibration_runs == 1

        # A fresh process (modelled by a fresh engine) loads the plan
        # and skips calibration entirely.
        second = AutoEngine(plan_path=path)
        assert second.plan_for(x.shape, 4) is not None
        net2 = SpikingNetwork(converted_toy(), timesteps=4, engine=second)
        net2.forward(x)
        assert second.calibration_runs == 0

    def test_missing_plan_file_is_fine(self, tmp_path):
        engine = AutoEngine(plan_path=str(tmp_path / "absent.json"))
        assert len(engine._plans) == 0

    def test_save_requires_a_path(self):
        with pytest.raises(ValueError):
            AutoEngine().save_plans()

    def test_corrupt_plan_file_falls_back_to_recalibration(self, tmp_path, caplog):
        path = str(tmp_path / "plans.json")
        with open(path, "w") as handle:
            handle.write('{"format": "repro-execution-plans/v1", "plans": [{"tru')
        with caplog.at_level("WARNING", logger="repro.snn.engines.auto"):
            engine = AutoEngine(plan_path=path)
        assert len(engine._plans) == 0
        assert any("unreadable plan file" in r.getMessage() for r in caplog.records)
        # The engine still works: it calibrates and atomically rewrites
        # the bad file with a valid document.
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(94).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert engine.calibration_runs == 1
        import json as _json
        rewritten = _json.loads(open(path).read())
        assert rewritten["format"] == "repro-execution-plans/v1"
        assert rewritten["plans"]

    def test_schema_mismatched_plan_file_is_ignored(self, tmp_path, caplog):
        path = str(tmp_path / "plans.json")
        with open(path, "w") as handle:
            handle.write('{"format": "repro-execution-plans/v99", "plans": []}')
        with caplog.at_level("WARNING", logger="repro.snn.engines.auto"):
            engine = AutoEngine(plan_path=path)
        assert len(engine._plans) == 0
        assert any("does not match" in r.getMessage() for r in caplog.records)

    def test_malformed_plan_entries_are_ignored(self, tmp_path, caplog):
        path = str(tmp_path / "plans.json")
        with open(path, "w") as handle:
            handle.write(
                '{"format": "repro-execution-plans/v1", "plans": [{"bogus": 1}]}'
            )
        with caplog.at_level("WARNING", logger="repro.snn.engines.auto"):
            engine = AutoEngine(plan_path=path)
        assert len(engine._plans) == 0
        assert any("malformed plan entries" in r.getMessage() for r in caplog.records)

    def test_explicit_load_of_missing_file_still_raises(self, tmp_path):
        engine = AutoEngine()
        with pytest.raises(FileNotFoundError):
            engine.load_plans(str(tmp_path / "absent.json"))


class TestDensityBucketPlanKeys:
    """Plan keys carry a coarse input-density bucket: a plan calibrated
    on mid-density frames must not be silently reused for a very sparse
    stream of the same shape — the kernel crossover moves with density,
    and before bucketing the reuse both mis-picked backends and fought
    the drift guard (every alternation looked like distribution shift)."""

    @staticmethod
    def _stream(shape, timesteps, p, seed):
        from repro.snn.spikes import SpikeStream

        rng = np.random.default_rng(seed)
        dense = (rng.random((timesteps,) + shape) < p).astype(np.float32)
        return SpikeStream.from_dense(dense, binary=True)

    def test_bucket_function_edges(self):
        from repro.snn.engines import DENSITY_BUCKET_EDGES, density_bucket

        assert density_bucket(0.0) == 0
        assert density_bucket(1.0) == len(DENSITY_BUCKET_EDGES)
        previous = -1
        for edge in DENSITY_BUCKET_EDGES:
            below, at = density_bucket(edge * 0.99), density_bucket(edge)
            assert below == at  # the edge closes its bucket...
            assert density_bucket(edge * 1.01) == at + 1  # ...not the next
            assert at > previous
            previous = at

    def test_same_shape_different_density_get_separate_plans(self):
        from repro.snn.engines import density_bucket

        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        shape = (4, 2, 4, 4)
        sparse = self._stream(shape, 4, p=0.02, seed=70)
        dense_stream = self._stream(shape, 4, p=0.9, seed=71)
        assert density_bucket(sparse.density) != density_bucket(
            dense_stream.density
        )
        net.forward(sparse)
        net.forward(dense_stream)
        # Same (kind, shape, T) prefix, different buckets: two plans.
        assert engine.calibration_runs == 2
        for stream in (sparse, dense_stream):
            plan = engine.plan_for(
                shape, 4, kind="stream",
                density_bucket=density_bucket(stream.density),
            )
            assert plan is not None

    def test_bucketed_plans_do_not_fight_drift_guard(self):
        """Alternating sparse/dense inputs of one shape settle into two
        stable plans — no drift replans, no recalibration churn.  (The
        pre-bucket failure mode: run 2 reuses run 1's plan, the drift
        guard sees ~100% density deviation, drops the plan, and every
        alternation recalibrates forever.)"""
        engine = AutoEngine(drift_threshold=0.3)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        shape = (4, 2, 4, 4)
        sparse = self._stream(shape, 4, p=0.02, seed=72)
        dense_stream = self._stream(shape, 4, p=0.9, seed=73)
        for _ in range(2):
            net.forward(sparse)
            net.forward(dense_stream)
        assert engine.calibration_runs == 2
        assert engine.replans_triggered == 0
        assert net.last_run_stats.replan_triggered is False

    def test_calibration_races_coo_backend(self):
        """Calibration on a sparse stream times the COO row-subset path
        alongside gemm/event, recording coo_seconds in the decision."""
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        stream = self._stream((4, 2, 4, 4), 4, p=0.02, seed=74)
        net.forward(stream)
        plan = engine.plan_for((4, 2, 4, 4), 4, kind="stream")
        raced = [
            d for d in plan.decisions.values() if d.coo_seconds is not None
        ]
        assert raced, "no synapse decision raced the COO backend"


class TestStreamPlanKeys:
    def test_stream_and_dense_inputs_calibrate_separate_plans(self):
        from repro.data import rate_encode_stream

        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(94).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        stream = rate_encode_stream(x, 4, rng=np.random.default_rng(95))
        net.forward(stream)
        # Same plane shape and T, but frame and event inputs present
        # very different densities: two separate plans.
        assert engine.calibration_runs == 2
        assert engine.plan_for(x.shape, 4, kind="dense") is not None
        assert engine.plan_for(x.shape, 4, kind="stream") is not None


class TestServingDensityPrior:
    """Serving-observed densities feed an EWMA prior per input kind;
    a cold plan key with no same-shape neighbour warm-starts from the
    cached plan nearest that prior (cross-shape seed), so the first
    batch of a never-seen batch size benefits from production traffic."""

    def test_ewma_update_clamps_and_snapshots(self):
        engine = AutoEngine()
        engine.observe_density_prior("dense", 0.5)
        engine.observe_density_prior("dense", 1.5)  # clamps to 1.0
        snap = engine.planner_snapshot()
        assert snap["density_priors"]["dense"] == pytest.approx(0.6)
        assert snap["prior_warm_starts"] == 0

    def test_unseen_batch_size_warm_starts_from_prior(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        rng = np.random.default_rng(80)
        x1 = rng.normal(size=(6, 2, 4, 4)).astype(np.float32)
        net.forward(x1)
        assert engine.calibration_runs == 1
        engine.observe_density_prior(
            "dense", float(np.count_nonzero(x1)) / x1.size
        )
        # A batch size this engine has never planned: no same-shape
        # neighbour exists, so the serving prior supplies the seed.
        x2 = rng.normal(size=(3, 2, 4, 4)).astype(np.float32)
        net.forward(x2)
        assert engine.calibration_runs == 2  # still calibrates...
        assert engine.prior_warm_starts == 1  # ...seeded by the prior
        assert engine.planner_snapshot()["prior_warm_starts"] == 1

    def test_cold_key_without_prior_does_not_warm_start(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        rng = np.random.default_rng(81)
        net.forward(rng.normal(size=(6, 2, 4, 4)).astype(np.float32))
        net.forward(rng.normal(size=(3, 2, 4, 4)).astype(np.float32))
        assert engine.prior_warm_starts == 0  # no serving traffic seen

    def test_same_shape_neighbor_wins_over_prior(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        shape = (4, 2, 4, 4)
        sparse = TestDensityBucketPlanKeys._stream(shape, 4, p=0.02, seed=82)
        dense_stream = TestDensityBucketPlanKeys._stream(shape, 4, p=0.9, seed=83)
        net.forward(sparse)
        engine.observe_density_prior("stream", sparse.density)
        net.forward(dense_stream)
        # Same shape, different bucket: the neighbour seed applies and
        # the cross-shape prior path is never consulted.
        assert engine.calibration_runs == 2
        assert engine.prior_warm_starts == 0

    def test_engine_worker_feeds_serving_densities(self):
        from repro.snn.engines import EngineWorker

        engine = make_engine("auto").bind(converted_toy())
        worker = EngineWorker(engine, probe_shape=(2, 4, 4))
        try:
            x = np.random.default_rng(84).normal(size=(2, 2, 4, 4))
            worker.submit(x.astype(np.float32), 2).result(timeout=60)
            priors = engine.planner_snapshot()["density_priors"]
            assert "dense" in priors and 0.0 < priors["dense"] <= 1.0
        finally:
            worker.shutdown()
