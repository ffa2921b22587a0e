"""The analytic cost model: fit, predict, persist, degrade.

The model is the planner's memory — it must recover the affine
coefficients it was fed, refuse to predict before it has evidence, and
treat its persistence file as a cache (corrupt documents degrade to a
fresh model, mirroring the plan-file hardening)."""

import json

import numpy as np
import pytest

from repro.snn.engines.costmodel import (
    COST_MODEL_FORMAT,
    CostModel,
    cost_model_path_for,
    sparse_feature_ops,
)


def synthetic_samples(slope, intercept, count=8, start=1e4, rng=None):
    """(ops, ms) pairs on a known affine law, optionally noised."""
    ops = np.linspace(start, start * count, count)
    ms = slope * ops + intercept
    if rng is not None:
        ms = ms + rng.normal(scale=intercept * 0.01, size=count)
    return list(zip(ops.tolist(), ms.tolist()))


class TestFitPredict:
    def test_round_trip_recovers_affine_law(self):
        model = CostModel()
        for ops, ms in synthetic_samples(2e-6, 0.5):
            model.observe("gemm", ops, ms)
        assert model.ready("gemm")
        for ops in (3e4, 1e6):
            predicted = model.predict_ms("gemm", ops)
            assert predicted == pytest.approx(2e-6 * ops + 0.5, rel=1e-6)

    def test_not_ready_below_min_observations(self):
        model = CostModel(min_observations=6)
        for ops, ms in synthetic_samples(1e-6, 0.1, count=5):
            model.observe("gemm", ops, ms)
        assert not model.ready("gemm")
        assert model.predict_ms("gemm", 1e5) is None

    def test_not_ready_without_ops_spread(self):
        # Identical ops values confound slope and intercept: no fit.
        model = CostModel()
        for _ in range(10):
            model.observe("gemm", 1e5, 1.0)
        assert not model.ready("gemm")

    def test_plan_ready_needs_gemm_and_coo(self):
        model = CostModel()
        for ops, ms in synthetic_samples(2e-6, 0.5):
            model.observe("gemm", ops, ms)
        assert not model.plan_ready()  # COO challenger still unpriced
        for ops, ms in synthetic_samples(1e-6, 0.2):
            model.observe("event-batched", ops, ms)
        assert model.plan_ready()

    def test_coefficients_clamped_non_negative(self):
        # A decreasing ms-vs-ops trend would fit a negative slope;
        # time never decreases with work, so the fit clamps at zero.
        model = CostModel()
        for i in range(8):
            model.observe("gemm", 1e4 * (i + 1), 10.0 - i)
        assert model.ready("gemm")
        assert model.predict_ms("gemm", 0.0) >= 0.0
        assert model.predict_ms("gemm", 1e9) >= model.predict_ms("gemm", 0.0)

    def test_ignores_unknown_backends_and_bad_samples(self):
        model = CostModel()
        model.observe("stepped", 1e5, 1.0)  # neuron rows: not priced
        model.observe("gemm", float("nan"), 1.0)
        model.observe("gemm", 1e5, float("inf"))
        model.observe("gemm", -1.0, 1.0)
        assert len(model) == 0

    def test_observe_records_ingests_profile_rows(self):
        model = CostModel(min_observations=2)
        rows = [
            {"backend": "gemm", "synaptic_ops": 1e5, "wall_clock_ms": 1.0},
            {"backend": "gemm", "synaptic_ops": 2e5, "wall_clock_ms": 2.0},
            {"backend": "stepped", "synaptic_ops": 9e9, "wall_clock_ms": 5.0},
            {"backend": "gemm", "synaptic_ops": 0, "wall_clock_ms": 1.0},
        ]
        model.observe_records(rows)
        assert len(model) == 2
        assert model.ready("gemm")

    def test_residuals_report_fit_quality(self):
        model = CostModel()
        rng = np.random.default_rng(7)
        for ops, ms in synthetic_samples(2e-6, 0.5, rng=rng):
            model.observe("gemm", ops, ms)
        residuals = model.residuals()
        assert set(residuals) == {"gemm"}
        assert residuals["gemm"]["observations"] == 8
        assert residuals["gemm"]["mean_abs_pct"] < 5.0

    def test_observation_window_is_bounded(self):
        from repro.snn.engines.costmodel import MAX_OBSERVATIONS

        model = CostModel()
        for i in range(MAX_OBSERVATIONS + 50):
            model.observe("gemm", float(i + 1), float(i + 1))
        snapshot = model.snapshot()
        assert snapshot["observations"]["gemm"] == MAX_OBSERVATIONS


class TestSparseFeature:
    def test_scales_dense_ops_by_density(self):
        assert sparse_feature_ops(1e6, 0.1) == pytest.approx(1e5)

    def test_density_clamped_to_unit_interval(self):
        assert sparse_feature_ops(100.0, 1.5) == 100.0
        assert sparse_feature_ops(100.0, -0.5) == 0.0


class TestPersistence:
    def test_sibling_path_derivation(self):
        assert cost_model_path_for("plans.json") == "plans.cost.json"
        assert cost_model_path_for("/a/b/vgg.plans.json") == "/a/b/vgg.plans.cost.json"
        assert cost_model_path_for("plans") == "plans.cost.json"

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "model.cost.json")
        model = CostModel()
        for ops, ms in synthetic_samples(2e-6, 0.5):
            model.observe("gemm", ops, ms)
        model.save(path)
        loaded = CostModel.load(path)
        assert loaded.ready("gemm")
        assert loaded.predict_ms("gemm", 5e5) == pytest.approx(
            model.predict_ms("gemm", 5e5)
        )

    def test_missing_file_yields_fresh_model(self, tmp_path):
        model = CostModel.load(str(tmp_path / "absent.json"))
        assert len(model) == 0
        assert not model.plan_ready()

    def test_corrupt_file_degrades_with_one_warning(self, tmp_path, caplog):
        path = tmp_path / "garbage.json"
        path.write_text("{ not json at all")
        with caplog.at_level("WARNING"):
            model = CostModel.load(str(path))
        assert len(model) == 0
        assert any("cost-model" in r.message for r in caplog.records)

    def test_foreign_format_degrades(self, tmp_path, caplog):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"format": "something/else", "backends": {}}))
        with caplog.at_level("WARNING"):
            model = CostModel.load(str(path))
        assert len(model) == 0

    def test_truncated_payload_degrades(self, tmp_path, caplog):
        path = tmp_path / "half.json"
        path.write_text(json.dumps(
            {"format": COST_MODEL_FORMAT, "backends": {"gemm": [[1.0]]}}
        ))
        with caplog.at_level("WARNING"):
            model = CostModel.load(str(path))
        assert len(model) == 0

    def test_caller_min_observations_wins_over_payload(self, tmp_path):
        path = str(tmp_path / "m.json")
        model = CostModel(min_observations=2)
        for ops, ms in synthetic_samples(1e-6, 0.1, count=3):
            model.observe("gemm", ops, ms)
        model.save(path)
        strict = CostModel.load(path, min_observations=6)
        assert strict.min_observations == 6
        assert not strict.ready("gemm")

    @pytest.mark.parametrize("coo_samples", [8, 3])
    def test_gather_samples_ignored_on_load(self, tmp_path, coo_samples):
        # A model persisted while the planner still raced the per-plane
        # gather carries "event" samples; they are not on the menu.
        gemm = [[ops, ms] for ops, ms in synthetic_samples(1e-6, 0.1)]
        coo = [[ops, ms] for ops, ms in synthetic_samples(5e-7, 0.05, count=coo_samples)]
        event = [[ops, ms] for ops, ms in synthetic_samples(2e-6, 0.2)]
        path = tmp_path / "legacy.cost.json"
        without = {"format": COST_MODEL_FORMAT, "backends": {"gemm": gemm, "event-batched": coo}}
        path.write_text(json.dumps(without))
        expected = CostModel.load(str(path)).plan_ready()
        path.write_text(json.dumps(
            dict(without, backends=dict(without["backends"], event=event))
        ))
        model = CostModel.load(str(path))
        assert len(model) == len(gemm) + len(coo)
        assert "event" not in model.snapshot()["observations"]
        assert model.plan_ready() is expected is (coo_samples >= 6)
