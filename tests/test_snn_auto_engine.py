"""The ``auto`` engine name: the event-batched engine's density rule.

``auto`` picks each synapse layer's kernel (GEMM or the COO row-subset
path) from the spikes that layer receives, on every call.  Logits must
match the dense reference within float summation-order tolerance on
every model family, and the per-layer profile (wall clock, density,
chosen backend and the gate that chose it) must be populated for
downstream consumers (``profile_table`` / BENCH_engines.json).
"""

import numpy as np
import pytest

from repro.snn import EventBatchedEngine, SpikingNetwork, make_engine

from test_snn_engine import converted_pooled_toy, converted_resnet, converted_toy


def _dense_vs_auto(model_factory, x, timesteps, atol):
    dense = SpikingNetwork(model_factory(), timesteps=timesteps, engine="dense")
    auto = SpikingNetwork(model_factory(), timesteps=timesteps, engine="auto")
    ld = dense.forward(x)
    la_first = auto.forward(x)
    la_again = auto.forward(x)         # warm caches, same bits
    for la in (la_first, la_again):
        assert np.allclose(ld, la, atol=atol)
        assert np.array_equal(ld.argmax(1), la.argmax(1))
    return dense, auto


class TestMakeAutoEngine:
    def test_names(self):
        assert isinstance(make_engine("auto"), EventBatchedEngine)
        assert isinstance(make_engine("adaptive"), EventBatchedEngine)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EventBatchedEngine(density_threshold=0.0)


class TestEquivalence:
    """Auto logits match dense on every model family, on first and
    repeated calls, wherever the rule routes sparse layers through the
    COO kernel."""

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
        for _ in range(2):  # a cold call, then a warm one
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
        steps_d = dense.forward_per_step(x, 5)
        steps_a = auto.forward_per_step(x, 5)
        assert len(steps_a) == 5
        for a, b in zip(steps_d, steps_a):
            assert np.allclose(a, b, atol=1e-4)


class TestRule:
    def test_perfbench_reads_an_empty_planner(self):
        # The repository benchmark reads these on every engine run.
        engine = make_engine("auto").bind(converted_toy())
        x = np.random.default_rng(60).normal(size=(4, 2, 4, 4)).astype(np.float32)
        engine.run(x, 4)
        assert (engine.calibration_runs, engine.replans_triggered) == (0, 0)
        assert engine.plan_for(x.shape, 4) is None

    def test_stats_record_chosen_backends(self):
        model = converted_pooled_toy()
        net = SpikingNetwork(model, timesteps=4, engine="auto")
        x = np.random.default_rng(63).normal(size=(4, 2, 8, 8)).astype(np.float32)
        net.forward(x)
        net.forward(x)
        stats = net.last_run_stats
        assert stats.engine == "event-batched"
        first, middle, head = [l for l in stats.layers if l.kind != "neuron"]
        # The frame conv reads the tiled constant input; the linear
        # always runs the GEMM.
        assert (first.backend, first.backend_source) == ("gemm", "constant")
        assert (head.backend, head.backend_source) == ("gemm", "linear")
        assert middle.backend_source in ("density", "pregate", "rows")
        assert middle.backend in ("gemm", "event-batched")
        table = stats.profile_table()
        assert "backend" in table and "source" in table
        assert "constant" in table and "linear" in table


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
                "density", "synaptic_ops",
            }
            if row["kind"] in ("conv", "linear"):
                assert row["source"] in (
                    "constant", "density", "pregate", "rows", "linear"
                )

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
