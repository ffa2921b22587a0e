"""Simulation-engine tests: dense vs batched vs event-batched equivalence and statistics."""

import numpy as np
import pytest

from repro import nn
from repro.snn import (
    DenseEngine,
    EventBatchedEngine,
    SpikingNetwork,
    TimeBatchedEngine,
    convert_to_snn,
    make_engine,
)
from repro.snn.engines.event_batched import _Stack
from repro.snn.engines.kernels import conv_event_rows, conv_rows
from repro.snn.stats import LayerStats
from repro.tensor import Tensor, no_grad


def converted_toy(seed=0, neuron="if"):
    model = nn.Sequential(
        nn.Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(seed)),
        nn.BatchNorm2d(4),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 5, rng=np.random.default_rng(seed + 1)),
    )
    rng = np.random.default_rng(seed + 2)
    model.train()
    with no_grad():
        for _ in range(4):
            model(Tensor(rng.normal(size=(8, 2, 4, 4)).astype(np.float32)))
    model.eval()
    return convert_to_snn(model, neuron=neuron)


def converted_pooled_toy(seed=0):
    """Conv/BN/pool chain — exercises the batched engine's stateless
    steps (BatchNorm + MaxPool) on both sides of a neuron layer."""
    model = nn.Sequential(
        nn.Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(seed)),
        nn.BatchNorm2d(4),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 4, 3, padding=1, rng=np.random.default_rng(seed + 1)),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.AvgPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 2 * 2, 5, rng=np.random.default_rng(seed + 2)),
    )
    rng = np.random.default_rng(seed + 3)
    model.train()
    with no_grad():
        for _ in range(4):
            model(Tensor(rng.normal(size=(8, 2, 8, 8)).astype(np.float32)))
    model.eval()
    return convert_to_snn(model)


def converted_resnet(seed=0):
    """A width-scaled quantised ResNet (residual graph, QuantConv2d)."""
    from repro.pipeline import build_quantized_twin

    model = build_quantized_twin(
        "resnet18", width=0.125, num_classes=10, levels=2, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    model.train()
    with no_grad():
        for _ in range(2):
            model(Tensor(rng.normal(size=(4, 3, 32, 32)).astype(np.float32)))
    model.eval()
    return convert_to_snn(model)


class TestMakeEngine:
    def test_names(self):
        assert isinstance(make_engine("dense"), DenseEngine)
        assert isinstance(make_engine("batched"), TimeBatchedEngine)
        assert isinstance(make_engine("time-batched"), TimeBatchedEngine)
        assert isinstance(make_engine("event-batched"), EventBatchedEngine)
        # The retired sparse engine's alias is gone with it.
        with pytest.raises(ValueError):
            make_engine("sparse")

    def test_event_name_is_deprecated(self):
        """``event`` names the retired engine: it resolves to
        event-batched with one DeprecationWarning, from the factory and
        from ``SpikingNetwork(engine=...)`` alike."""
        with pytest.warns(DeprecationWarning, match="'event' is retired") as caught:
            engine = make_engine("event")
        assert len(caught) == 1
        assert type(engine) is EventBatchedEngine
        with pytest.warns(DeprecationWarning):
            net = SpikingNetwork(converted_toy(), timesteps=2, engine="event")
        x = np.random.default_rng(15).normal(size=(2, 2, 4, 4)).astype(np.float32)
        reference = SpikingNetwork(converted_toy(), timesteps=2, engine="event-batched")
        assert np.array_equal(net.forward(x), reference.forward(x))
        assert net.last_run_stats.engine == "event-batched"

    def test_instance_passthrough(self):
        engine = EventBatchedEngine()
        assert make_engine(engine) is engine

    def test_bound_engine_cannot_be_shared_across_models(self):
        engine = EventBatchedEngine()
        SpikingNetwork(converted_toy(0), timesteps=2, engine=engine)
        with pytest.raises(ValueError):
            SpikingNetwork(converted_toy(1), timesteps=2, engine=engine)

    def test_rebinding_same_model_is_fine(self):
        model = converted_toy()
        engine = EventBatchedEngine()
        SpikingNetwork(model, timesteps=2, engine=engine)
        SpikingNetwork(model, timesteps=3, engine=engine)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_engine("warp-drive")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            make_engine(42)

    def test_run_requires_bind(self):
        with pytest.raises(RuntimeError):
            DenseEngine().run(np.zeros((1, 2, 4, 4), np.float32), 2)

    def test_invalid_density_threshold(self):
        with pytest.raises(ValueError):
            EventBatchedEngine(density_threshold=0.0)


class TestEquivalenceToy:
    def test_logits_and_predictions_match(self):
        x = np.random.default_rng(0).normal(size=(6, 2, 4, 4)).astype(np.float32)
        dense = SpikingNetwork(converted_toy(), timesteps=6, engine="dense")
        event = SpikingNetwork(converted_toy(), timesteps=6, engine="event-batched")
        ld = dense.forward(x)
        le = event.forward(x)
        assert np.allclose(ld, le, atol=1e-4)
        assert np.array_equal(ld.argmax(1), le.argmax(1))

    def test_per_step_match(self):
        x = np.random.default_rng(1).normal(size=(4, 2, 4, 4)).astype(np.float32)
        dense = SpikingNetwork(converted_toy(), timesteps=4, engine="dense")
        event = SpikingNetwork(converted_toy(), timesteps=4, engine="event-batched")
        for a, b in zip(dense.forward_per_step(x, 5), event.forward_per_step(x, 5)):
            assert np.allclose(a, b, atol=1e-4)

    def test_event_engine_is_repeatable(self):
        x = np.random.default_rng(2).normal(size=(3, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="event-batched")
        assert np.array_equal(net.forward(x), net.forward(x))


class TestEquivalenceBatched:
    """The time-batched engine reproduces dense logits: same kernels,
    same per-sample summation order, restructured loop.  The only
    admissible difference is BLAS blocking on the T-fold-larger GEMMs
    (ulp-level), so logits agree tightly and predictions exactly."""

    def _assert_identical(self, a, b, atol=1e-5):
        assert np.allclose(a, b, atol=atol)
        assert np.array_equal(a.argmax(1), b.argmax(1))

    def test_if_logits_identical(self):
        x = np.random.default_rng(20).normal(size=(6, 2, 4, 4)).astype(np.float32)
        dense = SpikingNetwork(converted_toy(), timesteps=6, engine="dense")
        batched = SpikingNetwork(converted_toy(), timesteps=6, engine="batched")
        self._assert_identical(dense.forward(x), batched.forward(x))

    def test_lif_logits_identical(self):
        x = np.random.default_rng(21).normal(size=(5, 2, 4, 4)).astype(np.float32)
        dense = SpikingNetwork(converted_toy(neuron="lif"), timesteps=5, engine="dense")
        batched = SpikingNetwork(
            converted_toy(neuron="lif"), timesteps=5, engine="batched"
        )
        self._assert_identical(dense.forward(x), batched.forward(x))

    def test_pooled_chain_identical(self):
        x = np.random.default_rng(22).normal(size=(4, 2, 8, 8)).astype(np.float32)
        dense = SpikingNetwork(converted_pooled_toy(), timesteps=4, engine="dense")
        batched = SpikingNetwork(converted_pooled_toy(), timesteps=4, engine="batched")
        self._assert_identical(dense.forward(x), batched.forward(x))

    def test_per_step_logits_identical(self):
        x = np.random.default_rng(23).normal(size=(4, 2, 4, 4)).astype(np.float32)
        dense = SpikingNetwork(converted_toy(), timesteps=4, engine="dense")
        batched = SpikingNetwork(converted_toy(), timesteps=4, engine="batched")
        steps_d = dense.forward_per_step(x, 5)
        steps_b = batched.forward_per_step(x, 5)
        assert len(steps_b) == 5
        for a, b in zip(steps_d, steps_b):
            self._assert_identical(a, b)

    def test_resnet_residual_graph_identical(self):
        model = converted_resnet()
        x = np.random.default_rng(24).normal(size=(4, 3, 32, 32)).astype(np.float32)
        dense = SpikingNetwork(model, timesteps=4, engine="dense")
        ld = dense.forward(x)
        dense_stats = dense.last_run_stats
        batched = SpikingNetwork(model, timesteps=4, engine="batched")
        lb = batched.forward(x)
        self._assert_identical(ld, lb, atol=1e-4)
        # Batched bills the same dense MAC count and sees the same
        # spikes — the wall-clock win changes no accounting.
        stats = batched.last_run_stats
        assert stats.total_dense_synaptic_ops == dense_stats.total_dense_synaptic_ops
        assert stats.spike_rates() == pytest.approx(
            dense_stats.spike_rates(), abs=1e-3
        )
        # Ops follow the spikes: every layer whose input saw the same
        # spikes on both engines bills the same ops.
        for i, (a, b) in enumerate(zip(dense_stats.layers, stats.layers)):
            if a.kind != "neuron" and (
                i == 0 or a.input_nonzero == b.input_nonzero
            ):
                assert a.synaptic_ops == b.synaptic_ops, a.name

    def test_stats_and_cleanup(self):
        x = np.random.default_rng(25).normal(size=(3, 2, 8, 8)).astype(np.float32)
        net = SpikingNetwork(converted_pooled_toy(), timesteps=3, engine="batched")
        net.forward(x)
        stats = net.last_run_stats
        assert stats.engine == "batched"
        assert stats.batch_size == 3
        assert [l.kind for l in stats.layers] == [
            "conv", "neuron", "conv", "neuron", "linear",
        ]
        # No module keeps a replaced forward.
        for _, module in net.model.named_modules():
            assert "forward" not in module.__dict__


def force_lanes(monkeypatch, block_samples, timesteps=4):
    """Two usable cores and ``block_samples``-sample blocks at T, so
    lanes run on any machine; returns the lanes module."""
    from repro.snn.engines import batched as batched_module
    from repro.snn.engines import lanes as lanes_module

    monkeypatch.setattr(lanes_module, "usable_cores", lambda: 2)
    monkeypatch.setattr(batched_module, "STACK_BLOCK_ROWS", block_samples * timesteps)
    if lanes_module.blas_thread_setter() is None:
        monkeypatch.setattr(lanes_module, "blas_thread_setter", lambda: (lambda n: 1))
    return lanes_module


@pytest.fixture
def lanes_on(monkeypatch):
    """Blocks of 2 samples at T=4 (8 stack rows), in two lanes."""
    return force_lanes(monkeypatch, 2)


def serial_blocks(monkeypatch, lanes_module, call):
    """``call()`` with the BLAS setter missing: the blocks run serially."""
    with monkeypatch.context() as patch:
        patch.setattr(lanes_module, "blas_thread_setter", lambda: None)
        return call()


class TestThreadSharding:
    """Block lanes run one call's sample blocks on threads, each lane on
    a sibling engine bound to a weight-sharing model clone; results and
    merged statistics must match the serial blocked run bit for bit."""

    def test_merged_stats_match_single_worker(self, lanes_on, monkeypatch):
        x = np.random.default_rng(41).normal(size=(6, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="batched")
        lanes = net.forward(x)
        two = net.last_run_stats
        serial = serial_blocks(monkeypatch, lanes_on, lambda: net.forward(x))
        one = net.last_run_stats
        assert (two.lanes, one.lanes) == (2, 1)
        assert np.array_equal(lanes, serial)
        assert two.batch_size == one.batch_size
        assert two.total_synaptic_ops == one.total_synaptic_ops
        assert two.spike_rates() == one.spike_rates()
        for a, b in zip(one.layers, two.layers):
            assert a.name == b.name
            assert a.spike_count == b.spike_count
            assert a.synaptic_ops == b.synaptic_ops

    def test_thread_sharding_is_deterministic(self, lanes_on):
        x = np.random.default_rng(42).normal(size=(5, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="batched")
        first = net.forward(x)
        second = net.forward(x)
        assert net.last_run_stats.lanes == 2
        assert np.array_equal(first, second)

    def test_per_step_threaded(self, lanes_on, monkeypatch):
        x = np.random.default_rng(43).normal(size=(5, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="batched")
        lanes = net.forward_per_step(x)
        assert net.last_run_stats.lanes == 2
        serial = serial_blocks(monkeypatch, lanes_on, lambda: net.forward_per_step(x))
        for a, b in zip(lanes, serial):
            assert np.array_equal(a, b)

    def test_parent_model_untouched(self, lanes_on):
        """Lanes run on clones: neither the bound model nor a clone keeps
        a replaced forward, and the engine stays usable after."""
        model = converted_toy()
        net = SpikingNetwork(model, timesteps=4, engine="event-batched")
        x = np.random.default_rng(44).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert net.last_run_stats.lanes == 2
        clones = [peer.model for peer in net.engine._thread_peers[1]]
        for tree in [model] + clones:
            for _, module in tree.named_modules():
                assert "forward" not in module.__dict__
        net.forward(x[:1])  # one block, on the bound model itself

    def test_thread_peers_and_pool_reused_across_runs(self, lanes_on):
        """Sibling engines, model clones and the lane pool persist
        between runs, so per-module caches (effective weights, pad
        workspaces) keep hitting instead of refilling every forward."""
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="batched")
        x = np.random.default_rng(45).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        engine = net.engine
        peers = engine._thread_peers[1]
        pool = lanes_on._pool
        net.forward(x)
        assert net.last_run_stats.lanes == 2
        assert engine._thread_peers[1] is peers
        assert lanes_on._pool is pool
        # Peers share the parent's thread-safe weight cache.
        for peer in peers:
            assert peer._weight_cache is engine._weight_cache

    def test_clone_shares_weights_and_remaps_children(self):
        from repro.snn.engines import clone_for_inference

        model = converted_resnet()
        clone = clone_for_inference(model)
        assert clone is not model
        # Every parameter object is shared, never copied.
        for (name_a, param_a), (name_b, param_b) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert name_a == name_b
            assert param_a is param_b
        # Module objects are all fresh, and attribute access reaches the
        # clone's children, not the original's.
        originals = {id(m) for _, m in model.named_modules()}
        for _, module in clone.named_modules():
            assert id(module) not in originals
        assert clone.conv1 is clone._modules["conv1"]
        assert clone.layer1 is clone._modules["layer1"]


class TestBoundedCaches:
    """Cross-run caches are bounded LRUs so long-lived multi-model
    processes cannot grow memory without limit."""

    def test_lru_cache_evicts_least_recently_used(self):
        from repro.snn.engines import LRUCache

        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)           # evicts "b", the LRU entry
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_effective_weight_cache_bounded(self):
        from repro.snn.engines import WEIGHT_CACHE_CAPACITY
        from repro.snn.engines.base import _effective_weight

        engine = TimeBatchedEngine()
        modules = [
            nn.Linear(3, 2, rng=np.random.default_rng(i))
            for i in range(WEIGHT_CACHE_CAPACITY + 10)
        ]
        for module in modules:
            weight = _effective_weight(module, engine._weight_cache)
            assert weight is module.weight.data
        assert len(engine._weight_cache) == WEIGHT_CACHE_CAPACITY

    def test_pad_workspace_cache_bounded(self):
        from repro.tensor.functional import (
            _PAD_CACHE,
            _PAD_CACHE_CAPACITY,
            im2col,
        )

        rng = np.random.default_rng(0)
        for n in range(1, _PAD_CACHE_CAPACITY + 6):
            x = rng.normal(size=(n, 2, 4, 4)).astype(np.float32)
            im2col(x, 3, 1, 1)
        assert len(_PAD_CACHE.buffers) <= _PAD_CACHE_CAPACITY

    def test_im2col_plan_cache_bounded(self):
        from repro.tensor.functional import (
            _PLAN_CACHE,
            _PLAN_CACHE_CAPACITY,
            _im2col_plan,
        )

        for h in range(4, 4 + _PLAN_CACHE_CAPACITY + 8):
            _im2col_plan(1, h, 4, 3, 1, 1)
        assert len(_PLAN_CACHE) <= _PLAN_CACHE_CAPACITY


class TestLRUEvictionOrder:
    """Eviction order of the shared engine caches: strict LRU — a hit
    (get) and an overwrite (put) both refresh recency, evictions walk
    the stale end in order."""

    def _cache(self, capacity=3):
        from repro.snn.engines import LRUCache

        cache = LRUCache(capacity)
        for key in "abc":
            cache.put(key, key.upper())
        return cache

    def test_insertion_order_evicts_oldest_first(self):
        cache = self._cache()
        cache.put("d", "D")  # evicts a
        cache.put("e", "E")  # evicts b
        assert "a" not in cache and "b" not in cache
        assert [k for k, _ in cache.items()] == ["c", "d", "e"]

    def test_get_refreshes_recency(self):
        cache = self._cache()
        cache.get("a")       # a becomes most recent -> b is now LRU
        cache.put("d", "D")  # evicts b
        assert "b" not in cache
        assert [k for k, _ in cache.items()] == ["c", "a", "d"]

    def test_put_overwrite_refreshes_recency(self):
        cache = self._cache()
        cache.put("a", "A2")  # overwrite refreshes, value replaced
        cache.put("d", "D")   # evicts b, not a
        assert "b" not in cache
        assert cache.get("a") == "A2"

    def test_miss_does_not_disturb_order(self):
        cache = self._cache()
        assert cache.get("zzz", "fallback") == "fallback"
        cache.put("d", "D")  # still evicts a, the true LRU
        assert "a" not in cache

    def test_pop_removes_without_eviction(self):
        cache = self._cache()
        assert cache.pop("b") == "B"
        assert cache.pop("b", "gone") == "gone"
        cache.put("d", "D")  # capacity free again: nothing evicted
        assert [k for k, _ in cache.items()] == ["a", "c", "d"]


class TestProfileFormatting:
    """RunStats.profile_table()/profile_records() rendering contract —
    the shapes downstream consumers (CLI --profile, BENCH_engines.json)
    parse."""

    @pytest.fixture(scope="class")
    def stats(self):
        net = SpikingNetwork(converted_toy(), timesteps=3, engine="batched")
        x = np.random.default_rng(40).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        return net.last_run_stats

    def test_records_columns_and_rounding(self, stats):
        records = stats.profile_records()
        assert [r["name"] for r in records] == [l.name for l in stats.layers]
        for row, layer in zip(records, stats.layers):
            assert set(row) == {
                "name", "kind", "backend", "source", "wall_clock_ms",
                "density", "synaptic_ops",
            }
            # Fixed engine: no per-layer choice; neuron rows name no step.
            assert row["backend"] == ("-" if row["kind"] == "neuron" else "batched")
            assert row["source"] == ""  # fixed engine: no gate decided
            assert row["wall_clock_ms"] == round(layer.wall_clock_seconds * 1e3, 3)
            assert row["density"] == round(layer.density, 6)
            assert isinstance(row["synaptic_ops"], int)

    def test_table_header_and_row_count(self, stats):
        table = stats.profile_table()
        lines = table.splitlines()
        header = lines[0]
        for column in ("layer", "kind", "backend", "wall_ms", "density", "synaptic_ops"):
            assert column in header
        # One line per layer between header and the footer summary.
        assert len(lines) == 1 + len(stats.layers) + 1

    def test_table_footer_summarises_run(self, stats):
        footer = stats.profile_table().splitlines()[-1]
        assert "run wall clock" in footer
        assert "attributed to layers" in footer
        assert f"engine {stats.engine}" in footer
        assert footer.endswith(f"lanes {stats.lanes}")

    def test_density_column_bounds(self, stats):
        for row in stats.profile_records():
            assert 0.0 <= row["density"] <= 1.0

    def test_empty_run_stats_render(self):
        from repro.snn.stats import RunStats

        empty = RunStats(batch_size=0, timesteps=0)
        assert empty.profile_records() == []
        lines = empty.profile_table().splitlines()
        assert len(lines) == 2  # header + footer survive zero layers
        assert "engine ?" in lines[-1]


class TestEquivalenceResidual:
    """The event-batched engine must handle non-sequential graphs (ResNet)."""

    def test_resnet_logits_and_predictions_match(self):
        model = converted_resnet()
        x = np.random.default_rng(3).normal(size=(4, 3, 32, 32)).astype(np.float32)
        dense = SpikingNetwork(model, timesteps=4, engine="dense")
        ld = dense.forward(x)
        event = SpikingNetwork(model, timesteps=4, engine="event-batched")
        le = event.forward(x)
        assert np.allclose(ld, le, atol=1e-3)
        assert np.array_equal(ld.argmax(1), le.argmax(1))

    def test_resnet_event_does_less_work(self):
        model = converted_resnet()
        x = np.random.default_rng(4).normal(size=(4, 3, 32, 32)).astype(np.float32)
        dense = SpikingNetwork(model, timesteps=4, engine="dense")
        dense.forward(x)
        event = SpikingNetwork(model, timesteps=4, engine="event-batched")
        event.forward(x)
        # Event-driven ops (what the SIA executes) undercut the dense
        # MACs the dense reference recomputes every step.
        assert (
            event.last_run_stats.total_synaptic_ops
            < dense.last_run_stats.total_dense_synaptic_ops
        )


class TestRunStats:
    def test_stats_populated(self):
        x = np.random.default_rng(5).normal(size=(5, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="event-batched")
        net.forward(x)
        stats = net.last_run_stats
        assert stats is not None
        assert stats.engine == "event-batched"
        assert stats.batch_size == 5
        assert stats.timesteps == 4
        assert stats.wall_clock_seconds > 0
        kinds = [l.kind for l in stats.layers]
        assert kinds == ["conv", "neuron", "linear"]

    def test_spike_rates_in_unit_interval(self):
        x = np.random.default_rng(6).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="event-batched")
        net.forward(x)
        rates = net.last_run_stats.spike_rates()
        assert len(rates) == 1
        assert 0.0 <= rates[0] <= 1.0

    def test_dense_engine_counts_full_ops(self):
        x = np.random.default_rng(7).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=3, engine="dense")
        net.forward(x)
        stats = net.last_run_stats
        conv = stats.layers[0]
        # conv: 2 samples x 3 steps x 16 output pixels x (2*3*3 taps) x 4 out-ch
        assert conv.dense_synaptic_ops == 2 * 3 * 16 * 18 * 4
        # Performed ops skip the padding: each of the 4x4 pixels of the
        # 2 channels (all nonzero) feeds cy * cx of the 3x3 windows
        # (cy, cx in 2, 3, 3, 2: sum 10 each), times 4 output channels.
        assert conv.synaptic_ops == 2 * 3 * 2 * 10 * 10 * 4

    def test_event_ops_bounded_by_dense(self):
        x = np.random.default_rng(8).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="event-batched")
        net.forward(x)
        stats = net.last_run_stats
        assert 0 < stats.total_synaptic_ops <= stats.total_dense_synaptic_ops
        assert 0.0 <= stats.synaptic_op_saving < 1.0

    def test_layer_table_renders(self):
        x = np.random.default_rng(9).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net = SpikingNetwork(converted_toy(), timesteps=2, engine="event-batched")
        net.forward(x)
        table = net.last_run_stats.layer_table()
        assert "spike_rate" in table
        assert "overall" in table

    def test_interceptors_removed_after_run(self):
        net = SpikingNetwork(converted_toy(), timesteps=2, engine="dense")
        x = np.random.default_rng(10).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        for _, module in net.model.named_modules():
            assert "forward" not in module.__dict__


class TestTimestepValidation:
    def test_zero_timesteps_rejected_not_defaulted(self):
        net = SpikingNetwork(converted_toy(), timesteps=4)
        x = np.zeros((1, 2, 4, 4), np.float32)
        with pytest.raises(ValueError):
            net.forward(x, timesteps=0)
        with pytest.raises(ValueError):
            net.forward_per_step(x, timesteps=0)
        with pytest.raises(ValueError):
            net.accuracy_per_step(x, np.zeros(1, np.int64), timesteps=-1)

    def test_none_uses_default(self):
        net = SpikingNetwork(converted_toy(), timesteps=3)
        x = np.zeros((1, 2, 4, 4), np.float32)
        net.forward(x, timesteps=None)
        assert net.last_run_stats.timesteps == 3


def _event_conv(x, w, b, stride, padding):
    """A conv of a dense plane through the COO kernels: rows built from
    its events (``conv_event_rows``), only those multiplied
    (``conv_rows``), every other window ``0 + bias``."""
    n, _, h, width = x.shape
    c_out, _, k, _ = w.shape
    coords = np.argwhere(x)
    rows, entries, block = conv_event_rows(
        coords, x[tuple(coords.T)], x.shape, k, stride, padding, x.dtype
    )
    oh = (h + 2 * padding - k) // stride + 1
    ow = (width + 2 * padding - k) // stride + 1
    out = np.zeros((n * oh * ow, c_out), dtype=np.float32)
    if b is not None:
        out += b
    if rows.size:
        out[rows] = conv_rows(block, w, b, rows, n * oh * ow)
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2), entries


class TestSparseKernels:
    def test_sparse_conv_matches_dense_at_any_density(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(5, 3, 3, 3)).astype(np.float32)
        for density in (0.0, 0.05, 0.5, 1.0):
            x = (rng.random((2, 3, 8, 8)) < density).astype(np.float32) * 1.5
            got, entries = _event_conv(x, w, None, stride=1, padding=1)
            from repro.tensor import functional as F
            from repro.tensor.functional import im2col

            want = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1).data
            assert np.allclose(got, want, atol=1e-5)
            cols, _, _ = im2col(x, 3, 1, 1)
            assert entries == np.count_nonzero(cols)

    def test_sparse_conv_strided(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        x = (rng.random((1, 2, 9, 9)) < 0.2).astype(np.float32)
        got, _ = _event_conv(x, w, None, stride=2, padding=1)
        from repro.tensor import functional as F

        want = F.conv2d(Tensor(x), Tensor(w), None, stride=2, padding=1).data
        assert np.allclose(got, want, atol=1e-5)

    def test_sparse_conv_with_bias(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        x = np.zeros((2, 2, 5, 5), np.float32)  # fully silent input
        got, entries = _event_conv(x, w, b, stride=1, padding=1)
        assert entries == 0
        # Silent input: every output pixel is exactly the bias.
        assert np.allclose(got, b.reshape(1, 3, 1, 1) * np.ones_like(got))

    def test_linear_gemm_matches_dense(self):
        """A sparse linear runs the plain GEMM and bills one op per
        (nonzero input, output feature)."""
        rng = np.random.default_rng(14)
        linear = nn.Linear(20, 7, rng=rng)
        x = (rng.random((4, 20)) < 0.3).astype(np.float32) * 2.0
        stat = LayerStats(name="fc", kind="linear")
        got = EventBatchedEngine()._linear(linear, stat, _Stack(x)).data
        want = x @ linear.weight.data.T + linear.bias.data
        assert np.allclose(got, want, atol=1e-5)
        assert (stat.backend, stat.backend_source) == ("gemm", "linear")
        assert stat.synaptic_ops == np.count_nonzero(x) * 7
        assert stat.dense_synaptic_ops == 4 * 20 * 7
