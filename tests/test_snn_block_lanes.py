"""Block lanes: one call's sample blocks run concurrently, one per core.

The contracts under test:

* a lane run is bitwise the serial blocked run — logits, per-step
  logits, per-layer spike counts and synaptic ops — for ``batched``,
  ``event-batched`` and ``auto`` on VGG and ResNet twins at a ragged
  batch (the serial side has the BLAS setter stubbed out, which is the
  serial fallback);
* blocks run serially, with no lane pool thread created, when the BLAS
  setter is missing or one core is usable;
* lane peers are rebuilt when the bound model rebinds something their
  clones share (a neuron threshold, a BN buffer, a train/eval flip),
  and only then;
* a lane that raises joins the other lanes before the error
  propagates, BLAS is unpinned, and the next call succeeds;
* a forked child never reuses the parent's lane pool.

Lanes are forced on with two usable cores, so the tests behave the same
on a one-core machine; the BLAS setter is the real one where numpy's
OpenBLAS exports it.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.data import rate_encode_stream
from repro.snn import IFNeuron
from repro.snn.engines import EventBatchedEngine, fork_available, make_engine
from repro.snn.engines import batched as batched_module
from repro.snn.engines import lanes as lanes_module
from repro.snn.engines.batched import TimeBatchedEngine
from repro.snn.engines.sharding import clone_for_inference

from test_snn_blocked_runs import converted_vgg, frames
from test_snn_engine import converted_resnet, converted_toy, force_lanes

TIMESTEPS = 4
ENGINES = ["batched", "event-batched", "auto"]
MODELS = {"vgg": converted_vgg, "resnet": converted_resnet}
BLAS_SETTER = lanes_module.blas_thread_setter()


@pytest.fixture(scope="module")
def models():
    return {name: build() for name, build in MODELS.items()}


@pytest.fixture
def lanes_on(monkeypatch):
    """Two usable cores; blocks of 16 samples at T=4 (64 stack rows)."""
    force_lanes(monkeypatch, 16, TIMESTEPS)


def serial_run(monkeypatch, engine, x, **kwargs):
    """The same call with the BLAS setter missing: serial blocks."""
    with monkeypatch.context() as patch:
        patch.setattr(lanes_module, "blas_thread_setter", lambda: None)
        return engine.run(x, TIMESTEPS, per_step=True, **kwargs)


def lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("snn-lane")]


def assert_bitwise(run, reference):
    np.testing.assert_array_equal(run.logits, reference.logits)
    assert len(run.per_step) == len(reference.per_step)
    for got, want in zip(run.per_step, reference.per_step):
        np.testing.assert_array_equal(got, want)
    assert run.stats.batch_size == reference.stats.batch_size
    for got, want in zip(run.stats.layers, reference.stats.layers):
        assert got.name == want.name
        assert got.spike_count == want.spike_count, got.name
        assert got.neuron_steps == want.neuron_steps, got.name
        assert got.synaptic_ops == want.synaptic_ops, got.name
        assert got.dense_synaptic_ops == want.dense_synaptic_ops, got.name


def blas_threads(setter):
    """OpenBLAS's current thread count, read through the setter."""
    current = setter(1)
    setter(current)
    return current


class TestLanesMatchSerialBlocks:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_ragged_batch(self, models, lanes_on, monkeypatch, engine_name, model_name):
        # 37 samples -> blocks 13, 12, 12 -> lanes [13, 12] and [12].
        x = frames(37, seed=40)
        engine = make_engine(engine_name).bind(models[model_name])
        lanes = engine.run(x, TIMESTEPS, per_step=True)
        serial = serial_run(monkeypatch, engine, x)
        assert lanes.stats.lanes == 2
        assert serial.stats.lanes == 1
        assert_bitwise(lanes, serial)

    @pytest.mark.skipif(BLAS_SETTER is None, reason="BLAS exports no setter")
    def test_blas_count_restored(self, models, lanes_on):
        previous = BLAS_SETTER(2)
        try:
            engine = make_engine("batched").bind(models["vgg"])
            assert engine.run(frames(32, seed=41), TIMESTEPS).stats.lanes == 2
            assert lanes_module._pin_depth == 0
            assert blas_threads(BLAS_SETTER) == 2
        finally:
            BLAS_SETTER(previous)

    def test_profile_table_shows_lanes(self, models, lanes_on):
        engine = make_engine("batched").bind(models["vgg"])
        stats = engine.run(frames(32, seed=42), TIMESTEPS).stats
        assert stats.lanes == 2
        assert stats.profile_table().splitlines()[-1].endswith("lanes 2")


class TestConcurrentLaneCalls:
    def test_callers_share_the_pool_and_the_blas_pin(self, monkeypatch):
        # More callers and lanes than cores, switching every 10 us: a
        # lost update of the pin depth would leave BLAS pinned.
        monkeypatch.setattr(lanes_module, "usable_cores", lambda: 4)
        monkeypatch.setattr(batched_module, "STACK_BLOCK_ROWS", 2 * TIMESTEPS)
        setter = BLAS_SETTER or (lambda n: 1)
        monkeypatch.setattr(lanes_module, "blas_thread_setter", lambda: setter)
        model = converted_toy()
        x = np.random.default_rng(53).normal(size=(16, 2, 4, 4)).astype(np.float32)
        expected = serial_run(monkeypatch, make_engine("batched").bind(model), x)
        engines = [
            make_engine("batched").bind(clone_for_inference(model)) for _ in range(4)
        ]
        results = [[] for _ in engines]

        def caller(index):
            for _ in range(5):
                results[index].append(
                    engines[index].run(x, TIMESTEPS, per_step=True)
                )

        previous = setter(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(len(engines))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert lanes_module._pin_depth == 0
            if BLAS_SETTER is not None:
                assert blas_threads(BLAS_SETTER) == 2
        finally:
            sys.setswitchinterval(interval)
            setter(previous)
        for runs in results:
            assert len(runs) == 5
            for run in runs:
                assert run.stats.lanes == 4
                assert_bitwise(run, expected)


class TestSerialFallback:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        monkeypatch.setattr(lanes_module, "_pool", None)
        monkeypatch.setattr(lanes_module, "_pool_size", 0)

    def _assert_serial(self, models, x):
        threads = len(lane_threads())
        engine = make_engine("batched").bind(models["vgg"])
        run = engine.run(x, TIMESTEPS)
        assert run.stats.lanes == 1
        assert lanes_module._pool is None
        assert len(lane_threads()) == threads
        assert engine._thread_peers == {}

    def test_missing_blas_symbol(self, models, lanes_on, no_pool, monkeypatch):
        monkeypatch.setattr(lanes_module, "blas_thread_setter", lambda: None)
        self._assert_serial(models, frames(32, seed=43))

    def test_one_usable_core(self, models, lanes_on, no_pool, monkeypatch):
        monkeypatch.setattr(lanes_module, "usable_cores", lambda: 1)
        self._assert_serial(models, frames(32, seed=44))

    def test_lane_count(self, monkeypatch):
        monkeypatch.setattr(lanes_module, "usable_cores", lambda: 4)
        monkeypatch.setattr(lanes_module, "blas_thread_setter", lambda: (lambda n: 1))
        assert [lanes_module.lane_count(b) for b in (1, 2, 3, 8)] == [1, 2, 3, 4]


def _scale_thresholds(model):
    for module in model.modules():
        if isinstance(module, IFNeuron):
            module.threshold = module.threshold * 2.0


def _batch_norm(model):
    return next(m for m in model.modules() if isinstance(m, nn.BatchNorm2d))


def _rebind_bn_buffer(model):
    bn = _batch_norm(model)
    bn.load_state_dict({"running_mean": bn.running_mean + 0.5})


def _flip_bn_to_train(model):
    # Only the submodule flips; the root stays in eval mode.
    _batch_norm(model).train()


class TestStalePeers:
    @pytest.mark.parametrize(
        "rebind", [_scale_thresholds, _rebind_bn_buffer, _flip_bn_to_train]
    )
    def test_rebind_rebuilds_peers(self, lanes_on, monkeypatch, rebind):
        model = converted_toy()
        x = np.random.default_rng(54).normal(size=(64, 2, 4, 4)).astype(np.float32)
        engine = make_engine("batched").bind(model)
        assert engine.run(x, TIMESTEPS).stats.lanes == 2
        stale = engine._thread_peers[1]
        rebind(model)
        lanes = engine.run(x, TIMESTEPS, per_step=True)
        assert lanes.stats.lanes == 2
        assert_bitwise(lanes, serial_run(monkeypatch, engine, x))
        assert engine._thread_peers[1] is not stale

    def test_unchanged_model_keeps_peers(self, models, lanes_on):
        engine = make_engine("event-batched").bind(models["resnet"])
        x = frames(32, seed=55)
        stream = rate_encode_stream(x, TIMESTEPS, rng=np.random.default_rng(55))
        for call in (x, stream):
            engine.run(call, TIMESTEPS)
            peers = engine._thread_peers[1]
            assert engine.run(call, TIMESTEPS).stats.lanes == 2
            assert engine._thread_peers[1] is peers


class TestLaneFailure:
    def test_error_joins_every_lane_and_next_call_succeeds(
        self, models, lanes_on, monkeypatch
    ):
        x = frames(32, seed=50)
        engine = make_engine("batched").bind(models["vgg"])
        expected = serial_run(monkeypatch, engine, x)
        finished = []
        real = TimeBatchedEngine._run_single

        def failing(self, *args):
            if self is engine:
                raise RuntimeError("lane 0 failed")
            time.sleep(0.2)
            run = real(self, *args)
            finished.append(self)
            return run

        monkeypatch.setattr(TimeBatchedEngine, "_run_single", failing)
        with pytest.raises(RuntimeError, match="lane 0 failed"):
            engine.run(x, TIMESTEPS, per_step=True)
        assert len(finished) == 1  # the other lane ran to the end first
        assert lanes_module._pin_depth == 0
        monkeypatch.setattr(TimeBatchedEngine, "_run_single", real)
        again = engine.run(x, TIMESTEPS, per_step=True)
        assert again.stats.lanes == 2
        assert_bitwise(again, expected)

    def test_peer_error_propagates(self, models, lanes_on, monkeypatch):
        x = frames(32, seed=51)
        engine = make_engine("auto").bind(models["vgg"])
        real = EventBatchedEngine._run_single

        def failing(self, *args):
            if self is not engine:
                raise ValueError("peer lane failed")
            return real(self, *args)

        monkeypatch.setattr(EventBatchedEngine, "_run_single", failing)
        with pytest.raises(ValueError, match="peer lane failed"):
            engine.run(x, TIMESTEPS)
        monkeypatch.setattr(EventBatchedEngine, "_run_single", real)
        assert engine.run(x, TIMESTEPS).stats.lanes == 2


def _child_call(engine, x, conn):
    run = engine.run(x, 8)
    conn.send((run.logits, run.stats.lanes))
    conn.close()


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_forked_child_builds_its_own_lane_pool(models, monkeypatch):
    monkeypatch.setattr(lanes_module, "usable_cores", lambda: 2)
    if lanes_module.blas_thread_setter() is None:
        monkeypatch.setattr(lanes_module, "blas_thread_setter", lambda: (lambda n: 1))
    x = frames(256, seed=52)
    engine = make_engine("batched").bind(models["vgg"])
    parent = engine.run(x, 8)
    assert parent.stats.lanes == 2
    assert lanes_module._pool is not None
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_call, args=(engine, x, sender))
    child.start()
    sender.close()
    try:
        assert receiver.poll(120), "forked child hung on the lane pool"
        logits, lanes = receiver.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert lanes == 2
    np.testing.assert_array_equal(logits, parent.logits)
