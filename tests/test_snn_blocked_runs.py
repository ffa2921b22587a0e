"""Cache-blocked execution of the time-stacked engines.

``batched``, ``event-batched`` and ``auto`` run a call larger than
``STACK_BLOCK_ROWS // T`` samples as serial, balanced sample blocks.
The contracts under test:

* a blocked run is bitwise the concatenation of the same engine's runs
  over its blocks — logits, per-step logits, per-layer spike counts and
  dense synaptic ops — on VGG and ResNet twins, for even and uneven
  batches and for COO spike streams;
* at the production block size, blocked ``batched`` and ``auto`` runs
  stay bitwise equal to the unblocked ``dense`` reference;
* the same blocks run off the calling thread (in lanes) or in a forked
  process (as a serving pool replica runs them) stay bitwise equal to
  the serial run;
* small calls are left alone.

Most tests shrink ``STACK_BLOCK_ROWS`` so tiny batches form blocks.
``dense`` is no bitwise reference at such tiny blocks: OpenBLAS sums
small GEMMs in another order, so an 8-row stack differs from the dense
engine's per-step GEMM in the last bit even without blocking.
"""

import multiprocessing

import numpy as np
import pytest

from repro.data import rate_encode_stream
from repro.eval.supervisor import fork_available
from repro.pipeline import build_quantized_twin
from repro.snn import convert_to_snn
from repro.snn.engines import make_engine
from repro.snn.engines import batched as batched_module
from repro.snn.engines import lanes as lanes_module
from repro.snn.engines.lanes import split_bounds
from repro.tensor import Tensor, no_grad

from test_snn_engine import converted_resnet, force_lanes

TIMESTEPS = 4
BLOCKED_ENGINES = ["batched", "event-batched", "auto"]


def converted_vgg():
    model = build_quantized_twin("vgg11", width=0.125, num_classes=10, levels=2, seed=0)
    rng = np.random.default_rng(1)
    model.train()
    with no_grad():
        for _ in range(2):
            model(Tensor(rng.normal(size=(4, 3, 32, 32)).astype(np.float32)))
    model.eval()
    return convert_to_snn(model)


MODELS = {"vgg": converted_vgg, "resnet": converted_resnet}


@pytest.fixture(scope="module")
def models():
    return {name: build() for name, build in MODELS.items()}


@pytest.fixture
def two_sample_blocks(monkeypatch):
    """Blocks of 2 samples at T=4 (8 stack rows)."""
    monkeypatch.setattr(batched_module, "STACK_BLOCK_ROWS", 2 * TIMESTEPS)


def engine_for(name, model):
    return make_engine(name).bind(model)


def frames(n, seed):
    return np.random.default_rng(seed).normal(size=(n, 3, 32, 32)).astype(np.float32)


def block_sizes(engine, monkeypatch):
    """Record the batch size of every ``_run_single`` the engine makes.

    Block lanes would run later blocks on sibling engines this patch
    does not see, so the recorded calls run their blocks serially, as on
    a one-core machine; ``test_snn_block_lanes.py`` holds lanes to this
    serial path bit for bit.
    """
    monkeypatch.setattr(lanes_module, "usable_cores", lambda: 1)
    sizes = []
    inner = engine._run_single

    def counted(x, timesteps, per_step):
        sizes.append(int(x.shape[0]))
        return inner(x, timesteps, per_step)

    monkeypatch.setattr(engine, "_run_single", counted)
    return sizes


def per_block_reference(name, model, x, sizes):
    """A fresh engine's separate runs over the blocks, joined by hand."""
    engine = engine_for(name, model)
    runs, lo = [], 0
    for size in sizes:
        runs.append(engine.run(x[lo : lo + size], TIMESTEPS, per_step=True))
        lo += size
    spikes = [sum(r.stats.layers[i].spike_count for r in runs)
              for i in range(len(runs[0].stats.layers))]
    dense_ops = [sum(r.stats.layers[i].dense_synaptic_ops for r in runs)
                 for i in range(len(runs[0].stats.layers))]
    logits = np.concatenate([r.logits for r in runs])
    per_step = [np.concatenate([r.per_step[t] for r in runs]) for t in range(TIMESTEPS)]
    return logits, per_step, spikes, dense_ops


def assert_same_logits(run, logits, per_step):
    np.testing.assert_array_equal(run.logits, logits)
    assert len(run.per_step) == len(per_step)
    for got, want in zip(run.per_step, per_step):
        np.testing.assert_array_equal(got, want)


def assert_same_run(run, reference):
    assert_same_logits(run, reference.logits, reference.per_step)
    assert run.stats.batch_size == reference.stats.batch_size
    for got, want in zip(run.stats.layers, reference.stats.layers):
        assert got.name == want.name
        assert got.spike_count == want.spike_count, got.name
        assert got.dense_synaptic_ops == want.dense_synaptic_ops, got.name


class TestBlockedMatchesPerBlockRuns:
    def _check(self, name, model, x, blocks, monkeypatch):
        engine = engine_for(name, model)
        sizes = block_sizes(engine, monkeypatch)
        run = engine.run(x, TIMESTEPS, per_step=True)
        assert sizes == blocks
        logits, per_step, spikes, dense_ops = per_block_reference(name, model, x, blocks)
        assert_same_logits(run, logits, per_step)
        assert run.stats.batch_size == sum(blocks)
        assert [l.spike_count for l in run.stats.layers] == spikes
        assert [l.dense_synaptic_ops for l in run.stats.layers] == dense_ops

    @pytest.mark.parametrize("engine_name", BLOCKED_ENGINES)
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("n, blocks", [(8, [2, 2, 2, 2]), (7, [2, 2, 2, 1])])
    def test_frames(self, models, two_sample_blocks, monkeypatch,
                    engine_name, model_name, n, blocks):
        self._check(engine_name, models[model_name], frames(n, seed=n),
                    blocks, monkeypatch)

    @pytest.mark.parametrize("engine_name", BLOCKED_ENGINES)
    def test_spike_stream(self, models, two_sample_blocks, monkeypatch, engine_name):
        stream = rate_encode_stream(
            np.clip(frames(7, seed=3), 0.0, 1.0), TIMESTEPS,
            rng=np.random.default_rng(4),
        )
        self._check(engine_name, models["vgg"], stream, [2, 2, 2, 1], monkeypatch)


class TestBlockedMatchesDense:
    """At the production block size (64 samples at T=4) the blocks are
    large enough for OpenBLAS's regular GEMM path, so blocking keeps the
    GEMM engines bitwise equal to the unblocked dense reference."""

    @pytest.mark.parametrize("engine_name", ["batched", "auto"])
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_uneven_batch(self, models, monkeypatch, engine_name, model_name):
        model = models[model_name]
        x = frames(130, seed=10)
        reference = make_engine("dense").bind(model).run(x, TIMESTEPS, per_step=True)
        engine = engine_for(engine_name, model)
        sizes = block_sizes(engine, monkeypatch)
        run = engine.run(x, TIMESTEPS, per_step=True)
        assert sizes == [44, 43, 43]
        assert_same_run(run, reference)


def _child_run(engine, x, conn):
    conn.send(engine.run(x, TIMESTEPS, per_step=True))
    conn.close()


def run_in_fork(engine, x):
    """The same call, run by a forked child process."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_run, args=(engine, x, sender))
    child.start()
    sender.close()
    try:
        assert receiver.poll(120), "forked child hung"
        run = receiver.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    return run


class TestBlockedShards:
    """A call's blocks split over lane threads, or the whole call in a
    forked process, give the serial run's bits."""

    @pytest.mark.parametrize("shard_mode", ["thread", "fork"])
    @pytest.mark.parametrize("engine_name", BLOCKED_ENGINES)
    def test_shards_bitwise_equal_to_serial(
        self, models, monkeypatch, engine_name, shard_mode
    ):
        if shard_mode == "fork" and not fork_available():
            pytest.skip("fork unavailable")
        # 8 samples: blocks 2,2,2,2, as two lanes of two blocks each.
        force_lanes(monkeypatch, 2, TIMESTEPS)
        x = frames(8, seed=7)
        engine = engine_for(engine_name, models["vgg"])
        with monkeypatch.context() as patch:
            patch.setattr(lanes_module, "blas_thread_setter", lambda: None)
            serial = engine.run(x, TIMESTEPS, per_step=True)
        if shard_mode == "thread":
            sharded = engine.run(x, TIMESTEPS, per_step=True)
        else:
            sharded = run_in_fork(engine, x)
        assert (serial.stats.lanes, sharded.stats.lanes) == (1, 2)
        assert_same_run(sharded, serial)


class TestUnblocked:
    @pytest.mark.parametrize("engine_name", BLOCKED_ENGINES + ["dense"])
    def test_small_batch_runs_as_one_block(self, models, monkeypatch, engine_name):
        engine = make_engine(engine_name).bind(models["vgg"])
        sizes = block_sizes(engine, monkeypatch)
        engine.run(frames(4, seed=8), 8)
        assert sizes == [4]

    def test_dense_never_blocks(self, models, two_sample_blocks, monkeypatch):
        engine = make_engine("dense").bind(models["vgg"])
        sizes = block_sizes(engine, monkeypatch)
        engine.run(frames(5, seed=9), TIMESTEPS)
        assert sizes == [5]

    def test_default_block_is_256_stack_rows(self):
        engine = make_engine("batched")
        assert batched_module.STACK_BLOCK_ROWS == 256
        assert engine._sample_blocks(32, 8) == [(0, 32)]
        assert [hi - lo for lo, hi in engine._sample_blocks(256, 8)] == [32] * 8
        # Balanced: 33 samples at 32 per block is 17 + 16, never 32 + 1.
        assert [hi - lo for lo, hi in engine._sample_blocks(33, 8)] == [17, 16]


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
