"""One synaptic-op rule for every engine.

Every backend bills a synapse layer from its input alone, by the SIA's
rule: each nonzero input value times its fan-out (``out_features`` for
a linear; for a conv, ``C_out`` times the output windows covering it,
which is ``nnz(im2col) x C_out``).  So the count does not depend on the
kernel the density rule picked:

* ``batched`` (all GEMM) and ``event-batched`` (GEMM or COO per layer)
  bill identical per-layer ops and input densities, and so give an
  identical ``table4_experiment(run_stats=)``;
* ``dense`` bills the same wherever its spikes are the same;
* on binary spikes the count equals the integer SIA core's
  (``SpikingCore.conv_timestep`` / ``fc_timestep``).
"""

import numpy as np
import pytest

from repro import nn
from repro.data import direct_encode_stream
from repro.data.events import SyntheticDVS
from repro.eval.experiments import table4_experiment
from repro.hw import SpikingCore, map_network
from repro.snn import SpikingNetwork, convert_to_snn
from repro.snn.engines.base import _conv_taps, _coverage, bill_synapse
from repro.snn.spikes import SpikeStream, StepSpikes
from repro.snn.stats import LayerStats
from repro.tensor import Tensor, no_grad
from repro.tensor.functional import im2col

from test_snn_engine import converted_resnet
from test_snn_stream_engine import converted_vgg, frames  # noqa: F401 (fixtures)

TIMESTEPS = 4
ENGINES = ("dense", "batched", "event-batched")


def converted_dvs(height=32, width=32, batch=4):
    """A BN-warmed converted DVS front end (perfbench's ``dvs`` shape,
    smaller) and its COO test stream."""
    rng = np.random.default_rng(7)
    model = nn.Sequential(
        nn.Conv2d(2, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.AvgPool2d(4),
        nn.Flatten(),
        nn.Linear(16 * (height // 8) * (width // 8), 4, rng=rng),
    )
    dvs = SyntheticDVS(
        num_train=8, num_test=batch, height=height, width=width,
        timesteps=TIMESTEPS, noise_rate=0.01, seed=3,
    )
    train, _ = dvs.spike_stream("train")
    warm = train.to_dense(np.float32)
    model.train()
    with no_grad():
        model(Tensor(warm.reshape((-1,) + warm.shape[2:])))
    model.eval()
    convert_to_snn(model)
    stream, _ = dvs.spike_stream("test")
    return model, stream


def _runs(model, x):
    """Each engine's RunStats on ``x``."""
    out = {}
    for engine in ENGINES:
        net = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
        net.forward(x)
        out[engine] = net.last_run_stats
    return out


def _assert_one_rule(stats):
    batched, event = stats["batched"], stats["event-batched"]
    for a, b in zip(batched.layers, event.layers):
        assert a.name == b.name
        assert a.synaptic_ops == b.synaptic_ops, a.name
        assert a.dense_synaptic_ops == b.dense_synaptic_ops, a.name
        assert a.input_nonzero == b.input_nonzero, a.name
        assert a.input_size == b.input_size, a.name
        assert a.spike_count == b.spike_count, a.name
    assert table4_experiment(run_stats=batched) == table4_experiment(run_stats=event)
    # The per-step reference bills the same wherever it sees the same
    # spikes (its sums may differ from the stacked GEMM's in the last
    # bit, which can move a spike).
    dense = stats["dense"]
    compared = 0
    for a, b in zip(dense.layers, batched.layers):
        if a.kind != "neuron" and a.input_nonzero == b.input_nonzero:
            assert a.synaptic_ops == b.synaptic_ops, a.name
            assert a.dense_synaptic_ops == b.dense_synaptic_ops, a.name
            compared += 1
    assert compared >= 1
    assert 0 < batched.total_synaptic_ops < batched.total_dense_synaptic_ops


@pytest.fixture(scope="module")
def dvs():
    return converted_dvs()


class TestOneRuleAcrossEngines:
    def test_vgg_frames(self, converted_vgg, frames):  # noqa: F811
        _assert_one_rule(_runs(converted_vgg, frames))

    def test_vgg_stream(self, converted_vgg, frames):  # noqa: F811
        _assert_one_rule(_runs(converted_vgg, direct_encode_stream(frames, TIMESTEPS)))

    def test_resnet_frames(self, frames):  # noqa: F811
        _assert_one_rule(_runs(converted_resnet(), frames))

    def test_resnet_stream(self, frames):  # noqa: F811
        rng = np.random.default_rng(5)
        spikes = (rng.random((TIMESTEPS,) + frames.shape) < 0.05).astype(np.float32)
        _assert_one_rule(_runs(converted_resnet(), SpikeStream.from_dense(spikes)))

    def test_dvs_frames(self, dvs):
        model, stream = dvs
        frame = stream.step(0).to_dense()
        _assert_one_rule(_runs(model, frame))

    def test_dvs_stream(self, dvs):
        model, stream = dvs
        stats = _runs(model, stream)
        _assert_one_rule(stats)
        # The COO kernel really ran, so the agreement is not vacuous.
        backends = {l.backend for l in stats["event-batched"].layers}
        assert "event-batched" in backends

    def test_stream_bills_like_its_dense_input(self, converted_vgg, frames):  # noqa: F811
        for engine in ENGINES:
            net = SpikingNetwork(converted_vgg, timesteps=TIMESTEPS, engine=engine)
            net.forward(frames)
            dense = net.last_run_stats
            net.forward(direct_encode_stream(frames, TIMESTEPS))
            stream = net.last_run_stats
            assert dense.total_synaptic_ops == stream.total_synaptic_ops, engine


def _one_layer_snn(layer):
    """A synapse layer followed by an IF neuron, converted."""
    model = nn.Sequential(layer, nn.QuantReLU(levels=2, init_step=1.0))
    return convert_to_snn(model)


class TestMatchesTheSiaCore:
    """On binary spikes the engines bill what the integer SIA core
    executes, for a conv and a linear taken from a mapped network."""

    @pytest.fixture(scope="class")
    def mapped(self, converted_vgg, frames):  # noqa: F811
        return map_network(converted_vgg, calibration_input=frames)

    def _spikes(self, shape, seed, density=0.2):
        rng = np.random.default_rng(seed)
        return (rng.random((TIMESTEPS,) + shape) < density).astype(np.float32)

    def test_mapped_conv(self, mapped):
        layer = next(
            l for l in mapped.layers
            if l.config.kind.value == "conv" and not l.frame_input and l.pool_folded > 1
        )
        cfg = layer.config
        conv = nn.Conv2d(
            cfg.in_channels, cfg.out_channels, cfg.kernel_size,
            stride=cfg.stride, padding=cfg.padding, bias=False,
        )
        conv.weight.data = layer.weights_int.astype(np.float32)
        spikes = self._spikes((3, cfg.in_channels, cfg.in_height, cfg.in_width), seed=1)
        core = SpikingCore()
        want = sum(
            core.conv_timestep(step.astype(np.int64), layer.weights_int, cfg.stride, cfg.padding)[1].synaptic_ops
            for step in spikes
        )
        model = _one_layer_snn(conv)
        for engine in ENGINES:
            net = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
            net.forward(SpikeStream.from_dense(spikes))
            assert net.last_run_stats.layers[0].synaptic_ops == want, engine

    def test_mapped_linear(self, mapped):
        layer = next(l for l in mapped.layers if l.config.kind.value == "fc")
        w = layer.weights_int
        linear = nn.Linear(w.shape[1], w.shape[0], bias=False)
        linear.weight.data = w.astype(np.float32)
        spikes = self._spikes((3, w.shape[1]), seed=2)
        core = SpikingCore()
        want = sum(core.fc_timestep(step.astype(np.int64), w)[1].synaptic_ops for step in spikes)
        model = _one_layer_snn(linear)
        for engine in ENGINES:
            net = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
            net.forward(SpikeStream.from_dense(spikes))
            assert net.last_run_stats.layers[0].synaptic_ops == want, engine


class TestCount:
    """The count's two forms against the im2col matrix itself."""

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 9, 11), 3, 1, 1),
            ((2, 3, 16, 16), 3, 1, 1),
            ((2, 3, 16, 16), 5, 1, 2),
            ((1, 4, 12, 12), 3, 2, 1),
            ((1, 4, 12, 12), 1, 2, 0),
            ((1, 2, 4, 4), 3, 1, 1),
            ((1, 2, 10, 10), 4, 4, 0),
        ],
    )
    def test_dense_and_event_forms_equal_im2col(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(sum(shape) + kernel)
        x = (rng.random(shape) < 0.3) * rng.normal(size=shape).astype(np.float32)
        x = x.astype(np.float32)
        cols, _, _ = im2col(x, kernel, stride, padding)
        want = int(np.count_nonzero(cols))
        conv = nn.Conv2d(shape[1], 5, kernel, stride=stride, padding=padding)
        assert _conv_taps(x, conv, None) == (int(np.count_nonzero(x)), want)
        assert _conv_taps(x, conv, int(np.count_nonzero(x)))[1] == want
        stat = LayerStats(name="c", kind="conv")
        coords = np.argwhere(x)
        bill_synapse(conv, stat, StepSpikes(coords=coords, shape=shape, values=x[tuple(coords.T)]))
        assert stat.synaptic_ops == want * 5
        assert stat.input_nonzero == coords.shape[0]
        assert stat.input_size == x.size

    def test_coverage_counts_windows(self):
        # 5 inputs, K=3, pad 1, stride 1: the border pixels sit in 2
        # windows, the rest in 3; stride 2 gives 3 windows of which the
        # odd positions see one and the even interior ones two.
        assert list(_coverage(5, 3, 1, 1)) == [2, 3, 3, 3, 2]
        assert list(_coverage(5, 3, 2, 1)) == [1, 2, 1, 2, 1]

    def test_repeat_bills_a_constant_prefix(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        conv = nn.Conv2d(3, 4, 3, padding=1)
        once, tiled = LayerStats(name="a"), LayerStats(name="b")
        bill_synapse(conv, once, x, repeat=3)
        bill_synapse(conv, tiled, np.concatenate([x, x, x]))
        assert (once.synaptic_ops, once.dense_synaptic_ops, once.input_nonzero) == (
            tiled.synaptic_ops, tiled.dense_synaptic_ops, tiled.input_nonzero
        )
