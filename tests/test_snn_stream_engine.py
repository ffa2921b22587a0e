"""SpikeStream dataflow acceptance: engines, accelerator, hw traffic.

The contract: running an engine on a COO `SpikeStream` must produce
*bit-identical* predictions and synaptic ops to the dense-input path on
the VGG and ResNet test models — the stream carries coordinates across
layers, it never changes arithmetic or billing — and the hardware Table-1/Table-4/traffic experiments must
accept a measured spike trace sourced from stream metadata.
"""

import numpy as np
import pytest

from repro.data import SyntheticCIFAR, direct_encode_stream, rate_encode_stream
from repro.pipeline import build_quantized_twin
from repro.snn import SpikingNetwork, convert_to_snn
from repro.snn.spikes import SpikeStream
from repro.tensor import Tensor, no_grad

from test_snn_engine import converted_pooled_toy, converted_resnet, force_lanes

TIMESTEPS = 4


@pytest.fixture(scope="module")
def converted_vgg():
    """A BN-warmed converted VGG at the repo's benchmark geometry."""
    model = build_quantized_twin(
        "vgg11", width=0.125, num_classes=10, levels=2, seed=0
    )
    rng = np.random.default_rng(1)
    model.train()
    with no_grad():
        for _ in range(2):
            model(Tensor(rng.normal(size=(4, 3, 32, 32)).astype(np.float32)))
    model.eval()
    return convert_to_snn(model)


@pytest.fixture(scope="module")
def frames():
    return SyntheticCIFAR(num_train=8, num_test=6, noise=0.8, seed=3).test_x[:4]


def _run_both(model, x, engine):
    """(logits, stats) for the dense-input and stream-input paths."""
    net = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
    dense_logits = net.forward(x)
    dense_stats = net.last_run_stats
    stream_logits = net.forward(direct_encode_stream(x, TIMESTEPS))
    stream_stats = net.last_run_stats
    return dense_logits, dense_stats, stream_logits, stream_stats


class TestStreamEquivalence:
    """Acceptance: bit-identical predictions and synaptic ops between
    the dense-input and stream-input paths of the COO engine."""

    def test_vgg_bit_identical(self, converted_vgg, frames):
        ld, sd, ls, ss = _run_both(converted_vgg, frames, "event-batched")
        assert np.array_equal(ld, ls)  # logits, not just predictions
        assert np.array_equal(ld.argmax(1), ls.argmax(1))
        assert sd.total_synaptic_ops == ss.total_synaptic_ops
        assert sd.total_dense_synaptic_ops == ss.total_dense_synaptic_ops
        for a, b in zip(sd.layers, ss.layers):
            assert a.synaptic_ops == b.synaptic_ops, a.name

    def test_resnet_bit_identical(self, frames):
        model = converted_resnet()
        ld, sd, ls, ss = _run_both(model, frames, "event-batched")
        assert np.array_equal(ld, ls)
        assert sd.total_synaptic_ops == ss.total_synaptic_ops

    def test_stream_densities_come_from_metadata(self, converted_vgg, frames):
        """The profiler's density record on the stream path (sourced
        from carried coordinates) equals the dense path's scans."""
        _, sd, _, ss = _run_both(converted_vgg, frames, "event-batched")
        for a, b in zip(sd.layers, ss.layers):
            if a.kind != "neuron":
                assert a.input_nonzero == b.input_nonzero, a.name
                assert a.input_size == b.input_size, a.name

    def test_pooled_chain_bit_identical(self, ):
        model = converted_pooled_toy()
        x = np.random.default_rng(11).normal(size=(4, 2, 8, 8)).astype(np.float32)
        ld, sd, ls, ss = _run_both(model, x, "event-batched")
        assert np.array_equal(ld, ls)
        assert sd.total_synaptic_ops == ss.total_synaptic_ops


def _sparse_stream(shape, timesteps, p, seed, values=None):
    """A random binary (or valued) COO stream at the given density."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((timesteps,) + shape) < p).astype(np.float32)
    if values is not None:
        dense *= values
    return SpikeStream.from_dense(dense)


class TestEventBatchedBitExact:
    """Acceptance: the COO-native event-batched fast paths (conv/linear
    gather, pooling, BN-at-sites, sparse neuron update) are bitwise
    equivalent to the dense time-batched reference — same logits, same
    per-step outputs, same billed dense ops, same SpikeTrace densities."""

    def _both(self, model, x, timesteps=TIMESTEPS):
        out = {}
        for engine in ("batched", "event-batched"):
            net = SpikingNetwork(model, timesteps=timesteps, engine=engine)
            out[engine] = (net.forward(x), net.last_run_stats)
        return out["batched"], out["event-batched"]

    def test_vgg_stream_bitwise(self, converted_vgg, frames):
        stream = _sparse_stream(frames.shape, TIMESTEPS, 0.01, seed=21)
        (ld, sd), (le, se) = self._both(converted_vgg, stream)
        assert np.array_equal(ld, le)
        # Both engines bill the same ops layer by layer, whichever
        # kernel ran.
        for a, b in zip(sd.layers, se.layers):
            assert a.dense_synaptic_ops == b.dense_synaptic_ops, a.name
            assert b.synaptic_ops == a.synaptic_ops, a.name
        assert se.total_synaptic_ops < se.total_dense_synaptic_ops

    def test_resnet_stream_bitwise(self, frames):
        model = converted_resnet()
        stream = _sparse_stream(frames.shape, TIMESTEPS, 0.02, seed=22)
        (ld, sd), (le, se) = self._both(model, stream)
        assert np.array_equal(ld, le)
        assert se.total_dense_synaptic_ops == sd.total_dense_synaptic_ops

    def test_vgg_dense_frames_parity(self, converted_vgg, frames):
        """Dense (frame) inputs take the same schedule steps — parity must
        hold when most layers fall back to the GEMM path.  Tolerance is
        one ulp, not zero: a row-subset GEMM can hit a different BLAS
        micro-kernel than the full-batch GEMM (kernel choice depends on
        M), legitimately moving the last bit of a gathered row."""
        (ld, _), (le, _) = self._both(converted_vgg, frames)
        assert np.array_equal(ld.argmax(1), le.argmax(1))
        assert np.allclose(ld, le, atol=1e-6)

    def test_pooled_chain_bitwise(self):
        model = converted_pooled_toy()
        stream = _sparse_stream((4, 2, 8, 8), TIMESTEPS, 0.05, seed=23)
        (ld, _), (le, _) = self._both(model, stream)
        assert np.array_equal(ld, le)

    def test_per_step_outputs_bitwise(self, converted_vgg, frames):
        stream = _sparse_stream(frames.shape, TIMESTEPS, 0.01, seed=24)
        nets = {
            e: SpikingNetwork(converted_vgg, timesteps=TIMESTEPS, engine=e)
            for e in ("batched", "event-batched")
        }
        steps_b = nets["batched"].forward_per_step(stream)
        steps_e = nets["event-batched"].forward_per_step(stream)
        assert len(steps_e) == TIMESTEPS
        for a, b in zip(steps_b, steps_e):
            assert np.array_equal(a, b)

    def test_spike_trace_densities_match(self, converted_vgg, frames):
        stream = _sparse_stream(frames.shape, TIMESTEPS, 0.01, seed=25)
        (_, sd), (_, se) = self._both(converted_vgg, stream)
        trace_b = sd.spike_trace()
        trace_e = se.spike_trace()
        assert trace_b.rates() == trace_e.rates()
        for a, b in zip(sd.layers, se.layers):
            if a.kind == "neuron":
                assert a.spike_rate == b.spike_rate, a.name

    def test_sparse_neuron_background_paths(self, monkeypatch):
        """The screened site-neuron update engages on sparse site sets
        and stays bitwise for both a silent background (bias-free conv:
        untouched sites never fire) and a firing one (large conv bias:
        every untouched site follows the shared background
        trajectory)."""
        from repro import nn
        from repro.snn.engines import event_batched as eb_mod
        from repro.snn.neurons import IFNeuron

        engaged = []
        orig = eb_mod.EventBatchedEngine._site_neuron

        def spy(self, module, data, sites):
            out = orig(self, module, data, sites)
            engaged.append(out is not None)
            return out

        monkeypatch.setattr(eb_mod.EventBatchedEngine, "_site_neuron", spy)

        rng = np.random.default_rng(4)
        for bias in (None, 1.5):
            conv = nn.Conv2d(2, 6, 3, padding=1, bias=bias is not None, rng=rng)
            if bias is not None:
                conv.bias.data[:] = bias  # background fires every step
            model = nn.Sequential(conv, IFNeuron(threshold=1.0))
            model.eval()
            stream = _sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.005, seed=26)
            engaged.clear()
            (ld, sd), (le, se) = self._both(model, stream)
            assert any(engaged), f"sparse neuron path not taken (bias={bias})"
            assert np.array_equal(ld, le), f"bias={bias}"
            for a, b in zip(sd.layers, se.layers):
                if a.kind == "neuron":
                    assert a.spike_rate == b.spike_rate

    def test_sparse_neuron_after_bn_background(self, monkeypatch):
        """BN of site values hands the neuron a nonzero per-channel
        background (BN of the conv's background); the screened
        shared-trajectory update must stay bitwise through that path
        too."""
        from repro import nn
        from repro.snn.engines import event_batched as eb_mod
        from repro.snn.neurons import IFNeuron

        engaged = []
        orig = eb_mod.EventBatchedEngine._site_neuron

        def spy(self, module, data, sites):
            out = orig(self, module, data, sites)
            engaged.append(out is not None)
            return out

        monkeypatch.setattr(eb_mod.EventBatchedEngine, "_site_neuron", spy)

        rng = np.random.default_rng(5)
        bn = nn.BatchNorm2d(6)
        bn.running_mean[:] = rng.normal(0, 0.05, 6).astype(np.float32)
        bn.running_var[:] = 1 + rng.normal(0, 0.1, 6).astype(np.float32) ** 2
        model = nn.Sequential(
            nn.Conv2d(2, 6, 3, padding=1, bias=False, rng=rng),
            bn,
            IFNeuron(threshold=1.0),
        )
        model.eval()
        stream = _sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.005, seed=27)
        (ld, _), (le, _) = self._both(model, stream)
        assert any(engaged), "sparse neuron path not taken after BN"
        assert np.array_equal(ld, le)


def _bn(channels, seed):
    """An eval BN with nontrivial running statistics."""
    from repro import nn

    rng = np.random.default_rng(seed)
    bn = nn.BatchNorm2d(channels)
    bn.running_mean[:] = rng.normal(0, 0.05, channels).astype(np.float32)
    bn.running_var[:] = 1 + rng.normal(0, 0.1, channels).astype(np.float32) ** 2
    bn.eval()
    return bn


def _residual_chain(seed):
    """Conv -> BN -> IF whose conv output is also added back: the add
    is not site-aware, so the chain runs on dense planes."""
    from repro import nn
    from repro.snn.neurons import IFNeuron

    class Residual(nn.Module):
        def __init__(self):
            super().__init__()
            self.conv = nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(seed))
            self.bn = _bn(2, seed)
            self.sn = IFNeuron(threshold=1.0)

        def forward(self, x):
            y = self.conv(x)
            return self.sn(self.bn(y)) + y

    return Residual()


def _custom_forward_chain(seed):
    """A Sequential subclass whose own forward reads the conv output
    twice (into BN and into the sum)."""
    from repro import nn
    from repro.snn.neurons import IFNeuron

    class Skip(nn.Sequential):
        def forward(self, x):
            y = self[0](x)
            return self[2](self[1](y)) + y

    return Skip(
        nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(seed)),
        _bn(2, seed),
        IFNeuron(threshold=1.0),
    )


def _shared_conv_chain(seed):
    """One conv instance in two slots of a Sequential."""
    from repro import nn
    from repro.snn.neurons import IFNeuron

    conv = nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(seed))
    return nn.Sequential(
        conv, _bn(2, seed), IFNeuron(threshold=1.0),
        conv, _bn(2, seed + 1), IFNeuron(threshold=1.0),
    )


def _with_head(body):
    """``body`` followed by a readout of its pooled output.  No linear
    layer: these tests pin the chain itself
    (``test_linear_head_bitwise`` covers a linear readout)."""
    from repro import nn

    return nn.Sequential(body, nn.AvgPool2d(2), nn.Flatten())


class TestSiteValuedChains:
    """Conv -> [BN ->] IF chains of a Sequential carry the conv output as
    site values (rows, value block, background) into the screened neuron
    step; everything else sees dense planes.  All of it is bitwise."""

    def _run(self, model, x, engine, timesteps=TIMESTEPS):
        net = SpikingNetwork(model, timesteps=timesteps, engine=engine)
        return net.forward(x), net.last_run_stats

    @staticmethod
    def _membranes(model):
        from repro.snn.neurons import IFNeuron

        return [m.v.copy() for m in model.modules() if isinstance(m, IFNeuron)]

    def test_linear_head_bitwise(self):
        """A linear readout over a carried stream multiplies every stack
        row: a GEMM over the rows with events alone may pick another
        BLAS kernel for the smaller M and differ in the last bit.  The
        rule's ``linear`` gate runs it and bills the events."""
        from repro import nn
        from repro.snn.neurons import IFNeuron

        for seed in range(40):
            model = nn.Sequential(
                nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(seed)),
                _bn(2, seed),
                IFNeuron(threshold=1.0),
                nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(seed + 1)),
                _bn(2, seed + 1),
                IFNeuron(threshold=1.0),
                nn.AvgPool2d(2),
                nn.Flatten(),
                nn.Linear(72, 5, rng=np.random.default_rng(seed + 2)),
            )
            stream = _sparse_stream((4, 2, 12, 12), 4, 0.01, seed=seed)
            ref, _ = self._run(model, stream, "batched")
            logits, stats = self._run(model, stream, "event-batched")
            head = stats.layers[-1]
            assert (head.backend, head.backend_source) == ("gemm", "linear")
            assert np.array_equal(ref, logits), f"seed {seed}"

    def test_biased_conv_bn_background(self):
        """A biased conv's background is its bias, so BN must map that,
        not zero: the serve demo net (Conv2d with bias -> BN -> IF) with
        a nonzero bias, on event-batched (also named auto), whose rule
        runs the conv on COO."""
        from repro.serve.app import build_demo_network

        model, shape = build_demo_network((2, 16, 16))
        model[0].bias.data[:] = np.linspace(-0.6, 0.6, 8, dtype=np.float32)
        stream = _sparse_stream((4,) + shape, 8, 0.01, seed=0)
        ref, ref_stats = self._run(model, stream, "batched")
        ref_v = self._membranes(model)
        logits, eb_stats = self._run(model, stream, "auto")
        assert [l.backend for l in eb_stats.layers][0] == "event-batched"
        assert np.array_equal(ref, logits)
        for a, b in zip(ref_v, self._membranes(model)):
            assert np.array_equal(a, b)
        for a, b in zip(ref_stats.layers, eb_stats.layers):
            assert a.spike_count == b.spike_count, a.name

    def test_chain_hands_site_values(self, monkeypatch):
        """In a Sequential chain no dense conv plane is built: the neuron
        receives the conv's active rows, their value block and the
        background, and only the screened sites are stepped."""
        from repro import nn
        from repro.snn.engines import event_batched as eb_mod
        from repro.snn.neurons import IFNeuron

        seen = []
        orig = eb_mod.EventBatchedEngine._site_neuron

        def spy(self, module, stat, sites):
            seen.append((sites.values is not None, sites.plane is None))
            return orig(self, module, stat, sites)

        built = []
        dense_plane = eb_mod._dense_plane

        def plane_spy(sites):
            built.append(sites.shape)
            return dense_plane(sites)

        monkeypatch.setattr(eb_mod.EventBatchedEngine, "_site_neuron", spy)
        monkeypatch.setattr(eb_mod, "_dense_plane", plane_spy)
        model = _with_head(
            nn.Sequential(
                nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(1)),
                _bn(2, 1),
                IFNeuron(threshold=1.0),
            )
        )
        stream = _sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=41)
        ref, _ = self._run(model, stream, "batched")
        out, stats = self._run(model, stream, "event-batched")
        assert np.array_equal(ref, out)
        assert seen == [(True, True)]
        assert built == []
        assert [l.backend for l in stats.layers] == ["event-batched", "sites"]

    @pytest.mark.parametrize(
        "build", [_residual_chain, _custom_forward_chain, _shared_conv_chain]
    )
    def test_unproven_consumers_get_dense_planes(self, build):
        """A residual add outside :class:`repro.nn.Residual`, a custom
        forward reading the conv output twice, and a conv shared between
        two slots are not provable chains: the compiler refuses them,
        and every time-batched engine runs them on the time-outer path
        — the modules' own ``forward``s on dense planes, synapse layers
        billed by the interceptor — bitwise equal to ``dense``: logits,
        per-step logits, spike and op counts, membranes."""
        from repro.snn.engines.batched import _compile

        model = _with_head(build(2))
        assert _compile(model) is None
        stream = _sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=42)
        ref, ref_stats = self._run(model, stream, "dense")
        ref_steps = SpikingNetwork(model, TIMESTEPS, engine="dense").forward_per_step(stream)
        ref_v = self._membranes(model)
        for engine in ("batched", "event-batched"):
            out, stats = self._run(model, stream, engine)
            assert np.array_equal(ref, out), engine
            steps = SpikingNetwork(model, TIMESTEPS, engine=engine).forward_per_step(stream)
            assert all(np.array_equal(a, b) for a, b in zip(ref_steps, steps))
            assert {l.backend for l in stats.layers} == {""}
            for a, b in zip(ref_stats.layers, stats.layers):
                assert (a.spike_count, a.synaptic_ops, a.dense_synaptic_ops) == (
                    b.spike_count, b.synaptic_ops, b.dense_synaptic_ops
                ), a.name
            for a, b in zip(ref_v, self._membranes(model)):
                assert np.array_equal(a, b)

    def test_compiler_refuses_unproven_chains(self):
        """Only a chain whose every consumer is proven compiles: the
        same layers as a plain Sequential do, and so does a residual add
        declared as an :class:`repro.nn.Residual`; behind a residual add
        in a ``forward`` of their own, a custom forward or a shared slot
        they do not."""
        from repro import nn
        from repro.snn.engines.batched import _compile
        from repro.snn.neurons import IFNeuron

        def plain():
            return nn.Sequential(
                nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(3)),
                _bn(2, 3),
                IFNeuron(threshold=1.0),
            )

        assert [(n, b) for n, _, b in _compile(_with_head(plain()))] == [
            ("0.0", None), ("0.1", None), ("0.2", None), ("1", None), ("2", None),
        ]

        class Declared(nn.Residual):
            def __init__(self):
                super().__init__()
                self.body = plain()
                self.skip = nn.Identity()
                self.sn = IFNeuron(threshold=1.0)

            def parts(self):
                return (self.body,), self.skip, self.sn

        (name, block, (main, shortcut, post)), *head = _compile(_with_head(Declared()))
        assert name == "0" and isinstance(block, Declared)
        assert [n for n, _, _ in main] == ["0.body.0", "0.body.1", "0.body.2"]
        assert shortcut == [] and [n for n, _, _ in post] == ["0.sn"]
        assert [n for n, _, _ in head] == ["1", "2"]
        for build in (_residual_chain, _custom_forward_chain, _shared_conv_chain):
            assert _compile(_with_head(build(3))) is None, build.__name__

    def test_screen_skips_and_steps_cells(self, monkeypatch):
        """The screen drops cells that never reach threshold and steps
        the ones that do; both kinds occur and the result is bitwise."""
        from repro import nn
        from repro.snn.engines import event_batched as eb_mod
        from repro.snn.neurons import IFNeuron

        screened = []
        orig = eb_mod._screen

        def spy(xt, site, sites, *args):
            kept = orig(xt, site, sites, *args)
            screened.append((sites, kept.size))
            return kept

        monkeypatch.setattr(eb_mod, "_screen", spy)
        model = _with_head(
            nn.Sequential(
                nn.Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(4)),
                _bn(2, 4),
                IFNeuron(threshold=0.5),
            )
        )
        stream = _sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.005, seed=44)
        ref, ref_stats = self._run(model, stream, "batched")
        out, stats = self._run(model, stream, "event-batched")
        assert np.array_equal(ref, out)
        assert ref_stats.layers[1].spike_count == stats.layers[1].spike_count > 0
        assert screened
        cells, stepped = screened[0]
        assert 0 < stepped < cells

    @pytest.mark.parametrize("bias", [None, 1.2])
    def test_leaky_neurons_take_the_site_path(self, monkeypatch, bias):
        """LIF neurons get the same screened update (leak first, as the
        stepper does) for a silent and a firing background."""
        from repro import nn
        from repro.snn.engines import event_batched as eb_mod
        from repro.snn.neurons import LIFNeuron

        engaged = []
        orig = eb_mod.EventBatchedEngine._site_neuron

        def spy(self, module, data, sites):
            out = orig(self, module, data, sites)
            engaged.append(out is not None)
            return out

        monkeypatch.setattr(eb_mod.EventBatchedEngine, "_site_neuron", spy)
        conv = nn.Conv2d(
            2, 2, 3, padding=1, bias=bias is not None, rng=np.random.default_rng(5)
        )
        if bias is not None:
            conv.bias.data[:] = bias
        model = _with_head(
            nn.Sequential(conv, _bn(2, 5), LIFNeuron(threshold=1.0, leak=0.8))
        )
        stream = _sparse_stream((4, 2, 24, 24), 6, 0.004, seed=45)
        ref, ref_stats = self._run(model, stream, "batched", timesteps=6)
        ref_v = self._membranes(model)
        out, stats = self._run(model, stream, "event-batched", timesteps=6)
        assert engaged == [True]
        assert np.array_equal(ref, out)
        assert ref_stats.layers[1].spike_count == stats.layers[1].spike_count
        for a, b in zip(ref_v, self._membranes(model)):
            assert np.array_equal(a, b)


class TestStackedRoundTrip:
    """Multi-step coordinate batches: ``stacked()`` folds a stream's T
    per-step coordinate sets into one (T*N)-batch StepSpikes and
    ``from_stacked`` recovers the stream exactly."""

    def test_binary_round_trip(self, frames):
        stream = _sparse_stream(frames.shape, 5, 0.03, seed=31)
        stacked = stream.stacked()
        assert stacked.shape[0] == 5 * stream.batch_size
        back = SpikeStream.from_stacked(stacked, 5)
        assert back.timesteps == stream.timesteps
        assert back.shape == stream.shape
        assert np.array_equal(back.to_dense(), stream.to_dense())
        for t in range(stream.timesteps):
            a, b = stream.step(t), back.step(t)
            assert np.array_equal(
                a.to_dense(), b.to_dense()
            ), f"step {t} differs"

    def test_valued_round_trip(self, frames):
        rng = np.random.default_rng(32)
        values = rng.normal(1.0, 0.2, (5,) + frames.shape).astype(np.float32)
        stream = _sparse_stream(frames.shape, 5, 0.03, seed=33, values=values)
        assert stream.values is not None
        back = SpikeStream.from_stacked(stream.stacked(), 5)
        assert np.array_equal(back.to_dense(), stream.to_dense())

    def test_stacked_density_matches(self, frames):
        stream = _sparse_stream(frames.shape, 5, 0.03, seed=34)
        assert stream.stacked().density == pytest.approx(stream.density)

    def test_empty_steps_survive(self):
        dense = np.zeros((3, 2, 1, 4, 4), dtype=np.float32)
        dense[1, 0, 0, 1, 2] = 1.0  # only the middle step has an event
        stream = SpikeStream.from_dense(dense)
        back = SpikeStream.from_stacked(stream.stacked(), 3)
        assert np.array_equal(back.to_dense(), dense)


class TestAllEnginesAcceptStreams:
    def test_binary_stream_agrees_across_backends(self, converted_vgg, frames):
        stream = rate_encode_stream(frames, 6, rng=np.random.default_rng(5))
        logits = {}
        ops = {}
        for engine in ("dense", "batched", "event-batched", "auto"):
            net = SpikingNetwork(converted_vgg, timesteps=6, engine=engine)
            logits[engine] = net.forward(stream)
            ops[engine] = net.last_run_stats.total_synaptic_ops
        for engine in ("batched", "event-batched", "auto"):
            assert np.allclose(logits["dense"], logits[engine], atol=1e-4), engine
            assert np.array_equal(
                logits["dense"].argmax(1), logits[engine].argmax(1)
            ), engine
        # The batched-COO path is bitwise against its dense reference.
        assert np.array_equal(logits["batched"], logits["event-batched"])
        # One op rule: the GEMM and COO backends bill the same ops.
        assert ops["batched"] == ops["event-batched"] == ops["auto"]

    def test_per_step_stream_matches_dense_input(self, converted_vgg, frames):
        for engine in ("batched", "auto"):
            net = SpikingNetwork(converted_vgg, timesteps=TIMESTEPS, engine=engine)
            steps_dense = net.forward_per_step(frames)
            steps_stream = net.forward_per_step(direct_encode_stream(frames, TIMESTEPS))
            assert len(steps_stream) == TIMESTEPS
            for a, b in zip(steps_dense, steps_stream):
                assert np.array_equal(a, b), engine

    def test_stream_supplies_default_timesteps(self, converted_vgg, frames):
        net = SpikingNetwork(converted_vgg, timesteps=8, engine="auto")
        stream = rate_encode_stream(frames, 3, rng=np.random.default_rng(6))
        net.forward(stream)  # no explicit T: the stream's 3 wins
        assert net.last_run_stats.timesteps == 3

    def test_explicit_timestep_mismatch_fails(self, converted_vgg, frames):
        net = SpikingNetwork(converted_vgg, timesteps=8, engine="auto")
        stream = rate_encode_stream(frames, 3, rng=np.random.default_rng(6))
        with pytest.raises(ValueError, match="SpikeStream"):
            net.forward(stream, timesteps=8)

    def test_accuracy_helpers_accept_streams(self, converted_vgg, frames):
        """accuracy()/accuracy_per_step() resolve T from the stream like
        forward() does (streams slice per evaluation batch)."""
        net = SpikingNetwork(converted_vgg, timesteps=8, engine="auto")
        stream = rate_encode_stream(frames, 3, rng=np.random.default_rng(6))
        y = np.zeros(stream.batch_size, dtype=np.int64)
        acc = net.accuracy(stream, y, batch_size=2)
        per_step = net.accuracy_per_step(stream, y, batch_size=2)
        assert 0.0 <= acc <= 1.0
        assert len(per_step) == 3  # the stream's T, not the default 8
        assert per_step[-1] == pytest.approx(acc)


class TestStreamSharding:
    """Lanes and forked processes slice a stream's batch axis like a
    dense batch: 4 samples in 2-sample blocks, two lanes."""

    @pytest.fixture
    def lanes_on(self, monkeypatch):
        return force_lanes(monkeypatch, 2, TIMESTEPS)

    def _serial(self, monkeypatch, lanes_module, engine, stream):
        with monkeypatch.context() as patch:
            patch.setattr(lanes_module, "blas_thread_setter", lambda: None)
            return engine.run(stream, TIMESTEPS)

    def test_thread_shards_match_single(self, converted_vgg, frames, lanes_on, monkeypatch):
        from repro.snn.engines import make_engine

        stream = rate_encode_stream(frames, TIMESTEPS, rng=np.random.default_rng(7))
        for name in ("event-batched", "auto"):
            engine = make_engine(name).bind(converted_vgg)
            single = self._serial(monkeypatch, lanes_on, engine, stream)
            sharded = engine.run(stream, TIMESTEPS)
            assert (single.stats.lanes, sharded.stats.lanes) == (1, 2)
            assert np.array_equal(single.logits, sharded.logits), name
            assert sharded.stats.total_synaptic_ops == single.stats.total_synaptic_ops

    def test_fork_shards_match_single(self, converted_vgg, frames, lanes_on, monkeypatch):
        from repro.eval.supervisor import fork_available
        from repro.snn.engines import make_engine
        from test_snn_blocked_runs import run_in_fork

        if not fork_available():
            pytest.skip("fork unavailable")
        stream = rate_encode_stream(frames, TIMESTEPS, rng=np.random.default_rng(8))
        engine = make_engine("event-batched").bind(converted_vgg)
        single = self._serial(monkeypatch, lanes_on, engine, stream)
        forked = run_in_fork(engine, stream)
        assert forked.stats.lanes == 2
        assert np.array_equal(single.logits, forked.logits)


class TestHardwareAcceptsStreams:
    """Acceptance: hw Table-1/Table-4/traffic take a measured spike
    trace sourced from SpikeStream metadata, and the integer SIA runs
    an event stream directly."""

    @pytest.fixture(scope="class")
    def mapped_and_trace(self, converted_vgg, frames):
        from repro.hw import map_network

        mapped = map_network(converted_vgg, calibration_input=frames)
        stream = rate_encode_stream(frames, TIMESTEPS, rng=np.random.default_rng(9))
        net = SpikingNetwork(converted_vgg, timesteps=TIMESTEPS, engine="auto")
        net.forward(stream)
        return mapped, net.last_run_stats.spike_trace(), stream

    def test_accelerator_runs_event_stream(self, mapped_and_trace):
        from repro.hw import SpikingInferenceAccelerator

        mapped, _, stream = mapped_and_trace
        sia = SpikingInferenceAccelerator(mapped)
        logits, report = sia.run(stream)
        assert logits.shape == (stream.batch_size, 10)
        assert report.engine == "sia-event-stream"
        assert report.timesteps == stream.timesteps
        assert report.total_synaptic_ops > 0

    def test_accelerator_rejects_explicit_timestep_mismatch(self, mapped_and_trace):
        from repro.hw import SpikingInferenceAccelerator

        mapped, _, stream = mapped_and_trace
        sia = SpikingInferenceAccelerator(mapped)
        with pytest.raises(ValueError, match="SpikeStream"):
            sia.run(stream, timesteps=stream.timesteps + 1)

    def test_accelerator_rejects_valued_streams(self, mapped_and_trace, frames):
        from repro.hw import SpikingInferenceAccelerator

        mapped, _, _ = mapped_and_trace
        sia = SpikingInferenceAccelerator(mapped)
        with pytest.raises(ValueError, match="binary"):
            sia.run(direct_encode_stream(frames, TIMESTEPS))

    def test_traffic_model_accepts_trace_and_stream(self, mapped_and_trace):
        from repro.hw import PYNQ_Z2, TrafficModel

        mapped, trace, stream = mapped_and_trace
        model = TrafficModel(PYNQ_Z2)
        dense = model.network_traffic(mapped, timesteps=TIMESTEPS)
        measured = model.network_traffic(
            mapped, timesteps=TIMESTEPS, measured=trace, input_stream=stream
        )
        assert measured.measured and not dense.measured
        # Event-coded transfers never cost more than the dense bitmap
        # (each plane ships the cheaper of bitmap and AER coding).
        assert measured.total_bytes <= dense.total_bytes
        spikes_dense = sum(l.spike_in_bytes + l.spike_out_bytes for l in dense.layers)
        spikes_measured = sum(
            l.spike_in_bytes + l.spike_out_bytes for l in measured.layers
        )
        assert spikes_measured < spikes_dense

    def test_table1_and_table4_accept_trace(self, mapped_and_trace):
        from repro.eval.experiments import table1_experiment, table4_experiment

        _, trace, _ = mapped_and_trace
        rows = table1_experiment(measured={"vgg11": trace})
        assert rows["vgg11"]  # resolved against the mapped geometry
        result = table4_experiment(run_stats=trace)
        assert result["measured_op_saving"] == pytest.approx(
            trace.synaptic_op_saving
        )
        assert result["dense_equivalent_gops"] > 0

    def test_spike_trace_requires_profiling(self, converted_vgg, frames):
        from repro.snn import TimeBatchedEngine

        net = SpikingNetwork(
            converted_vgg,
            timesteps=TIMESTEPS,
            engine=TimeBatchedEngine(profile_layers=False),
        )
        net.forward(frames)
        with pytest.raises(ValueError, match="profile_layers"):
            net.last_run_stats.spike_trace()
