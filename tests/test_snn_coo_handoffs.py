"""Coordinate-only handoffs between layers of the COO pipeline.

On a sparse stream, ``event-batched`` (also named ``auto``) hands spikes
from a neuron to a proven pool, and from a pool or the input stream to a
proven conv, as registered coordinates behind a NaN placeholder: no
dense plane is built between those layers, the conv builds its im2col
rows by scattering the events into the windows they feed, and the
neurons' membrane and ``last_spikes`` are built only when read.  Every one of these handoffs
must be bitwise equal to ``batched`` — logits, per-step outputs, spike
counts, membranes, ``last_spikes`` — and bill the same per-layer ops as
a run that builds every plane.  A consumer the handoff does not cover
gets the dense plane (``_materialize``).
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data.events import SyntheticDVS
from repro.snn import SpikingNetwork, convert_to_snn
from repro.snn.engines import event_batched as eb_mod
from repro.snn.neurons import IFNeuron
from repro.snn.spikes import SpikeStream
from repro.tensor import Tensor, functional, no_grad

TIMESTEPS = 4


def sparse_stream(shape, timesteps, p, seed):
    rng = np.random.default_rng(seed)
    return SpikeStream.from_dense(
        (rng.random((timesteps,) + shape) < p).astype(np.float32)
    )


def _converted(layers, shape, seed):
    """A BN-warmed converted copy of a QuantReLU CNN."""
    rng = np.random.default_rng(seed)
    model = nn.Sequential(*layers)
    model.train()
    with no_grad():
        for _ in range(3):
            model(Tensor((rng.random((8,) + shape) < 0.05).astype(np.float32)))
    model.eval()
    return convert_to_snn(model)


def converted_coo_cnn(pool, seed=0, size=24, head_pool=None):
    """conv -> BN -> IF -> ``pool`` -> conv -> BN -> IF -> pool -> linear,
    bias-free like the DVS front end, on ``size``-square inputs."""
    rng = np.random.default_rng(seed)
    head_pool = head_pool or nn.AvgPool2d(2)
    probe = nn.Sequential(pool, nn.Conv2d(4, 8, 3, padding=1), head_pool)
    with no_grad():
        side = probe(Tensor(np.zeros((1, 4, size, size), np.float32))).shape[-1]
    return _converted(
        [
            nn.Conv2d(2, 4, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(4),
            nn.QuantReLU(levels=2, init_step=1.5),
            pool,
            nn.Conv2d(4, 8, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(8),
            nn.QuantReLU(levels=2, init_step=1.0),
            head_pool,
            nn.Flatten(),
            nn.Linear(8 * side * side, 5, rng=rng),
        ],
        (2, size, size),
        seed,
    )


def _neurons(model):
    return [m for m in model.modules() if isinstance(m, IFNeuron)]


def _run(model, stream, engine):
    """Logits, per-step outputs, stats, membranes and last spikes."""
    net = SpikingNetwork(model, timesteps=stream.timesteps, engine=engine)
    steps = net.forward_per_step(stream)
    stats = net.last_run_stats
    logits = net.forward(stream)
    state = [(m.v.copy(), m.last_spikes.copy()) for m in _neurons(model)]
    return logits, steps, stats, state


def _assert_bitwise(model, stream, engine="event-batched"):
    """``engine`` equals ``batched`` and bills what a run that builds
    every plane bills, layer by layer."""
    ref_logits, ref_steps, ref_stats, ref_state = _run(model, stream, "batched")
    logits, steps, stats, state = _run(model, stream, engine)
    assert np.array_equal(ref_logits, logits)
    assert len(ref_steps) == len(steps)
    for a, b in zip(ref_steps, steps):
        assert np.array_equal(a, b)
    for a, b in zip(ref_stats.layers, stats.layers):
        assert a.spike_count == b.spike_count, a.name
        assert a.dense_synaptic_ops == b.dense_synaptic_ops, a.name
        assert a.input_nonzero == b.input_nonzero, a.name
    for (rv, rs), (v, s) in zip(ref_state, state):
        assert np.array_equal(rv, v)
        assert np.array_equal(rs, s)
    return stats


def _ops_without_handoffs(model, stream, engine, monkeypatch):
    """Per-layer billed ops of a run whose producers build every plane."""
    with monkeypatch.context() as patch:
        patch.setattr(eb_mod, "_coordinate_handoffs", lambda _: (set(), False))
        _, _, stats, _ = _run(model, stream, engine)
    return [(l.name, l.synaptic_ops) for l in stats.layers]


@pytest.fixture
def placeholders(monkeypatch):
    """Records, per consumer kind, whether each input was a placeholder,
    how each conv's rows were built, and which coordinate placeholders
    were densified."""
    seen = {"pool": [], "conv": [], "rows": [], "materialized": []}

    def placeholder(data):
        return not any(data.strides) and bool(np.isnan(data).all())

    coo_pool = eb_mod.EventBatchedEngine._coo_pool

    def pool_spy(self, module, data, step):
        seen["pool"].append(placeholder(data))
        return coo_pool(self, module, data, step)

    coo_conv = eb_mod.EventBatchedEngine._coo_conv

    def conv_spy(self, module, data, step, weight, bias):
        seen["conv"].append(placeholder(data))
        return coo_conv(self, module, data, step, weight, bias)

    event_rows = eb_mod.conv_event_rows

    def rows_spy(coords, amplitude, *args, **kwargs):
        seen["rows"].append("valued" if np.ndim(amplitude) else "scalar")
        return event_rows(coords, amplitude, *args, **kwargs)

    materialize = eb_mod.EventBatchedEngine._materialize

    def materialize_spy(self, data):
        coordinates = id(data) in self._coords
        out = materialize(self, data)
        if out is not data and coordinates:
            seen["materialized"].append(placeholder(data))
        return out

    monkeypatch.setattr(eb_mod.EventBatchedEngine, "_coo_pool", pool_spy)
    monkeypatch.setattr(eb_mod.EventBatchedEngine, "_coo_conv", conv_spy)
    monkeypatch.setattr(eb_mod, "conv_event_rows", rows_spy)
    monkeypatch.setattr(eb_mod.EventBatchedEngine, "_materialize", materialize_spy)
    return seen


class TestHandoffProof:
    def test_dvs_chain_is_proven(self):
        model = converted_coo_cnn(nn.MaxPool2d(2))
        handoffs, defer_input = eb_mod._coordinate_handoffs(model)
        layers = list(model._modules.values())
        # neuron -> pool, pool -> conv, neuron -> head pool; not the head
        # pool, whose consumer is a Flatten.
        assert handoffs == {id(layers[i]) for i in (2, 3, 6)}
        assert defer_input

    def test_unproven_structures(self):
        shared = nn.MaxPool2d(2)
        model = nn.Sequential(
            IFNeuron(1.0), shared, nn.Conv2d(2, 2, 3), shared, nn.Flatten()
        )
        handoffs, defer_input = eb_mod._coordinate_handoffs(model)
        assert handoffs == set() and not defer_input

        class Custom(nn.Sequential):
            def forward(self, x):
                return self[1](self[0](x))

        model = Custom(nn.Conv2d(2, 2, 3), IFNeuron(1.0), nn.MaxPool2d(2))
        assert eb_mod._coordinate_handoffs(model) == (set(), False)


class TestNeuronToPool:
    @pytest.mark.parametrize("engine", ["event-batched", "auto"])
    def test_max_pool(self, engine, placeholders, monkeypatch):
        model = converted_coo_cnn(nn.MaxPool2d(2), seed=1)
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=1)
        stats = _assert_bitwise(model, stream, engine)
        assert placeholders["pool"] and all(placeholders["pool"])
        assert not placeholders["materialized"]
        assert [(l.name, l.synaptic_ops) for l in stats.layers] == (
            _ops_without_handoffs(model, stream, engine, monkeypatch)
        )

    def test_avg_pool(self, placeholders, monkeypatch):
        model = converted_coo_cnn(nn.AvgPool2d(2), seed=2)
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=2)
        stats = _assert_bitwise(model, stream)
        assert placeholders["pool"] and all(placeholders["pool"])
        # The averaged plane reaches the second conv as valued events,
        # behind a placeholder: its rows are built from the events.
        assert placeholders["conv"] and all(placeholders["conv"])
        assert len(placeholders["rows"]) == len(placeholders["conv"])
        assert "valued" in placeholders["rows"][1:]
        assert {l.name: l.backend for l in stats.layers}["4"] == "event-batched"
        assert [(l.name, l.synaptic_ops) for l in stats.layers] == (
            _ops_without_handoffs(model, stream, "event-batched", monkeypatch)
        )


class TestConvGatherFromCoordinates:
    def test_stream_and_pool_inputs(self, placeholders, monkeypatch):
        model = converted_coo_cnn(nn.MaxPool2d(2), seed=3)
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=3)
        dense_copies = []
        padded = functional._padded_workspace

        def padded_spy(x, padding):
            dense_copies.append(x.shape)
            return padded(x, padding)

        stats = _assert_bitwise(model, stream)
        assert [l.backend for l in stats.layers if l.kind == "conv"] == [
            "event-batched",
            "event-batched",
        ]
        # Both convs read only coordinates behind a placeholder (the
        # stream input, then the pooled spikes), built their rows from
        # the events, and never copied a dense plane into a workspace.
        placeholders["conv"].clear()
        placeholders["rows"].clear()
        monkeypatch.setattr(functional, "_padded_workspace", padded_spy)
        net = SpikingNetwork(model, timesteps=TIMESTEPS, engine="event-batched")
        net.forward(stream)
        assert placeholders["conv"] == [True] * 2
        assert placeholders["rows"] == ["scalar"] * 2
        assert dense_copies == []

    @pytest.mark.parametrize("count", [1, 7, 60, 150, 700])
    def test_small_row_subsets_bitwise(self, count):
        """A few rows of a conv, built from events, still get the full
        GEMM's bits: a small BLAS product may take another kernel and
        sum in another order."""
        from repro.snn.engines.dense import dense_conv2d
        from repro.snn.engines.event import conv_event_rows, conv_rows

        rng = np.random.default_rng(count)
        for shape, c_out in (((2, 4, 20, 20), 8), ((3, 16, 6, 6), 32)):
            spikes = rng.random(shape) < 0.3
            x = np.where(spikes, rng.normal(size=shape), 0).astype(np.float32)
            nonzero = np.nonzero(spikes)
            active, _, block = conv_event_rows(
                np.stack(nonzero, axis=1), x[nonzero], shape, 3, 1, 1, x.dtype
            )
            keep = rng.choice(active.size, min(count, active.size), replace=False)
            keep.sort()
            rows = active[keep]
            weight = rng.normal(size=(c_out, shape[1], 3, 3)).astype(np.float32)
            s = shape[2] * shape[3]
            dense = dense_conv2d(x, weight, None, 1, 1)
            expected = dense.reshape(shape[0], c_out, s)[rows // s, :, rows % s]
            got = conv_rows(block[keep], weight, None, rows, shape[0] * s)
            assert np.array_equal(got, expected)

    def test_event_rows_equal_gathered_rows(self):
        """Rows built from events alone are the dense unfold's rows, bit
        for bit, and give the dense convolution's outputs."""
        from repro.snn.engines.dense import dense_conv2d
        from repro.snn.engines.event import conv_event_rows, conv_rows

        rng = np.random.default_rng(4)
        spikes = rng.random((3, 2, 6, 6)) < 0.1
        dense = np.where(spikes, rng.normal(size=spikes.shape), 0).astype(np.float32)
        nonzero = np.nonzero(dense)
        coords = np.stack(nonzero, axis=1)
        rows, entries, block = conv_event_rows(
            coords, dense[nonzero], dense.shape, 3, 1, 1, dense.dtype
        )
        cols = functional.im2col(dense, 3, 1, 1)[0]
        assert np.array_equal(rows, np.flatnonzero(cols.any(axis=1)))
        assert entries == np.count_nonzero(cols)
        assert block.tobytes() == cols[rows].tobytes()
        weight = rng.normal(size=(5, 2, 3, 3)).astype(np.float32)
        out = dense_conv2d(dense, weight, None, 1, 1).transpose(0, 2, 3, 1)
        got = conv_rows(block, weight, None, rows, cols.shape[0])
        assert np.array_equal(got, out.reshape(-1, 5)[rows])


class TestMaterializeFallback:
    @pytest.mark.parametrize(
        "pool",
        [nn.MaxPool2d(3, stride=2), nn.AvgPool2d(3, stride=2)],
        ids=["overlapping-max", "overlapping-avg"],
    )
    def test_pool_outside_the_coo_kernel(self, pool, placeholders):
        model = converted_coo_cnn(pool, seed=5, size=17, head_pool=nn.MaxPool2d(2))
        stream = sparse_stream((4, 2, 17, 17), TIMESTEPS, 0.004, seed=5)
        _assert_bitwise(model, stream)
        assert placeholders["materialized"] and all(placeholders["materialized"])

    @pytest.mark.parametrize("layer", ["0", "4"], ids=["stream", "pooled"])
    def test_planned_gemm_conv(self, layer, placeholders, monkeypatch):
        """The stream input, or the pooled spikes, reach a conv whose
        rows gate refuses the gather densified, once per run."""
        model = converted_coo_cnn(nn.MaxPool2d(2), seed=6)
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=6)
        channels = model[int(layer)].in_channels
        event_rows = eb_mod.conv_event_rows

        def refuse(coords, amplitude, shape, *args, **kwargs):
            rows, entries, block = event_rows(coords, amplitude, shape, *args, **kwargs)
            return rows, entries, None if shape[1] == channels else block

        monkeypatch.setattr(eb_mod, "conv_event_rows", refuse)
        stats = _assert_bitwise(model, stream, "auto")
        layers = {l.name: l for l in stats.layers}
        assert (layers[layer].backend, layers[layer].backend_source) == ("gemm", "rows")
        assert placeholders["materialized"] == [True] * 2

    def test_escaped_placeholder_fails_loudly(self, monkeypatch):
        """A pool falsely proven to feed a conv hands a Flatten NaN."""
        rng = np.random.default_rng(7)
        model = _converted(
            [
                nn.Conv2d(2, 4, 3, padding=1, bias=False, rng=rng),
                nn.BatchNorm2d(4),
                nn.QuantReLU(levels=2, init_step=1.5),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(4 * 12 * 12, 5, rng=rng),
            ],
            (2, 24, 24),
            7,
        )
        pool = model[3]
        proof = eb_mod._coordinate_handoffs
        monkeypatch.setattr(
            eb_mod,
            "_coordinate_handoffs",
            lambda m: (proof(m)[0] | {id(pool)}, proof(m)[1]),
        )
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=7)
        net = SpikingNetwork(model, timesteps=TIMESTEPS, engine="event-batched")
        assert np.isnan(net.forward(stream)).all()


class TestLazyNeuronState:
    def test_state_is_built_on_first_read(self):
        model = converted_coo_cnn(nn.MaxPool2d(2), seed=8)
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=8)
        net = SpikingNetwork(model, timesteps=TIMESTEPS, engine="event-batched")
        net.forward(stream)
        deferred = [m for m in _neurons(model) if m._v_builder is not None]
        assert deferred
        neuron = deferred[0]
        assert neuron._last_spikes_builder is not None
        v = neuron.v
        assert neuron._v_builder is None and neuron.v is v
        clone = pickle.loads(pickle.dumps(model))
        for a, b in zip(_neurons(model), _neurons(clone)):
            assert np.array_equal(a.v, b.v)
            assert np.array_equal(a.last_spikes, b.last_spikes)
        neuron.reset_state()
        assert neuron.v is None


def dvs_model():
    """The DVS front-end CNN of the repository benchmark, converted."""
    rng = np.random.default_rng(7)
    layers = [
        nn.Conv2d(2, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(32),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.AvgPool2d(4),
        nn.Flatten(),
        nn.Linear(32 * 4 * 4, 4, rng=rng),
    ]
    model = nn.Sequential(*layers)
    warm = SyntheticDVS(num_train=16, num_test=0, height=64, width=64,
                        timesteps=8, noise_rate=0.002, seed=3)
    frames = warm.spike_stream("train")[0].to_dense(np.float32)
    frames = frames.reshape((-1,) + frames.shape[2:])
    model.train()
    with no_grad():
        for start in range(0, len(frames), 32):
            model(Tensor(frames[start : start + 32]))
    model.eval()
    return convert_to_snn(model)


def dvs_stream():
    """A batch-8 stream of 64x64 two-polarity events, about 0.3% dense."""
    events = SyntheticDVS(num_train=0, num_test=8, height=64, width=64,
                          timesteps=8, noise_rate=0.002, seed=1)
    return events.spike_stream("test")[0]


@pytest.mark.parametrize("engine", ["event-batched", "auto"])
def test_dvs_model_bitwise(engine):
    """The benchmark's DVS model: every handoff, against ``batched``."""
    _assert_bitwise(dvs_model(), dvs_stream(), engine)


def vgg_frames():
    """One direct-coded CIFAR-shaped frame batch for the converted VGG."""
    return np.random.default_rng(12).normal(size=(4, 3, 32, 32)).astype(np.float32)


@pytest.mark.parametrize("engine", ["event-batched", "auto"])
@pytest.mark.parametrize("case", ["dvs", "vgg-frames"])
def test_rule_picks_the_benchmark_kernels(case, engine):
    """The density rule on the benchmark shapes.  On the DVS stream every
    conv runs COO — the third conv too (16 input channels, 3x3, about
    0.5% dense input), whose loose window bound reads about 0.9 — and on
    frames every conv stays on the GEMM.  Each linear runs the GEMM and
    bills one op per input event and output feature."""
    from test_snn_blocked_runs import converted_vgg

    if case == "dvs":
        model, x, timesteps = dvs_model(), dvs_stream(), 8
    else:
        model, x, timesteps = converted_vgg(), vgg_frames(), TIMESTEPS
    reference = SpikingNetwork(model, timesteps=timesteps, engine="batched").forward(x)
    net = SpikingNetwork(model, timesteps=timesteps, engine=engine)
    assert np.array_equal(net.forward(x), reference)
    layers = net.last_run_stats.layers
    convs = [l.backend for l in layers if l.kind == "conv"]
    want = "event-batched" if case == "dvs" else "gemm"
    assert convs == [want] * len(convs)
    linears = [l for l in layers if l.kind == "linear"]
    modules = [m for m in model.modules() if isinstance(m, nn.Linear)]
    assert linears and len(linears) == len(modules)
    for layer, module in zip(linears, modules):
        assert (layer.backend, layer.backend_source) == ("gemm", "linear")
        assert layer.synaptic_ops == layer.input_nonzero * module.out_features


#: tracemalloc peak of one warm ``auto`` call on the DVS model (every conv
#: on COO), batch 8, T=8: 9.7 MB measured (x86_64, numpy 2.4), pinned
#: with 25% headroom.  Building every plane between layers, the same call peaked
#: at 30.1 MB, and ``batched`` at 37.8 MB.
DVS_CALL_PEAK_MB = 12.1


def test_dvs_call_allocation_peak():
    model = dvs_model()
    stream = dvs_stream()
    reference = SpikingNetwork(model, timesteps=8, engine="batched").forward(stream)
    net = SpikingNetwork(model, timesteps=8, engine="auto")
    net.forward(stream)
    assert [l.backend for l in net.last_run_stats.layers if l.kind == "conv"] == [
        "event-batched"
    ] * 3
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        logits = net.forward(stream)
        peak_mb = (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()
    assert np.array_equal(logits, reference)
    assert peak_mb <= DVS_CALL_PEAK_MB, f"{peak_mb:.2f} MB"
