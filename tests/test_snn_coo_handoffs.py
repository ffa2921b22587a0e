"""Coordinate-only handoffs between layers of the COO pipeline.

On a sparse stream, ``event-batched`` (also named ``auto``) runs a plain
``Sequential`` as a compiled layer schedule whose steps hand each other
explicit carriers: a neuron hands a pool, and a pool or the input
stream hands a conv, exact coordinates, so no dense plane is built
between those layers; the conv builds its im2col rows by scattering the
events into the windows they feed, and the neurons' membrane and
``last_spikes`` are built only when read.  Every one of these handoffs
must be bitwise equal to ``batched`` — logits, per-step outputs, spike
counts, membranes, ``last_spikes`` — and to the interceptor path the
same modules take behind a ``forward`` the compiler cannot prove, and
bill what that path bills wherever both picked the same kernel.  A step
that cannot read coordinates gets the dense plane built from them.
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
from repro.snn.spikes import SpikeStream, StepSpikes
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


class GraphSequential(nn.Sequential):
    """The same chain behind its own ``forward``: the compiler cannot
    prove its consumers, so the engine runs it on interceptors."""

    def forward(self, x):
        for module in self:
            x = module(x)
        return x


def _agreeing_ops(model, stream, engine, stats):
    """Per synapse layer, ``(name, schedule ops, interceptor ops)`` where
    both paths picked the same kernel for the same reason, after
    checking the interceptor path is bitwise the schedule."""
    twin = GraphSequential(*model)
    assert eb_mod._compile(twin) is None
    _, _, twin_stats, _ = _run(twin, stream, engine)
    rows = []
    for a, b in zip(stats.layers, twin_stats.layers):
        assert a.name == b.name and a.spike_count == b.spike_count
        if a.kind != "neuron" and (a.backend, a.backend_source) == (
            b.backend,
            b.backend_source,
        ):
            rows.append((a.name, a.synaptic_ops, b.synaptic_ops))
    return rows


def _assert_bills_match_interceptors(model, stream, engine, stats):
    rows = _agreeing_ops(model, stream, engine, stats)
    assert [name for name, _, _ in rows] == [
        l.name for l in stats.layers if l.kind != "neuron"
    ]
    for name, ops, twin_ops in rows:
        assert ops == twin_ops, name


@pytest.fixture
def carriers(monkeypatch):
    """Records which carrier each COO pool and COO conv read, how each
    conv's rows were built, and the shape of every coordinate carrier a
    step densified."""
    seen = {"pool": [], "conv": [], "rows": [], "densified": []}

    coo_pool = eb_mod.EventBatchedEngine._coo_pool

    def pool_spy(self, module, step):
        seen["pool"].append(type(step).__name__)
        return coo_pool(self, module, step)

    coo_conv = eb_mod.EventBatchedEngine._coo_conv

    def conv_spy(self, module, x):
        seen["conv"].append(type(x).__name__)
        return coo_conv(self, module, x)

    event_rows = eb_mod.conv_event_rows

    def rows_spy(coords, amplitude, *args, **kwargs):
        seen["rows"].append("valued" if np.ndim(amplitude) else "scalar")
        return event_rows(coords, amplitude, *args, **kwargs)

    plane = eb_mod._plane

    def plane_spy(x):
        if isinstance(x, StepSpikes):
            seen["densified"].append(x.shape)
        return plane(x)

    monkeypatch.setattr(eb_mod.EventBatchedEngine, "_coo_pool", pool_spy)
    monkeypatch.setattr(eb_mod.EventBatchedEngine, "_coo_conv", conv_spy)
    monkeypatch.setattr(eb_mod, "conv_event_rows", rows_spy)
    monkeypatch.setattr(eb_mod, "_plane", plane_spy)
    return seen


#: The head pool's output on a 24-square ``converted_coo_cnn``: the
#: coordinates the Flatten reads as a dense plane, once per run.
HEAD_SHAPE = (TIMESTEPS * 4, 8, 6, 6)


class TestHandoffProof:
    def test_dvs_chain_is_proven(self):
        model = converted_coo_cnn(nn.MaxPool2d(2))
        leaves = eb_mod._compile(model)
        # Every layer is a step, in call order: neuron -> pool,
        # pool -> conv and the stream -> conv hand on coordinates.
        assert [name for name, _ in leaves] == [str(i) for i in range(10)]
        assert [m for _, m in leaves] == list(model)

    def test_unproven_structures(self):
        shared = nn.MaxPool2d(2)
        model = nn.Sequential(
            IFNeuron(1.0), shared, nn.Conv2d(2, 2, 3), shared, nn.Flatten()
        )
        assert eb_mod._compile(model) is None

        class Custom(nn.Sequential):
            def forward(self, x):
                return self[1](self[0](x))

        model = Custom(nn.Conv2d(2, 2, 3), IFNeuron(1.0), nn.MaxPool2d(2))
        assert eb_mod._compile(model) is None
        nested = nn.Sequential(nn.Sequential(nn.Conv2d(2, 2, 3), IFNeuron(1.0)))
        assert [name for name, _ in eb_mod._compile(nested)] == ["0.0", "0.1"]


class TestNeuronToPool:
    @pytest.mark.parametrize("engine", ["event-batched", "auto"])
    def test_max_pool(self, engine, carriers):
        model = converted_coo_cnn(nn.MaxPool2d(2), seed=1)
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=1)
        stats = _assert_bitwise(model, stream, engine)
        assert carriers["pool"] and set(carriers["pool"]) == {"StepSpikes"}
        # No plane was built between the neuron, the pool and the conv:
        # at most the head pool's coordinates, read by the Flatten.
        assert set(carriers["densified"]) <= {HEAD_SHAPE}
        _assert_bills_match_interceptors(model, stream, engine, stats)

    def test_avg_pool(self, carriers):
        model = converted_coo_cnn(nn.AvgPool2d(2), seed=2)
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=2)
        stats = _assert_bitwise(model, stream)
        assert carriers["pool"] and set(carriers["pool"]) == {"StepSpikes"}
        # The averaged plane reaches the second conv as valued events:
        # its rows are built from the events.
        assert carriers["conv"] and set(carriers["conv"]) == {"StepSpikes"}
        assert len(carriers["rows"]) == len(carriers["conv"])
        assert "valued" in carriers["rows"][1:]
        assert {l.name: l.backend for l in stats.layers}["4"] == "event-batched"
        _assert_bills_match_interceptors(model, stream, "event-batched", stats)


class TestConvGatherFromCoordinates:
    def test_stream_and_pool_inputs(self, carriers, monkeypatch):
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
        # Both convs read only coordinates (the stream input, then the
        # pooled spikes), built their rows from the events, and never
        # copied a dense plane into a workspace.
        carriers["conv"].clear()
        carriers["rows"].clear()
        monkeypatch.setattr(functional, "_padded_workspace", padded_spy)
        net = SpikingNetwork(model, timesteps=TIMESTEPS, engine="event-batched")
        net.forward(stream)
        assert carriers["conv"] == ["StepSpikes"] * 2
        assert carriers["rows"] == ["scalar"] * 2
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
    """A step that cannot read the coordinates it receives builds the
    dense plane from them, once, and stays bitwise."""

    @pytest.mark.parametrize(
        "pool",
        [nn.MaxPool2d(3, stride=2), nn.AvgPool2d(3, stride=2)],
        ids=["overlapping-max", "overlapping-avg"],
    )
    def test_pool_outside_the_coo_kernel(self, pool, carriers):
        model = converted_coo_cnn(pool, seed=5, size=17, head_pool=nn.MaxPool2d(2))
        stream = sparse_stream((4, 2, 17, 17), TIMESTEPS, 0.004, seed=5)
        _assert_bitwise(model, stream)
        # The overlapping pool read the first neuron's spikes as a plane.
        assert (TIMESTEPS * 4, 4, 17, 17) in carriers["densified"]

    @pytest.mark.parametrize("layer", ["0", "4"], ids=["stream", "pooled"])
    def test_planned_gemm_conv(self, layer, carriers, monkeypatch):
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
        side = 24 if layer == "0" else 12
        refused = [s for s in carriers["densified"] if s != HEAD_SHAPE]
        assert refused == [(TIMESTEPS * 4, channels, side, side)] * 2

    def test_pool_feeding_a_flatten_gets_a_dense_plane(self, carriers):
        """A pool whose reader is a Flatten hands it coordinates, which
        the Flatten's step densifies: the readout is bitwise."""
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
        stream = sparse_stream((4, 2, 24, 24), TIMESTEPS, 0.004, seed=7)
        _assert_bitwise(model, stream)
        assert carriers["pool"] == ["StepSpikes"] * 2
        assert carriers["densified"] == [(TIMESTEPS * 4, 4, 12, 12)] * 2


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


def dvs_streams():
    """Four batch-8 streams cut from one event set, as the repository
    benchmark feeds them."""
    events = SyntheticDVS(num_train=0, num_test=32, height=64, width=64,
                          timesteps=8, noise_rate=0.002, seed=1)
    stream = events.spike_stream("test")[0]
    return [stream.batch_slice(lo, lo + 8) for lo in range(0, 32, 8)]


def test_dvs_neurons_hand_coordinates_to_every_pool(carriers):
    """On the DVS benchmark's inputs every neuron steps its sites, the
    last one too (it touches about half of its 2,048 sites and its
    background fires), and every pool, ``AvgPool2d(4)`` included,
    receives coordinates, in every call."""
    model = dvs_model()
    reference = SpikingNetwork(model, timesteps=8, engine="batched")
    net = SpikingNetwork(model, timesteps=8, engine="auto")
    for stream in dvs_streams():
        carriers["pool"].clear()
        assert np.array_equal(net.forward(stream), reference.forward(stream))
        layers = {l.name: l.backend for l in net.last_run_stats.layers}
        assert [layers[name] for name in ("2", "6", "10")] == ["sites"] * 3
        assert carriers["pool"] == ["StepSpikes"] * 3


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


def _schedule_and_graph(case):
    """``(schedule model, interceptor model, input, T)`` over the same
    modules: a plain ``Sequential`` the engine compiles, and the same
    layers behind a ``forward`` it cannot prove."""
    from repro.serve.app import build_demo_network
    from test_snn_blocked_runs import converted_vgg

    if case == "dvs":
        model = dvs_model()
        return model, GraphSequential(*model), dvs_stream(), 8
    if case == "vgg-frames":
        vgg = converted_vgg()
        chain = nn.Sequential(vgg.features, vgg.flatten, vgg.fc)
        return chain, vgg, vgg_frames(), TIMESTEPS
    model, shape = build_demo_network((2, 16, 16))
    twin = GraphSequential(*model)
    if case == "serve-stream":
        return model, twin, sparse_stream((4,) + shape, 8, 0.01, seed=9), 8
    x = np.random.default_rng(9).normal(size=(4,) + shape).astype(np.float32)
    return model, twin, x, 8


@pytest.mark.parametrize("case", ["dvs", "vgg-frames", "serve-stream", "serve-frames"])
def test_schedule_matches_interceptors(case):
    """The compiled schedule and the interceptor path are bitwise the
    same run: logits, per-step logits, spike counts, membranes and
    ``last_spikes``.  Only the schedule steps neurons on sites."""
    chain, graph, x, timesteps = _schedule_and_graph(case)
    assert eb_mod._compile(chain) is not None and eb_mod._compile(graph) is None
    runs = []
    for model in (chain, graph):
        net = SpikingNetwork(model, timesteps=timesteps, engine="auto")
        steps = net.forward_per_step(x)
        stats = net.last_run_stats
        logits = net.forward(x)
        state = [(m.v.copy(), m.last_spikes.copy()) for m in _neurons(model)]
        runs.append((logits, steps, stats, state))
    (logits, steps, stats, state), (g_logits, g_steps, g_stats, g_state) = runs
    assert np.array_equal(logits, g_logits)
    assert len(steps) == len(g_steps) == timesteps
    for a, b in zip(steps, g_steps):
        assert np.array_equal(a, b)
    assert [l.spike_count for l in stats.layers] == [
        l.spike_count for l in g_stats.layers
    ]
    for (v, s), (gv, gs) in zip(state, g_state):
        assert np.array_equal(v, gv)
        assert np.array_equal(s, gs)
    neurons = [l.backend for l in stats.layers if l.kind == "neuron"]
    assert set(neurons) <= {"sites", "dense"}
    assert {l.backend for l in g_stats.layers if l.kind == "neuron"} == {"dense"}
    if case == "dvs":
        assert "sites" in neurons
