"""Dense vs time-batched vs auto engines: ops and wall clock.

The paper's thesis (§III) is that event-driven execution makes cost
scale with spike activity instead of network size: at the observed
spike rates (≈0.12 for ResNet-18, ≈0.16 for VGG-11) the aggregation
core skips the overwhelming majority of dense MACs.  Every engine bills
synaptic ops by the SIA's rule (each nonzero input value times its
fan-out), so this benchmark checks that the count realises exactly that
saving — fewer synaptic operations than dense MACs at sub-50% spike
rates — on the GEMM and the COO engines alike, with the same
predictions as the dense reference; that the time-batched
engine beats the dense reference by >= 3x wall-clock on the
hardware-faithful frame-at-a-time workload (the PYNQ-Z2 runs batch-1
inference; Table I latencies are per frame); that ``auto`` (the
event-batched engine's per-layer density rule) stays within 1.1x of
the best fixed backend; and that the always-on per-layer profiler
costs < 5% of an unprofiled batched run.

It also pins the low-density crossover the paper's premise lives on:
on a synthetic DVS stream (<5% input density, batch > 1) the COO-native
``event-batched`` backend must beat the dense-GEMM ``batched`` engine
on wall clock while staying bit-identical on logits — sparsity winning
time, not just op counts.  It records the full engine trajectory —
including the auto engine's per-layer (name, wall clock, density,
chosen backend and deciding gate) profile and the DVS scenario — in
``BENCH_engines.json`` (in ``$REPRO_BENCH_DIR`` when set, else a temp
directory), whose schema is asserted here so the uploaded CI artifact
stays machine-readable.
"""

import json
import platform
import time

import numpy as np
import pytest

from bench_schema import assert_engines_schema
from repro.data import SyntheticCIFAR, direct_encode_stream
from repro.utils.io import atomic_write_json
from repro.data.events import SyntheticDVS
from repro.pipeline import build_quantized_twin
from repro.pipeline.trainer import TrainConfig, Trainer
from repro.snn import SpikingNetwork, convert_to_snn

TIMESTEPS = 8


def _converted_vgg(width):
    """A BN-warmed, briefly-trained converted VGG and an eval batch."""
    ds = SyntheticCIFAR(num_train=128, num_test=48, noise=0.8, seed=3)
    model = build_quantized_twin(
        "vgg11", width=width, num_classes=10, levels=2, seed=0
    )
    Trainer(model, TrainConfig(epochs=1, lr=1e-3)).fit(ds.train_x, ds.train_y)
    convert_to_snn(model)
    return model, ds.test_x


@pytest.fixture(scope="module")
def converted_vgg():
    return _converted_vgg(0.25)


@pytest.fixture(scope="module")
def converted_vgg_bench():
    """The repo's standard accuracy-benchmark geometry (width 0.125)."""
    return _converted_vgg(0.125)


DVS_SHAPE = (64, 64)
DVS_BATCH = 8
DVS_CLASSES = 4


def _converted_dvs():
    """A BN-warmed converted DVS front end and its COO test stream.

    The geometry is the paper's DVS serving story: a high-resolution
    2-polarity front end where nearly all dense MACs land on empty
    pixels.  At 64x64 the stream's measured density sits near 0.3% —
    the <5% regime the ROADMAP targets (cf. ``features.27`` at 0.5%) —
    so the wall clock is dominated by the sparse front-end convs where
    the COO gather path must win.  Batch 8 exercises the batch>1
    stacked-coordinate path, not the frame-at-a-time special case.
    """
    height, width = DVS_SHAPE
    rng = np.random.default_rng(7)
    from repro import nn
    from repro.tensor import Tensor, no_grad

    model = nn.Sequential(
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
        nn.Linear(32 * (height // 16) * (width // 16), DVS_CLASSES, rng=rng),
    )
    dvs = SyntheticDVS(
        num_train=16,
        num_test=DVS_BATCH,
        height=height,
        width=width,
        timesteps=TIMESTEPS,
        noise_rate=0.002,
        seed=3,
    )
    train_stream, _ = dvs.spike_stream("train")
    frames = train_stream.to_dense(np.float32)
    warm = frames.reshape((-1,) + frames.shape[2:])
    model.train()
    with no_grad():
        for start in range(0, len(warm), 32):
            model(Tensor(warm[start : start + 32]))
    model.eval()
    convert_to_snn(model)
    stream, _ = dvs.spike_stream("test")
    return model, stream


@pytest.fixture(scope="module")
def converted_dvs():
    return _converted_dvs()


def _run(model, x, engine):
    network = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
    started = time.perf_counter()
    logits = network.forward(x)
    elapsed = time.perf_counter() - started
    return logits, network.last_run_stats, elapsed


def test_event_engine_does_fewer_synaptic_ops(converted_vgg):
    model, x = converted_vgg
    dense_logits, dense_stats, dense_s = _run(model, x, "dense")
    for engine in ("batched", "auto"):
        logits, stats, seconds = _run(model, x, engine)
        rate = stats.overall_spike_rate
        saving = stats.synaptic_op_saving
        print(
            f"\nspike rate {rate:.4f}; "
            f"dense {dense_stats.total_dense_synaptic_ops:,} MACs in "
            f"{dense_s * 1e3:.0f} ms; {engine} {stats.total_synaptic_ops:,} "
            f"ops in {seconds * 1e3:.0f} ms; op saving {saving:.1%}"
        )

        # The converted network sits in the paper's sparse regime.
        assert rate < 0.5
        # Event-driven ops are measurably fewer than dense MACs — at
        # these rates the hardware skips well over half of them.
        assert stats.total_synaptic_ops < dense_stats.total_dense_synaptic_ops
        assert saving > 0.5
        # Both backends see the same spikes and agree on every
        # prediction.  Absolute tolerance: summation-order (BLAS build)
        # differences may legitimately flip a membrane sitting within
        # an ulp of threshold.
        assert rate == pytest.approx(dense_stats.overall_spike_rate, abs=1e-3)
        assert np.array_equal(dense_logits.argmax(1), logits.argmax(1))
        assert np.allclose(dense_logits, logits, atol=1e-3)


def test_event_ops_track_spike_rate_per_layer():
    """Per-layer event ops scale with the upstream spike rate.

    Uses a pool-free conv stack so every conv (after the frame conv)
    reads an unmodified spike plane: each spike lands in at most k*k
    im2col windows, so ``performed/dense <= upstream spike rate``
    exactly, and stays within the k*k border factor of it from below.
    """
    from repro import nn
    from repro.tensor import Tensor, no_grad

    rng = np.random.default_rng(0)
    model = nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.Conv2d(16, 16, 3, padding=1, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.Conv2d(16, 16, 3, padding=1, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.Flatten(),
        nn.Linear(16 * 16 * 16, 10, rng=rng),
    )
    model.train()
    with no_grad():
        for _ in range(4):
            model(Tensor(rng.normal(size=(8, 3, 16, 16)).astype(np.float32)))
    model.eval()
    convert_to_snn(model)

    x = rng.normal(size=(16, 3, 16, 16)).astype(np.float32)
    for engine in ("batched", "auto"):
        network = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
        network.forward(x)
        layers = network.last_run_stats.layers

        checked = 0
        for idx, layer in enumerate(layers):
            if layer.kind != "conv" or idx == 0:
                continue
            upstream = layers[idx - 1]
            assert upstream.kind == "neuron"
            rate = upstream.spike_rate
            ratio = layer.synaptic_ops / max(layer.dense_synaptic_ops, 1)
            print(
                f"\n{engine} layer {layer.name}: upstream rate {rate:.4f}, "
                f"op ratio {ratio:.4f}"
            )
            assert ratio <= rate + 1e-9
            assert ratio >= 0.5 * rate
            checked += 1
        assert checked == 2


def test_stream_input_does_not_regress_event_op_reduction(converted_vgg):
    """The COO stream path keeps the event-driven op saving intact.

    Feeding the same frames as a direct-coded SpikeStream must bill
    exactly the ops of the dense-input path (the stream carries
    coordinates, it never changes what executes) and therefore preserve
    the >50% event-driven op reduction the dense-input benchmark pins.
    """
    model, x = converted_vgg
    for engine in ("batched", "auto"):
        network = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
        dense_logits = network.forward(x)
        dense_stats = network.last_run_stats
        stream_logits = network.forward(direct_encode_stream(x, TIMESTEPS))
        stream_stats = network.last_run_stats
        print(
            f"\n{engine} stream path: {stream_stats.total_synaptic_ops:,} ops "
            f"(saving {stream_stats.synaptic_op_saving:.1%}); dense-input path: "
            f"{dense_stats.total_synaptic_ops:,} ops "
            f"(saving {dense_stats.synaptic_op_saving:.1%})"
        )
        assert np.array_equal(dense_logits, stream_logits)
        assert stream_stats.total_synaptic_ops == dense_stats.total_synaptic_ops
        assert (
            stream_stats.total_dense_synaptic_ops
            == dense_stats.total_dense_synaptic_ops
        )
        assert stream_stats.synaptic_op_saving > 0.5


def _interleaved_samples(networks, x, repeats=24):
    """Per-round wall clock of each network, measured in interleaved rounds.

    Interleaving means a machine-wide slow phase (shared CI box, cache
    pressure) hits every engine of a round alike.  Every other round runs
    the engines in reverse order, so no engine keeps the place in the
    round that a second runner gains from (3-6% on ``auto_vs_best_fixed``
    on a 2-core VM).  Returns one array of ``repeats`` seconds per
    network, in round order, for :func:`_paired_ratio`; ``.min()`` is
    the best-of-k wall clock the record reports.
    """
    for network in networks.values():
        network.forward(x)  # warm caches, BLAS, plan/pad workspaces
    samples = {name: [] for name in networks}
    order = list(networks.items())
    for round_ in range(repeats):
        for name, network in order if round_ % 2 == 0 else order[::-1]:
            started = time.perf_counter()
            network.forward(x)
            samples[name].append(time.perf_counter() - started)
    return {name: np.array(times) for name, times in samples.items()}


def _paired_ratio(samples, numerator, denominator):
    """Median over rounds of one network's wall clock over another's.

    Each round's two runs are adjacent in time, so a slow phase cancels
    in their ratio, and the median ignores the rounds it does not.  The
    gates use this, not a ratio of two best-of-k minima: on a 2-core
    VM, best-of-24 put two identical batched engines anywhere from
    0.88x to 1.28x apart over eight processes, while their median round
    ratio stayed within 0.92x-0.95x.  That steady offset from 1.0 came
    from the engines' places in the round, which now alternate
    (:func:`_interleaved_samples`).
    """
    return float(np.median(samples[numerator] / samples[denominator]))


# The artifact's machine-readable contract lives in bench_schema.py —
# shared with the standalone CI step (check_bench_schema.py) that
# re-validates the uploaded file, so drift fails the job either way.
_assert_bench_schema = assert_engines_schema


def test_engines_wall_clock_and_auto_plan(
    converted_vgg_bench, converted_dvs, bench_dir
):
    """Engine wall clock on frame + DVS-stream workloads + artifact.

    The frame scenario is the hardware's own workload: one 32x32 frame,
    T=8, the repo's standard VGG-11 geometry.  The dense engine re-runs
    the full model eight times; the time-batched engine runs each layer
    once over the (T, ...) stack, which must be >= 3x faster; auto
    (the event-batched density rule, which picks each layer's kernel on
    every call) must stay within 1.1x of the best fixed backend.  The DVS scenario is the <5%
    density regime where the COO-native event-batched backend must beat
    the dense GEMM on wall clock with bit-identical logits, and auto
    must again stay within 1.1x of the best fixed choice.  The measured
    trajectory of every engine (with the auto engine's per-layer
    profile, and a small-batch point) is recorded in
    BENCH_engines.json.
    """
    model, x = converted_vgg_bench
    frame = x[:1]
    networks = {
        engine: SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
        for engine in ("dense", "batched", "event-batched", "auto")
    }
    samples = _interleaved_samples(networks, frame)
    seconds = {engine: float(times.min()) for engine, times in samples.items()}
    results = {}
    for engine, network in networks.items():
        logits = network.forward(frame)
        results[engine] = {
            "wall_clock_ms": round(seconds[engine] * 1e3, 3),
            "synaptic_ops": int(network.last_run_stats.total_synaptic_ops),
            "overall_spike_rate": round(
                network.last_run_stats.overall_spike_rate, 6
            ),
            "logits_max_abs_diff_vs_dense": 0.0,
            "prediction": int(logits.argmax(1)[0]),
            "_logits": logits,
        }
    auto_stats = networks["auto"].last_run_stats
    results["auto"]["profile"] = auto_stats.profile_records()
    dense_logits = results["dense"].pop("_logits")
    for engine in ("batched", "event-batched", "auto"):
        logits = results[engine].pop("_logits")
        results[engine]["logits_max_abs_diff_vs_dense"] = float(
            np.abs(logits - dense_logits).max()
        )

    speedup = _paired_ratio(samples, "dense", "batched")
    best_fixed_name = min(
        ("dense", "batched", "event-batched"),
        key=lambda e: seconds[e],
    )
    auto_ratio = _paired_ratio(samples, "auto", best_fixed_name)
    batch_nets = {
        engine: SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
        for engine in ("dense", "batched")
    }
    batch16 = {
        engine: round(float(s.min()) * 1e3, 3)
        for engine, s in _interleaved_samples(batch_nets, x[:16], repeats=3).items()
    }

    dvs_model, dvs_stream = converted_dvs
    dvs_nets = {
        engine: SpikingNetwork(dvs_model, timesteps=TIMESTEPS, engine=engine)
        for engine in ("batched", "event-batched", "auto")
    }
    dvs_logits = {e: net.forward(dvs_stream) for e, net in dvs_nets.items()}
    dvs_samples = _interleaved_samples(dvs_nets, dvs_stream, repeats=12)
    dvs_seconds = {engine: float(times.min()) for engine, times in dvs_samples.items()}
    dvs_results = {
        engine: {
            "wall_clock_ms": round(dvs_seconds[engine] * 1e3, 3),
            "synaptic_ops": int(net.last_run_stats.total_synaptic_ops),
        }
        for engine, net in dvs_nets.items()
    }
    dvs_bitwise = bool(
        np.array_equal(dvs_logits["batched"], dvs_logits["event-batched"])
        and np.array_equal(dvs_logits["batched"], dvs_logits["auto"])
    )
    dvs_speedup = _paired_ratio(dvs_samples, "batched", "event-batched")
    dvs_best_fixed = min(("batched", "event-batched"), key=lambda e: dvs_seconds[e])
    dvs_auto_ratio = _paired_ratio(dvs_samples, "auto", dvs_best_fixed)

    record = {
        "benchmark": "engines_wall_clock",
        "scenario": {
            "model": "vgg11",
            "width": 0.125,
            "timesteps": TIMESTEPS,
            "batch": 1,
            "input": "32x32x3 synthetic CIFAR frame",
        },
        "engines": results,
        "batched_speedup_vs_dense": round(speedup, 3),
        "auto_vs_best_fixed": round(auto_ratio, 3),
        "batch16_wall_clock_ms": batch16,
        "dvs": {
            "scenario": {
                "model": "dvs-frontend-cnn",
                "timesteps": TIMESTEPS,
                "batch": DVS_BATCH,
                "input": (
                    f"{DVS_SHAPE[0]}x{DVS_SHAPE[1]}x2 synthetic DVS "
                    "SpikeStream (COO)"
                ),
                "input_density": round(float(dvs_stream.density), 6),
            },
            "engines": dvs_results,
            "event_batched_speedup_vs_batched": round(dvs_speedup, 3),
            "auto_vs_best_fixed": round(dvs_auto_ratio, 3),
            "logits_bitwise_vs_batched": dvs_bitwise,
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    _assert_bench_schema(record)
    # Atomic emission: a CI kill mid-write must never leave a torn
    # BENCH_engines.json for the schema check / trend gate to choke on.
    # Dated snapshots land in benchmarks/history/ via record_history.py,
    # a deliberate step — not here, or the trend gate would compare each
    # fresh record against itself.
    bench_path = bench_dir / "BENCH_engines.json"
    atomic_write_json(bench_path, record, fsync=True)
    print(f"\nwall clock (ms): " + ", ".join(
        f"{k} {v['wall_clock_ms']}" for k, v in results.items()
    ))
    coo_layers = sum(
        1
        for row in results["auto"]["profile"]
        if row["kind"] != "neuron" and row["backend"] == "event-batched"
    )
    print(
        f"batched speedup vs dense: {speedup:.2f}x; "
        f"auto/best-fixed {auto_ratio:.3f} "
        f"({coo_layers} layers on the COO kernel); "
        f"DVS density {dvs_stream.density:.4f}: "
        f"event-batched {dvs_speedup:.2f}x vs batched, "
        f"auto/best-fixed {dvs_auto_ratio:.3f} -> {bench_path}"
    )

    # All engines agree on the frame's prediction and logits.
    preds = {v["prediction"] for v in results.values()}
    assert len(preds) == 1
    assert results["batched"]["logits_max_abs_diff_vs_dense"] < 1e-4
    assert results["event-batched"]["logits_max_abs_diff_vs_dense"] < 1e-4
    assert results["auto"]["logits_max_abs_diff_vs_dense"] < 1e-4
    # One op rule: every engine bills the same synaptic ops...
    assert (
        results["dense"]["synaptic_ops"]
        == results["batched"]["synaptic_ops"]
        == results["event-batched"]["synaptic_ops"]
    )
    # ...and the batched engine delivers the acceptance-criterion
    # wall-clock win.
    assert speedup >= 3.0
    # The density rule keeps auto at (or below) the best fixed backend.
    assert auto_ratio <= 1.1

    # The low-density crossover: at <5% input density the COO-native
    # path must win wall clock, not just op counts, with logits
    # bit-identical to the dense batched reference.
    assert dvs_stream.density < 0.05
    assert dvs_bitwise
    assert dvs_speedup > 1.0
    # The COO kernels bill the ops the GEMM reference bills.
    assert (
        dvs_results["event-batched"]["synaptic_ops"]
        == dvs_results["batched"]["synaptic_ops"]
    )
    assert dvs_auto_ratio <= 1.1


def test_profiler_overhead_under_5_percent(converted_vgg_bench):
    """Always-on per-layer profiling must cost < 5% of a batched run.

    Interleaved rounds on the same model/batch and the same engine
    instance, with profiling switched on and off between runs, judged
    by the median round ratio (:func:`_paired_ratio`): perf_counter
    pairs and the density record per layer call are orders of magnitude
    below the GEMMs they bracket (the op count runs either way).  One instance matters: two engines
    each hold their own effective-weight cache, and two identical
    unprofiled engines measured up to ~9% apart on a 2-core VM, more
    than the bound.
    """
    from repro.snn import TimeBatchedEngine

    model, x = converted_vgg_bench
    # A larger batch makes each timed run long enough (tens of ms) that
    # scheduler noise sits well below the 5% bound being asserted; the
    # profiler's absolute cost is per layer call, not per sample, so a
    # bigger batch only makes the test stricter.
    batch = np.concatenate([x, x], axis=0)[:32]
    engine = TimeBatchedEngine(profile_layers=True)
    network = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
    modes = {"profiled": True, "unprofiled": False}
    layers = {}
    for name, on in modes.items():
        engine.profile_layers = on
        network.forward(batch)  # warm caches, BLAS, plan/pad workspaces
        layers[name] = network.last_run_stats.layers
    samples = {name: [] for name in modes}
    for _ in range(16):
        for name, on in modes.items():
            engine.profile_layers = on
            started = time.perf_counter()
            network.forward(batch)
            samples[name].append(time.perf_counter() - started)
    samples = {name: np.array(times) for name, times in samples.items()}
    seconds = {name: float(times.min()) for name, times in samples.items()}
    overhead = _paired_ratio(samples, "profiled", "unprofiled") - 1.0
    print(
        f"\nprofiled {seconds['profiled'] * 1e3:.2f} ms, "
        f"unprofiled {seconds['unprofiled'] * 1e3:.2f} ms, "
        f"overhead {overhead:+.2%}"
    )
    assert sum(l.wall_clock_seconds for l in layers["profiled"]) > 0.0
    assert all(l.wall_clock_seconds == 0.0 for l in layers["unprofiled"])
    assert overhead < 0.05
