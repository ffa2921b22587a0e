"""Dense vs event-driven vs time-batched vs adaptive SNN engines.

The paper's accelerator is fast because it only pays for spikes that
actually fire.  ``repro.snn.engines`` brings the same structure to the
software simulator: the ``event`` backend propagates only active spike
events, so its synaptic-operation count scales with the observed spike
rate; the ``batched`` backend restructures execution from time-outer to
layer-outer — every stateless layer runs once over a ``(T*N, ...)``
stack; and the ``auto`` backend profiles a calibration run (per-layer
wall clock + observed density) and compiles a cached per-layer plan
that mixes batched GEMM and the COO row-subset kernel (bitwise equal
to ``batched``), the same measure-then-specialise loop the paper's
mapper applies in hardware.  The time-stacked backends run a large
batch as sample blocks in lanes, one per usable core (the ``lanes``
count printed per backend).

This example converts a small VGG-11, runs the same batch through all
backends and prints the agreement between their logits together with
per-backend spike rates, synaptic-op counts and wall clock.
``--profile`` appends each backend's per-layer wall-clock profile
(``RunStats.profile_table()``).

``--density D`` switches to the low-density COO crossover scenario:
a DVS-style front end (64x64, 2 polarities, batch 8) fed a Bernoulli
`SpikeStream` at exactly density ``D``, racing the dense-GEMM
``batched`` engine against the COO-native ``event-batched`` backend
(and ``auto``) so the wall-clock crossover measured in
``BENCH_engines.json`` can be reproduced at any density from the
command line.

Run:
    python examples/engine_comparison.py
    python examples/engine_comparison.py --profile
    python examples/engine_comparison.py --density 0.003
    python examples/engine_comparison.py --density 0.02   # past crossover
"""

import argparse
import time

import numpy as np

from repro.data import SyntheticCIFAR
from repro.pipeline import build_quantized_twin
from repro.pipeline.trainer import TrainConfig, Trainer
from repro.snn import SpikingNetwork, convert_to_snn
from repro.snn.spikes import SpikeStream

TIMESTEPS = 8


def run_density_scenario(density: float, profile: bool) -> None:
    """Race batched vs event-batched vs auto on a sparse COO stream."""
    from repro import nn
    from repro.tensor import Tensor, no_grad

    height, width, batch = 64, 64, 8
    print(
        f"Low-density crossover scenario: {height}x{width}x2 stream, "
        f"batch {batch}, T={TIMESTEPS}, input density {density:.4f}"
    )
    rng = np.random.default_rng(7)
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
        nn.Linear(32 * (height // 16) * (width // 16), 4, rng=rng),
    )
    shape = (batch, 2, height, width)
    warm = (rng.random((4 * TIMESTEPS,) + shape[1:]) < density).astype(
        np.float32
    )
    model.train()
    with no_grad():
        for start in range(0, len(warm), 16):
            model(Tensor(warm[start : start + 16]))
    model.eval()
    convert_to_snn(model)
    stream = SpikeStream.from_dense(
        (rng.random((TIMESTEPS,) + shape) < density).astype(np.float32),
        binary=True,
    )
    print(f"stream: {stream.num_events:,} events ({stream.density:.4%} dense)")

    networks = {
        engine: SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
        for engine in ("batched", "event-batched", "auto")
    }
    logits = {}
    for engine, network in networks.items():
        logits[engine] = network.forward(stream)  # warm-up / calibration
    seconds = {engine: float("inf") for engine in networks}
    for _ in range(12):
        for engine, network in networks.items():
            started = time.perf_counter()
            network.forward(stream)
            seconds[engine] = min(
                seconds[engine], time.perf_counter() - started
            )
    for engine, network in networks.items():
        stats = network.last_run_stats
        print(
            f"\n{engine:>14} engine: {seconds[engine] * 1e3:7.2f} ms"
            f"\n                synaptic ops billed  {stats.total_synaptic_ops:,}"
        )
        if profile:
            print(stats.profile_table())
    speedup = seconds["batched"] / seconds["event-batched"]
    bitwise = np.array_equal(logits["batched"], logits["event-batched"])
    print(
        f"\nevent-batched vs batched: {speedup:.2f}x "
        f"({'wins' if speedup > 1 else 'loses'} at this density), "
        f"logits bitwise identical: {bitwise}"
    )
    print(
        "The crossover sits near 1-2% input density on this substrate: "
        "rerun with --density 0.02 to watch the dense GEMM win again."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print each backend's per-layer wall-clock/density profile",
    )
    parser.add_argument(
        "--density",
        type=float,
        default=None,
        metavar="D",
        help="run the low-density COO crossover scenario at input "
        "density D (e.g. 0.003) instead of the VGG frame comparison",
    )
    args = parser.parse_args()

    if args.density is not None:
        if not 0.0 < args.density <= 1.0:
            parser.error("--density must be in (0, 1]")
        run_density_scenario(args.density, args.profile)
        return

    print("Preparing a converted VGG-11 (width=0.25, 1 warm-up epoch)...")
    dataset = SyntheticCIFAR(num_train=256, num_test=64, noise=0.8, seed=0)
    model = build_quantized_twin("vgg11", width=0.25, num_classes=10, levels=2, seed=0)
    Trainer(model, TrainConfig(epochs=1, lr=1e-3)).fit(dataset.train_x, dataset.train_y)
    convert_to_snn(model)

    x = dataset.test_x
    results = {}
    for engine in ("dense", "event", "batched", "auto"):
        network = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
        # Warm up caches / BLAS threads on the full batch — for auto
        # this is the calibration pass (plans are keyed by the full
        # input shape), so the timed run executes the compiled plan.
        network.forward(x)
        started = time.perf_counter()
        logits = network.forward(x)
        elapsed = time.perf_counter() - started
        results[engine] = (logits, network.last_run_stats, elapsed)
        stats = network.last_run_stats
        print(
            f"\n{engine:>7} engine: {elapsed * 1e3:7.1f} ms for {len(x)} frames x T={TIMESTEPS}"
            f" (lanes={stats.lanes})"
            f"\n         synaptic ops        {stats.total_synaptic_ops:,}"
            f"\n         overall spike rate  {stats.overall_spike_rate:.4f}"
        )
        if args.profile:
            print(stats.profile_table())

    dense_logits, _, dense_s = results["dense"]
    event_stats = results["event"][1]
    for engine in ("event", "batched", "auto"):
        logits, _, elapsed = results[engine]
        agreement = float((dense_logits.argmax(1) == logits.argmax(1)).mean())
        print(
            f"\n{engine} vs dense: prediction agreement {agreement:.2%}, "
            f"max |logit diff| {np.abs(dense_logits - logits).max():.2e}, "
            f"speedup {dense_s / elapsed:.2f}x"
        )
    auto_stats = results["auto"][1]
    chosen = {
        layer.name: layer.backend
        for layer in auto_stats.layers
        if layer.kind in ("conv", "linear")
    }
    coo_layers = sum(1 for backend in chosen.values() if backend == "event-batched")
    print(
        f"\nauto engine plan: {coo_layers}/{len(chosen)} synapse layers "
        f"routed to the COO row-subset kernel, the rest stay on the batched GEMM"
    )
    print(
        f"\nevent-driven op saving: {event_stats.synaptic_op_saving:.1%} "
        f"(the fraction of dense MACs the paper's hardware never executes)"
    )
    print("\nper-layer spike rates (event engine):")
    for idx, rate in enumerate(event_stats.spike_rates(), start=1):
        print(f"  layer {idx:>2}: {rate:.4f}")


if __name__ == "__main__":
    main()
