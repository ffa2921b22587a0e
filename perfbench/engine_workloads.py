"""The ``frames`` and ``dvs`` workloads: one caller, closed loop, in-process.

Both drive ``SpikingNetwork(engine="auto")`` through its public calls
and check every output bit for bit against a ``batched``-engine
reference computed at set-up.

Set-up is done ``REPLICAS`` times per run, each time from scratch:
build and convert the model, run the reference, and warm the planner
on every input the timed window uses (its calibration race).  The
timed window then calls the replicas in turn.  ``setup_s`` is the
shared start-up (imports, inputs) plus the median set-up; the median
call gives ``throughput_sps`` and ``latency_p50_ms``.  The planner's race
can pick another kernel in another set-up (``plans_before`` in the
detail line), and spreading the window over independent set-ups keeps
one such draw from deciding the run's figures.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from common import OUT, TIMESTEPS, Outcome, latency_summary, own_peak_rss_mb, p50
from repro import nn
from repro.data import SyntheticCIFAR
from repro.data.events import SyntheticDVS
from repro.pipeline import build_quantized_twin
from repro.pipeline.trainer import TrainConfig, Trainer
from repro.snn import SpikingNetwork, convert_to_snn
from repro.snn.spikes import SpikeStream
from repro.tensor import Tensor, no_grad
from tracing import Tracer, engine_layer_metrics, instrument_engine_runs, self_times_ms

REPLICAS = 3
WARM_SECONDS = 1.0

#: Per-layer metrics of the serving stack, which these workloads bypass.
SERVING_LAYERS = (
    "serve.decode_ms", "serve.http_ms", "batcher.wait_ms", "batcher.batch_size",
    "worker.run_ms", "worker.hop_ms", "serve.shed", "serve.deadline_rejected",
    "client.lateness_ms",
)


def build_vgg() -> nn.Module:
    """A BN-warmed, briefly trained, converted VGG-11 at width 0.125."""
    ds = SyntheticCIFAR(num_train=128, num_test=48, noise=0.8, seed=3)
    model = build_quantized_twin("vgg11", width=0.125, num_classes=10, levels=2, seed=0)
    Trainer(model, TrainConfig(epochs=1, lr=1e-3)).fit(ds.train_x, ds.train_y)
    return convert_to_snn(model)


DVS_SHAPE = (64, 64)
DVS_BATCH = 8


def build_dvs() -> nn.Module:
    """The converted DVS front-end CNN, BN-warmed on a fixed event set."""
    height, width = DVS_SHAPE
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
    warm_set = SyntheticDVS(num_train=16, num_test=0, height=height, width=width,
                            timesteps=TIMESTEPS, noise_rate=0.002, seed=3)
    frames = warm_set.spike_stream("train")[0].to_dense(np.float32)
    warm = frames.reshape((-1,) + frames.shape[2:])
    model.train()
    with no_grad():
        for start in range(0, len(warm), 32):
            model(Tensor(warm[start : start + 32]))
    model.eval()
    return convert_to_snn(model)


def frames_inputs(seed: int) -> list:
    """512 synthetic CIFAR frames in the library's evaluation batch of 256."""
    x = SyntheticCIFAR(num_train=0, num_test=512, noise=0.8, seed=seed).test_x
    return [x[:256], x[256:]]


def dvs_inputs(seed: int) -> list:
    """Four batch-8 COO streams of 64x64x2 events, about 0.3% dense."""
    height, width = DVS_SHAPE
    events = SyntheticDVS(num_train=0, num_test=4 * DVS_BATCH, height=height,
                          width=width, timesteps=TIMESTEPS, noise_rate=0.002, seed=seed)
    stream = events.spike_stream("test")[0]
    return [stream.batch_slice(lo, lo + DVS_BATCH) for lo in range(0, 4 * DVS_BATCH, DVS_BATCH)]


@dataclass
class Workload:
    name: str
    batch: int
    build: Callable[[], nn.Module]
    inputs: Callable[[int], list]
    call: Callable[[SpikingNetwork, object], object]


WORKLOADS = {
    "frames": Workload("frames", 256, build_vgg, frames_inputs,
                       lambda network, x: network.forward_per_step(x)),
    "dvs": Workload("dvs", DVS_BATCH, build_dvs, dvs_inputs,
                    lambda network, x: network.forward(x)),
}


@dataclass
class Replica:
    network: SpikingNetwork
    references: list
    setup_s: float


def same(out, reference) -> bool:
    if isinstance(reference, list):
        return len(out) == len(reference) and all(
            np.array_equal(a, b) for a, b in zip(out, reference)
        )
    return np.array_equal(out, reference)


def set_up(workload: Workload, inputs: list, outcome: Outcome) -> Replica:
    """Build, reference-run and warm one network; its outputs are checked too."""
    started = time.perf_counter()
    model = workload.build()
    reference = SpikingNetwork(model, timesteps=TIMESTEPS, engine="batched")
    references = [workload.call(reference, x) for x in inputs]
    network = SpikingNetwork(model, timesteps=TIMESTEPS, engine="auto")
    for x, expected in zip(inputs, references):
        outcome.record(same(workload.call(network, x), expected))
    return Replica(network, references, time.perf_counter() - started)


def closed_loop(workload, replicas, inputs, seconds, outcome, tracer=None) -> List[float]:
    """Call the replicas in turn until ``seconds`` pass; returns call latencies."""
    latencies = []
    call = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        replica = replicas[call % len(replicas)]
        index = call % len(inputs)
        span = (tracer.span(f"{workload.name}.call", key=call) if tracer
                else contextlib.nullcontext())
        out = None
        begun = time.perf_counter()
        try:
            with span:
                out = workload.call(replica.network, inputs[index])
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            traceback.print_exc()
        latencies.append(time.perf_counter() - begun)
        outcome.record(out is not None and same(out, replica.references[index]))
        call += 1
    return latencies


def planner_counters(replicas) -> dict:
    engines = [r.network.engine for r in replicas]
    return {
        "calibration_runs": sum(e.calibration_runs for e in engines),
        "replans": sum(e.replans_triggered for e in engines),
    }


def plan_signatures(replicas, x) -> List[str]:
    """Per replica, the backend of each planned layer (``xN``: row-sharded)."""
    kind = "stream" if isinstance(x, SpikeStream) else "dense"
    signatures = []
    for replica in replicas:
        plan = replica.network.engine.plan_for(x.shape, TIMESTEPS, kind)
        signatures.append("none" if plan is None else ",".join(
            d.backend + (f"x{d.workers}" if d.workers > 1 else "")
            for d in plan.decisions.values()
        ))
    return signatures


def run(name: str, seed: int, seconds: float, trace: bool, process_start: float) -> Outcome:
    workload = WORKLOADS[name]
    outcome = Outcome()
    inputs = workload.inputs(seed)
    shared_s = time.perf_counter() - process_start
    replicas = [set_up(workload, inputs, outcome) for _ in range(REPLICAS)]
    setups = [r.setup_s for r in replicas]
    # The first calls after set-up run on a cold heap and caches; one
    # untimed second lets them settle, as they have for a caller that
    # keeps the network running.
    closed_loop(workload, replicas, inputs, WARM_SECONDS, outcome)
    before = planner_counters(replicas)
    outcome.detail.update(
        setup_shared_s=shared_s,
        setup_replica_s=setups,
        plans_before=plan_signatures(replicas, inputs[0]),
    )
    if not trace:
        latencies = closed_loop(workload, replicas, inputs, seconds, outcome)
        outcome.metrics = {
            "throughput_sps": workload.batch / p50(latencies),
            "latency_p50_ms": p50(latencies) * 1e3,
            "setup_s": shared_s + statistics.median(setups),
            "peak_rss_mb": own_peak_rss_mb(),
        }
    else:
        untraced = closed_loop(workload, replicas, inputs, seconds / 2, outcome)
        before = planner_counters(replicas)
        tracer = Tracer()
        undo = instrument_engine_runs(tracer)
        try:
            latencies = closed_loop(workload, replicas, inputs, seconds / 2, outcome, tracer)
        finally:
            undo()
        tracer.write(OUT / f"{name}-seed{seed}-spans.json")
        engine_spans = [s for s in tracer.spans if s["name"] == "engine.run"]
        outcome.metrics = {
            **engine_layer_metrics(engine_spans),
            **{metric: 0.0 for metric in SERVING_LAYERS},
            "trace.overhead_pct": (p50(latencies) / p50(untraced) - 1.0) * 100.0,
        }
        self_ms = self_times_ms(tracer.spans)
        outcome.detail["network_glue_ms_p50"] = p50(
            [self_ms[s["id"]] for s in tracer.spans if s["name"].endswith(".call")]
        )
    after = planner_counters(replicas)
    window = {k: after[k] - before[k] for k in after}
    if trace:
        outcome.metrics["planner.calibration_runs"] = window["calibration_runs"]
        outcome.metrics["planner.replans"] = window["replans"]
    outcome.detail.update(
        latency=latency_summary([v * 1e3 for v in latencies]),
        replica_latency_p50_ms=[p50(latencies[r::REPLICAS]) * 1e3 for r in range(REPLICAS)],
        plans_after=plan_signatures(replicas, inputs[0]),
        planner_window=window,
        load_generator={"loop": "closed", "callers": 1, "threads": 1},
    )
    return outcome
