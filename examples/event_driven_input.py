"""Event-driven input path: DVS-style streams straight into the SIA.

The paper's platform supports two input modes (§IV): frame conversion
on the PS, or event-driven data streams transferred directly to the
accelerator.  This example exercises the second mode end to end on a
synthetic moving-bar DVS dataset: a small spiking classifier is trained
directly with surrogate gradients on event frames, and the event
streams are also pushed through the cycle-accurate spiking core to show
the sparsity dividend.

Run:
    python examples/event_driven_input.py
"""

import numpy as np

from repro.data.events import SyntheticDVS, accumulate_events
from repro.eval import render_table
from repro.hw import PYNQ_Z2, SpikingCore
from repro.snn import SurrogateSNN, evaluate_surrogate_snn, train_surrogate_snn
from repro.tensor import Tensor


def train_on_events() -> None:
    print("Generating a synthetic DVS dataset (4 motion classes)...")
    dvs = SyntheticDVS(num_train=400, num_test=80, timesteps=16, seed=0)
    print(f"mean event rate: {dvs.mean_event_rate():.4f} events/pixel/step")

    # Re-bin the 16-step streams into 4 accumulation frames and stack
    # (bin, polarity) as 8 input channels — motion direction is then
    # encoded in the channel-wise displacement of the event mass.
    def to_frames(samples):
        xs, ys = [], []
        for s in samples:
            binned = accumulate_events(s.events, bins=4)
            xs.append(binned.reshape(4 * 2, 32, 32))
            ys.append(s.label)
        return np.stack(xs).astype(np.float32), np.array(ys, np.int64)

    train_x, train_y = to_frames(dvs.train)
    test_x, test_y = to_frames(dvs.test)

    print("Training a surrogate-gradient SNN on event frames...")
    model = SurrogateSNN(in_channels=8, num_classes=4, channels=(32, 64), seed=0)
    losses = train_surrogate_snn(
        model, train_x, train_y, epochs=12, timesteps=4, lr=5e-3, batch_size=50
    )
    acc = evaluate_surrogate_snn(model, test_x, test_y, timesteps=4)
    print(f"losses: {' '.join(f'{l:.3f}' for l in losses)}")
    print(f"test accuracy on 4 motion classes: {acc:.3f}")
    return dvs


def stream_through_core(dvs: SyntheticDVS) -> None:
    print("\nStreaming raw events through the event-driven spiking core:")
    rng = np.random.default_rng(1)
    weights = rng.integers(-128, 128, size=(64, 2, 3, 3))
    sparse = SpikingCore(PYNQ_Z2, event_driven=True)
    dense = SpikingCore(PYNQ_Z2, event_driven=False)

    rows = []
    for sample in dvs.test[:4]:
        s_cycles = d_cycles = 0
        for t in range(sample.timesteps):
            plane = sample.events[t].astype(np.int64)
            _, s_stats = sparse.conv_timestep(plane, weights, padding=1)
            _, d_stats = dense.conv_timestep(plane, weights, padding=1)
            s_cycles += s_stats.cycles
            d_cycles += d_stats.cycles
        rows.append(
            {
                "label": sample.label,
                "event_rate": round(sample.event_rate, 4),
                "event_driven_cycles": s_cycles,
                "dense_cycles": d_cycles,
                "saving": f"{1 - s_cycles / d_cycles:.1%}",
            }
        )
    print(render_table(rows, ["label", "event_rate", "event_driven_cycles",
                              "dense_cycles", "saving"]))
    print("sparse DVS streams are where the event-driven PE design pays off "
          "hardest — most kernel-row cycles are skipped entirely.")


def coo_dataflow(dvs: SyntheticDVS) -> None:
    """The first-class COO path: a SpikeStream end to end.

    The whole test split travels as one coordinate batch — the exact
    event-driven payload the PS would transfer to the SIA — and the
    event engine carries those coordinates across the layers, so op
    accounting and density profiling come from event coordinates, never
    from scanning densified planes.
    """
    import numpy as np

    from repro import nn
    from repro.snn import SpikingNetwork, convert_to_snn
    from repro.tensor import no_grad

    stream, labels = dvs.spike_stream("test")
    per_step = stream.events_per_step()
    print("\nCOO SpikeStream over the test split:")
    print(
        f"  {stream.num_events} events over {stream.batch_size} samples x "
        f"{stream.timesteps} steps (density {stream.density:.4f})"
    )
    print(f"  events per step: {[int(v) for v in per_step[:8]]}...")

    # A small converted spiking classifier over the 2 polarity channels.
    rng = np.random.default_rng(0)
    model = nn.Sequential(
        nn.Conv2d(2, 16, 3, padding=1, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(16, 16, 3, padding=1, rng=rng),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.Flatten(),
        nn.Linear(16 * 16 * 16, dvs.num_classes, rng=rng),
    )
    model.train()
    with no_grad():
        with_frames = stream.to_dense()  # (T, N, 2, H, W), warm the BN stats
        for t in range(2):
            model(Tensor(with_frames[t]))
    model.eval()
    convert_to_snn(model)

    network = SpikingNetwork(model, engine="auto")
    network.forward(stream)  # T comes from the stream itself
    stats = network.last_run_stats
    trace = stats.spike_trace()
    print(
        f"  auto engine on the stream: {stats.total_synaptic_ops:,} synaptic "
        f"ops vs {stats.total_dense_synaptic_ops:,} dense "
        f"(saving {stats.synaptic_op_saving:.1%})"
    )
    print(
        "  measured spike trace for the hw models: "
        + ", ".join(f"{d:.3f}" for d in trace.densities)
    )


if __name__ == "__main__":
    dataset = train_on_events()
    stream_through_core(dataset)
    coo_dataflow(dataset)
