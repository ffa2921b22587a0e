"""Quickstart: the paper's three-stage pipeline end to end, in ~2 minutes.

Trains a width-scaled VGG-11 on the synthetic CIFAR stand-in, fine-tunes
it with L=2 quantised ReLUs and INT8 weights, converts it to a spiking
network, and prints the accuracy-vs-timesteps curve (the Fig. 9 shape).

Run:
    python examples/quickstart.py
"""

from repro.data import SyntheticCIFAR
from repro.pipeline import TrainConfig, run_conversion_pipeline


def main() -> None:
    print("Loading synthetic CIFAR-10 stand-in (3x32x32, 10 classes)...")
    dataset = SyntheticCIFAR(
        num_train=800, num_test=300, noise=1.0, class_overlap=0.55, seed=0
    )

    print("Running the 3-stage co-optimisation pipeline (VGG-11, width=0.125)...")
    result = run_conversion_pipeline(
        "vgg11",
        dataset,
        width=0.125,
        levels=2,              # the paper's L=2 quantised ReLU
        timesteps=8,           # the paper's headline latency
        max_timesteps=16,
        ann_config=TrainConfig(epochs=4, verbose=True),
        finetune_config=TrainConfig(epochs=3, lr=5e-4, verbose=True),
        progress=print,
        engine="auto",         # per-layer density rule: GEMM or COO (see examples/engine_comparison.py)
    )

    print()
    print(f"FP32 ANN accuracy:        {result.ann_accuracy:.4f}")
    print(f"Quantised ANN accuracy:   {result.quant_accuracy:.4f}")
    print(f"SNN accuracy at T=8:      {result.snn_accuracy:.4f}")
    print(f"Learned layer thresholds: "
          + " ".join(f"{t:.2f}" for t in result.thresholds))
    print()
    print("Accuracy vs timesteps (paper Fig. 9 shape):")
    print("  T:   " + " ".join(f"{t:5d}" for t in range(1, len(result.snn_accuracy_per_step) + 1)))
    print("  acc: " + " ".join(f"{a:.3f}" for a in result.snn_accuracy_per_step))
    gap = result.ann_accuracy - result.snn_accuracy
    print(f"\nANN-to-SNN gap at T=8: {gap * 100:.2f}% "
          f"(paper: <1% on CIFAR-10 at full width)")


if __name__ == "__main__":
    main()
