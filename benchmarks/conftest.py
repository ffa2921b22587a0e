"""Shared fixtures for the paper-reproduction benchmarks.

The two trained pipelines (ResNet-18 and VGG-11) are expensive on the
numpy substrate, so they are built once per session and shared by the
accuracy (Figs. 7/9) and spike-rate (Figs. 6/8) benchmarks.

Configuration mirrors DESIGN.md: width-scaled networks (0.125) on the
synthetic CIFAR stand-in; hardware benchmarks use full-width geometry
and need no training.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.data import SyntheticCIFAR
from repro.eval import accuracy_vs_timesteps_experiment

ACCURACY_WIDTH = 0.125
MAX_TIMESTEPS = 16


@pytest.fixture
def bench_dir(tmp_path) -> Path:
    """Where a benchmark writes its ``BENCH_*.json`` record.

    ``$REPRO_BENCH_DIR`` when set (CI sets it, and so does anyone who
    wants a record to snapshot with ``record_history.py``); otherwise
    the test's own temp directory, so a plain test run writes nothing
    into the checkout.
    """
    chosen = os.environ.get("REPRO_BENCH_DIR")
    if not chosen:
        return tmp_path
    out = Path(chosen)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset(seed: int) -> SyntheticCIFAR:
    # class_overlap=0.55 gives an irreducible error floor that lands the
    # ANN/quant/SNN accuracies in the paper's 88-96% band (see DESIGN.md).
    return SyntheticCIFAR(
        num_train=1500, num_test=400, noise=1.0, class_overlap=0.55, seed=seed
    )


@pytest.fixture(scope="session")
def synthetic_dataset():
    return _dataset(0)


@pytest.fixture(scope="session")
def resnet_curve(synthetic_dataset):
    """Trained + converted ResNet-18 accuracy curve (Fig. 7 input)."""
    return accuracy_vs_timesteps_experiment(
        "resnet18",
        dataset=synthetic_dataset,
        width=ACCURACY_WIDTH,
        max_timesteps=MAX_TIMESTEPS,
        ann_epochs=6,
        finetune_epochs=4,
        seed=0,
    )


@pytest.fixture(scope="session")
def vgg_curve(synthetic_dataset):
    """Trained + converted VGG-11 accuracy curve (Fig. 9 input)."""
    return accuracy_vs_timesteps_experiment(
        "vgg11",
        dataset=synthetic_dataset,
        width=ACCURACY_WIDTH,
        max_timesteps=MAX_TIMESTEPS,
        ann_epochs=6,
        finetune_epochs=4,
        seed=0,
    )
