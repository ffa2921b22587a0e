"""Pipeline tests: trainer, weight transfer, calibration, mini end-to-end."""

import numpy as np
import pytest

from repro import nn
from repro.data import SyntheticCIFAR
from repro.models import vgg11
from repro.pipeline import (
    TrainConfig,
    Trainer,
    build_quantized_twin,
    evaluate_model,
    run_conversion_pipeline,
    transfer_weights,
)
from repro.pipeline.conversion import calibrate_quant_steps


@pytest.fixture(scope="module")
def tiny_dataset():
    return SyntheticCIFAR(num_train=200, num_test=80, noise=0.5, seed=11)


class TestTrainer:
    def test_loss_decreases(self, tiny_dataset):
        model = vgg11(width=0.125, seed=0)
        trainer = Trainer(model, TrainConfig(epochs=2, lr=2e-3))
        hist = trainer.fit(*tiny_dataset.train_split())
        assert hist.losses[-1] < hist.losses[0]

    def test_history_records_test_accuracy(self, tiny_dataset):
        model = vgg11(width=0.125, seed=0)
        trainer = Trainer(model, TrainConfig(epochs=1))
        hist = trainer.fit(
            *tiny_dataset.train_split(), *tiny_dataset.test_split()
        )
        assert len(hist.test_accuracy) == 1

    def test_sgd_option(self, tiny_dataset):
        model = vgg11(width=0.125, seed=0)
        trainer = Trainer(model, TrainConfig(epochs=1, optimizer="sgd", lr=0.05))
        trainer.fit(*tiny_dataset.train_split())

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            Trainer(vgg11(width=0.125), TrainConfig(optimizer="lion"))

    def test_epoch_callback_invoked(self, tiny_dataset):
        calls = []
        model = vgg11(width=0.125, seed=0)
        Trainer(model, TrainConfig(epochs=2)).fit(
            *tiny_dataset.train_split(),
            epoch_callback=lambda e, loss: calls.append(e),
        )
        assert calls == [0, 1]


class TestTransferWeights:
    def test_copies_matching_keys(self):
        src = vgg11(width=0.125, seed=0)
        dst = build_quantized_twin("vgg11", width=0.125, num_classes=10, levels=2)
        copied = transfer_weights(src, dst)
        assert any(k.endswith("weight") for k in copied)
        src_state = src.state_dict()
        dst_state = dst.state_dict()
        for key in copied:
            assert np.allclose(src_state[key], dst_state[key])

    def test_skips_quant_only_keys(self):
        src = vgg11(width=0.125, seed=0)
        dst = build_quantized_twin("vgg11", width=0.125, num_classes=10, levels=2)
        copied = transfer_weights(src, dst)
        assert not any("step" in k for k in copied)
        assert not any("weight_scale" in k for k in copied)

    def test_no_overlap_raises(self):
        src = nn.Sequential(nn.Linear(3, 3, rng=np.random.default_rng(0)))
        dst = nn.Sequential(nn.Linear(5, 5, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError):
            transfer_weights(src, dst)

    def test_buffers_transferred(self):
        src = vgg11(width=0.125, seed=0)
        for name, buf in src.named_buffers():
            if name.endswith("running_mean"):
                buf += 1.0
        dst = build_quantized_twin("vgg11", width=0.125, num_classes=10, levels=2)
        transfer_weights(src, dst)
        means = [b for n, b in dst.named_buffers() if n.endswith("running_mean")]
        assert all(np.allclose(m, 1.0) for m in means)


class TestCalibration:
    def test_sets_all_steps(self, tiny_dataset):
        model = build_quantized_twin("vgg11", width=0.125, num_classes=10, levels=2)
        steps = calibrate_quant_steps(model, tiny_dataset.train_x[:64])
        quants = [m for m in model.modules() if isinstance(m, nn.QuantReLU)]
        assert len(steps) == len(quants) == 8
        assert all(s > 0 for s in steps)

    def test_requires_quant_layers(self, tiny_dataset):
        with pytest.raises(ValueError):
            calibrate_quant_steps(vgg11(width=0.125), tiny_dataset.train_x[:16])


class TestEndToEndPipeline:
    def test_mini_pipeline_shapes_and_ordering(self, tiny_dataset):
        result = run_conversion_pipeline(
            "vgg11",
            tiny_dataset,
            width=0.125,
            levels=2,
            timesteps=4,
            max_timesteps=6,
            ann_config=TrainConfig(epochs=2),
            finetune_config=TrainConfig(epochs=1, lr=5e-4),
        )
        assert 0.0 <= result.ann_accuracy <= 1.0
        assert len(result.snn_accuracy_per_step) == 6
        assert result.snn_accuracy == result.snn_accuracy_per_step[3]
        assert len(result.thresholds) == 8
        # The fine-tuned quantised model should still be quantised
        # (conversion must not mutate it).
        assert any(isinstance(m, nn.QuantReLU) for m in result.quant_model.modules())
        assert "vgg11" in result.summary()

    def test_curve_shorter_than_the_evaluated_t_is_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match=r"max_timesteps=4 .*timesteps=8"):
            run_conversion_pipeline(
                "vgg11",
                tiny_dataset,
                width=0.125,
                timesteps=8,
                max_timesteps=4,
                ann_config=TrainConfig(epochs=1),
                finetune_config=TrainConfig(epochs=1, lr=5e-4),
            )

    def test_snn_approaches_quant_accuracy(self, tiny_dataset):
        result = run_conversion_pipeline(
            "vgg11",
            tiny_dataset,
            width=0.125,
            levels=2,
            timesteps=8,
            max_timesteps=8,
            ann_config=TrainConfig(epochs=3),
            finetune_config=TrainConfig(epochs=2, lr=5e-4),
        )
        # Within a reasonable band of the quantised ANN by T=8 (the
        # paper's headline behaviour, scaled to the tiny setup).
        assert result.snn_accuracy >= result.quant_accuracy - 0.15
