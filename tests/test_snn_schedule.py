"""The compiled layer schedule runs every built-in model.

VGG-11 and ResNet-18 are chains of their named children, and a ResNet
``BasicBlock`` is an :class:`repro.nn.Residual` that declares its main
branch, shortcut and post-add neuron, so the time-batched engines
compile them like the DVS CNN and the serving demo net: no module
``forward`` is replaced during a run.  The residual step runs both
branches on one carrier and adds them densely; it is the same run as
``dense`` (the modules' own ``forward``s) and ``batched``, bit for bit.
"""

import numpy as np
import pytest

from repro.serve.app import build_demo_network
from repro.snn import SpikingNetwork
from repro.snn.engines.batched import TimeBatchedEngine, _compile

from test_snn_blocked_runs import converted_vgg
from test_snn_coo_handoffs import _assert_same_run, _run, dvs_model, sparse_stream
from test_snn_engine import converted_resnet

TIMESTEPS = 4


def _demo():
    return build_demo_network((2, 16, 16))[0]


MODELS = {
    "vgg11": converted_vgg,
    "resnet18": converted_resnet,
    "dvs": dvs_model,
    "demo": _demo,
}


@pytest.fixture(scope="module")
def models():
    return {name: build() for name, build in MODELS.items()}


def _frames(model):
    shape = {"vgg11": (3, 32, 32), "resnet18": (3, 32, 32), "dvs": (2, 64, 64),
             "demo": (2, 16, 16)}[model]
    return np.random.default_rng(3).normal(size=(2,) + shape).astype(np.float32)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_builtin_models_compile(models, name):
    compiled = _compile(models[name])
    assert compiled is not None
    blocks = [entry for entry in compiled if entry[2] is not None]
    # ResNet-18: four stages of two residual blocks, each step
    # declaring its conv-BN-IF-conv-BN main branch and its post-add IF.
    assert len(blocks) == (8 if name == "resnet18" else 0)
    for block_name, block, (main, shortcut, post) in blocks:
        assert [n for n, _, _ in main] == [
            f"{block_name}.{child}" for child in ("conv1", "bn1", "act1", "conv2", "bn2")
        ]
        assert [n for n, _, _ in post] == [f"{block_name}.act2"]
        assert [n for n, _, _ in shortcut] in (
            [], [f"{block_name}.shortcut.0", f"{block_name}.shortcut.1"]
        )


@pytest.mark.parametrize("engine", ["batched", "auto"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_runs_replace_no_forward(models, name, engine, monkeypatch):
    """While a ``batched`` or ``auto`` run executes its GEMMs, no
    module holds a ``forward`` of the engine's in its ``__dict__``."""
    model = models[name]
    installed = []
    gemm = TimeBatchedEngine._gemm

    def spy(self, *args, **kwargs):
        installed.append(
            sorted(n for n, m in model.named_modules() if "forward" in m.__dict__)
        )
        return gemm(self, *args, **kwargs)

    monkeypatch.setattr(TimeBatchedEngine, "_gemm", spy)
    net = SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine)
    net.forward_per_step(_frames(name))
    assert installed and all(names == [] for names in installed)
    assert all("forward" not in m.__dict__ for m in model.modules())


@pytest.mark.parametrize("case", ["frames", "stream"])
def test_resnet_residual_step_is_dense_bitwise(models, case):
    """The residual step against ``dense`` and ``batched``: logits,
    per-step logits, spike counts, per-layer ops and input nonzeros,
    membranes and ``last_spikes``.  On the 0.5% stream the neurons of
    the residual graph step their sites again."""
    model = models["resnet18"]
    if case == "frames":
        x = np.random.default_rng(5).normal(size=(8, 3, 32, 32)).astype(np.float32)
    else:
        x = sparse_stream((8, 3, 32, 32), TIMESTEPS, 0.005, seed=5)
    run = _run(model, x, "auto", TIMESTEPS)
    _assert_same_run(_run(model, x, "dense", TIMESTEPS), run)
    _assert_same_run(_run(model, x, "batched", TIMESTEPS), run)
    neurons = {l.backend for l in run[2].layers if l.kind == "neuron"}
    assert neurons == ({"dense"} if case == "frames" else {"sites", "dense"})
