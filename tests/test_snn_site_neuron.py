"""The site neuron's bound screen and the count-based COO average pool.

``event-batched`` steps a neuron fed by a conv's site values on the
cells whose bounded peak membrane reaches threshold, hands its spikes on
as coordinates, and average-pools those by each window's event count.
All of it must be bitwise equal to ``batched``: logits, per-step
outputs, spike counts, and ``v``/``last_spikes`` read after the run.
"""

import numpy as np
import pytest

from repro import nn
from repro.snn.engines import event_batched as eb_mod
from repro.snn.engines.event import distinct
from repro.snn.neurons import IFNeuron, LIFNeuron
from repro.snn.spikes import StepSpikes
from repro.tensor import Tensor, functional

from test_snn_coo_handoffs import _assert_bitwise, sparse_stream


def _chain(neuron, bias, seed):
    """conv -> neuron -> AvgPool2d(2) -> Flatten, the conv's weights
    multiples of 1/4 so that many cells sum to the threshold exactly."""
    rng = np.random.default_rng(seed)
    conv = nn.Conv2d(2, 4, 3, padding=1, bias=True, rng=rng)
    conv.weight.data[:] = rng.choice([-0.25, 0.25, 0.5], size=conv.weight.shape)
    conv.bias.data[:] = bias
    model = nn.Sequential(conv, neuron, nn.AvgPool2d(2), nn.Flatten())
    model.eval()
    return model


#: Conv biases: the per-channel background of the neuron's input.
BACKGROUNDS = {
    "negative": -0.25,
    "positive": 0.0625,  # 0.5 + 8 * 0.0625 = 1.0: reaches threshold at T=8
    "firing": 0.375,
    "mixed": np.array([-0.25, 0.0, 0.125, 0.5], dtype=np.float32),
}


@pytest.mark.parametrize("timesteps", [1, 3, 8])
@pytest.mark.parametrize("background", sorted(BACKGROUNDS))
@pytest.mark.parametrize("leak", [None, 0.75])
def test_site_neuron_bitwise(timesteps, background, leak, monkeypatch):
    engaged = []
    site_neuron = eb_mod.EventBatchedEngine._site_neuron

    def spy(self, module, stat, sites):
        out = site_neuron(self, module, stat, sites)
        engaged.append(type(out).__name__)
        return out

    monkeypatch.setattr(eb_mod.EventBatchedEngine, "_site_neuron", spy)
    neuron = IFNeuron(1.0) if leak is None else LIFNeuron(1.0, leak=leak)
    model = _chain(neuron, BACKGROUNDS[background], seed=timesteps)
    stream = sparse_stream((3, 2, 12, 12), timesteps, 0.03, seed=timesteps)
    stats = _assert_bitwise(model, stream)
    assert engaged and set(engaged) == {"StepSpikes"}
    assert {l.backend for l in stats.layers if l.kind == "neuron"} == {"sites"}


def test_screen_keeps_sites_at_threshold():
    """A site where some channel's bound reaches the threshold exactly
    is kept; one that stays clear of it in every channel is dropped."""
    # Three sites, one step each, from v0 = 0.5: channel 0 reaches
    # 0.5 + 0.5 == 1.0 at site 0 and 0.75 at site 1, channel 1 reaches
    # 1.0 at site 2 only; nothing reaches it at site 1.
    xt = np.array([[0.5, 0.25, -1.0], [-1.0, 0.0, 0.5]], dtype=np.float32)
    kept = eb_mod._screen(
        xt, np.array([0, 1, 2]), 3, np.zeros(2, np.float32), np.float32(0.5),
        np.float32(1.0), 1,
    )
    assert kept.tolist() == [0, 2]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("scale", [2.0, 0.3, 1 / 3, 0.7071, 1e-3, 123.456])
def test_count_pool_matches_avg_pool2d(k, scale):
    """Window values looked up from event counts carry the dense
    kernel's bits (compared as uint32), zero windows included."""
    engine = eb_mod.EventBatchedEngine()
    rng = np.random.default_rng(k)
    for density in (0.05, 0.5, 0.95):
        shape = (3, 2, 4 * k, 3 * k)
        nonzero = np.nonzero(rng.random(shape) < density)
        step = StepSpikes(coords=np.stack(nonzero, axis=1), shape=shape, scale=scale)
        pooled = engine._coo_pool(nn.AvgPool2d(k), step)
        expected = functional.avg_pool2d(Tensor(step.to_dense(np.float32)), k).data
        got = pooled.to_dense(np.float32)
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32)), density


@pytest.mark.parametrize("domain, size", [(50, 400), (1000, 60), (5000, 40), (10**6, 300), (7, 0)])
def test_distinct_matches_unique(domain, size):
    """The mask and the sort path both give ``np.unique``'s values and
    inverse."""
    keys = np.random.default_rng(size).integers(0, domain, size)
    values, inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(distinct(keys, domain), values)
    got, rank = distinct(keys, domain, inverse=True)
    assert np.array_equal(got, values)
    assert np.array_equal(rank, inverse.reshape(-1))
