"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.hw.core import SpikingCore
from repro.hw.fixed import (
    fixed_to_float,
    int_limits,
    quantize_to_fixed,
    sat_add,
    saturate,
)
from repro.nn.quant import dequantize_weight, quantize_weight_int8
from repro.snn import IFNeuron
from repro.tensor import Tensor
from repro.tensor.functional import col2im, im2col


# ----------------------------------------------------------------------
# Fixed point
# ----------------------------------------------------------------------
@given(
    hnp.arrays(np.int64, st.integers(1, 30), elements=st.integers(-(10 ** 9), 10 ** 9)),
    st.integers(2, 32),
)
def test_saturate_within_limits_and_idempotent(values, bits):
    out = saturate(values, bits)
    lo, hi = int_limits(bits)
    assert out.min() >= lo and out.max() <= hi
    assert np.array_equal(saturate(out, bits), out)


@given(
    hnp.arrays(np.int64, 10, elements=st.integers(-30000, 30000)),
    hnp.arrays(np.int64, 10, elements=st.integers(-30000, 30000)),
)
def test_sat_add_commutative(a, b):
    assert np.array_equal(sat_add(a, b, 16), sat_add(b, a, 16))


@given(
    hnp.arrays(
        np.float64, st.integers(1, 20),
        elements=st.floats(-100, 100, allow_nan=False),
    ),
    st.integers(2, 12),
)
def test_quantize_to_fixed_error_bound(values, frac_bits):
    fixed = quantize_to_fixed(values, frac_bits, 32)
    back = fixed_to_float(fixed, frac_bits)
    assert np.abs(back - values).max() <= 0.5 / (1 << frac_bits) + 1e-12


# ----------------------------------------------------------------------
# Weight quantisation
# ----------------------------------------------------------------------
@given(
    hnp.arrays(
        np.float32, st.integers(1, 64),
        elements=st.floats(-5, 5, allow_nan=False, width=32),
    )
)
# A scale that underflows float32 once cast NaN to the integer minimum.
@example(np.array([1e-45, 0.0], dtype=np.float32))
def test_weight_quant_roundtrip_bound(weights):
    w_int, scale = quantize_weight_int8(weights)
    back = dequantize_weight(w_int, scale)
    assert np.abs(back - weights).max() <= scale / 2 + 1e-6
    assert w_int.min() >= -128 and w_int.max() <= 127


# ----------------------------------------------------------------------
# im2col / col2im adjointness
# ----------------------------------------------------------------------
@given(
    st.integers(1, 2),   # batch
    st.integers(1, 3),   # channels
    st.integers(4, 8),   # spatial
    st.integers(1, 3),   # kernel
    st.integers(1, 2),   # stride
    st.integers(0, 1),   # padding
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_im2col_col2im_adjoint(n, c, hw, k, stride, pad, seed):
    if k > hw + 2 * pad:
        return
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, hw, hw))
    cols, oh, ow = im2col(x, k, stride, pad)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, k, stride, pad)).sum())
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


# ----------------------------------------------------------------------
# IF neuron invariants
# ----------------------------------------------------------------------
@given(
    hnp.arrays(
        np.float32, st.integers(1, 32),
        elements=st.floats(0, 2.0, allow_nan=False, width=32),
    ),
    st.integers(1, 30),
)
@settings(max_examples=50, deadline=None)
def test_if_spike_count_bounded_by_input_integral(currents, timesteps):
    """Total emitted charge never exceeds injected charge + v_init."""
    threshold = 1.0
    neuron = IFNeuron(threshold=threshold, v_init_fraction=0.5)
    total_out = 0.0
    for _ in range(timesteps):
        out = neuron(Tensor(currents))
        total_out += float(out.data.sum())
    injected = float(currents.sum()) * timesteps + 0.5 * threshold * currents.size
    assert total_out <= injected + 1e-4


@given(
    hnp.arrays(
        np.float32, 16,
        elements=st.floats(-1.0, 1.0, allow_nan=False, width=32),
    )
)
@settings(max_examples=50, deadline=None)
def test_if_membrane_conservation_reset_by_subtraction(currents):
    """v_T = v_0 + sum(inputs) - threshold * total_spikes, exactly."""
    neuron = IFNeuron(threshold=1.0, v_init_fraction=0.5)
    total_spikes = 0.0
    steps = 8
    for _ in range(steps):
        out = neuron(Tensor(currents))
        total_spikes += out.data / 1.0
    expected = 0.5 + currents * steps - total_spikes
    assert np.allclose(neuron.v, expected, atol=1e-4)


@given(st.floats(0.01, 0.99), st.integers(10, 200))
@settings(max_examples=30, deadline=None)
def test_if_rate_codes_constant_input(z, timesteps):
    """Constant input z in (0, theta): rate -> z/theta within 1/T."""
    neuron = IFNeuron(threshold=1.0, v_init_fraction=0.5)
    spikes = 0
    for _ in range(timesteps):
        spikes += int(neuron(Tensor(np.array([z], np.float32))).data[0] > 0)
    assert abs(spikes / timesteps - z) <= 1.0 / timesteps + 1e-3


# ----------------------------------------------------------------------
# Spiking core: functional equivalence under random inputs
# ----------------------------------------------------------------------
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_core_psum_equals_integer_convolution(seed, event_driven):
    rng = np.random.default_rng(seed)
    c_in, c_out = rng.integers(1, 4), rng.integers(1, 5)
    spikes = (rng.random((c_in, 6, 6)) < rng.uniform(0, 0.8)).astype(np.int64)
    weights = rng.integers(-128, 128, size=(c_out, c_in, 3, 3))
    core = SpikingCore(event_driven=event_driven)
    psum, stats = core.conv_timestep(spikes, weights, padding=1)
    # Direct dense reference.
    padded = np.pad(spikes, ((0, 0), (1, 1), (1, 1)))
    ref = np.zeros((c_out, 6, 6), np.int64)
    for co in range(c_out):
        for i in range(6):
            for j in range(6):
                ref[co, i, j] = (padded[:, i : i + 3, j : j + 3] * weights[co]).sum()
    assert np.array_equal(psum, np.clip(ref, -32768, 32767))
    assert stats.active_segments <= stats.total_segments


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_event_driven_never_slower(seed):
    rng = np.random.default_rng(seed)
    spikes = (rng.random((2, 6, 6)) < rng.uniform(0, 1)).astype(np.int64)
    weights = rng.integers(-10, 10, size=(3, 2, 3, 3))
    _, sparse = SpikingCore(event_driven=True).conv_timestep(spikes, weights)
    _, dense = SpikingCore(event_driven=False).conv_timestep(spikes, weights)
    assert sparse.cycles <= dense.cycles
