"""Unit tests for the COO spike dataflow (repro.snn.spikes).

SpikeStream/StepSpikes round-trips, metadata accessors, batch slicing,
the data-layer producers (EventStream / encoders), the coordinate
window math the event engine's gathers run on, and the SpikeTrace the
hardware models consume.
"""

import numpy as np
import pytest

from repro.data import (
    SyntheticDVS,
    direct_encode,
    direct_encode_stream,
    rate_encode,
    rate_encode_stream,
)
from repro.snn.engines import conv_active_windows, pooled_coords
from repro.snn.engines.kernels import conv_event_rows
from repro.snn.spikes import SpikeStream, SpikeTrace, StepSpikes
from repro.tensor.functional import im2col


def _binary_stack(shape=(5, 3, 2, 6, 6), density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.float32)


class TestSpikeStream:
    def test_from_dense_round_trip_binary(self):
        dense = _binary_stack()
        stream = SpikeStream.from_dense(dense)
        assert stream.values is None  # binary stacks stay amplitude-free
        assert stream.timesteps == 5
        assert stream.shape == (3, 2, 6, 6)
        assert stream.num_events == int(dense.sum())
        assert np.array_equal(stream.to_dense(), dense)

    def test_from_dense_round_trip_valued(self):
        rng = np.random.default_rng(1)
        dense = rng.normal(size=(3, 2, 4, 4)).astype(np.float32)
        dense[dense < 0.5] = 0.0
        stream = SpikeStream.from_dense(dense)
        assert stream.values is not None
        assert np.array_equal(stream.to_dense(), dense)

    def test_density_and_per_step_profile(self):
        dense = np.zeros((4, 1, 2, 2), dtype=np.float32)
        dense[0, 0, 0, 0] = 1.0
        dense[2, 0, 1, 1] = 1.0
        dense[2, 0, 0, 1] = 1.0
        stream = SpikeStream.from_dense(dense)
        assert stream.num_events == 3
        assert stream.density == pytest.approx(3 / 16)
        assert list(stream.events_per_step()) == [1, 0, 2, 0]
        assert stream.density_per_step()[2] == pytest.approx(0.5)

    def test_step_slices_are_exact(self):
        dense = _binary_stack(seed=2)
        stream = SpikeStream.from_dense(dense)
        for t in range(stream.timesteps):
            step = stream.step(t)
            assert isinstance(step, StepSpikes)
            assert np.array_equal(step.to_dense(), dense[t])
            assert step.num_events == int(dense[t].sum())
        with pytest.raises(IndexError):
            stream.step(stream.timesteps)

    def test_events_are_canonicalised_by_timestep(self):
        # Deliberately unsorted event order (the batched DVS producer
        # concatenates per-sample blocks).
        coords = np.array([[0, 0, 1, 1], [0, 0, 0, 0]])
        stream = SpikeStream(
            coords=coords, timestep=np.array([3, 0]), shape=(1, 1, 2, 2), timesteps=4
        )
        assert list(stream.timestep) == [0, 3]
        assert stream.step(0).num_events == 1
        assert stream.step(3).num_events == 1

    def test_batch_slice_matches_dense_slice(self):
        dense = _binary_stack(seed=3)
        stream = SpikeStream.from_dense(dense)
        sub = stream[1:3]
        assert sub.batch_size == 2
        assert np.array_equal(sub.to_dense(), dense[:, 1:3])
        assert len(stream) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikeStream(
                coords=np.array([[0, 0, 9, 0]]),  # h out of range
                timestep=np.array([0]),
                shape=(1, 1, 2, 2),
                timesteps=2,
            )
        with pytest.raises(ValueError):
            SpikeStream(
                coords=np.array([[0, 0, 0, 0]]),
                timestep=np.array([5]),  # step out of range
                shape=(1, 1, 2, 2),
                timesteps=2,
            )
        with pytest.raises(ValueError):
            SpikeStream.from_dense(np.zeros((4,)))  # no batch axis
        with pytest.raises(TypeError):
            SpikeStream.from_dense(_binary_stack())[::2]  # strided slice
        with pytest.raises(ValueError):
            SpikeStream.from_dense(_binary_stack()).batch_slice(2, 2)

    def test_duplicate_events_rejected(self):
        # A duplicated (timestep, coordinate) would double-count in the
        # coordinate-derived op accounting while densifying to one cell.
        with pytest.raises(ValueError, match="duplicate"):
            SpikeStream(
                coords=np.array([[0, 0, 1, 1], [0, 0, 1, 1]]),
                timestep=np.array([2, 2]),
                shape=(1, 1, 2, 2),
                timesteps=3,
            )


class TestProducers:
    def test_event_stream_to_spike_stream(self):
        dvs = SyntheticDVS(num_train=2, num_test=1, height=8, width=8, timesteps=5)
        sample = dvs.train[0]
        stream = sample.to_spike_stream()
        assert stream.shape == (1, 2, 8, 8)
        assert stream.timesteps == 5
        assert stream.values is None
        assert np.array_equal(
            stream.to_dense()[:, 0], sample.as_spike_frames()
        )

    def test_dvs_batched_spike_stream_matches_split_arrays(self):
        dvs = SyntheticDVS(num_train=3, num_test=2, height=8, width=8, timesteps=4)
        stream, labels = dvs.spike_stream("test")
        events, expected_labels = dvs.split_arrays("test")
        assert np.array_equal(labels, expected_labels)
        # split_arrays is (N, T, 2, H, W); the stream is time-major.
        assert np.array_equal(
            stream.to_dense(np.uint8).transpose(1, 0, 2, 3, 4), events
        )

    def test_direct_encode_stream_round_trips(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        stream = direct_encode_stream(x, 3)
        assert np.array_equal(stream.to_dense(), direct_encode(x, 3))

    def test_rate_encode_stream_matches_rate_encode(self):
        rng = np.random.default_rng(5)
        x = np.abs(rng.normal(size=(2, 1, 4, 4))).astype(np.float32)
        stream = rate_encode_stream(x, 6, rng=np.random.default_rng(7))
        frames = rate_encode(x, 6, rng=np.random.default_rng(7))
        assert stream.values is None
        assert np.array_equal(stream.to_dense(np.uint8), frames)

    def test_encoders_validate_timesteps(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            direct_encode_stream(x, 0)
        with pytest.raises(ValueError):
            rate_encode_stream(x, 0)


class TestConvActiveWindows:
    """The coordinate window math equals the im2col scans it replaces."""

    @pytest.mark.parametrize(
        "kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (5, 2, 2), (2, 2, 0), (1, 1, 0)]
    )
    def test_matches_im2col_scan(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 10 + stride)
        for density in (0.0, 0.03, 0.4):
            x = (rng.random((2, 3, 9, 11)) < density).astype(np.float32)
            coords = np.stack(np.nonzero(x), axis=1)
            cols, _, _ = im2col(x, kernel, stride, padding)
            rows, entries = conv_active_windows(
                coords, x.shape, kernel, stride, padding
            )
            assert np.array_equal(rows, np.flatnonzero(cols.any(axis=1)))
            assert entries == int(np.count_nonzero(cols))

    def test_empty_coords(self):
        rows, entries = conv_active_windows(
            np.zeros((0, 4), np.int64), (1, 2, 4, 4), 3, 1, 1
        )
        assert rows.size == 0 and entries == 0


class TestConvEventRows:
    """Rows built by scattering events equal the dense unfold's rows."""

    @staticmethod
    def _planes(rng, shape):
        """(name, dense plane, coords, amplitude) cases over ``shape``."""
        n, c, h, w = shape
        spikes = rng.random(shape) < rng.uniform(0.02, 0.3)
        border = np.zeros(shape, dtype=bool)
        border[:, :, [0, -1], :] = True
        border[:, :, :, [0, -1]] = True
        values = rng.normal(size=shape)
        for name, mask, amplitude in (
            ("scalar", spikes, 0.7),
            ("valued", spikes, values),
            ("border", border, values),
            ("empty", np.zeros(shape, dtype=bool), 1.0),
        ):
            dense = np.where(mask, amplitude, 0).astype(np.float32)
            nonzero = np.nonzero(mask)
            coords = np.stack(nonzero, axis=1)
            if np.ndim(amplitude):
                amplitude = amplitude[nonzero]
            yield name, dense, coords, amplitude

    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_matches_dense_unfold(self, kernel):
        rng = np.random.default_rng(kernel)
        for stride in (1, 2, 3):
            for padding in (0, 1, 2):
                for _ in range(3):
                    shape = (
                        int(rng.integers(1, 4)),
                        int(rng.integers(1, 5)),
                        int(rng.integers(max(1, kernel - 2 * padding), 13)),
                        int(rng.integers(max(1, kernel - 2 * padding), 13)),
                    )
                    for name, dense, coords, amplitude in self._planes(rng, shape):
                        case = (name, shape, kernel, stride, padding)
                        cols, _, _ = im2col(dense, kernel, stride, padding)
                        rows, entries, block = conv_event_rows(
                            coords, amplitude, shape, kernel, stride, padding,
                            dense.dtype,
                        )
                        expected = conv_active_windows(
                            coords, shape, kernel, stride, padding
                        )
                        assert np.array_equal(rows, expected[0]), case
                        assert np.array_equal(
                            rows, np.flatnonzero(cols.any(axis=1))
                        ), case
                        assert entries == expected[1], case
                        assert entries == np.count_nonzero(cols), case
                        assert block.dtype == cols.dtype, case
                        assert block.tobytes() == cols[rows].tobytes(), case

    def test_row_limit_skips_the_block(self):
        rng = np.random.default_rng(11)
        dense = (rng.random((2, 3, 8, 8)) < 0.2).astype(np.float32)
        coords = np.stack(np.nonzero(dense), axis=1)
        rows, entries, block = conv_event_rows(
            coords, 1.0, dense.shape, 3, 1, 1, dense.dtype, max_rows=0
        )
        assert rows.size and entries and block is None


class TestPooledCoords:
    def test_matches_dense_maxpool_scan(self):
        rng = np.random.default_rng(9)
        x = (rng.random((2, 3, 8, 8)) < 0.15).astype(np.float32)
        step = StepSpikes(coords=np.stack(np.nonzero(x), axis=1), shape=x.shape)
        pooled = x.reshape(2, 3, 4, 2, 4, 2).max(axis=(3, 5))
        coords = pooled_coords(step, kernel=2, stride=2, out_shape=pooled.shape)
        assert np.array_equal(coords, np.stack(np.nonzero(pooled), axis=1))

    def test_odd_size_drops_uncovered_tail(self):
        x = np.zeros((1, 1, 5, 5), dtype=np.float32)
        x[0, 0, 4, 4] = 1.0  # outside every 2x2/stride-2 window
        step = StepSpikes(coords=np.stack(np.nonzero(x), axis=1), shape=x.shape)
        coords = pooled_coords(step, kernel=2, stride=2, out_shape=(1, 1, 2, 2))
        assert coords.shape == (0, 4)

    def test_refuses_overlapping_or_valued_planes(self):
        step = StepSpikes(
            coords=np.array([[0, 0, 0, 0]]), shape=(1, 1, 4, 4)
        )
        assert pooled_coords(step, kernel=3, stride=2, out_shape=(1, 1, 1, 1)) is None
        valued = StepSpikes(
            coords=np.array([[0, 0, 0, 0]]),
            shape=(1, 1, 4, 4),
            values=np.array([-2.0]),
        )
        assert pooled_coords(valued, kernel=2, stride=2, out_shape=(1, 1, 2, 2)) is None


class TestSpikeTrace:
    def test_aggregates_and_iteration(self):
        trace = SpikeTrace(
            layers=("a", "b.shortcut", "c"),
            densities=(0.5, 0.2, 0.1),
            engine="event",
            synaptic_ops=20,
            dense_synaptic_ops=100,
            spike_rate=0.12,
        )
        assert len(trace) == 3
        assert list(trace) == [0.5, 0.2, 0.1]
        assert trace.rates(skip=lambda n: "shortcut" in n) == (0.5, 0.1)
        assert trace.synaptic_op_saving == pytest.approx(0.8)
        assert trace.total_synaptic_ops == 20
        assert trace.overall_spike_rate == pytest.approx(0.12)

    def test_layer_density_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SpikeTrace(layers=("a",), densities=(0.5, 0.1))

    def test_shared_rate_resolver(self):
        """resolve_layer_rates is the single resolver behind both the
        latency (table1) and traffic consumers."""
        from repro.snn.stats import resolve_layer_rates

        trace = SpikeTrace(
            layers=("a", "b.shortcut", "c"), densities=(0.5, 0.2, 0.1)
        )
        assert resolve_layer_rates(trace, 3) == [0.5, 0.2, 0.1]
        assert resolve_layer_rates(trace, 2) == [0.5, 0.1]  # folds shortcuts
        assert resolve_layer_rates([0.3, 0.4], 2) == [0.3, 0.4]
        with pytest.raises(ValueError, match="same architecture"):
            resolve_layer_rates(trace, 5)
