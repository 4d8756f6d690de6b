"""Window framing and recurrence-plot tests."""

import numpy as np
import pytest

from fusetrack.errors import MissingChannelError, ShapeError
from fusetrack.features import (
    RAW,
    RP,
    ROW_ORDER,
    RecurrenceConfig,
    SensorWindow,
    magnitude_channels,
    make_windows,
    pairwise_column_distances,
    recurrence_matrix,
    standardize_rows,
)
from fusetrack.ingest import SensorStream


def stream_of(n, rate=50.0, rng=None, yaw=False):
    rng = rng or np.random.default_rng(0)
    channels = {}
    for sensor in ("acce", "gyro", "magn"):
        for axis in "xyz":
            channels[f"{sensor}_{axis}"] = rng.normal(0, 1, n)
    if yaw:
        channels["yaw"] = rng.normal(0, 0.1, n)
    return SensorStream(rate=rate, t0=0.0, channels=channels)


class TestMagnitudes:
    def test_pythagorean_triple(self):
        s = SensorStream(rate=1.0, t0=0.0, channels={
            "acce_x": np.array([3.0]), "acce_y": np.array([4.0]),
            "acce_z": np.array([0.0]),
            "gyro_x": np.zeros(1), "gyro_y": np.zeros(1), "gyro_z": np.zeros(1),
            "magn_x": np.ones(1), "magn_y": np.ones(1), "magn_z": np.ones(1),
        })
        out = magnitude_channels(s)
        assert out.channel("acce_mag")[0] == pytest.approx(5.0)
        assert out.channel("gyro_mag")[0] == 0.0
        assert out.channel("magn_mag")[0] == pytest.approx(np.sqrt(3), abs=1e-7)

    def test_missing_axis_raises(self):
        s = SensorStream(rate=1.0, t0=0.0, channels={"acce_x": np.zeros(2)})
        with pytest.raises(MissingChannelError, match="acce_y"):
            magnitude_channels(s)


class TestMakeWindows:
    def test_ten_seconds_at_unit_stride_gives_ten_windows(self):
        s = magnitude_channels(stream_of(500))
        windows = make_windows(s, width=50, stride=50)
        assert len(windows) == 10
        assert windows[0].t_center == pytest.approx(0.5)
        assert windows[1].t_center == pytest.approx(1.5)

    def test_too_short_stream_gives_empty(self):
        s = magnitude_channels(stream_of(49))
        assert make_windows(s, width=50) == []

    def test_offsets_with_half_stride(self):
        s = magnitude_channels(stream_of(100))
        windows = make_windows(s, width=50, stride=25)
        assert [w.offset for w in windows] == [0, 25, 50]

    def test_window_values_bit_identical_to_stream(self):
        s = magnitude_channels(stream_of(120, rng=np.random.default_rng(5)))
        windows = make_windows(s, width=50, stride=25)
        for w in windows:
            assert w.mode == RAW
            assert w.data.shape == (12, 50)
            for r, name in enumerate(ROW_ORDER):
                expected = s.channel(name)[w.offset:w.offset + 50]
                assert np.array_equal(w.data[r], expected)

    def test_yaw_center_recorded(self):
        s = magnitude_channels(stream_of(100, yaw=True))
        w = make_windows(s, width=50, stride=50)[0]
        assert w.yaw_center == s.channel("yaw")[25]

    def test_missing_magnitudes_rejected(self):
        s = stream_of(100)
        with pytest.raises(MissingChannelError, match="acce_mag"):
            make_windows(s)


def random_window(rng, width=50):
    data = rng.normal(0, 1, (12, width))
    return SensorWindow(mode=RAW, data=data, t_center=0.0)


class TestRecurrenceMatrix:
    def test_constant_window_all_ones(self):
        w = SensorWindow(mode=RAW, data=np.full((12, 50), 7.3), t_center=0.0)
        rp = recurrence_matrix(w)
        assert rp.mode == RP
        np.testing.assert_array_equal(rp.data, np.ones((50, 50)))

    def test_unit_diagonal(self):
        rp = recurrence_matrix(random_window(np.random.default_rng(1)))
        np.testing.assert_array_equal(np.diag(rp.data), np.ones(50))

    def test_ramp_formula_against_hand_computation(self):
        rng = np.random.default_rng(2)
        w = random_window(rng)
        z = standardize_rows(w.data.copy())
        d = pairwise_column_distances(z)
        eps = 2.0 * d[3, 17]  # distance exactly eps/2 for this pair
        rp = recurrence_matrix(w, RecurrenceConfig(epsilon=eps))
        assert rp.data[3, 17] == pytest.approx(0.5, abs=1e-12)
        far = d >= eps
        assert np.all(rp.data[far] == 0.0)

    def test_symmetry_range_and_monotonicity(self):
        rng = np.random.default_rng(3)
        for norm in ("euclidean", "max"):
            for _ in range(25):
                w = random_window(rng)
                r1 = recurrence_matrix(w, RecurrenceConfig(epsilon=1.5, norm=norm)).data
                r2 = recurrence_matrix(w, RecurrenceConfig(epsilon=3.0, norm=norm)).data
                assert np.array_equal(r1, r1.T)
                assert r1.min() >= 0.0 and r1.max() <= 1.0
                assert np.all(r2 >= r1)  # doubling epsilon never decreases

    def test_zero_variance_rows_standardized_to_zero(self):
        data = np.vstack([np.full((1, 50), 4.2),
                          np.random.default_rng(0).normal(0, 1, (11, 50))])
        z = standardize_rows(data)
        np.testing.assert_array_equal(z[0], np.zeros(50))
        np.testing.assert_allclose(z[1:].mean(axis=1), 0, atol=1e-12)
        np.testing.assert_allclose(z[1:].std(axis=1), 1, atol=1e-12)

    def test_rp_input_rejected(self):
        w = SensorWindow(mode=RP, data=np.ones((50, 50)), t_center=0.0)
        with pytest.raises(ShapeError):
            recurrence_matrix(w)

