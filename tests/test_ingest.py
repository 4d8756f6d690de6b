"""Ingestion tests: parsing, scan grouping, resampling, slicing, round-trips."""

from typing import NamedTuple

import numpy as np
import pytest

from fusetrack.errors import (
    AlignmentError,
    EmptyInputError,
    LogParseError,
    MissingChannelError,
    RangeError,
)
from fusetrack.ingest import (
    ACCE,
    POSI,
    SensorLog,
    SensorStream,
    group_wifi_scans,
    parse_logfile,
    resample_stream,
    slice_stream,
    write_logfile,
)


class RawRecord(NamedTuple):
    """One log record, in the tuple layout ``SensorLog.from_records`` takes."""

    kind: str
    app_timestamp: float
    sensor_timestamp: float
    payload: tuple


def resample(records, rate=50.0):
    return resample_stream(SensorLog.from_records(records), rate=rate)


def make_log(tmp_path, text, name="track.log"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseLogfile:
    def test_acce_line_maps_fields_directly(self, tmp_path):
        path = make_log(tmp_path, "ACCE;12.480;12.478;0.12;9.76;0.33\n")
        sensor_log, _, _ = parse_logfile(path)
        assert len(sensor_log) == 1
        assert list(sensor_log.kinds) == [ACCE]
        acce = sensor_log.kinds[ACCE]
        assert acce.app_ts.tolist() == [12.480]
        assert acce.sensor_ts.tolist() == [12.478]
        assert acce.values.tolist() == [[0.12, 9.76, 0.33]]

    def test_posi_line_becomes_landmark(self, tmp_path):
        path = make_log(tmp_path, "POSI;30.0;1;10.5;-3.2;2\n")
        sensor_log, _, landmarks = parse_logfile(path)
        assert list(sensor_log.kinds) == [POSI]
        assert len(landmarks) == 1
        lm = landmarks[0]
        assert (lm.timestamp, lm.x, lm.y, lm.floor) == (30.0, 10.5, -3.2, 2)

    def test_wifi_burst_grouped_into_one_scan(self, tmp_path):
        path = make_log(
            tmp_path,
            "WIFI;5.01;5.00;a1;-60\nWIFI;5.12;5.10;a2;-72\n",
        )
        _, scans, _ = parse_logfile(path)
        assert len(scans) == 1
        assert scans[0].timestamp == 5.01
        assert scans[0].readings == {"a1": -60.0, "a2": -72.0}

    def test_wifi_bursts_split_on_gap(self, tmp_path):
        path = make_log(
            tmp_path,
            "WIFI;5.01;5;a1;-60\nWIFI;5.12;5;a2;-72\nWIFI;9.0;9;a1;-61\n",
        )
        _, scans, _ = parse_logfile(path)
        assert len(scans) == 2
        assert scans[1].timestamp == 9.0

    def test_header_and_unknown_kinds_skipped(self, tmp_path, caplog):
        path = make_log(
            tmp_path,
            "% header comment\nBLUE;1.0;1.0;aa;-50\nGNSS;1;1;2;3\n"
            "ACCE;1.0;1.0;0;0;9.8\n",
        )
        with caplog.at_level("WARNING"):
            records, _, _ = parse_logfile(path)
        assert len(records) == 1
        assert "skipped 2 lines" in caplog.text

    def test_malformed_numeric_names_line(self, tmp_path):
        path = make_log(tmp_path, "ACCE;1.0;1.0;0;0;9.8\nACCE;2.0;2.0;0;zz;9.8\n")
        with pytest.raises(LogParseError, match="line 2"):
            parse_logfile(path)

    def test_wrong_arity_is_parse_error(self, tmp_path):
        path = make_log(tmp_path, "ACCE;1.0;1.0;0;0\n")
        with pytest.raises(LogParseError, match="line 1"):
            parse_logfile(path)

    def test_negative_timestamp_rejected(self, tmp_path):
        path = make_log(tmp_path, "ACCE;-1.0;1.0;0;0;9.8\n")
        with pytest.raises(LogParseError):
            parse_logfile(path)

    def test_empty_input_error(self, tmp_path):
        path = make_log(tmp_path, "% only a header\n")
        with pytest.raises(EmptyInputError):
            parse_logfile(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_logfile(tmp_path / "nope.log")

    def test_records_sorted_by_app_timestamp(self, tmp_path):
        path = make_log(tmp_path, "ACCE;2.0;2;0;0;9.8\nACCE;1.0;1;0;0;9.7\n")
        sensor_log, _, _ = parse_logfile(path)
        acce = sensor_log.kinds[ACCE]
        assert acce.app_ts.tolist() == [1.0, 2.0]
        assert acce.sensor_ts.tolist() == [1.0, 2.0]
        assert acce.values[:, 2].tolist() == [9.7, 9.8]

    def test_rss_clamped_into_range(self, tmp_path):
        path = make_log(tmp_path, "WIFI;1.0;1;a1;-130\nWIFI;1.1;1;a2;5\n")
        _, scans, _ = parse_logfile(path)
        assert scans[0].readings == {"a1": -110.0, "a2": 0.0}

    def test_roundtrip_parse_write_parse(self, tmp_path):
        text = (
            "ACCE;1.0;0.99;0.12;9.76;0.33\nGYRO;1.01;1.0;0.01;-0.02;0.3\n"
            "MAGN;1.02;1.0;30.0;-12.5;3.25\nPRES;1.03;1.0;1013.27\n"
            "AHRS;1.04;1.0;0.5;0.01;-0.02\nWIFI;2.0;1.9;aa:bb;-67\n"
            "POSI;3.0;1;4.5;-2.25;1\n"
        )
        records, scans, landmarks = parse_logfile(make_log(tmp_path, text))
        out = make_log(tmp_path, write_logfile(records), name="rt.log")
        records2, scans2, landmarks2 = parse_logfile(out)
        assert records2 == records
        assert scans2 == scans
        assert landmarks2 == landmarks


def imu_records(ts, acce=None, gyro=None, magn=None):
    """Records for every axial kind at the given timestamps."""
    out = []
    for i, t in enumerate(ts):
        a = acce[i] if acce is not None else (0.0, 0.0, 9.81)
        g = gyro[i] if gyro is not None else (0.0, 0.0, 0.0)
        m = magn[i] if magn is not None else (30.0, 0.0, 0.0)
        out.append(RawRecord("ACCE", t, t, tuple(a)))
        out.append(RawRecord("GYRO", t, t, tuple(g)))
        out.append(RawRecord("MAGN", t, t, tuple(m)))
    return out


class TestResample:
    def test_linear_interpolation_example(self):
        recs = imu_records([0.0, 1.0], acce=[(0.0, 0, 0), (1.0, 0, 0)])
        stream = resample(recs, rate=2.0)
        np.testing.assert_allclose(stream.channel("acce_x"), [0.0, 0.5, 1.0])

    def test_constant_channel_preserved(self):
        recs = imu_records(np.linspace(0, 3, 7))
        stream = resample(recs)
        np.testing.assert_array_equal(stream.channel("acce_z"),
                                      np.full(stream.length, 9.81))

    def test_grid_is_channel_overlap(self):
        recs = imu_records(np.linspace(0, 10, 21))
        # pressure only available on [1, 9]
        recs += [RawRecord("PRES", t, t, (1013.0,)) for t in np.linspace(1, 9, 9)]
        stream = resample(recs)
        assert stream.t0 == pytest.approx(1.0)
        assert stream.times()[-1] == pytest.approx(9.0)

    def test_missing_channel_named(self):
        recs = [RawRecord("ACCE", t, t, (0, 0, 9.8)) for t in (0.0, 1.0)]
        with pytest.raises(MissingChannelError, match="gyro_x"):
            resample(recs)

    def test_single_sample_channel_rejected(self):
        recs = imu_records([0.0, 1.0]) + [RawRecord("PRES", 0.5, 0.5, (1013.0,))]
        with pytest.raises(AlignmentError, match="pressure"):
            resample(recs)

    def test_no_overlap_is_alignment_error(self):
        recs = imu_records([0.0, 1.0])
        recs += [RawRecord("PRES", t, t, (1013.0,)) for t in (5.0, 6.0)]
        with pytest.raises(AlignmentError):
            resample(recs)

    def test_resampling_idempotent(self):
        rng = np.random.default_rng(7)
        ts = np.arange(0, 4, 0.02)
        recs = imu_records(ts, acce=rng.normal(0, 1, (len(ts), 3)))
        stream = resample(recs)
        recs2 = imu_records(stream.times(),
                            acce=np.column_stack([stream.channel("acce_x"),
                                                  stream.channel("acce_y"),
                                                  stream.channel("acce_z")]))
        stream2 = resample(recs2)
        assert stream2.length == stream.length
        for name in ("acce_x", "acce_y", "acce_z"):
            np.testing.assert_allclose(stream2.channel(name),
                                       stream.channel(name), atol=1e-12)

    def test_yaw_unwrapped_across_pi(self):
        recs = imu_records([0.0, 1.0])
        recs += [RawRecord("AHRS", 0.0, 0, (3.1, 0, 0)),
                 RawRecord("AHRS", 1.0, 1, (-3.1, 0, 0))]
        stream = resample(recs, rate=4.0)
        yaw = stream.channel("yaw")
        # interpolation must go the short way around, through pi
        assert yaw.max() < 3.3
        assert np.all(np.diff(yaw) > 0)


class TestSliceStream:
    @pytest.fixture
    def stream(self):
        n = 500  # [0, 10) at 50 Hz
        return SensorStream(rate=50.0, t0=0.0, channels={
            "acce_x": np.arange(n, dtype=float),
        })

    def test_two_second_slice_has_100_samples(self, stream):
        sub = slice_stream(stream, 2.0, 4.0)
        assert sub.length == 100
        assert sub.t0 == pytest.approx(2.0)
        assert sub.channel("acce_x")[0] == 100.0

    def test_full_range_slice_is_identity(self, stream):
        sub = slice_stream(stream, 0.0, 10.0)
        assert sub.length == stream.length
        np.testing.assert_array_equal(sub.channel("acce_x"),
                                      stream.channel("acce_x"))

    def test_out_of_range_bounds(self, stream):
        with pytest.raises(RangeError):
            slice_stream(stream, 9.99, 10.5)
        with pytest.raises(RangeError):
            slice_stream(stream, -0.5, 2.0)
        with pytest.raises(RangeError):
            slice_stream(stream, 4.0, 2.0)


class TestWifiScanProperties:
    def test_scan_count_never_exceeds_bursts_and_ap_ids_unique(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = 0.0
            records = []
            n_bursts = rng.integers(1, 8)
            for _ in range(n_bursts):
                for _ in range(rng.integers(1, 5)):
                    ap = f"ap{rng.integers(0, 4)}"
                    records.append(RawRecord("WIFI", t, t, (ap, -60.0)))
                    t += float(rng.uniform(0, 0.4))
                t += float(rng.uniform(0.6, 5.0))
            scans = group_wifi_scans(SensorLog.from_records(records))
            assert len(scans) <= n_bursts
            for scan in scans:
                assert len(scan.readings) == len(set(scan.readings))
                assert all(-110 <= v <= 0 for v in scan.readings.values())


class TestCsvExport:
    def test_csv_header_and_rows(self, tmp_path):
        recs = imu_records(np.linspace(0, 1, 3))
        stream = resample(recs)
        out = tmp_path / "stream.csv"
        stream.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,acce_x,acce_y,acce_z,gyro_x")
        assert len(lines) == 1 + stream.length
