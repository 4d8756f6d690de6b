"""Detector and pseudo-label tests with constructed oracles."""

import numpy as np
import pytest

from fusetrack.errors import OrderingError, RangeError, ValidationError
from fusetrack.features import magnitude_channels, make_windows
from fusetrack.ingest import Landmark, SensorStream
from fusetrack.labels import (
    STILL,
    WALKING,
    ActivitySegment,
    StepEvent,
    TrackTrajectory,
    detect_activity,
    detect_floor_changes,
    detect_landmark_turns,
    detect_steps,
    ensure_yaw,
    generate_pseudo_labels,
)

RATE = 50.0


def build_stream(acce_mag=None, yaw=None, pressure=None, gyro_z=None, n=None,
                 rate=RATE):
    """Stream with synthetic channels; acce axes derive from the magnitude."""
    for arr in (acce_mag, yaw, pressure, gyro_z):
        if arr is not None:
            n = len(arr)
            break
    channels = {}
    mag = np.full(n, 9.81) if acce_mag is None else np.asarray(acce_mag, dtype=float)
    channels["acce_x"] = np.zeros(n)
    channels["acce_y"] = np.zeros(n)
    channels["acce_z"] = mag
    for name in ("gyro_x", "gyro_y", "magn_y", "magn_z"):
        channels[name] = np.zeros(n)
    channels["gyro_z"] = np.zeros(n) if gyro_z is None else np.asarray(gyro_z)
    channels["magn_x"] = np.full(n, 30.0)
    if yaw is not None:
        channels["yaw"] = np.asarray(yaw, dtype=float)
    if pressure is not None:
        channels["pressure"] = np.asarray(pressure, dtype=float)
    return magnitude_channels(SensorStream(rate=rate, t0=0.0, channels=channels))


def times(duration, rate=RATE):
    return np.arange(int(duration * rate)) / rate


class TestDetectActivity:
    def test_constant_magnitude_is_one_still_segment(self):
        stream = build_stream(acce_mag=np.full(500, 9.81))
        segments = detect_activity(stream)
        assert len(segments) == 1
        assert segments[0].activity == STILL
        assert segments[0].t_start == 0.0
        assert segments[0].t_end == pytest.approx(10.0)

    def test_walking_sinusoid(self):
        # std of 2 sin(2 pi 2 t) over 1 s is 2/sqrt(2) ~ 1.41 > tau
        t = times(10)
        stream = build_stream(acce_mag=9.81 + 2.0 * np.sin(2 * np.pi * 2 * t))
        segments = detect_activity(stream)
        assert len(segments) == 1
        assert segments[0].activity == WALKING

    def test_still_then_walking_boundary(self):
        t = times(10)
        mag = np.where(t < 5.0, 9.81, 9.81 + 2.0 * np.sin(2 * np.pi * 2 * t))
        stream = build_stream(acce_mag=mag)
        segments = detect_activity(stream)
        assert [s.activity for s in segments] == [STILL, WALKING]
        assert segments[0].t_end == pytest.approx(5.0, abs=1.0)

    def test_segments_partition_and_alternate(self):
        rng = np.random.default_rng(0)
        t = times(30)
        mag = 9.81 + np.where((t // 7).astype(int) % 2 == 0, 0.0,
                              2.0 * np.sin(2 * np.pi * 2 * t))
        mag += rng.normal(0, 0.02, len(t))
        segments = detect_activity(build_stream(acce_mag=mag))
        for a, b in zip(segments, segments[1:]):
            assert a.t_end == b.t_start
            assert a.activity != b.activity
        assert segments[0].t_start == 0.0
        assert segments[-1].t_end == pytest.approx(30.0)


class TestDetectSteps:
    def test_flat_signal_has_no_steps(self):
        stream = build_stream(acce_mag=np.full(500, 9.81))
        assert detect_steps(stream) == []

    def test_two_hz_cadence_gives_twenty_steps(self):
        t = times(10)
        stream = build_stream(acce_mag=9.81 + 2.0 * np.sin(2 * np.pi * 2 * t))
        steps = detect_steps(stream)
        assert abs(len(steps) - 20) <= 1

    def test_refractory_keeps_one_of_two_close_peaks(self):
        # two sharp bumps 0.1 s apart on a walking-level background
        t = times(4)
        mag = 9.81 + 1.0 * np.sin(2 * np.pi * 2 * t) * 0  # flat base
        mag = 9.81 + np.zeros_like(t)
        for t0, amp in ((2.0, 3.0), (2.1, 2.5)):
            mag += amp * np.exp(-((t - t0) ** 2) / (2 * 0.02 ** 2))
        # force WALKING so the activity gate does not hide the peaks
        segs = [ActivitySegment(0.0, 4.0, WALKING)]
        steps = detect_steps(build_stream(acce_mag=mag), activity=segs)
        assert len(steps) == 1

    def test_steps_only_in_walking_segments(self):
        t = times(20)
        mag = 9.81 + 2.0 * np.sin(2 * np.pi * 2 * t)
        mag[t < 10.0] = 9.81  # first half still
        steps = detect_steps(build_stream(acce_mag=mag))
        assert steps
        assert all(s.timestamp >= 9.0 for s in steps)

    def test_strength_is_prominence(self):
        t = times(10)
        stream = build_stream(acce_mag=9.81 + 2.0 * np.sin(2 * np.pi * 2 * t))
        steps = detect_steps(stream)
        for s in steps:
            assert s.strength >= 0.8


class TestDetectTurns:
    def test_constant_yaw_no_turns(self):
        stream = build_stream(yaw=np.zeros(1000))
        assert detect_landmark_turns(stream) == []

    def test_ramp_detected_at_midpoint(self):
        t = times(12)
        yaw = np.radians(90.0) * np.clip(t - 5.0, 0.0, 1.0)
        turns = detect_landmark_turns(build_stream(yaw=yaw))
        assert len(turns) == 1
        assert turns[0] == pytest.approx(5.5, abs=0.25)

    def test_two_close_turns_merge(self):
        t = times(20)
        yaw = (np.radians(90.0) * np.clip(t - 10.0, 0.0, 0.5) / 0.5
               + np.radians(90.0) * np.clip(t - 11.0, 0.0, 0.5) / 0.5)
        turns = detect_landmark_turns(build_stream(yaw=yaw))
        assert len(turns) == 1

    def test_distant_turns_stay_separate(self):
        t = times(30)
        yaw = (np.radians(90.0) * np.clip(t - 5.0, 0.0, 1.0)
               + np.radians(90.0) * np.clip(t - 20.0, 0.0, 1.0))
        turns = detect_landmark_turns(build_stream(yaw=yaw))
        assert len(turns) == 2
        assert turns[1] - turns[0] >= 3.0

    def test_yaw_integrated_from_gyro_when_missing(self):
        t = times(12)
        gz = np.where((t >= 5.0) & (t < 6.0), np.radians(90.0), 0.0)
        stream = build_stream(gyro_z=gz)
        turns = detect_landmark_turns(stream)
        assert len(turns) == 1
        assert turns[0] == pytest.approx(5.5, abs=0.3)


class TestDetectFloorChanges:
    def test_constant_pressure_no_events(self):
        stream = build_stream(pressure=np.full(3000, 1013.25))
        assert detect_floor_changes(stream) == []

    def test_single_floor_up(self):
        t = times(120)
        p = 1013.25 - 0.42 * np.clip((t - 50.0) / 15.0, 0.0, 1.0)
        events = detect_floor_changes(build_stream(pressure=p))
        assert len(events) == 1
        ts, delta = events[0]
        assert delta == 1
        assert 45.0 <= ts <= 70.0

    def test_two_floors_down(self):
        t = times(120)
        p = 1013.25 + 0.84 * np.clip((t - 50.0) / 15.0, 0.0, 1.0)
        events = detect_floor_changes(build_stream(pressure=p))
        assert len(events) == 1
        assert events[0][1] == -2

    def test_events_spaced_twenty_seconds(self):
        t = times(200)
        p = (1013.25
             - 0.42 * np.clip((t - 40.0) / 10.0, 0.0, 1.0)
             - 0.42 * np.clip((t - 120.0) / 10.0, 0.0, 1.0))
        events = detect_floor_changes(build_stream(pressure=p))
        assert len(events) == 2
        assert events[1][0] - events[0][0] >= 20.0


def walking_segments(t_end):
    return [ActivitySegment(0.0, t_end, WALKING)]


def uniform_steps(t0, t1, n):
    """n steps strictly inside (t0, t1)."""
    dt = (t1 - t0) / n
    return [StepEvent(t0 + (i + 0.5) * dt, 1.0) for i in range(n)]


class TestTrajectory:
    def test_uniform_cadence_midpoint(self):
        lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(10.0, 10.0, 0.0, 0)]
        traj = TrackTrajectory(lms, uniform_steps(0, 10, 20), walking_segments(10.0))
        np.testing.assert_allclose(traj.position(5.0), [5.0, 0.0], atol=1e-9)

    def test_two_to_one_cadence_with_kappa_zero(self):
        lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(10.0, 10.0, 0.0, 0)]
        steps = uniform_steps(0, 5, 20) + uniform_steps(5, 10, 10)
        traj = TrackTrajectory(lms, steps, walking_segments(10.0), kappa=0.0)
        np.testing.assert_allclose(traj.position(5.0), [20 / 30 * 10, 0.0],
                                   atol=1e-3)

    def test_landmarks_hit_exactly(self):
        lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(7.0, 3.0, -4.0, 0),
               Landmark(16.0, -2.0, 5.0, 1)]
        steps = uniform_steps(0, 7, 11) + uniform_steps(7, 16, 17)
        traj = TrackTrajectory(lms, steps, walking_segments(16.0))
        for lm in lms:
            np.testing.assert_allclose(traj.position(lm.timestamp), [lm.x, lm.y],
                                       atol=1e-12)

    def test_weight_non_decreasing(self):
        rng = np.random.default_rng(1)
        lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(20.0, 8.0, 6.0, 0)]
        steps = [StepEvent(float(t), 1.0) for t in np.sort(rng.uniform(0, 20, 30))]
        activity = [ActivitySegment(0.0, 4.0, WALKING),
                    ActivitySegment(4.0, 8.0, STILL),
                    ActivitySegment(8.0, 20.0, WALKING)]
        traj = TrackTrajectory(lms, steps, activity)
        ws = [traj.weight(t)[1] for t in np.linspace(0, 20, 400)]
        assert all(b >= a - 1e-12 for a, b in zip(ws, ws[1:]))

    def test_frozen_during_still(self):
        lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(20.0, 10.0, 0.0, 0)]
        activity = [ActivitySegment(0.0, 5.0, WALKING),
                    ActivitySegment(5.0, 15.0, STILL),
                    ActivitySegment(15.0, 20.0, WALKING)]
        steps = uniform_steps(0, 5, 8) + uniform_steps(15, 20, 8)
        traj = TrackTrajectory(lms, steps, activity)
        p6 = traj.position(6.0)
        p14 = traj.position(14.0)
        np.testing.assert_allclose(p6, p14, atol=1e-12)

    def test_floor_at_nearest_landmark(self):
        lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(10.0, 10.0, 0.0, 2)]
        traj = TrackTrajectory(lms, [], walking_segments(10.0))
        assert traj.floor_at(1.0) == 0
        assert traj.floor_at(9.0) == 2

    def test_non_monotone_landmarks_rejected(self):
        lms = [Landmark(5.0, 0.0, 0.0, 0), Landmark(5.0, 1.0, 0.0, 0)]
        with pytest.raises(OrderingError):
            TrackTrajectory(lms, [], [])

    def test_fewer_than_two_landmarks_rejected(self):
        with pytest.raises(ValidationError):
            TrackTrajectory([Landmark(0.0, 0.0, 0.0, 0)], [], [])


class TestGeneratePseudoLabels:
    def make_track(self, duration=10.0, speed=1.0):
        t = times(duration)
        mag = 9.81 + 2.0 * np.sin(2 * np.pi * 2 * t)
        stream = build_stream(acce_mag=mag, yaw=np.zeros(len(t)))
        activity = detect_activity(stream)
        steps = detect_steps(stream, activity)
        lms = [Landmark(0.0, 0.0, 0.0, 0),
               Landmark(duration, speed * duration, 0.0, 0)]
        windows = make_windows(stream, width=50, stride=50)
        return stream, lms, steps, activity, windows

    def test_deltas_telescope_to_endpoint_difference(self):
        stream, lms, steps, activity, windows = self.make_track()
        samples = generate_pseudo_labels(stream, lms, steps, activity, windows)
        total = np.sum([s.delta for s in samples], axis=0)
        np.testing.assert_allclose(total, [10.0, 0.0], atol=1e-9)

    def test_still_samples_have_tiny_deltas(self):
        t = times(20)
        mag = np.where(t < 10.0, 9.81, 9.81 + 2.0 * np.sin(2 * np.pi * 2 * t))
        stream = build_stream(acce_mag=mag, yaw=np.zeros(len(t)))
        activity = detect_activity(stream)
        steps = detect_steps(stream, activity)
        lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(20.0, 10.0, 0.0, 0)]
        windows = make_windows(stream)
        samples = generate_pseudo_labels(stream, lms, steps, activity, windows)
        stills = [s for s in samples if s.activity == STILL]
        assert stills
        for s in stills:
            assert np.hypot(*s.delta) < 0.05

    def test_coincident_landmarks_give_zero_deltas(self):
        stream = build_stream(acce_mag=np.full(500, 9.81), yaw=np.zeros(500))
        activity = detect_activity(stream)
        lms = [Landmark(0.0, 3.0, 4.0, 0), Landmark(10.0, 3.0, 4.0, 0)]
        windows = make_windows(stream)
        samples = generate_pseudo_labels(stream, lms, [], activity, windows)
        assert samples
        for s in samples:
            np.testing.assert_allclose(s.delta, [0.0, 0.0], atol=1e-12)
            assert s.activity == STILL

    def test_landmarks_outside_stream_rejected(self):
        stream, lms, steps, activity, windows = self.make_track()
        bad = [Landmark(-5.0, 0.0, 0.0, 0), lms[1]]
        with pytest.raises(RangeError):
            generate_pseudo_labels(stream, bad, steps, activity, windows)

    def test_windows_outside_span_skipped(self):
        stream, lms, steps, activity, windows = self.make_track()
        short = [Landmark(2.0, 0.0, 0.0, 0), Landmark(8.0, 6.0, 0.0, 0)]
        samples = generate_pseudo_labels(stream, short, steps, activity, windows)
        assert all(2.0 <= s.window.t_center <= 8.0 for s in samples)
        assert len(samples) < len(windows)


class TestEnsureYaw:
    def test_integrates_gyro_z(self):
        n = 200
        gz = np.full(n, 0.5)
        stream = build_stream(gyro_z=gz)
        yawed = ensure_yaw(stream)
        expected = 0.5 * (np.arange(n) / RATE)
        np.testing.assert_allclose(yawed.channel("yaw"), expected, atol=1e-6)

    def test_keeps_existing_yaw(self):
        stream = build_stream(yaw=np.full(100, 1.23))
        assert ensure_yaw(stream) is stream
