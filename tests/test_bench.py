"""Simulator and metric tests: the simulator is itself checked against
analytic expectations so it can serve as the oracle for end-to-end runs."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusetrack.bench import (
    AccessPoint,
    NoiseSpec,
    SimScenario,
    Waypoint,
    evaluate_track,
    read_truth_csv,
    report_from_errors,
    simulate_track,
    write_truth_csv,
)
from fusetrack.errors import ConfigError, CoverageError
from fusetrack.features import magnitude_channels
from fusetrack.ingest import Landmark, parse_logfile, resample_stream, write_logfile
from fusetrack.labels import (
    STILL,
    detect_activity,
    detect_landmark_turns,
    detect_steps,
    ensure_yaw,
)
from fusetrack.tracking import FusedTrack


def square_scenario(seed=0, dwell=4.0, side=10.0, speed=1.0):
    # a 4 x side perimeter loop, re-entering the first side so all four
    # corners are genuine direction changes
    wps = [Waypoint(0, 0, 0, dwell), Waypoint(side, 0, 0, dwell),
           Waypoint(side, side, 0, dwell), Waypoint(0, side, 0, dwell),
           Waypoint(0, 0.01, 0, dwell), Waypoint(side, 0.01, 0, dwell)]
    aps = [AccessPoint(2, 2, 0), AccessPoint(8, 2, 0), AccessPoint(5, 8, 0)]
    return SimScenario(waypoints=wps, speed=speed, ap_layout=aps, rng_seed=seed)


class TestSimulator:
    def test_same_seed_bit_identical(self):
        r1 = simulate_track(square_scenario(seed=5))
        r2 = simulate_track(square_scenario(seed=5))
        assert r1.logfile == r2.logfile

    def test_different_seed_differs(self):
        r1 = simulate_track(square_scenario(seed=5))
        r2 = simulate_track(square_scenario(seed=6))
        assert r1.logfile != r2.logfile

    def test_truth_passes_waypoints_at_scheduled_times(self):
        scenario = square_scenario()
        truth = simulate_track(scenario).truth
        for i, wp in enumerate(scenario.waypoints):
            np.testing.assert_allclose(truth.position(truth.arrivals[i]),
                                       [wp.x, wp.y], atol=1e-12)
            np.testing.assert_allclose(truth.position(truth.departures[i]),
                                       [wp.x, wp.y], atol=1e-12)

    def test_logfile_roundtrips_through_parser(self, tmp_path):
        result = simulate_track(square_scenario())
        path = tmp_path / "track.log"
        path.write_text(result.logfile, encoding="utf-8")
        records, scans, landmarks = parse_logfile(path)
        rt = tmp_path / "rt.log"
        rt.write_text(write_logfile(records), encoding="utf-8")
        records2, scans2, landmarks2 = parse_logfile(rt)
        assert records2 == records
        assert scans2 == scans
        assert landmarks2 == landmarks

    def test_single_waypoint_is_still_throughout(self, tmp_path):
        scenario = SimScenario(waypoints=[Waypoint(3, 4, 0, 60.0)], rng_seed=1)
        result = simulate_track(scenario)
        path = tmp_path / "still.log"
        path.write_text(result.logfile, encoding="utf-8")
        records, _, _ = parse_logfile(path)
        stream = magnitude_channels(resample_stream(records))
        segments = detect_activity(stream)
        assert len(segments) == 1
        assert segments[0].activity == STILL

    def test_square_path_has_four_turns(self, tmp_path):
        result = simulate_track(square_scenario(dwell=6.0))
        path = tmp_path / "square.log"
        path.write_text(result.logfile, encoding="utf-8")
        records, _, _ = parse_logfile(path)
        stream = ensure_yaw(resample_stream(records))
        turns = detect_landmark_turns(stream)
        assert len(turns) == 4

    def test_step_count_matches_cadence(self, tmp_path):
        scenario = SimScenario(
            waypoints=[Waypoint(0, 0, 0, 0.0), Waypoint(10, 0, 0, 0.0)],
            speed=1.0, step_frequency=2.0, rng_seed=2)
        result = simulate_track(scenario)
        path = tmp_path / "walk.log"
        path.write_text(result.logfile, encoding="utf-8")
        records, _, _ = parse_logfile(path)
        stream = magnitude_channels(resample_stream(records))
        steps = detect_steps(stream)
        assert abs(len(steps) - 20) <= 1

    def test_rss_mean_matches_path_loss_at_10m(self):
        # AP 10 m away, tx -40: mean RSS is -60 dBm
        scenario = SimScenario(
            waypoints=[Waypoint(0, 0, 0, 400.0)],
            ap_layout=[AccessPoint(10.0, 0.0, 0, -40.0)], rng_seed=3)
        result = simulate_track(scenario)
        values = [float(line.split(";")[4]) for line in result.logfile.splitlines()
                  if line.startswith("WIFI")]
        assert len(values) > 80
        assert np.mean(values) == pytest.approx(-60.0, abs=1.5)

    def test_pressure_tracks_floor(self, tmp_path):
        scenario = SimScenario(
            waypoints=[Waypoint(0, 0, 0, 10.0), Waypoint(20, 0, 2, 10.0)],
            speed=1.0, rng_seed=4)
        result = simulate_track(scenario)
        path = tmp_path / "floors.log"
        path.write_text(result.logfile, encoding="utf-8")
        records, _, _ = parse_logfile(path)
        stream = resample_stream(records)
        p = stream.channel("pressure")
        drop = p[:100].mean() - p[-100:].mean()
        assert drop == pytest.approx(0.12 * 3.5 * 2, abs=0.05)

    def test_consecutive_equal_waypoints_rejected(self):
        with pytest.raises(ConfigError):
            SimScenario(waypoints=[Waypoint(0, 0, 0, 1.0), Waypoint(0, 0, 0, 1.0)])

    def test_scenario_dict_roundtrip(self):
        scenario = square_scenario(seed=9)
        again = SimScenario.from_dict(scenario.to_dict())
        assert simulate_track(again).logfile == simulate_track(scenario).logfile

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scenario_dict_roundtrip_is_an_identity(self, data):
        num = st.floats(-1e6, 1e6, allow_nan=False)
        pos = st.floats(1e-3, 1e3, allow_nan=False)
        floor = st.integers(-3, 10)
        waypoints = data.draw(st.lists(st.builds(Waypoint, num, num, floor, pos),
                                       min_size=1, max_size=6).filter(
            lambda ws: all((a.x, a.y, a.floor) != (b.x, b.y, b.floor)
                           for a, b in zip(ws, ws[1:]))))
        scenario = SimScenario(
            waypoints=waypoints,
            speed=data.draw(pos), step_frequency=data.draw(pos),
            ap_layout=data.draw(st.lists(st.builds(AccessPoint, num, num, floor, num),
                                         max_size=4)),
            noise=NoiseSpec(*(data.draw(pos) for _ in NoiseSpec.__dataclass_fields__)),
            rng_seed=data.draw(st.integers(0, 2**32)), rate=data.draw(pos),
            wifi_period=data.draw(pos),
        )
        assert SimScenario.from_dict(scenario.to_dict()) == scenario
        assert SimScenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

    @pytest.mark.parametrize("d", [
        {"waypoints": [[0, 0], [5, 0]], "tail_s": 30.0},
        {"waypoints": [[0, 0], [5, 0]], "noise": {"yaw_drift": 0.1}},
        {"waypoints": [[0, 0], [5, 0, 0, 1, 2]]},
        {"waypoints": [[0, 0], [5, 0]], "ap_layout": [[1, 1], ["a", 2]]},
        {"waypoints": [[0, 0], [5, 0]], "speed": "2"},
        {"waypoints": [[0, 0], [5, 0]], "rate": 0},
        {"waypoints": [[0, 0], [5, 0]], "wifi_period": -1.0},
        {"waypoints": [[0, 0], [5, 0]], "rng_seed": 1.5},
        {"waypoints": [[0, 0], [5, 0]], "noise": {"rss": -1.0}},
        {"waypoints": {"x": 0}},
        {"speed": 1.0},
        [[0, 0], [5, 0]],
    ])
    def test_malformed_scenario_rejected(self, d):
        with pytest.raises(ConfigError):
            SimScenario.from_dict(d)

    def test_truth_csv_roundtrip(self, tmp_path):
        result = simulate_track(square_scenario())
        path = tmp_path / "truth.csv"
        landmarks = result.truth.sample_landmarks(0.5)
        write_truth_csv(path, landmarks)
        loaded = read_truth_csv(path)
        assert len(loaded) == len(landmarks)
        assert loaded[3].x == pytest.approx(landmarks[3].x, abs=1e-6)


def track_on_grid(positions, t0=0.0, floor=None):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    return FusedTrack(
        t=t0 + 0.5 * np.arange(n),
        x=positions[:, 0], y=positions[:, 1],
        floor=np.zeros(n, dtype=int) if floor is None else np.asarray(floor),
        ptrace=np.ones(n),
    )


class TestEvaluateTrack:
    def test_exact_prediction_zero_errors(self):
        track = track_on_grid([(i * 0.5, 0.0) for i in range(21)])
        truth = [Landmark(t, t, 0.0, 0) for t in (0.0, 2.5, 7.5, 10.0)]
        report = evaluate_track(track, truth)
        assert report.mae == 0.0
        assert report.q75 == 0.0
        assert report.floor_errors == 0

    def test_quantiles_by_linear_interpolation(self):
        report = report_from_errors(np.array([1.0, 2.0, 3.0, 4.0]))
        assert report.q50 == pytest.approx(2.5)
        assert report.q75 == pytest.approx(3.25)
        assert report.mae == pytest.approx(2.5)

    def test_floor_penalty(self):
        track = track_on_grid([(0.0, 0.0)] * 5)
        truth = [Landmark(1.0, 0.0, 0.0, 1)]
        report = evaluate_track(track, truth)
        assert report.mae == pytest.approx(15.0)
        assert report.floor_errors == 1

    def test_interpolates_between_grid_points(self):
        track = track_on_grid([(0.0, 0.0), (1.0, 0.0)])
        truth = [Landmark(0.25, 0.4, 0.0, 0)]
        report = evaluate_track(track, truth)
        assert report.mae == pytest.approx(0.1)

    def test_coverage_error_lists_timestamps(self):
        track = track_on_grid([(0.0, 0.0)] * 4)
        truth = [Landmark(9.0, 0.0, 0.0, 0)]
        with pytest.raises(CoverageError) as err:
            evaluate_track(track, truth)
        assert err.value.timestamps == [9.0]

    def test_invariant_to_extra_grid_points(self):
        track = track_on_grid([(i * 0.5, 0.0) for i in range(41)])
        short = track_on_grid([(i * 0.5, 0.0) for i in range(11)])
        truth = [Landmark(t, t, 0.0, 0) for t in (1.0, 3.0, 5.0)]
        r1 = evaluate_track(track, truth)
        r2 = evaluate_track(short, truth)
        assert r1.mae == r2.mae
        assert r1.q90 == r2.q90

    def test_quantile_ordering_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            errors = rng.gamma(2.0, 1.5, size=int(rng.integers(3, 200)))
            r = report_from_errors(errors)
            assert r.q50 <= r.q75 <= r.q90
            assert errors.min() - 1e-12 <= r.mae <= errors.max() + 1e-12


#: sha256 of the seed-0 S1 inputs, as the acceptance suite's own generator
#: wrote them before it became the benchmark's (``perfbench.workloads``)
S1_SEED0_SHA256 = {
    "test0.log": "40679eab5dbac33395d891537d1ebdfe7132f0d5f809c338e5f250844831b964",
    "test0_truth.csv": "1eb9cde8dfc3650a3114d011d01cff999825706c127b6c4c0c7085acf5d442bc",
    "test1.log": "e775080b964ddbb3ddaa4c7e1d4dc6e957c05350da2785f7e9aba9a92c3d5b1e",
    "test1_truth.csv": "e0d22ec7f77f0613d1bdef846e91cca1ffe7aea130ffc9fb75f326b5b15d2dc2",
    "test2.log": "25b53836958ba01553c2b51fcd32cd04546c73103af95583004571a742cabad7",
    "test2_truth.csv": "0400df97680af50d99cdb96ca203a630e0ade050ab36ed37222d35ba6916bc8c",
    "train00.log": "23093a01bab1f96f142df24893792abeb6aa9cab3f850de752b0d38094061ec5",
    "train01.log": "fbf7e250b313197c9c0de0ef72a437d66002f93115c97be80a109db81fc21597",
    "train02.log": "b3e37e6810372240d4098dc8c9118684cd9d4f4f11ceb70cdf970dd64066c5eb",
    "train03.log": "38c616a5808b26fc2e5ee01c7da02e5a466e606b385c038babcae057634189e5",
    "train04.log": "e8c896c6213d288e084acf1e5400930391375dc86e96c945383cfd43d0885429",
    "train05.log": "db488f729cacd3ac53be2d6218e2dd9c8d7fc2c99f25bbb571fefff3d3751e10",
    "train06.log": "4fbee85eaf913decd6c7eac75e377a2d96983424e211a8851260c9cb927fb629",
    "train07.log": "ffc366bb7056e1c11d42fe104d027450612302778a34c1b5e366966f89ab1845",
    "train08.log": "e8a867ff8181395639611903100018dd588d86b6f55d239c9898f54d2327236a",
    "train09.log": "f4cdd8668ec3f99930481419ca380f36ef6e83b25603d9f6dd5b2f177f9ef9a0",
}


def test_s1_seed0_inputs_are_pinned(tmp_path):
    import s1

    s1.generate_seed_tracks(0, tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == S1_SEED0_SHA256
