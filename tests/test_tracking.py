"""Kalman filter, fusion and projection tests with hand-computed oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusetrack.errors import CannotInitializeError, IndexEmptyError
from fusetrack.ingest import Landmark
from fusetrack.pdr import DisplacementPrediction
from fusetrack.tracking import (
    FusedTrack,
    FusionConfig,
    KalmanState,
    ProjectionIndex,
    WifiFix,
    _project_with_neighbors,
    build_projection_index,
    fuse_track,
    kf_predict,
    kf_update,
    project_prediction,
    project_track,
)

I2 = np.eye(2)
ORIGIN = Landmark(0.0, 0.0, 0.0, 0)


def state(mean=(0.0, 0.0), cov=None, floor=0, t=0.0):
    return KalmanState(np.asarray(mean, float),
                       I2.copy() if cov is None else np.asarray(cov, float),
                       floor, t)


class TestKalmanSteps:
    def test_predict_additive_update(self):
        s = kf_predict(state(), (1.0, 0.0), 0.01 * I2)
        np.testing.assert_allclose(s.mean, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(s.cov, 1.01 * I2, atol=1e-12)

    def test_predict_identity_case(self):
        s0 = state()
        s = kf_predict(s0, (0.0, 0.0), np.zeros((2, 2)))
        np.testing.assert_array_equal(s.mean, s0.mean)
        np.testing.assert_array_equal(s.cov, s0.cov)

    def test_two_predicts_compose(self):
        q = 0.01 * I2
        s = kf_predict(kf_predict(state(), (1.0, 0.0), q), (0.0, 1.0), q)
        np.testing.assert_allclose(s.mean, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(s.cov, I2 + 2 * q, atol=1e-12)

    def test_hand_computed_update(self):
        # predict to ((1,0), 1.01 I) then update with z=(2,0), R=1.01 I
        s = kf_predict(state(), (1.0, 0.0), 0.01 * I2)
        s = kf_update(s, (2.0, 0.0), 1.01 * I2)
        np.testing.assert_allclose(s.mean, [1.5, 0.0], atol=1e-9)
        np.testing.assert_allclose(s.cov, 0.505 * I2, atol=1e-9)

    def test_uninformative_measurement_leaves_mean(self):
        s = kf_update(state((1.0, 2.0)), (100.0, -50.0), 1e12 * I2)
        np.testing.assert_allclose(s.mean, [1.0, 2.0], atol=1e-6)

    def test_perfect_prior_ignores_measurement(self):
        s = KalmanState(np.array([1.0, 2.0]), 1e-15 * I2, 0, 0.0)
        s = kf_update(s, (5.0, 5.0), I2)
        np.testing.assert_allclose(s.mean, [1.0, 2.0], atol=1e-9)

    def test_update_never_increases_trace(self):
        rng = np.random.default_rng(0)
        s = state(cov=4.0 * I2)
        for _ in range(200):
            r = float(rng.uniform(0.1, 10.0)) * I2
            before = s.trace
            s = kf_update(s, rng.normal(0, 3, 2), r)
            assert s.trace <= before + 1e-12

    def test_covariance_stays_symmetric_pd_over_long_runs(self):
        rng = np.random.default_rng(1)
        s = state(cov=25.0 * I2)
        for i in range(10_000):
            if rng.random() < 0.7:
                q = float(rng.uniform(0.0, 0.1)) * I2
                s = kf_predict(s, rng.normal(0, 1, 2), q)
            else:
                r = float(rng.uniform(0.05, 20.0)) * I2
                s = kf_update(s, rng.normal(0, 3, 2), r)
            assert np.allclose(s.cov, s.cov.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(s.cov) > 0)


def pdr_seq(deltas, t0=0.5, dt=0.5):
    return [DisplacementPrediction(t0 + i * dt, np.asarray(d, float), 1.0)
            for i, d in enumerate(deltas)]


class TestFuseTrack:
    def test_predict_only_equals_integrated_pdr(self):
        deltas = [(0.5, 0.0)] * 20
        cfg = FusionConfig(start=ORIGIN)
        track = fuse_track(pdr_seq(deltas), [], [], cfg)
        # at t = 10 the filter has integrated all 20 deltas
        np.testing.assert_allclose(track.position_at(10.0)[0], [10.0, 0.0],
                                   atol=1e-9)

    def test_grid_rule_21_rows(self):
        deltas = [(0.1, 0.0)] * 21  # events at 0.0, 0.51, ..., 10.2
        preds = [DisplacementPrediction(i * 0.51, np.array([0.1, 0.0]), 1.0)
                 for i in range(21)]
        cfg = FusionConfig(start=ORIGIN)
        track = fuse_track(preds, [], [], cfg)
        assert len(track) == 21
        np.testing.assert_allclose(track.t, np.arange(21) * 0.5, atol=1e-12)

    def test_initializes_at_first_wifi_fix(self):
        fixes = [WifiFix(1.0, np.array([5.0, 5.0]), 2.0)]
        track = fuse_track(pdr_seq([(0.1, 0.0)] * 10, t0=1.5), fixes, [])
        np.testing.assert_allclose(track.position_at(1.0)[0], [5.0, 5.0],
                                   atol=1e-9)

    def test_backfill_before_first_fix_flagged(self):
        preds = pdr_seq([(0.5, 0.0)] * 10, t0=0.25)  # 0.25 .. 4.75
        fixes = [WifiFix(2.0, np.array([10.0, 0.0]), 1.0)]
        track = fuse_track(preds, fixes, [])
        assert track.t[0] == pytest.approx(0.5)
        # reverse integration from the fix: 8.0 m at 0.25 s and 8.5 m at
        # 0.75 s, so the first grid point lies halfway
        np.testing.assert_allclose(track.position_at(0.5)[0], [8.25, 0.0], atol=1e-9)
        early = track.position_at(0.75)[0]
        assert early[0] < 10.0

    def test_floor_events_advance_floor(self):
        preds = pdr_seq([(0.0, 0.0)] * 40)
        cfg = FusionConfig(start=ORIGIN)
        track = fuse_track(preds, [], [(5.0, 1), (15.0, -2)], cfg)
        assert track.floor_at(2.0)[0] == 0
        assert track.floor_at(7.0)[0] == 1
        assert track.floor_at(19.0)[0] == -1

    def test_wifi_floor_votes_without_barometer(self):
        preds = pdr_seq([(0.0, 0.0)] * 10)
        fixes = [WifiFix(0.5, np.zeros(2), 2.0, floor=3)]
        track = fuse_track(preds, fixes, [])
        assert track.floor_at(4.0)[0] == 3

    def test_no_initialization_raises(self):
        with pytest.raises(CannotInitializeError):
            fuse_track(pdr_seq([(0.1, 0.0)] * 4), [], [])

    def test_deterministic_under_input_order(self):
        rng = np.random.default_rng(2)
        preds = pdr_seq(rng.normal(0, 0.2, (30, 2)))
        fixes = [WifiFix(2.0 + 4.0 * i, rng.normal(0, 1, 2) + [3.0, 3.0], 2.0)
                 for i in range(4)]
        t1 = fuse_track(preds, fixes, [])
        t2 = fuse_track(list(reversed(preds)), list(reversed(fixes)), [])
        np.testing.assert_array_equal(t1.positions(), t2.positions())

    def test_convergence_with_enough_fixes(self):
        # honest convergence check: with near-zero process noise (the user
        # really is stationary) 60 sigma-3 fixes average the error away;
        # the steady-state error scale is sqrt(sqrt(q R)) per axis
        hits = 0
        cfg = FusionConfig(sigma_pdr=0.01)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            preds = pdr_seq([(0.0, 0.0)] * 480, t0=0.25)
            fixes = [WifiFix(0.5 + 4.0 * i,
                             np.array([10.0, 10.0]) + rng.normal(0, 3.0, 2), 3.0)
                     for i in range(60)]
            track = fuse_track(preds, fixes, [], cfg)
            if np.hypot(*(track.positions()[-1] - [10.0, 10.0])) <= 1.0:
                hits += 1
        assert hits >= 95

    def test_csv_roundtrip(self, tmp_path):
        preds = pdr_seq([(0.5, 0.2)] * 8)
        cfg = FusionConfig(start=ORIGIN)
        track = fuse_track(preds, [], [], cfg)
        path = tmp_path / "fused.csv"
        track.to_csv(path)
        loaded = FusedTrack.from_csv(path)
        np.testing.assert_allclose(loaded.t, track.t, atol=1e-9)
        np.testing.assert_allclose(loaded.x, track.x, atol=1e-6)
        np.testing.assert_array_equal(loaded.floor, track.floor)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csv_roundtrip_is_bitwise(tmp_path_factory, data):
    n = data.draw(st.integers(1, 6))
    column = st.lists(st.floats(allow_nan=False), min_size=n, max_size=n).map(np.array)
    track = FusedTrack(t=data.draw(column), x=data.draw(column), y=data.draw(column),
                       floor=np.array(data.draw(st.lists(st.integers(-5, 50),
                                                         min_size=n, max_size=n))),
                       ptrace=data.draw(column))
    path = tmp_path_factory.mktemp("csv") / "fused.csv"
    track.to_csv(path)
    loaded = FusedTrack.from_csv(path)
    for name in ("t", "x", "y", "ptrace"):
        assert getattr(loaded, name).tobytes() == getattr(track, name).tobytes()
    np.testing.assert_array_equal(loaded.floor, track.floor)


def index_of(points, n_neighbors=5):
    return ProjectionIndex(np.asarray(points, dtype=float), n_neighbors=n_neighbors)


class TestProjection:
    def test_symmetric_neighbors_fixed_point(self):
        idx = index_of([(1.0, 0.0, 0), (-1.0, 0.0, 0)], n_neighbors=2)
        out = project_prediction(idx, (0.0, 0.0, 0))
        np.testing.assert_allclose(out[:2], [0.0, 0.0], atol=1e-9)

    def test_two_neighbor_weighted_sum_by_hand(self):
        # neighbors at distances 2 and 1: weights 0.5 and 1
        idx = index_of([(2.0, 0.0, 0), (0.0, 1.0, 0)], n_neighbors=2)
        out = project_prediction(idx, (0.0, 0.0, 0))
        np.testing.assert_allclose(out[:2], [2.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    def test_snap_to_coincident_reference_point(self):
        idx = index_of([(3.0, 4.0, 2), (10.0, 10.0, 2)], n_neighbors=2)
        out = project_prediction(idx, (3.0, 4.0, 2))
        assert out == (3.0, 4.0, 2)

    def test_floor_majority(self):
        idx = index_of([(0.0, 0.0, 1), (1.0, 0.0, 1), (0.5, 1.0, 1),
                        (0.4, 0.4, 2), (0.6, 0.6, 2)], n_neighbors=5)
        out = project_prediction(idx, (0.5, 0.5, 1))
        assert out[2] == 1

    def test_same_floor_preferred_when_populated(self):
        pts = [(0.0, 0.0, 0), (1.0, 0.0, 0), (0.0, 1.0, 0), (1.0, 1.0, 0),
               (0.5, 0.5, 0), (50.0, 50.0, 1), (51.0, 50.0, 1), (50.0, 51.0, 1),
               (51.0, 51.0, 1), (50.5, 50.5, 1)]
        idx = index_of(pts, n_neighbors=5)
        out = project_prediction(idx, (0.4, 0.6, 1))
        # floor 1 has 5 points, so the faraway floor-1 cluster wins
        assert out[0] > 40.0

    def test_fallback_to_all_floors_when_sparse(self):
        pts = [(0.0, 0.0, 0), (1.0, 0.0, 0), (0.0, 1.0, 0), (1.0, 1.0, 0),
               (0.5, 0.5, 3)]
        idx = index_of(pts, n_neighbors=5)
        out = project_prediction(idx, (0.5, 0.5, 3))
        assert np.hypot(out[0] - 0.5, out[1] - 0.5) < 1.0

    def test_empty_index_error(self):
        with pytest.raises(IndexEmptyError):
            ProjectionIndex(np.zeros((0, 3)))

    def test_output_in_bbox_and_idempotent(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            m = int(rng.integers(6, 40))
            pts = np.column_stack([rng.uniform(0, 50, m), rng.uniform(0, 50, m),
                                   np.zeros(m)])
            idx = index_of(pts, n_neighbors=5)
            q = (float(rng.uniform(-10, 60)), float(rng.uniform(-10, 60)), 0)
            out, neighbors = _project_with_neighbors(idx, q)
            lo = neighbors[:, :2].min(axis=0) - 1e-9
            hi = neighbors[:, :2].max(axis=0) + 1e-9
            assert lo[0] <= out[0] <= hi[0] and lo[1] <= out[1] <= hi[1]
            out2 = project_prediction(idx, out)
            assert np.hypot(out2[0] - out[0], out2[1] - out[1]) <= idx.snap_delta

    def test_build_index_from_landmarks_and_radiomap(self):
        from fusetrack.wifi import Fingerprint, RadioMap

        lms = [[Landmark(0.0, 1.0, 2.0, 0), Landmark(1.0, 3.0, 4.0, 0)]]
        rmap = RadioMap(["a"], [
            Fingerprint(0.0, np.array([-50.0]), 5.0, 6.0, 1),
            Fingerprint(1.0, np.array([-60.0])),  # unlabeled: excluded
        ])
        idx = build_projection_index(lms, rmap)
        assert idx.points.shape == (3, 3)

    def test_project_track_keeps_floor_and_grid(self):
        idx = index_of([(0.0, 0.0, 0), (1.0, 0.0, 0), (2.0, 0.0, 0),
                        (3.0, 0.0, 0), (4.0, 0.0, 0)], n_neighbors=3)
        preds = pdr_seq([(0.5, 0.1)] * 8)
        cfg = FusionConfig(start=ORIGIN)
        track = fuse_track(preds, [], [], cfg)
        projected = project_track(idx, track)
        np.testing.assert_array_equal(projected.t, track.t)
        np.testing.assert_array_equal(projected.floor, track.floor)
        assert np.all(np.abs(projected.y) < np.maximum(np.abs(track.y), 1e-9) + 1e-9)
