"""Radiomap, k-NN positioning and semi-supervised VAE tests.

The semi-supervised checks use an inline path-loss radio simulator as an
independent oracle: fingerprints lie on a known grid, so prediction errors
are measurable exactly.
"""

import numpy as np
import pytest

from fusetrack.errors import (
    DictionaryError,
    EmptyMapError,
    InsufficientDataError,
)
from fusetrack.ingest import RSS_FLOOR_DBM, Landmark, WifiScan
from fusetrack.labels import ActivitySegment, TrackTrajectory, WALKING
from fusetrack.wifi import (
    Fingerprint,
    RadioMap,
    VaeConfig,
    build_radiomap,
    denormalize_rss,
    knn_predict,
    normalize_rss,
    train_vae,
    vae_predict,
    vectorize_scan,
)


def straight_trajectory(x1=10.0, t1=10.0):
    lms = [Landmark(0.0, 0.0, 0.0, 0), Landmark(t1, x1, 0.0, 0)]
    return TrackTrajectory(lms, [], [ActivitySegment(0.0, t1, WALKING)])


class TestBuildRadiomap:
    def test_disjoint_aps_union_dictionary(self):
        scans = {
            "a": [WifiScan(1.0, {"ap1": -50.0, "ap2": -60.0})],
            "b": [WifiScan(2.0, {"ap3": -70.0})],
        }
        rmap = build_radiomap(scans, {})
        assert rmap.ap_ids == ["ap1", "ap2", "ap3"]
        assert len(rmap.fingerprints) == 2
        assert rmap.labeled_fraction == 0.0

    def test_scan_labeled_by_trajectory_interpolation(self):
        scans = {"a": [WifiScan(5.0, {"ap1": -50.0})]}
        rmap = build_radiomap(scans, {"a": straight_trajectory()})
        fp = rmap.fingerprints[0]
        assert fp.labeled
        np.testing.assert_allclose(fp.position, [5.0, 0.0], atol=1e-9)
        assert fp.floor == 0

    def test_scan_outside_span_stays_unlabeled(self):
        scans = {"a": [WifiScan(20.0, {"ap1": -50.0})]}
        rmap = build_radiomap(scans, {"a": straight_trajectory()})
        assert not rmap.fingerprints[0].labeled

    def test_track_without_trajectory_unlabeled(self):
        scans = {"b": [WifiScan(1.0, {"ap1": -50.0})]}
        rmap = build_radiomap(scans, {})
        assert not rmap.fingerprints[0].labeled

    def test_zero_scans_error(self):
        with pytest.raises(EmptyMapError):
            build_radiomap({"a": []}, {})

    def test_sentinel_fill(self):
        scans = {"a": [WifiScan(1.0, {"ap1": -50.0}), WifiScan(6.0, {"ap2": -60.0})]}
        rmap = build_radiomap(scans, {})
        np.testing.assert_array_equal(rmap.fingerprints[0].rss, [-50.0, RSS_FLOOR_DBM])

    def test_csv_roundtrip(self, tmp_path):
        scans = {"a": [WifiScan(5.0, {"ap1": -50.0, "ap2": -61.5}),
                       WifiScan(20.0, {"ap2": -70.0})]}
        rmap = build_radiomap(scans, {"a": straight_trajectory()})
        path = tmp_path / "radiomap.csv"
        rmap.to_csv(path)
        loaded = RadioMap.from_csv(path)
        assert loaded.ap_ids == rmap.ap_ids
        assert len(loaded.fingerprints) == 2
        assert loaded.fingerprints[0].labeled
        assert not loaded.fingerprints[1].labeled
        np.testing.assert_allclose(loaded.fingerprints[0].position,
                                   rmap.fingerprints[0].position)
        np.testing.assert_allclose(loaded.matrix(), rmap.matrix())


def fp(rss_by_ap, ap_ids, x=None, y=None, floor=0, t=0.0):
    scan = WifiScan(t, rss_by_ap)
    return Fingerprint(t, vectorize_scan(scan, ap_ids), x, y,
                       floor if x is not None else None)


class TestKnnPredict:
    def test_equidistant_symmetry(self):
        ap_ids = ["a", "b"]
        rmap = RadioMap(ap_ids, [
            fp({"a": -50.0, "b": -70.0}, ap_ids, 0.0, 0.0),
            fp({"a": -70.0, "b": -50.0}, ap_ids, 10.0, 0.0),
        ])
        fix = knn_predict(rmap, WifiScan(0.0, {"a": -60.0, "b": -60.0}), k=2)
        np.testing.assert_allclose(fix.position, [5.0, 0.0], atol=1e-9)

    def test_exact_match_returns_that_position(self):
        ap_ids = ["a", "b"]
        rmap = RadioMap(ap_ids, [
            fp({"a": -50.0, "b": -70.0}, ap_ids, 3.0, 4.0),
            fp({"a": -90.0, "b": -30.0}, ap_ids, 8.0, 1.0),
        ])
        fix = knn_predict(rmap, WifiScan(0.0, {"a": -50.0, "b": -70.0}), k=2)
        # the exact neighbor's weight is capped at 100, the other is tiny
        np.testing.assert_allclose(fix.position, [3.0, 4.0], atol=0.05)

    def test_inverse_distance_weighting_by_hand(self):
        # rss distances 1, 1, 2 from the query toward known positions
        ap_ids = ["a"]
        rmap = RadioMap(ap_ids, [
            fp({"a": -51.0}, ap_ids, 0.0, 0.0),
            fp({"a": -49.0}, ap_ids, 2.0, 0.0),
            fp({"a": -52.0}, ap_ids, 10.0, 0.0),
        ])
        fix = knn_predict(rmap, WifiScan(0.0, {"a": -50.0}), k=3)
        np.testing.assert_allclose(fix.position, [2.8, 0.0], atol=1e-9)

    def test_floor_weighted_majority(self):
        ap_ids = ["a"]
        rmap = RadioMap(ap_ids, [
            fp({"a": -50.0}, ap_ids, 0.0, 0.0, floor=1),
            fp({"a": -51.0}, ap_ids, 1.0, 0.0, floor=1),
            fp({"a": -80.0}, ap_ids, 2.0, 0.0, floor=2),
        ])
        fix = knn_predict(rmap, WifiScan(0.0, {"a": -50.0}), k=3)
        assert fix.floor == 1

    def test_sigma_floor_of_one_meter(self):
        ap_ids = ["a"]
        rmap = RadioMap(ap_ids, [
            fp({"a": -50.0}, ap_ids, 5.0, 5.0),
            fp({"a": -50.5}, ap_ids, 5.0, 5.0),
        ])
        fix = knn_predict(rmap, WifiScan(0.0, {"a": -50.2}), k=2)
        assert fix.sigma == 1.0

    def test_insufficient_labeled_data(self):
        ap_ids = ["a"]
        rmap = RadioMap(ap_ids, [fp({"a": -50.0}, ap_ids, 0.0, 0.0)])
        with pytest.raises(InsufficientDataError):
            knn_predict(rmap, WifiScan(0.0, {"a": -50.0}), k=5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        ap_ids = [f"ap{i}" for i in range(6)]
        prints = [fp({a: float(rng.uniform(-90, -40)) for a in ap_ids},
                     ap_ids, float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
                  for _ in range(10)]
        scan = WifiScan(0.0, {a: float(rng.uniform(-90, -40)) for a in ap_ids})
        f1 = knn_predict(RadioMap(ap_ids, prints), scan)
        f2 = knn_predict(RadioMap(ap_ids, prints[::-1]), scan)
        np.testing.assert_allclose(f1.position, f2.position, atol=1e-9)
        assert f1.sigma == pytest.approx(f2.sigma, abs=1e-9)

    def test_output_in_neighbor_bounding_box(self):
        rng = np.random.default_rng(1)
        ap_ids = [f"ap{i}" for i in range(4)]
        for _ in range(25):
            prints = [fp({a: float(rng.uniform(-90, -40)) for a in ap_ids},
                         ap_ids, float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
                      for _ in range(8)]
            rmap = RadioMap(ap_ids, prints)
            scan = WifiScan(0.0, {a: float(rng.uniform(-90, -40)) for a in ap_ids})
            fix = knn_predict(rmap, scan, k=5)
            xs = [p.x for p in prints]
            ys = [p.y for p in prints]
            assert min(xs) - 1e-9 <= fix.position[0] <= max(xs) + 1e-9
            assert min(ys) - 1e-9 <= fix.position[1] <= max(ys) + 1e-9


class TestNormalization:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(2)
        rss = rng.uniform(-110, 0, 100)
        np.testing.assert_allclose(denormalize_rss(normalize_rss(rss)), rss,
                                   atol=1e-12)

    def test_range(self):
        assert normalize_rss(np.array([-110.0]))[0] == 0.0
        assert normalize_rss(np.array([0.0]))[0] == 1.0


def synthetic_radiomap(n=200, n_aps=12, labeled_fraction=1.0, seed=0,
                       extent=30.0):
    """Grid-walk radiomap with log-distance RSS: an independent oracle."""
    rng = np.random.default_rng(seed)
    aps = rng.uniform(0, extent, (n_aps, 2))
    prints = []
    for i in range(n):
        pos = rng.uniform(0, extent, 2)
        d = np.sqrt(((aps - pos) ** 2).sum(axis=1))
        rss = -40.0 - 20.0 * np.log10(np.maximum(d, 1.0)) + rng.normal(0, 2.0, n_aps)
        rss = np.clip(rss, -110.0, 0.0)
        labeled = rng.random() < labeled_fraction
        prints.append(Fingerprint(
            float(i), rss.copy(),
            float(pos[0]) if labeled else None,
            float(pos[1]) if labeled else None,
            0 if labeled else None,
        ))
    return RadioMap([f"ap{i}" for i in range(n_aps)], prints)


def scan_from(fp_row, ap_ids):
    return WifiScan(0.0, {a: float(v) for a, v in zip(ap_ids, fp_row)
                          if v > RSS_FLOOR_DBM})


class TestVae:
    def test_kl_zero_at_prior(self):
        # mu = 0, logvar = 0 contributes no KL
        kl = -0.5 * (1.0 + 0.0 - 0.0 - np.exp(0.0))
        assert kl == 0.0

    def test_supervised_degenerate_config_loss_decreases(self):
        rmap = synthetic_radiomap(n=100, seed=3)
        cfg = VaeConfig(beta_recon=0.0, beta_kl=0.0, epochs=10, rng_seed=0)
        model_cls = train_vae  # alias for clarity
        from fusetrack.wifi import WifiVae, normalize_rss as norm

        model = WifiVae(len(rmap.ap_ids), cfg)
        x = norm(rmap.matrix())
        mask = np.asarray([f.labeled for f in rmap.fingerprints])
        targets = np.stack([f.position if f.labeled else np.zeros(2)
                            for f in rmap.fingerprints])
        from fusetrack.neuralcore import Adam

        adam = Adam(model.params())
        losses = []
        for epoch in range(10):
            noise = np.random.default_rng((0, epoch)).standard_normal(
                (x.shape[0], cfg.latent_dim))
            total, _, cache = model.losses(x, noise, mask, targets)
            losses.append(total)
            model.zero_grad()
            model.backward(cache)
            adam.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_gradients_pass_finite_difference_check(self):
        rmap = synthetic_radiomap(n=12, n_aps=5, labeled_fraction=0.6, seed=4)
        from fusetrack.wifi import WifiVae, normalize_rss as norm

        model = WifiVae(len(rmap.ap_ids), VaeConfig(latent_dim=3,
                                                    encoder_width=8,
                                                    decoder_width=8))
        x = norm(rmap.matrix())
        mask = np.asarray([f.labeled for f in rmap.fingerprints])
        targets = np.stack([f.position if f.labeled else np.zeros(2)
                            for f in rmap.fingerprints])
        noise = np.random.default_rng(5).standard_normal((len(x), 3))
        report = model.gradient_check(x, mask, targets, noise)
        assert report.passed, str(report)

    def test_identical_scans_identical_predictions(self):
        rmap = synthetic_radiomap(n=60, seed=6)
        model = train_vae(rmap, VaeConfig(epochs=40, rng_seed=1))
        scan = scan_from(rmap.fingerprints[0].rss, rmap.ap_ids)
        f1 = vae_predict(model, scan, rmap.ap_ids)
        f2 = vae_predict(model, scan, rmap.ap_ids)
        np.testing.assert_array_equal(f1.position, f2.position)
        assert f1.sigma == f2.sigma

    def test_empty_scan_flagged_low_confidence(self):
        rmap = synthetic_radiomap(n=60, seed=7)
        model = train_vae(rmap, VaeConfig(epochs=20, rng_seed=1))
        base = vae_predict(model, scan_from(rmap.fingerprints[0].rss, rmap.ap_ids),
                           rmap.ap_ids)
        empty = vae_predict(model, WifiScan(0.0, {}), rmap.ap_ids)
        assert empty.sigma == pytest.approx(3.0 * base.sigma)

    def test_dictionary_mismatch(self):
        rmap = synthetic_radiomap(n=60, seed=8)
        model = train_vae(rmap, VaeConfig(epochs=5, rng_seed=1))
        with pytest.raises(DictionaryError):
            vae_predict(model, WifiScan(0.0, {}), rmap.ap_ids + ["extra"])

    def test_zero_labeled_cannot_train(self):
        rmap = synthetic_radiomap(n=30, labeled_fraction=0.0, seed=9)
        with pytest.raises(InsufficientDataError):
            train_vae(rmap)

    def test_semi_supervised_mae_within_2x_of_full_knn(self):
        # 500 scans, 15% labeled for the VAE; k-NN sees every label
        full = synthetic_radiomap(n=500, n_aps=16, labeled_fraction=1.0, seed=10)
        semi = RadioMap(full.ap_ids, [
            Fingerprint(f.timestamp, f.rss.copy(),
                        f.x if i % 7 == 0 else None,
                        f.y if i % 7 == 0 else None,
                        f.floor if i % 7 == 0 else None)
            for i, f in enumerate(full.fingerprints)
        ])
        assert 0.10 <= semi.labeled_fraction <= 0.20
        test = synthetic_radiomap(n=60, n_aps=16, labeled_fraction=1.0, seed=11)
        # identical AP layout comes from the shared seed-10 geometry; rebuild
        # the test set against the same APs instead
        rng = np.random.default_rng(12)
        aps = np.random.default_rng(10).uniform(0, 30.0, (16, 2))
        test_points = rng.uniform(0, 30.0, (60, 2))
        model = train_vae(semi, VaeConfig(epochs=400, rng_seed=2))
        vae_err, knn_err = [], []
        for pos in test_points:
            d = np.sqrt(((aps - pos) ** 2).sum(axis=1))
            rss = -40.0 - 20.0 * np.log10(np.maximum(d, 1.0)) + rng.normal(0, 2.0, 16)
            scan = WifiScan(0.0, {f"ap{i}": float(v)
                                  for i, v in enumerate(np.clip(rss, -110, 0))})
            v = vae_predict(model, scan, semi.ap_ids)
            k = knn_predict(full, scan, k=5)
            vae_err.append(np.hypot(*(v.position - pos)))
            knn_err.append(np.hypot(*(k.position - pos)))
        assert np.mean(vae_err) <= 2.0 * np.mean(knn_err), (
            f"vae MAE {np.mean(vae_err):.2f} vs knn MAE {np.mean(knn_err):.2f}")

    def test_coverage_within_2_sigma_at_labeled_points(self):
        rmap = synthetic_radiomap(n=300, n_aps=16, labeled_fraction=1.0, seed=13)
        model = train_vae(rmap, VaeConfig(epochs=400, rng_seed=3))
        hits = 0
        labeled = rmap.labeled()
        for f in labeled[:100]:
            fix = vae_predict(model, scan_from(f.rss, rmap.ap_ids), rmap.ap_ids)
            if np.hypot(*(fix.position - f.position)) <= 2.0 * fix.sigma:
                hits += 1
        assert hits >= 90
