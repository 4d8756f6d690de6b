"""Displacement model tests: architecture, training behavior, inference."""

import numpy as np
import pytest

from fusetrack.errors import ConfigError, ValidationError
from fusetrack.features import RAW, RP, SensorWindow, magnitude_channels
from fusetrack.ingest import SensorStream
from fusetrack.labels import WALKING, PseudoLabeledSample
from fusetrack.neuralcore import Adam, Network
from fusetrack.pdr import (
    CLASSIC_STRIDE_M,
    PdrModel,
    PdrModelConfig,
    build_model,
    classic_pdr,
    predict_displacements,
    prepare_training_arrays,
    rotate,
    train_pdr,
)

RATE = 50.0


def fast_cfg(**kw):
    defaults = dict(conv_filters=(4, 8, 8), dense_units=32, max_epochs=50,
                    patience=10, batch_size=16, rng_seed=0)
    defaults.update(kw)
    return PdrModelConfig(**defaults)


def make_sample(rng, delta=(0.0, 0.0), activity=WALKING, yaw=0.0, data=None):
    if data is None:
        data = rng.normal(0, 1, (12, 50))
    w = SensorWindow(mode=RAW, data=data, t_center=1.0, yaw_center=yaw)
    return PseudoLabeledSample(w, np.asarray(delta, dtype=float), activity)


def walking_stream(duration=20.0, speed=1.0, yaw=0.0, seed=0):
    rng = np.random.default_rng(seed)
    n = int(duration * RATE)
    t = np.arange(n) / RATE
    channels = {
        "acce_x": rng.normal(0, 0.05, n),
        "acce_y": rng.normal(0, 0.05, n),
        "acce_z": 9.81 + 2.0 * np.sin(2 * np.pi * 1.8 * t) + rng.normal(0, 0.05, n),
        "gyro_x": rng.normal(0, 0.01, n),
        "gyro_y": rng.normal(0, 0.01, n),
        "gyro_z": rng.normal(0, 0.01, n),
        "magn_x": 45 * np.cos(yaw) + rng.normal(0, 0.3, n),
        "magn_y": 45 * np.sin(-yaw) + rng.normal(0, 0.3, n),
        "magn_z": rng.normal(0, 0.3, n),
        "yaw": np.full(n, yaw),
    }
    return magnitude_channels(SensorStream(rate=RATE, t0=0.0, channels=channels))


class TestBuildModel:
    def test_raw_cnn_accepts_12x50(self):
        model = build_model(fast_cfg())
        x = np.zeros((2, 1, 12, 50))
        reg, logits, _ = model.net.forward(x)
        assert reg.shape == (2, 2)
        assert logits.shape == (2, 2)

    def test_rp_cnn_accepts_50x50(self):
        model = build_model(fast_cfg(input_mode=RP))
        reg, _, _ = model.net.forward(np.zeros((1, 1, 50, 50)))
        assert reg.shape == (1, 2)

    def test_bilstm_arch(self):
        model = build_model(fast_cfg(arch="bilstm", lstm_hidden=8))
        reg, logits, _ = model.net.forward(np.zeros((2, 1, 12, 50)))
        assert reg.shape == (2, 2)

    def test_identical_seeds_bit_identical_params(self):
        m1 = build_model(fast_cfg(rng_seed=42))
        m2 = build_model(fast_cfg(rng_seed=42))
        for p1, p2 in zip(m1.net.params(), m2.net.params()):
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_different_seeds_differ(self):
        m1 = build_model(fast_cfg(rng_seed=0))
        m2 = build_model(fast_cfg(rng_seed=1))
        assert any(not np.array_equal(p1.value, p2.value)
                   for p1, p2 in zip(m1.net.params(), m2.net.params()))

    def test_default_architecture_matches_plan(self):
        model = build_model(PdrModelConfig())
        kinds = [l.kind for l in model.net.trunk]
        assert kinds == ["conv2d", "relu", "maxpool2x2", "conv2d", "relu",
                        "dropout", "conv2d", "relu", "maxpool2x2", "dropout",
                        "flatten", "dense", "relu"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            PdrModelConfig(input_mode="bogus")
        with pytest.raises(ConfigError):
            PdrModelConfig(arch="transformer")


class TestRotate:
    def test_quarter_turn(self):
        out = rotate(np.array([[1.0, 0.0]]), np.pi / 2)
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_roundtrip(self):
        v = np.array([[0.3, -0.7]])
        out = rotate(rotate(v, 1.1), -1.1)
        np.testing.assert_allclose(out, v, atol=1e-12)


def train_on_scripted_val_losses(monkeypatch, val_losses, **cfg_kw):
    """Train for real, but let the validation pass report ``val_losses``."""
    scripted = iter(val_losses)
    real_loss = Network.loss

    def loss(self, x, targets, labels, alpha, training=False, **kw):
        if training:
            return real_loss(self, x, targets, labels, alpha, training=training, **kw)
        v = next(scripted)
        return v, v, 0.0

    monkeypatch.setattr(Network, "loss", loss)
    rng = np.random.default_rng(6)
    samples = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(4)]
    cfg = fast_cfg(batch_size=4, **cfg_kw)
    return train_pdr(build_model(cfg), samples, samples, cfg)[1]


class TestEarlyStopping:
    def test_stops_patience_epochs_after_the_last_improvement(self, monkeypatch):
        losses = [1.0, 0.9, 0.8] + [0.8] * 100  # plateau starts at epoch 2
        history = train_on_scripted_val_losses(monkeypatch, losses, patience=5,
                                               max_epochs=100)
        assert history.best_epoch == 2
        assert [r["epoch"] for r in history.rows] == list(range(2 + 5 + 1))

    def test_improvement_resets_the_count(self, monkeypatch):
        losses = [1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0]
        history = train_on_scripted_val_losses(monkeypatch, losses, patience=3,
                                               max_epochs=8)
        assert history.best_epoch == 3
        assert len(history.rows) == 3 + 3 + 1


class TestTrainPdr:
    def test_degenerate_fit_drives_regression_loss_down(self):
        from fusetrack.neuralcore import l2_displacement_loss

        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (12, 50))
        samples = [make_sample(rng, delta=(0.0, 0.0), data=data.copy())
                   for _ in range(128)]
        cfg = fast_cfg(max_epochs=50, patience=50, batch_size=8, weight_decay=0.0)
        model = build_model(cfg)
        model, history = train_pdr(model, samples, samples[:8], cfg)
        reg, _, _ = model.net.forward(np.stack([data[None]] * 4))
        assert l2_displacement_loss(reg, np.zeros((4, 2))) < 1e-3
        # the total loss bottoms out at the cross-entropy floor
        assert history.best_val == pytest.approx(
            min(r["val_loss"] for r in history.rows))

    def test_reproducible_with_fixed_seed(self):
        rng = np.random.default_rng(1)
        samples = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(12)]
        cfg = fast_cfg(max_epochs=3, rng_seed=7)
        m1, h1 = train_pdr(build_model(cfg), samples, samples, cfg)
        rng = np.random.default_rng(1)
        samples = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(12)]
        m2, h2 = train_pdr(build_model(cfg), samples, samples, cfg)
        assert h1.rows == h2.rows
        for p1, p2 in zip(m1.net.params(), m2.net.params()):
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_best_checkpoint_no_worse_than_every_epoch(self):
        rng = np.random.default_rng(2)
        train = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(16)]
        val = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(8)]
        cfg = fast_cfg(max_epochs=6)
        model, history = train_pdr(build_model(cfg), train, val, cfg)
        assert history.best_val <= min(r["val_loss"] for r in history.rows) + 1e-12

    def test_nan_in_a_training_window_is_bad_input(self):
        rng = np.random.default_rng(9)
        samples = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(8)]
        samples[3].window.data[5, 10] = np.nan
        cfg = fast_cfg(max_epochs=2)
        with pytest.raises(ValidationError, match="finite"):
            train_pdr(build_model(cfg), samples, samples[4:], cfg)

    def test_divergence_restores_the_best_epoch(self, monkeypatch):
        rng = np.random.default_rng(10)
        samples = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(12)]
        cfg = fast_cfg(batch_size=4, max_epochs=5)  # 3 steps an epoch
        after_first_epoch, _ = train_pdr(build_model(cfg), samples, samples,
                                         fast_cfg(batch_size=4, max_epochs=1))
        real_step = Adam.step

        def step(self):
            if self.step_count == 4:  # the second update of the second epoch
                self.params[0].grad[0] = np.inf
            real_step(self)

        monkeypatch.setattr(Adam, "step", step)
        model, history = train_pdr(build_model(cfg), samples, samples, cfg)
        assert history.diverged
        assert history.best_epoch == 0 and len(history.rows) == 1
        for p, q in zip(model.net.params(), after_first_epoch.net.params()):
            np.testing.assert_array_equal(p.value, q.value)

    def test_empty_sets_rejected(self):
        cfg = fast_cfg()
        with pytest.raises(ValidationError):
            train_pdr(build_model(cfg), [], [], cfg)

    def test_bilstm_training_smoke(self):
        rng = np.random.default_rng(8)
        samples = [make_sample(rng, delta=rng.normal(0, 1, 2)) for _ in range(10)]
        cfg = fast_cfg(arch="bilstm", lstm_hidden=6, max_epochs=2)
        model, history = train_pdr(build_model(cfg), samples, samples, cfg)
        assert len(history.rows) == 2
        assert np.isfinite(history.rows[-1]["val_loss"])

    def test_history_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = [make_sample(rng, delta=(1.0, 0.0)) for _ in range(8)]
        cfg = fast_cfg(max_epochs=2)
        _, history = train_pdr(build_model(cfg), samples, samples, cfg)
        path = tmp_path / "history.csv"
        history.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,regr,ce"
        assert len(lines) == 3

    def test_yaw_required_for_targets(self):
        rng = np.random.default_rng(4)
        s = make_sample(rng)
        s.window.yaw_center = None
        with pytest.raises(ValidationError):
            prepare_training_arrays([s], fast_cfg())

    def test_body_frame_rotation_applied(self):
        rng = np.random.default_rng(5)
        s = make_sample(rng, delta=(1.0, 0.0), yaw=np.pi / 2)
        _, targets, _ = prepare_training_arrays([s], fast_cfg())
        np.testing.assert_allclose(targets[0], [0.0, -1.0], atol=1e-12)


def rig_activity_head(model, walking: bool):
    """Force the classifier to a fixed decision regardless of input."""
    model.net.cls_head.w.value[...] = 0.0
    model.net.cls_head.b.value[...] = (0.0, 10.0) if walking else (10.0, 0.0)


class TestPredictDisplacements:
    def test_still_classified_windows_emit_zero(self):
        model = build_model(fast_cfg())
        rig_activity_head(model, walking=False)
        stream = walking_stream(duration=5.0)
        preds = predict_displacements(model, stream)
        assert preds
        for p in preds:
            np.testing.assert_array_equal(p.delta, [0.0, 0.0])
            assert p.activity_prob < 0.5

    def test_world_frame_equivariance_under_yaw_rotation(self):
        model = build_model(fast_cfg(rng_seed=3))
        rig_activity_head(model, walking=True)
        theta = np.radians(70.0)
        s0 = walking_stream(duration=6.0, yaw=0.0, seed=1)
        s1 = SensorStream(rate=s0.rate, t0=s0.t0, channels={
            **{k: v.copy() for k, v in s0.channels.items()},
            "yaw": s0.channel("yaw") + theta,
        })
        p0 = predict_displacements(model, s0)
        p1 = predict_displacements(model, s1)
        for a, b in zip(p0, p1):
            np.testing.assert_allclose(rotate(a.delta, theta)[0], b.delta,
                                       atol=1e-12)

    def test_stride_scales_emitted_delta(self):
        model = build_model(fast_cfg(rng_seed=4))
        rig_activity_head(model, walking=True)
        stream = walking_stream(duration=6.0, seed=2)
        full = predict_displacements(model, stream, stride=50)
        half = predict_displacements(model, stream, stride=25)
        # same window offset 0 appears in both; half stride halves the delta
        np.testing.assert_allclose(half[0].delta, full[0].delta * 0.5, atol=1e-12)

    def test_too_short_stream_empty(self):
        model = build_model(fast_cfg())
        stream = walking_stream(duration=0.5)
        assert predict_displacements(model, stream) == []

    def test_activity_prob_range(self):
        model = build_model(fast_cfg(rng_seed=5))
        preds = predict_displacements(model, walking_stream(duration=4.0))
        for p in preds:
            assert 0.0 <= p.activity_prob <= 1.0


def bump_stream(step_times, duration, yaw=0.0, rate=RATE):
    """Distinct accelerometer bumps at known times, constant heading."""
    n = int(duration * rate)
    t = np.arange(n) / rate
    mag = np.full(n, 9.81)
    for t0 in step_times:
        mag += 3.0 * np.exp(-((t - t0) ** 2) / (2 * 0.05 ** 2))
    channels = {
        "acce_x": np.zeros(n), "acce_y": np.zeros(n), "acce_z": mag,
        "gyro_x": np.zeros(n), "gyro_y": np.zeros(n), "gyro_z": np.zeros(n),
        "magn_x": np.full(n, 45.0), "magn_y": np.zeros(n), "magn_z": np.zeros(n),
        "yaw": np.full(n, yaw),
    }
    return magnitude_channels(SensorStream(rate=rate, t0=0.0, channels=channels))


class TestClassicPdr:
    def test_ten_steps_heading_zero(self):
        stream = bump_stream(np.arange(0.5, 5.1, 0.5), duration=6.0, yaw=0.0)
        preds = classic_pdr(stream)
        assert len(preds) == 10
        total = np.sum([p.delta for p in preds], axis=0)
        np.testing.assert_allclose(total, [10 * CLASSIC_STRIDE_M, 0.0], atol=1e-6)

    def test_no_steps_no_motion(self):
        rng = np.random.default_rng(0)
        n = 250
        channels = {f"{s}_{a}": rng.normal(0, 0.01, n)
                    for s in ("acce", "gyro", "magn") for a in "xyz"}
        channels["acce_z"] += 9.81
        stream = SensorStream(rate=RATE, t0=0.0, channels=channels)
        assert classic_pdr(stream) == []

    def test_heading_rotates_deltas(self):
        stream = bump_stream([1.0, 2.0], duration=3.0, yaw=np.pi / 2)
        preds = classic_pdr(stream)
        assert len(preds) == 2
        total = np.sum([p.delta for p in preds], axis=0)
        np.testing.assert_allclose(total, [0.0, 2 * CLASSIC_STRIDE_M], atol=1e-6)


class TestPdrModelCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        cfg = fast_cfg(input_mode=RAW, arch="cnn", rng_seed=11)
        model = build_model(cfg)
        path = tmp_path / "pdr.tfnn"
        model.save(path)
        loaded = PdrModel.load(path)
        assert loaded.cfg.input_mode == RAW
        assert loaded.cfg.arch == "cnn"
        x = np.random.default_rng(0).normal(0, 1, (2, 1, 12, 50))
        r1, _, _ = model.net.forward(x)
        r2, _, _ = loaded.net.forward(x)
        np.testing.assert_array_equal(r1, r2)
