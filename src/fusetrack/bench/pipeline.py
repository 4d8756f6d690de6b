"""End-to-end pipeline: ingest, label, train, fuse, project, evaluate.

Configured by a flat key-value JSON document. Every stage can be toggled for
ablation: WiFi off (pure integrated dead reckoning from a known start),
projection off (raw filter output), RAW vs RP input, CNN vs BiLSTM trunk.
Intermediate artifacts are written as CSV next to the final report and are
retained even when a later stage fails.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigError, InsufficientDataError, LogParseError, PipelineError
from ..features import RAW, magnitude_channels, make_windows
from ..ingest import parse_logfile, resample_stream
from ..labels import (
    PseudoLabeledSample,
    TrackTrajectory,
    detect_activity,
    detect_floor_changes,
    detect_steps,
    ensure_yaw,
    generate_pseudo_labels,
)
from ..pdr import (
    INFER_STRIDE,
    TRAIN_STRIDE,
    PdrModel,
    PdrModelConfig,
    build_model,
    predict_displacements,
    train_pdr,
)
from ..tracking import (
    FusedTrack,
    FusionConfig,
    WifiFix,
    build_projection_index,
    fuse_track,
    project_track,
)
from ..wifi import RadioMap, build_radiomap, knn_predict, train_vae, vae_predict
from .evaluate import FLOOR_PENALTY_M, ErrorReport, evaluate_track, report_from_errors
from .simulate import read_truth_csv

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    """Flat pipeline settings; unknown keys are rejected."""

    train_logs: list[str] = field(default_factory=list)
    test_logs: list[str] = field(default_factory=list)
    truth_files: list[str] = field(default_factory=list)
    out_dir: str = "out"
    seed: int = 0
    input_mode: str = RAW
    arch: str = "cnn"
    wifi_predictor: str = "knn"  # knn | vae
    use_wifi: bool = True
    use_projection: bool = True
    knn_k: int = 5
    projection_neighbors: int = 5
    val_track_count: int = 0  # 0: auto (about a fifth of the training tracks)
    max_epochs: int = 500
    patience: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-5
    alpha: float = 1.0
    train_stride: int = TRAIN_STRIDE
    infer_stride: int = INFER_STRIDE
    floor_penalty: float = FLOOR_PENALTY_M
    sigma_pdr: float = 0.1  # process noise per displacement step, meters
    fixed_r_sigma: float = 0.0  # ablation: 0 keeps the adaptive measurement noise
    model_checkpoint: str = ""  # load instead of training when set
    vae_epochs: int = 300

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown pipeline config keys: {sorted(unknown)}")
        cfg = cls(**d)
        if not cfg.test_logs:
            raise ConfigError("pipeline config needs at least one test log")
        if not cfg.train_logs and not cfg.model_checkpoint:
            raise ConfigError("pipeline needs train_logs or a model_checkpoint")
        if cfg.wifi_predictor not in ("knn", "vae"):
            raise ConfigError(f"unknown wifi_predictor '{cfg.wifi_predictor}'")
        return cfg

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid pipeline config JSON: {exc}") from exc
        return cls.from_dict(d)


@dataclass
class TrackData:
    """Everything the pipeline derived from one logfile."""

    name: str
    stream: object
    scans: list
    landmarks: list
    activity: list = None
    steps: list = None
    trajectory: TrackTrajectory | None = None


@dataclass
class PipelineResult:
    report: ErrorReport
    per_track: dict[str, ErrorReport]
    model: PdrModel | None
    radiomap: RadioMap | None
    tracks: dict[str, FusedTrack]
    out_dir: Path


def load_track(path) -> TrackData:
    """Parse and resample one logfile, with yaw and magnitude channels added.

    A malformed line is reported with the file it is in.
    """
    try:
        sensor_log, scans, landmarks = parse_logfile(path)
    except LogParseError as exc:
        if str(path) in str(exc):
            raise
        named = LogParseError(f"{exc} (in {path})")
        named.line_no = exc.line_no
        raise named from exc
    stream = resample_stream(sensor_log)
    stream = magnitude_channels(ensure_yaw(stream))
    return TrackData(Path(path).stem, stream, scans, landmarks)


def label_track(track: TrackData) -> None:
    """Detect activity and steps; interpolate a trajectory if there are landmarks."""
    track.activity = detect_activity(track.stream)
    track.steps = detect_steps(track.stream, track.activity)
    if len(track.landmarks) >= 2:
        track.trajectory = TrackTrajectory(track.landmarks, track.steps, track.activity)


def pseudo_label(track: TrackData, stride: int) -> list[PseudoLabeledSample]:
    """Window a labelled track at ``stride`` and give each window its target."""
    windows = make_windows(track.stream, stride=stride, source_track=track.name)
    return generate_pseudo_labels(
        track.stream, track.landmarks, track.steps, track.activity, windows)


def training_split(tracks: list[TrackData], stride: int, n_val: int = 0
                   ) -> tuple[list[PseudoLabeledSample], list[PseudoLabeledSample]]:
    """Pseudo-label the tracks that have a trajectory; split them for training.

    Tracks whose windows all fall outside the landmark span drop out. The
    last ``n_val`` labelled tracks (0: a fifth, at least one) are held out
    for validation; a single labelled track is both the fit and validation
    set. Returns the (fit, validation) samples.
    """
    labelled = []
    for track in tracks:
        if track.trajectory is not None:
            samples = pseudo_label(track, stride)
            if samples:
                labelled.append(samples)
    if not labelled:
        raise InsufficientDataError("no training track has landmarks")
    if len(labelled) == 1:
        return labelled[0], labelled[0]
    n_val = min(n_val or max(1, len(labelled) // 5), len(labelled) - 1)
    fit = [s for samples in labelled[:-n_val] for s in samples]
    val = [s for samples in labelled[-n_val:] for s in samples]
    return fit, val


def run_pipeline(config) -> PipelineResult:
    """Execute the full chain described by ``config`` (path, dict or object).

    Returns the pooled error report over all test tracks plus per-track
    reports and artifacts. Raises :class:`PipelineError` naming the failing
    stage; artifacts written before the failure stay on disk.
    """
    if isinstance(config, (str, Path)):
        config = PipelineConfig.from_json(config)
    elif isinstance(config, dict):
        config = PipelineConfig.from_dict(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    stage = "ingest"
    try:
        train_tracks = [load_track(p) for p in config.train_logs]
        test_tracks = [load_track(p) for p in config.test_logs]

        stage = "labels"
        for track in train_tracks:
            label_track(track)
        if not config.model_checkpoint:
            fit_samples, val_samples = training_split(
                train_tracks, config.train_stride, config.val_track_count)

        stage = "train_pdr"
        pdr_cfg = PdrModelConfig(
            input_mode=config.input_mode, arch=config.arch, alpha=config.alpha,
            lr=config.lr, weight_decay=config.weight_decay,
            batch_size=config.batch_size, patience=config.patience,
            max_epochs=config.max_epochs, rng_seed=config.seed,
        )
        if config.model_checkpoint:
            model = PdrModel.load(config.model_checkpoint)
        else:
            model = build_model(pdr_cfg)
            model, history = train_pdr(model, fit_samples, val_samples, pdr_cfg)
            history.save_csv(out_dir / "history.csv")
            model.save(out_dir / "pdr_model.tfnn")

        stage = "radiomap"
        radiomap = None
        vae_model = None
        if train_tracks:
            scans_by_track = {t.name: t.scans for t in train_tracks}
            trajectories = {t.name: t.trajectory for t in train_tracks
                            if t.trajectory is not None}
            if any(scans_by_track.values()):
                radiomap = build_radiomap(scans_by_track, trajectories)
                radiomap.to_csv(out_dir / "radiomap.csv")
                if config.wifi_predictor == "vae" and config.use_wifi:
                    from ..wifi import VaeConfig
                    vae_model = train_vae(radiomap, VaeConfig(
                        epochs=config.vae_epochs, rng_seed=config.seed))

        stage = "projection_index"
        index = None
        if config.use_projection:
            landmark_lists = [t.landmarks for t in train_tracks if t.landmarks]
            index = build_projection_index(
                landmark_lists, radiomap, n_neighbors=config.projection_neighbors)

        stage = "fuse"
        fused: dict[str, FusedTrack] = {}
        for track in test_tracks:
            preds = predict_displacements(model, track.stream,
                                          stride=config.infer_stride,
                                          source_track=track.name)
            fixes: list[WifiFix] = []
            if config.use_wifi and radiomap is not None:
                for scan in track.scans:
                    try:
                        if vae_model is not None:
                            fix = vae_predict(vae_model, scan, radiomap.ap_ids)
                        else:
                            fix = knn_predict(radiomap, scan, k=config.knn_k)
                    except InsufficientDataError:
                        continue
                    fixes.append(WifiFix(scan.timestamp, fix.position, fix.sigma,
                                         fix.floor))
            floor_events = (detect_floor_changes(track.stream)
                            if track.stream.has_channel("pressure") else [])
            fixed_r = config.fixed_r_sigma if config.fixed_r_sigma > 0 else None
            fusion_cfg = FusionConfig(sigma_pdr=config.sigma_pdr,
                                      fixed_r_sigma=fixed_r)
            if not config.use_wifi or not fixes:
                start, floor0, t0 = _start_from_truth(track, config)
                fusion_cfg = FusionConfig(sigma_pdr=config.sigma_pdr,
                                          start_position=start, start_time=t0,
                                          start_floor=floor0)
                fixes = []
            fused_track = fuse_track(preds, fixes, floor_events, fusion_cfg)
            if index is not None:
                fused_track = project_track(index, fused_track)
            fused_track.to_csv(out_dir / f"{track.name}_fused.csv")
            fused[track.name] = fused_track

        stage = "evaluate"
        per_track: dict[str, ErrorReport] = {}
        all_errors = []
        floor_errors = 0
        for i, track in enumerate(test_tracks):
            truth = _truth_for(track, config, i)
            if not truth:
                log.warning("no ground truth for test track %s; skipping", track.name)
                continue
            span = (fused[track.name].t[0], fused[track.name].t[-1])
            truth = [lm for lm in truth if span[0] <= lm.timestamp <= span[1]]
            report = evaluate_track(fused[track.name], truth,
                                    floor_penalty=config.floor_penalty)
            per_track[track.name] = report
            all_errors.append(report.errors)
            floor_errors += report.floor_errors
        if not all_errors:
            raise InsufficientDataError("no test track could be evaluated")
        pooled = report_from_errors(np.concatenate(all_errors), floor_errors)
        pooled.save_json(out_dir / "report.json")
        with open(out_dir / "report_per_track.json", "w", encoding="utf-8") as fh:
            json.dump({k: v.to_dict() for k, v in per_track.items()}, fh, indent=2)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, exc) from exc

    return PipelineResult(pooled, per_track, model, radiomap, fused, out_dir)


def _truth_for(track: TrackData, config: PipelineConfig, i: int):
    if i < len(config.truth_files) and config.truth_files[i]:
        return read_truth_csv(config.truth_files[i])
    return track.landmarks


def _start_from_truth(track: TrackData, config: PipelineConfig):
    """Start state for WiFi-less runs: first ground-truth point."""
    truth = None
    for j, path in enumerate(config.test_logs):
        if Path(path).stem == track.name:
            truth = _truth_for(track, config, j)
            break
    if truth:
        first = truth[0]
        return np.array([first.x, first.y]), first.floor, first.timestamp
    raise InsufficientDataError(
        f"WiFi disabled and no ground truth to initialize track {track.name}"
    )
