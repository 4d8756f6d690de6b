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

from ..errors import ConfigError, InsufficientDataError, PipelineError, ValidationError
from ..features import magnitude_channels, make_windows
from ..ingest import Landmark, parse_logfile, resample_stream
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
from ..wifi import RadioMap, VaeConfig, build_radiomap, knn_predict, train_vae, vae_predict
from .evaluate import ErrorReport, evaluate_track, report_from_errors
from .simulate import read_truth_csv

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    """Flat pipeline settings; unknown keys are rejected.

    The training and fusion defaults are those of :class:`PdrModelConfig`
    and :class:`FusionConfig`.
    """

    train_logs: list[str] = field(default_factory=list)
    test_logs: list[str] = field(default_factory=list)
    truth_files: list[str] = field(default_factory=list)
    out_dir: str = "out"
    seed: int = 0
    input_mode: str = PdrModelConfig.input_mode
    arch: str = PdrModelConfig.arch
    wifi_predictor: str = "knn"  # knn | vae
    use_wifi: bool = True
    use_projection: bool = True
    val_track_count: int = 0  # 0: auto (about a fifth of the training tracks)
    max_epochs: int = PdrModelConfig.max_epochs
    patience: int = PdrModelConfig.patience
    batch_size: int = PdrModelConfig.batch_size
    sigma_pdr: float = FusionConfig.sigma_pdr
    model_checkpoint: str = ""  # load instead of training when set

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
        for key in ("train_logs", "test_logs"):
            stems = [Path(p).stem for p in getattr(cfg, key)]
            repeated = sorted({s for s in stems if stems.count(s) > 1})
            if repeated:
                raise ConfigError(f"{key} repeat the file stem(s) {repeated}; "
                                  "each track is named by its stem")
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

    An input error is re-raised as the same class with the file named.
    """
    try:
        sensor_log, scans, landmarks = parse_logfile(path)
        stream = magnitude_channels(ensure_yaw(resample_stream(sensor_log)))
    except ValidationError as exc:
        if str(path) in str(exc):
            raise
        named = type(exc)(f"{exc} (in {path})")
        named.__dict__.update(exc.__dict__)
        raise named from exc
    return TrackData(Path(path).stem, stream, scans, landmarks)


def label_track(track: TrackData) -> None:
    """Detect activity and steps; interpolate a trajectory if there are landmarks."""
    track.activity = detect_activity(track.stream)
    track.steps = detect_steps(track.stream, track.activity)
    if len(track.landmarks) >= 2:
        track.trajectory = TrackTrajectory(track.landmarks, track.steps, track.activity)


def pseudo_label(track: TrackData) -> list[PseudoLabeledSample]:
    """Window a labelled track at ``TRAIN_STRIDE`` and give each window its target."""
    windows = make_windows(track.stream, stride=TRAIN_STRIDE)
    return generate_pseudo_labels(
        track.stream, track.landmarks, track.steps, track.activity, windows)


def training_split(tracks: list[TrackData], n_val: int = 0
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
            samples = pseudo_label(track)
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
            fit_samples, val_samples = training_split(train_tracks, config.val_track_count)

        stage = "train_pdr"
        pdr_cfg = PdrModelConfig(
            input_mode=config.input_mode, arch=config.arch,
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
                    vae_model = train_vae(radiomap, VaeConfig(rng_seed=config.seed))

        stage = "projection_index"
        index = None
        if config.use_projection:
            landmark_lists = [t.landmarks for t in train_tracks if t.landmarks]
            index = build_projection_index(landmark_lists, radiomap)

        stage = "fuse"
        fused: dict[str, FusedTrack] = {}
        for i, track in enumerate(test_tracks):
            preds = predict_displacements(model, track.stream)
            fixes: list[WifiFix] = []
            if config.use_wifi and radiomap is not None:
                for scan in track.scans:
                    try:
                        if vae_model is not None:
                            fix = vae_predict(vae_model, scan, radiomap.ap_ids)
                        else:
                            fix = knn_predict(radiomap, scan)
                    except InsufficientDataError:
                        continue
                    fixes.append(WifiFix(scan.timestamp, fix.position, fix.sigma,
                                         fix.floor))
            floor_events = (detect_floor_changes(track.stream)
                            if track.stream.has_channel("pressure") else [])
            start = None
            if not config.use_wifi or not fixes:
                start = _start_from_truth(track, config, i)
            fused_track = fuse_track(preds, fixes, floor_events,
                                     FusionConfig(config.sigma_pdr, start))
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
            report = evaluate_track(fused[track.name], truth)
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


def _start_from_truth(track: TrackData, config: PipelineConfig, i: int) -> Landmark:
    """Start for WiFi-less runs: the first ground-truth point of test track ``i``."""
    truth = _truth_for(track, config, i)
    if truth:
        return truth[0]
    raise InsufficientDataError(
        f"WiFi disabled and no ground truth to initialize track {track.name}"
    )
