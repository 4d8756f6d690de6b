"""Command-line interface.

Exit status: 0 on success, 2 on validation errors (bad inputs or config),
1 on internal errors. ``--seed`` is accepted wherever randomness exists.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .bench import (
    PipelineConfig,
    SimScenario,
    evaluate_track,
    read_truth_csv,
    run_pipeline,
    simulate_track,
)
from .bench.pipeline import TrackData, label_track, load_track
from .errors import FusetrackError, PipelineError, ValidationError
from .features import RAW, RP, magnitude_channels
from .ingest import parse_logfile, resample_stream
from .labels import save_dataset
from .pdr import (
    INFER_STRIDE,
    TRAIN_STRIDE,
    PdrModel,
    PdrModelConfig,
    build_model,
    predict_displacements,
    train_pdr,
)
from .tracking import FusedTrack
from .wifi import RadioMap, VaeConfig, build_radiomap, train_vae

log = logging.getLogger(__name__)


def _load_labeled_tracks(paths, stride) -> list[TrackData]:
    """Parse, resample and pseudo-label a set of training logs."""
    tracks = [load_track(path) for path in paths]
    for track in tracks:
        label_track(track, stride)
    return tracks


def cmd_simulate(args) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        scenario = SimScenario.from_dict(json.load(fh))
    if args.seed is not None:
        scenario.rng_seed = args.seed
    result = simulate_track(scenario)
    result.write(args.out, args.truth_out)
    print(f"wrote {args.out} ({result.truth.t_end:.1f} s, "
          f"{len(result.landmarks)} landmarks)")
    return 0


def cmd_parse(args) -> int:
    sensor_log, scans, landmarks = parse_logfile(args.log)
    stream = resample_stream(sensor_log, rate=args.rate)
    if args.magnitudes:
        stream = magnitude_channels(stream)
    stream.to_csv(args.out)
    print(f"{len(sensor_log)} records, {len(scans)} wifi scans, "
          f"{len(landmarks)} landmarks -> {args.out}")
    return 0


def cmd_pseudolabel(args) -> int:
    [track] = _load_labeled_tracks([args.log], args.stride)
    if not track.samples:
        raise ValidationError(
            f"{args.log} has {len(track.landmarks)} landmarks; need >= 2")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(track.samples, out / "windows.bin", out / "index.csv")
    print(f"{len(track.samples)} labeled windows -> {out}")
    return 0


def cmd_train_pdr(args) -> int:
    cfg = PdrModelConfig(
        input_mode=args.mode, arch=args.arch, rng_seed=args.seed,
        max_epochs=args.epochs, patience=args.patience,
        batch_size=args.batch_size,
    )
    tracks = _load_labeled_tracks(args.logs, TRAIN_STRIDE)
    labeled = [t for t in tracks if t.samples]
    if not labeled:
        raise ValidationError("no input log has enough landmarks to train on")
    n_val = max(1, len(labeled) // 5) if len(labeled) > 1 else 0
    val = ([s for t in labeled[len(labeled) - n_val:] for s in t.samples]
           if n_val else None)
    fit = [s for t in labeled[:len(labeled) - n_val] for s in t.samples]
    if not val:
        val = fit
    model = build_model(cfg)
    model, history = train_pdr(model, fit, val, cfg)
    model.save(args.out)
    if args.history:
        history.save_csv(args.history)
    print(f"trained {cfg.arch}/{cfg.input_mode}: best val loss "
          f"{history.best_val:.4f} at epoch {history.best_epoch} -> {args.out}")
    return 0


def cmd_build_radiomap(args) -> int:
    tracks = _load_labeled_tracks(args.logs, TRAIN_STRIDE)
    scans_by_track = {t.name: t.scans for t in tracks}
    trajectories = {t.name: t.trajectory for t in tracks if t.trajectory is not None}
    radiomap = build_radiomap(scans_by_track, trajectories)
    radiomap.to_csv(args.out)
    print(f"{len(radiomap.fingerprints)} fingerprints over "
          f"{len(radiomap.ap_ids)} APs "
          f"({radiomap.labeled_fraction:.0%} labeled) -> {args.out}")
    return 0


def cmd_train_wifi(args) -> int:
    radiomap = RadioMap.from_csv(args.map)
    cfg = VaeConfig(epochs=args.epochs, rng_seed=args.seed)
    model = train_vae(radiomap, cfg)
    print(f"trained wifi regressor: calibration sigma {model.sigma_cal:.2f} m")
    # persist the calibrated positions for inspection
    if args.out:
        from .wifi import normalize_rss
        pred = model.predict_unit(normalize_rss(radiomap.matrix()))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,x,y\n")
            for f, p in zip(radiomap.fingerprints, pred):
                fh.write(f"{f.timestamp:.9g},{p[0]:.9g},{p[1]:.9g}\n")
    return 0


def cmd_predict(args) -> int:
    model = PdrModel.load(args.model)
    stream = load_track(args.log).stream
    preds = predict_displacements(model, stream, stride=args.stride)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("t,dx,dy,p_walk\n")
        for p in preds:
            fh.write(f"{p.t_center:.9g},{p.delta[0]:.9g},{p.delta[1]:.9g},"
                     f"{p.activity_prob:.6f}\n")
    print(f"{len(preds)} displacement predictions -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    track = FusedTrack.from_csv(args.pred)
    truth = read_truth_csv(args.truth)
    report = evaluate_track(track, truth, floor_penalty=args.floor_penalty)
    print(report)
    if args.out:
        report.save_json(args.out)
    return 0


def cmd_run(args) -> int:
    cfg = PipelineConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    result = run_pipeline(cfg)
    print(result.report)
    for name, rep in result.per_track.items():
        print(f"  {name}: {rep}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusetrack",
        description="indoor positioning pipeline: deep PDR + WiFi + Kalman fusion",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic track logfile")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output logfile path")
    p.add_argument("--truth-out", help="ground-truth CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("parse", help="parse a logfile into a resampled CSV stream")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--magnitudes", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("pseudolabel", help="generate a pseudo-labeled dataset")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--stride", type=int, default=TRAIN_STRIDE)
    p.set_defaults(func=cmd_pseudolabel)

    p = sub.add_parser("train-pdr", help="train the displacement model")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--mode", choices=[RAW, RP], default=RAW)
    p.add_argument("--arch", choices=["cnn", "bilstm"], default="cnn")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--history", help="training history CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_pdr)

    p = sub.add_parser("build-radiomap", help="build a radiomap from training logs")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_radiomap)

    p = sub.add_parser("train-wifi", help="train the semi-supervised wifi regressor")
    p.add_argument("--map", required=True, help="radiomap CSV")
    p.add_argument("--out", help="predicted positions CSV")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_wifi)

    p = sub.add_parser("predict", help="predict displacements for a logfile")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, default=INFER_STRIDE)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a fused track against ground truth")
    p.add_argument("--pred", required=True, help="fused track CSV")
    p.add_argument("--truth", required=True, help="landmarks CSV")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--floor-penalty", type=float, default=15.0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        if isinstance(exc.cause, (ValidationError, OSError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except FusetrackError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
