"""Scenario S1: the 5-minute corridor-loop benchmark used by the acceptance
suite. One seed produces 13 simulated tracks (10 train, 3 held out) over a
fixed 20-AP deployment; the full pipeline trains a RAW/CNN displacement model
and is evaluated with WiFi fusion and projection on and off.

The generator and the settings are the benchmark's (``perfbench.workloads``),
so the acceptance gates and the benchmark run on the same files."""

from pathlib import Path

import numpy as np

from fusetrack.bench import run_pipeline
from perfbench.workloads import S1_SETTINGS, ap_layout, generate_s1, s1_scenario

__all__ = ["S1_SETTINGS", "ap_layout", "endpoint_errors", "generate_s1",
           "generate_seed_tracks", "run_seed", "s1_scenario"]


def generate_seed_tracks(seed: int, out_dir: Path) -> dict:
    """Simulate the 13 tracks of one seed; returns pipeline path lists."""
    return generate_s1(seed, out_dir).paths


def run_seed(seed: int, work_dir: Path) -> dict:
    """Full pipeline plus the two ablations; the model is trained once."""
    paths = generate_seed_tracks(seed, work_dir / f"seed{seed}")
    base = dict(paths, seed=seed, **S1_SETTINGS)
    full = run_pipeline(dict(base, out_dir=str(work_dir / f"seed{seed}" / "full")))
    checkpoint = str(work_dir / f"seed{seed}" / "full" / "pdr_model.tfnn")
    no_wifi = run_pipeline(dict(base, out_dir=str(work_dir / f"seed{seed}" / "nowifi"),
                                use_wifi=False, model_checkpoint=checkpoint))
    no_prj = run_pipeline(dict(base, out_dir=str(work_dir / f"seed{seed}" / "noprj"),
                               use_projection=False, model_checkpoint=checkpoint))
    return {"full": full.report, "no_wifi": no_wifi.report,
            "no_prj": no_prj.report, "paths": paths, "checkpoint": checkpoint}


def endpoint_errors(seed_result: dict) -> list[tuple[float, float]]:
    """Cumulative endpoint error (deep, classic) per held-out track."""
    from fusetrack.bench import read_truth_csv
    from fusetrack.features import magnitude_channels
    from fusetrack.ingest import parse_logfile, resample_stream
    from fusetrack.labels import ensure_yaw
    from fusetrack.pdr import PdrModel, classic_pdr, predict_displacements

    model = PdrModel.load(seed_result["checkpoint"])
    out = []
    for log, truth_file in zip(seed_result["paths"]["test_logs"],
                               seed_result["paths"]["truth_files"]):
        records, _, _ = parse_logfile(log)
        stream = magnitude_channels(ensure_yaw(resample_stream(records)))
        truth = read_truth_csv(truth_file)
        start = np.array([truth[0].x, truth[0].y])
        end = np.array([truth[-1].x, truth[-1].y])
        deep = start + np.sum([p.delta for p in
                               predict_displacements(model, stream)], axis=0)
        classic = start + np.sum([p.delta for p in classic_pdr(stream)], axis=0)
        out.append((float(np.hypot(*(deep - end))),
                    float(np.hypot(*(classic - end)))))
    return out
