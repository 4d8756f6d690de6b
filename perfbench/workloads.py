"""S1 inputs and the benchmark's two workloads.

S1 is the acceptance scenario: 13 simulated tracks (10 train, 3 held out)
walked around a 200 m corridor loop past 20 access points. The generator
below reproduces the acceptance suite's S1 generator byte for byte (a test
checks this), so the program sees the inputs its gates were set on.

Every workload runs ``run_pipeline`` on those files only; README.md says
why these two.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fusetrack.bench import (
    AccessPoint,
    NoiseSpec,
    SimScenario,
    Waypoint,
    run_pipeline,
    simulate_track,
)

#: rectangle loop, 8 waypoints, 200 m perimeter
CORNERS = [
    (0.0, 0.0), (30.0, 0.0), (60.0, 0.0), (60.0, 20.0),
    (60.0, 40.0), (30.0, 40.0), (0.0, 40.0), (0.0, 20.0),
]
TRAIN_TRACKS = 10
TEST_TRACKS = 3

#: the acceptance suite's S1 settings: RAW/CNN, k-NN WiFi, this training budget
S1_SETTINGS = dict(max_epochs=30, patience=10, batch_size=64, sigma_pdr=0.13)
#: the checkpoint s1_localize loads, trained outside the timed region. Its
#: budget is cut to one epoch so that a run fits the benchmark's time limit;
#: the ablation set does the same work whatever the model's quality.
CHECKPOINT_SETTINGS = dict(S1_SETTINGS, max_epochs=1)

#: acceptance criterion 7's gates on the held-out error of the full pipeline
Q75_GATE_M = 2.5
MAE_GATE_M = 2.0


def ap_layout(seed: int) -> list[AccessPoint]:
    """20 access points spaced along the corridor loop, jittered by seed."""
    rng = np.random.default_rng((seed, 77))
    loop = CORNERS + [CORNERS[0]]
    seg = [np.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(loop, loop[1:])]
    perimeter = sum(seg)
    aps = []
    for k in range(20):
        s = (k + 0.5) * perimeter / 20
        for (a, b), length in zip(zip(loop, loop[1:]), seg):
            if s <= length:
                frac = s / length
                x = a[0] + frac * (b[0] - a[0]) + float(rng.uniform(-1.5, 1.5))
                y = a[1] + frac * (b[1] - a[1]) + float(rng.uniform(-1.5, 1.5))
                aps.append(AccessPoint(x, y, 0, -40.0))
                break
            s -= length
    return aps


def s1_scenario(seed: int, track: int, aps: list[AccessPoint]) -> SimScenario:
    """One walk of a loop and a bit, from a seeded corner, in either direction."""
    rng = np.random.default_rng((seed, track))
    start = int(rng.integers(0, len(CORNERS)))
    corners = CORNERS[start:] + CORNERS[:start]
    if track % 2 == 1:
        corners = corners[::-1]
    corners = corners + [corners[0], corners[1]]
    wps = []
    for i, (x, y) in enumerate(corners):
        dwell = float(rng.uniform(2.0, 6.0))
        wps.append(Waypoint(x + 0.02 * (i // len(CORNERS)), y, 0, dwell))
    cadence = float(rng.uniform(1.6, 2.0))
    stride = float(rng.uniform(0.58, 0.62))
    return SimScenario(
        waypoints=wps,
        speed=cadence * stride,
        step_frequency=cadence,
        ap_layout=aps,
        noise=NoiseSpec(yaw_drift_rate=0.004),
        rng_seed=int(rng.integers(0, 2**31)),
    )


@dataclass
class S1Inputs:
    seed: int
    paths: dict  # train_logs, test_logs, truth_files, as run_pipeline takes them
    files: list[Path] = field(default_factory=list)


def generate_s1(seed: int, out_dir: Path) -> S1Inputs:
    """Write the 13 S1 logs and the 3 truth files of ``seed`` to ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    aps = ap_layout(seed)
    inputs = S1Inputs(seed, {"train_logs": [], "test_logs": [], "truth_files": []})
    for k in range(TRAIN_TRACKS + TEST_TRACKS):
        result = simulate_track(s1_scenario(seed, k, aps))
        if k < TRAIN_TRACKS:
            path = out_dir / f"train{k:02d}.log"
            result.write(path)
            inputs.paths["train_logs"].append(str(path))
            inputs.files.append(path)
        else:
            path = out_dir / f"test{k - TRAIN_TRACKS}.log"
            truth = out_dir / f"test{k - TRAIN_TRACKS}_truth.csv"
            result.write(path, truth)
            inputs.paths["test_logs"].append(str(path))
            inputs.paths["truth_files"].append(str(truth))
            inputs.files += [path, truth]
    return inputs


def report_key(report) -> tuple:
    """Everything an error report says, in a form that compares exactly."""
    errors = np.ascontiguousarray(report.errors, dtype=np.float64)
    return (report.to_dict(), hashlib.sha256(errors.tobytes()).hexdigest())


def _pipeline(inputs: S1Inputs, out_dir: Path, **settings):
    config = dict(inputs.paths, seed=inputs.seed, out_dir=str(out_dir), **settings)
    return run_pipeline(config).report


def _check_reports(reports: dict) -> list[str]:
    problems = []
    for name, r in reports.items():
        if not (len(r.errors) and math.isfinite(r.q75) and math.isfinite(r.mae)):
            problems.append(f"{name}: report has no finite errors")
    return problems


class Workload:
    """One kind of operation on S1 inputs, with its output check.

    ``prepare`` runs once per process, outside every timed region;
    ``operation`` is the timed unit and returns its error reports by name.
    """

    name = ""
    #: whether the operation's CPU time is scaled by speed probes
    #: (run.SpeedSampler); README.md says why one workload is and one is not
    speed_probe = False

    def prepare(self, inputs: S1Inputs, work_dir: Path) -> dict:
        """Extra inputs the operation needs; their files are hashed."""
        return {}

    def operation(self, inputs: S1Inputs, out_dir: Path) -> dict:
        raise NotImplementedError

    def check(self, reports: dict) -> list[str]:
        """Reasons the operation's output is wrong; empty when it is right."""
        return _check_reports(reports)


class TrainRaw(Workload):
    """Train RAW/CNN from scratch and localize the held-out tracks."""

    name = "s1_train_raw"

    def operation(self, inputs, out_dir):
        return {"full": _pipeline(inputs, out_dir / "full", **S1_SETTINGS)}

    def check(self, reports):
        problems = _check_reports(reports)
        full = reports["full"]
        if full.q75 > Q75_GATE_M or full.mae > MAE_GATE_M:
            problems.append(f"full: q75 {full.q75:.4f} m / MAE {full.mae:.4f} m "
                            f"outside the S1 gates {Q75_GATE_M} / {MAE_GATE_M} m")
        return problems


class Localize(Workload):
    """The S1 ablation set on one checkpoint: full, WiFi off, projection off."""

    name = "s1_localize"
    speed_probe = True

    def __init__(self):
        self.checkpoint = ""
        self.trained_report = None

    def prepare(self, inputs, work_dir):
        out = work_dir / "checkpoint"
        self.trained_report = _pipeline(inputs, out, **CHECKPOINT_SETTINGS)
        self.checkpoint = str(out / "pdr_model.tfnn")
        return {"checkpoint": Path(self.checkpoint)}

    def operation(self, inputs, out_dir):
        settings = dict(CHECKPOINT_SETTINGS, model_checkpoint=self.checkpoint)
        return {
            "full": _pipeline(inputs, out_dir / "full", **settings),
            "no_wifi": _pipeline(inputs, out_dir / "no_wifi", use_wifi=False, **settings),
            "no_prj": _pipeline(inputs, out_dir / "no_prj", use_projection=False, **settings),
        }

    def check(self, reports):
        problems = _check_reports(reports)
        full = reports["full"]
        for ablation in ("no_wifi", "no_prj"):
            if full.q75 > reports[ablation].q75:
                problems.append(f"full q75 {full.q75:.4f} m worse than {ablation} "
                                f"{reports[ablation].q75:.4f} m")
        if report_key(full) != report_key(self.trained_report):
            problems.append("full report from the loaded checkpoint differs from "
                            "the report of the run that trained it")
        return problems


WORKLOADS = {w.name: w for w in (TrainRaw, Localize)}
