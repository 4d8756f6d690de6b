"""Positioning error metrics on the 0.5 s output grid.

Mirrors the offline challenge protocol: the predicted track is interpolated
at every ground-truth timestamp, the 2D error is penalized for floor
mismatches, and the 75th percentile of the error distribution is the headline
number alongside the MAE and the 50th/90th percentiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import CoverageError
from ..ingest import Landmark
from ..tracking import FusedTrack

#: added meters of error per floor of mismatch (challenge-style penalty)
FLOOR_PENALTY_M = 15.0


@dataclass
class ErrorReport:
    mae: float
    q50: float
    q75: float
    q90: float
    errors: np.ndarray = field(default_factory=lambda: np.zeros(0))
    floor_errors: int = 0

    def to_dict(self) -> dict:
        return {
            "mae": self.mae, "q50": self.q50, "q75": self.q75, "q90": self.q90,
            "n": int(len(self.errors)), "floor_errors": self.floor_errors,
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def __str__(self) -> str:
        return (f"MAE {self.mae:.2f} m, q50 {self.q50:.2f} m, "
                f"q75 {self.q75:.2f} m, q90 {self.q90:.2f} m "
                f"({len(self.errors)} points, {self.floor_errors} floor errors)")


def report_from_errors(errors: np.ndarray, floor_errors: int = 0) -> ErrorReport:
    """Quantiles by linear interpolation between order statistics."""
    errors = np.asarray(errors, dtype=float)
    return ErrorReport(
        mae=float(errors.mean()),
        q50=float(np.quantile(errors, 0.50)),
        q75=float(np.quantile(errors, 0.75)),
        q90=float(np.quantile(errors, 0.90)),
        errors=errors,
        floor_errors=floor_errors,
    )


def evaluate_track(
    predicted: FusedTrack,
    truth: list[Landmark],
) -> ErrorReport:
    """Per-landmark errors of a predicted track, ``FLOOR_PENALTY_M`` added
    per floor of mismatch.

    Every truth timestamp must lie inside the predicted grid span, otherwise a
    :class:`CoverageError` lists the offenders. Extra predicted grid points
    beyond the truth span do not affect the result.
    """
    if not truth:
        raise CoverageError("no ground-truth landmarks to evaluate against")
    tol = 1e-9
    outside = [lm.timestamp for lm in truth
               if lm.timestamp < predicted.t[0] - tol
               or lm.timestamp > predicted.t[-1] + tol]
    if outside:
        raise CoverageError(
            f"{len(outside)} truth timestamps outside the predicted span "
            f"[{predicted.t[0]}, {predicted.t[-1]}]: {outside[:5]}",
            timestamps=outside,
        )
    ts = np.asarray([lm.timestamp for lm in truth])
    pos = predicted.position_at(ts)
    floors = predicted.floor_at(ts)
    truth_pos = np.asarray([[lm.x, lm.y] for lm in truth])
    truth_floor = np.asarray([lm.floor for lm in truth])
    planar = np.sqrt(((pos - truth_pos) ** 2).sum(axis=1))
    floor_mismatch = np.abs(floors - truth_floor)
    errors = planar + FLOOR_PENALTY_M * floor_mismatch
    return report_from_errors(errors, floor_errors=int((floor_mismatch > 0).sum()))
