"""Track fusion and correction.

A position-only linear Kalman filter consumes high-rate displacement deltas
as control inputs and low-rate WiFi fixes as identity measurements, then the
fused estimates are projected onto the implicit walkable space spanned by the
annotated reference points (landmarks plus labeled fingerprints).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CannotInitializeError,
    IndexEmptyError,
    ValidationError,
)
from .ingest import Landmark
from .pdr import DisplacementPrediction

_I2 = np.eye(2)
#: initial position uncertainty, meters
SIGMA0_M = 5.0
#: spacing of the fused output grid, seconds
GRID_PERIOD_S = 0.5


@dataclass(frozen=True)
class KalmanState:
    mean: np.ndarray  # (2,) meters
    cov: np.ndarray  # (2,2) symmetric positive-definite
    floor: int = 0
    timestamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))

    @property
    def trace(self) -> float:
        return float(np.trace(self.cov))


def kf_predict(state: KalmanState, delta, q, t: float | None = None) -> KalmanState:
    """Prediction step: shift the mean by the delta, grow the covariance."""
    delta = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ValidationError(f"non-finite displacement {delta}")
    q = np.asarray(q, dtype=float)
    return KalmanState(
        mean=state.mean + delta,
        cov=state.cov + q,
        floor=state.floor,
        timestamp=state.timestamp if t is None else t,
    )


def kf_update(state: KalmanState, z, r, t: float | None = None) -> KalmanState:
    """Measurement update with the identity model z = position + noise.

    The posterior covariance is re-symmetrized to keep it numerically SPD
    over long predict/update sequences.
    """
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    s = state.cov + r
    gain = state.cov @ np.linalg.inv(s)
    mean = state.mean + gain @ (z - state.mean)
    cov = (_I2 - gain) @ state.cov
    cov = 0.5 * (cov + cov.T)
    return KalmanState(mean=mean, cov=cov, floor=state.floor,
                       timestamp=state.timestamp if t is None else t)


@dataclass
class WifiFix:
    t: float
    position: np.ndarray
    sigma: float
    floor: int | None = None

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class FusionConfig:
    sigma_pdr: float = 0.1  # process noise per displacement step, meters
    start: Landmark | None = None  # known start; None waits for the first fix


@dataclass
class FusedTrack:
    """Fused estimates on an exact ``GRID_PERIOD_S`` grid."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    floor: np.ndarray
    ptrace: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def positions(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    def position_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(ts)
        return np.column_stack([
            np.interp(ts, self.t, self.x),
            np.interp(ts, self.t, self.y),
        ])

    def floor_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(ts)
        idx = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, len(self.t) - 1)
        return self.floor[idx]

    def to_csv(self, path) -> None:
        """Write every value in full (``repr``), so :meth:`from_csv` gives
        this track back bit for bit."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "floor", "ptrace"])
            for i in range(len(self.t)):
                writer.writerow([
                    repr(float(self.t[i])), repr(float(self.x[i])), repr(float(self.y[i])),
                    int(self.floor[i]), repr(float(self.ptrace[i])),
                ])

    @classmethod
    def from_csv(cls, path) -> "FusedTrack":
        data = np.genfromtxt(path, delimiter=",", names=True)
        data = np.atleast_1d(data)
        return cls(
            t=data["t"], x=data["x"], y=data["y"],
            floor=data["floor"].astype(int), ptrace=data["ptrace"],
        )


def fuse_track(
    pdr: list[DisplacementPrediction],
    wifi_fixes: list[WifiFix],
    floor_events: list[tuple[float, int]] | None = None,
    config: FusionConfig | None = None,
) -> FusedTrack:
    """Run the filter over all events in timestamp order.

    The state initializes at the first WiFi fix (or at the configured start
    landmark) with covariance ``SIGMA0_M^2 I``. Displacement deltas before the
    first fix are buffered and back-filled by reverse integration. Output is
    resampled onto the exact grid by linear interpolation of the mean; the
    floor is a discrete side channel driven by barometer events, falling back
    to WiFi floor votes when no barometer events exist.
    """
    config = config or FusionConfig()
    if not pdr and not wifi_fixes:
        raise CannotInitializeError("no events to fuse")
    floor_events = sorted(floor_events or [])
    events: list[tuple[float, int, str, object]] = []
    for t, dfloor in floor_events:
        events.append((t, 0, "floor", int(dfloor)))
    for p in pdr:
        events.append((p.t_center, 1, "pdr", p))
    for f in wifi_fixes:
        events.append((f.t, 2, "wifi", f))
    events.sort(key=lambda e: (e[0], e[1]))

    q = config.sigma_pdr ** 2 * _I2
    p0 = SIGMA0_M ** 2 * _I2
    use_wifi_floor = not floor_events and any(f.floor is not None for f in wifi_fixes)

    state: KalmanState | None = None
    timeline: list[tuple[float, np.ndarray, int, float]] = []
    backlog: list[DisplacementPrediction] = []
    floor_pre = 0

    start = config.start
    if start is not None:
        state = KalmanState([start.x, start.y], p0.copy(), start.floor, start.timestamp)
        timeline.append((state.timestamp, state.mean.copy(), state.floor, state.trace))

    for t, _, kind, payload in events:
        if state is None:
            if kind == "wifi":
                state = KalmanState(payload.position.copy(), p0.copy(), floor_pre, t)
                if use_wifi_floor and payload.floor is not None:
                    state = replace(state, floor=int(payload.floor))
                timeline.append((t, state.mean.copy(), state.floor, state.trace))
            elif kind == "pdr":
                backlog.append(payload)
            else:
                floor_pre += payload
            continue
        if t < state.timestamp:
            # events at or before the configured start time still count as backlog
            if kind == "pdr":
                backlog.append(payload)
            continue
        if kind == "floor":
            state = replace(state, floor=state.floor + payload, timestamp=t)
        elif kind == "pdr":
            state = kf_predict(state, payload.delta, q, t)
        else:
            r = max(payload.sigma, 1e-3) ** 2 * _I2
            state = kf_update(state, payload.position, r, t)
            if use_wifi_floor and payload.floor is not None:
                state = replace(state, floor=int(payload.floor))
        timeline.append((t, state.mean.copy(), state.floor, state.trace))

    if state is None:
        raise CannotInitializeError(
            "no WiFi fix and no start position to initialize the track"
        )

    t_init = timeline[0][0]

    # back-fill grid coverage before the first fix by reverse integration
    if backlog:
        pos = timeline[0][1].copy()
        floor0 = timeline[0][2]
        trace0 = timeline[0][3]
        pre = []
        for p in sorted(backlog, key=lambda p: p.t_center, reverse=True):
            if p.t_center >= t_init:
                continue
            pos = pos - p.delta
            pre.append((p.t_center, pos.copy(), floor0, trace0))
        timeline = list(reversed(pre)) + timeline

    times = np.asarray([e[0] for e in timeline])
    keep = np.ones(len(times), dtype=bool)
    keep[:-1] = times[1:] > times[:-1]  # duplicate timestamps: keep the last state
    timeline = [e for e, k in zip(timeline, keep) if k]
    times = np.asarray([e[0] for e in timeline])
    means = np.stack([e[1] for e in timeline])
    floors = np.asarray([e[2] for e in timeline], dtype=int)
    traces = np.asarray([e[3] for e in timeline])

    g = GRID_PERIOD_S
    k0 = math.ceil(times[0] / g - 1e-9)
    k1 = math.floor(times[-1] / g + 1e-9)
    if k1 < k0:
        grid = np.asarray([times[0]])
    else:
        grid = np.arange(k0, k1 + 1) * g
    x = np.interp(grid, times, means[:, 0])
    y = np.interp(grid, times, means[:, 1])
    ptrace = np.interp(grid, times, traces)
    idx = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(times) - 1)
    return FusedTrack(grid, x, y, floors[idx], ptrace)


@dataclass
class ProjectionIndex:
    """Annotated reference points the corrections may snap to."""

    points: np.ndarray  # (M, 3): x, y, floor
    n_neighbors: int = 5
    snap_delta: float = 0.01

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.size == 0:
            raise IndexEmptyError("projection index has no reference points")
        if self.points.shape[1] == 2:
            self.points = np.column_stack([self.points, np.zeros(len(self.points))])
        if not np.all(np.isfinite(self.points)):
            raise ValidationError("projection reference points must be finite")
        if self.n_neighbors < 1:
            raise ValidationError("n_neighbors must be >= 1")


def build_projection_index(
    landmark_lists: list[list[Landmark]],
    radiomap=None,
) -> ProjectionIndex:
    """Reference set: training landmarks plus labeled fingerprint positions.

    The set is deduplicated at millimeter resolution; revisited landmarks
    would otherwise pile up coincident points that capture the weighted
    neighborhood.
    """
    rows = []
    for lms in landmark_lists:
        rows.extend((lm.x, lm.y, lm.floor) for lm in lms)
    if radiomap is not None:
        for f in radiomap.labeled():
            rows.append((f.x, f.y, f.floor if f.floor is not None else 0))
    if not rows:
        raise IndexEmptyError("no reference points for the projection index")
    unique = sorted({(round(x, 3), round(y, 3), int(fl)) for x, y, fl in rows})
    return ProjectionIndex(np.asarray(unique, dtype=float))


def _select_neighbors(index: ProjectionIndex, p: np.ndarray, floor: int):
    pts = index.points
    same = pts[pts[:, 2] == floor]
    pool = same if len(same) >= index.n_neighbors else pts
    d = np.hypot(pool[:, 0] - p[0], pool[:, 1] - p[1])
    order = np.argsort(d, kind="stable")[:index.n_neighbors]
    return pool[order], d[order]


def _project_with_neighbors(index: ProjectionIndex, point) -> tuple[tuple, np.ndarray]:
    """Full projection; also returns the final neighbor set used."""
    x, y, floor = point
    floor = int(floor)
    p = np.asarray([x, y], dtype=float)
    neighbors, d = _select_neighbors(index, p, floor)
    for _ in range(500):
        if d[0] < index.snap_delta:
            snap = neighbors[0]
            return (float(snap[0]), float(snap[1]), int(snap[2])), neighbors
        w = 1.0 / d
        p_new = (w[:, None] * neighbors[:, :2]).sum(axis=0) / w.sum()
        moved = float(np.hypot(*(p_new - p)))
        p = p_new
        neighbors, d = _select_neighbors(index, p, floor)
        if moved < index.snap_delta * 1e-2:
            break
    floors, counts = np.unique(neighbors[:, 2].astype(int), return_counts=True)
    best = counts.max()
    tied = floors[counts == best]
    out_floor = int(tied[0]) if len(tied) == 1 else int(neighbors[0, 2])
    return (float(p[0]), float(p[1]), out_floor), neighbors


def project_prediction(index: ProjectionIndex, point) -> tuple[float, float, int]:
    """Project an estimate into the neighborhood of annotated points.

    Finds the inverse-distance weighted combination of the nearest reference
    points that is a fixed point of its own neighborhood (iterated to
    convergence), so projecting a projected point returns it. Queries within
    the snap distance of a reference point return that point exactly; the
    output floor is the neighbor majority. Same-floor neighbors are preferred
    when the floor has enough of them.
    """
    result, _ = _project_with_neighbors(index, point)
    return result


def project_track(index: ProjectionIndex, track: FusedTrack) -> FusedTrack:
    """Apply the projection to every grid point; the filter floor is kept
    (barometer wins over the neighbor vote)."""
    xs, ys = [], []
    for i in range(len(track)):
        px, py, _ = project_prediction(index, (track.x[i], track.y[i], int(track.floor[i])))
        xs.append(px)
        ys.append(py)
    return FusedTrack(track.t.copy(), np.asarray(xs), np.asarray(ys),
                      track.floor.copy(), track.ptrace.copy())
