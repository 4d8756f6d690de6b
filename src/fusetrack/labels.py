"""Activity, step, turn and floor detectors plus pseudo-label generation.

Displacement targets are synthesized by interpolating the user's position
between consecutive ground-truth landmarks along a straight line, paced by
step cadence so the speed follows the accelerometer rather than the clock.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .errors import OrderingError, RangeError, ValidationError
from .features import SensorWindow
from .ingest import Landmark, SensorStream

log = logging.getLogger(__name__)

STILL = "still"
WALKING = "walking"

#: std of acce_mag over one window below which the user counts as standing
TAU_STILL = 0.35
#: span of one activity window, seconds
ACTIVITY_WINDOW_S = 1.0
#: step peak prominence threshold, m/s^2
STEP_PROMINENCE = 0.8
#: minimum spacing between step peaks (max cadence 4 Hz)
STEP_REFRACTORY_S = 0.25
#: moving-average low-pass span for step detection (about 3 Hz cutoff)
STEP_SMOOTH_S = 1.0 / 3.0
#: heading change that marks a turn, and the span it must happen within
TURN_ANGLE_RAD = math.radians(45.0)
TURN_SPAN_S = 2.0
TURN_MERGE_S = 3.0
#: barometric constants: smoothing, trigger, lookback, slope of p with height
PRESSURE_SMOOTH_S = 5.0
PRESSURE_TRIGGER_HPA = 0.35
PRESSURE_WINDOW_S = 30.0
HPA_PER_M = 0.12
FLOOR_HEIGHT_M = 3.5
FLOOR_EVENT_GAP_S = 20.0
#: Laplace smoothing mass that keeps the pacing weight defined with no steps
KAPPA = 1.0
#: a sample labeled still may not claim more displacement than this
STILL_DELTA_MAX_M = 0.05


@dataclass(frozen=True)
class ActivitySegment:
    t_start: float
    t_end: float
    activity: str


@dataclass(frozen=True)
class StepEvent:
    timestamp: float
    strength: float  # peak prominence, m/s^2


@dataclass
class PseudoLabeledSample:
    """A window paired with its displacement target (world frame, meters)."""

    window: SensorWindow
    delta: np.ndarray
    activity: str


def ensure_yaw(stream: SensorStream) -> SensorStream:
    """Return a stream that has a yaw channel, integrating gyro_z if needed."""
    if stream.has_channel("yaw"):
        return stream
    gz = stream.channel("gyro_z")
    dt = 1.0 / stream.rate
    yaw = np.concatenate([[0.0], np.cumsum(0.5 * (gz[1:] + gz[:-1]) * dt)])
    return stream.with_channels({"yaw": yaw})


def _moving_average(x: np.ndarray, n: int) -> np.ndarray:
    if n <= 1:
        return x.astype(float)
    kernel = np.ones(n) / n
    # same-length output; edges average over the shrunken overlap
    smoothed = np.convolve(x, kernel, mode="same")
    # fix edge bias from implicit zero padding
    counts = np.convolve(np.ones_like(x), kernel, mode="same")
    return smoothed / counts


def detect_activity(stream: SensorStream) -> list[ActivitySegment]:
    """Partition the track into alternating STILL / WALKING segments.

    Per non-overlapping ``ACTIVITY_WINDOW_S`` window, the std of acce_mag
    below ``TAU_STILL`` marks STILL. Adjacent same-label windows merge;
    segments shorter than one second are absorbed into their neighbor.
    """
    mag = stream.channel("acce_mag")
    n_w = max(1, int(round(ACTIVITY_WINDOW_S * stream.rate)))
    labels = []
    bounds = []
    for start in range(0, stream.length, n_w):
        chunk = mag[start:start + n_w]
        if len(chunk) < n_w and labels:
            # fold the trailing partial window into the previous one
            full = mag[start - n_w:start + len(chunk)]
            labels[-1] = STILL if np.std(full) < TAU_STILL else WALKING
            bounds[-1] = (bounds[-1][0], stream.end)
            break
        label = STILL if np.std(chunk) < TAU_STILL else WALKING
        t_a = stream.t0 + start / stream.rate
        t_b = min(stream.end, stream.t0 + (start + n_w) / stream.rate)
        labels.append(label)
        bounds.append((t_a, t_b))
    segments: list[ActivitySegment] = []
    for label, (t_a, t_b) in zip(labels, bounds):
        if segments and segments[-1].activity == label:
            segments[-1] = ActivitySegment(segments[-1].t_start, t_b, label)
        else:
            segments.append(ActivitySegment(t_a, t_b, label))
    return _absorb_short_segments(segments, min_len=1.0)


def _absorb_short_segments(
    segments: list[ActivitySegment], min_len: float
) -> list[ActivitySegment]:
    changed = True
    while changed and len(segments) > 1:
        changed = False
        for i, seg in enumerate(segments):
            if seg.t_end - seg.t_start >= min_len:
                continue
            if i > 0:
                prev = segments[i - 1]
                segments[i - 1] = ActivitySegment(prev.t_start, seg.t_end, prev.activity)
            else:
                nxt = segments[1]
                segments[1] = ActivitySegment(seg.t_start, nxt.t_end, nxt.activity)
            del segments[i]
            changed = True
            break
    # re-merge equal neighbors created by absorption
    merged: list[ActivitySegment] = []
    for seg in segments:
        if merged and merged[-1].activity == seg.activity:
            merged[-1] = ActivitySegment(merged[-1].t_start, seg.t_end, seg.activity)
        else:
            merged.append(seg)
    return merged


def activity_at(segments: list[ActivitySegment], t: float) -> str:
    for seg in segments:
        if seg.t_start <= t < seg.t_end:
            return seg.activity
    if segments:
        return segments[0].activity if t < segments[0].t_start else segments[-1].activity
    return WALKING


def detect_steps(
    stream: SensorStream,
    activity: list[ActivitySegment] | None = None,
) -> list[StepEvent]:
    """Step events: prominent acce_mag peaks inside WALKING segments.

    The magnitude is low-passed with a one-third-second moving average before
    peak picking; peaks closer than the refractory gap keep only the stronger.
    """
    mag = stream.channel("acce_mag")
    if activity is None:
        activity = detect_activity(stream)
    n_smooth = max(1, int(round(stream.rate * STEP_SMOOTH_S)))
    filtered = _moving_average(mag, n_smooth)
    distance = max(1, int(round(STEP_REFRACTORY_S * stream.rate)))
    peaks, props = find_peaks(filtered, prominence=STEP_PROMINENCE, distance=distance)
    times = stream.t0 + peaks / stream.rate
    events = []
    for t, p, prom in zip(times, peaks, props["prominences"]):
        if activity_at(activity, t) == WALKING:
            events.append(StepEvent(float(t), float(prom)))
    return events


def detect_landmark_turns(stream: SensorStream) -> list[float]:
    """Timestamps of heading changes of at least 45 degrees within 2 s.

    A sample is marked when the unwrapped yaw differs by the threshold across
    the centered 2 s span; contiguous marked bursts closer than 3 s merge, and
    each burst reports its midpoint.
    """
    stream = ensure_yaw(stream)
    yaw = np.unwrap(stream.channel("yaw"))
    n = stream.length
    half = max(1, int(round(stream.rate * TURN_SPAN_S / 2)))
    hi = np.minimum(np.arange(n) + half, n - 1)
    lo = np.maximum(np.arange(n) - half, 0)
    change = np.abs(yaw[hi] - yaw[lo])
    marked = change >= TURN_ANGLE_RAD
    times = stream.times()
    bursts: list[tuple[float, float]] = []
    start = None
    for i in range(n):
        if marked[i] and start is None:
            start = times[i]
        elif not marked[i] and start is not None:
            bursts.append((start, times[i - 1]))
            start = None
    if start is not None:
        bursts.append((start, times[-1]))
    merged: list[tuple[float, float]] = []
    for b in bursts:
        if merged and b[0] - merged[-1][1] < TURN_MERGE_S:
            merged[-1] = (merged[-1][0], b[1])
        else:
            merged.append(b)
    return [0.5 * (a + b) for a, b in merged]


def detect_floor_changes(stream: SensorStream) -> list[tuple[float, int]]:
    """Floor transitions from barometric pressure.

    Smoothed pressure moving by at least the trigger threshold within the
    lookback window marks a transition run; the run's total pressure swing
    converts to a floor count at 0.12 hPa/m and 3.5 m per floor. Events come
    out at least 20 s apart.
    """
    p = stream.channel("pressure")
    rate = stream.rate
    n = stream.length
    times = stream.times()
    p_s = _moving_average(p, max(1, int(round(rate * PRESSURE_SMOOTH_S))))
    half = max(1, int(round(rate * PRESSURE_SMOOTH_S / 2)))
    hi = np.minimum(np.arange(n) + half, n - 1)
    lo = np.maximum(np.arange(n) - half, 0)
    dt = np.maximum((hi - lo) / rate, 1e-9)
    slope = (p_s[hi] - p_s[lo]) / dt
    slope_thresh = PRESSURE_TRIGGER_HPA / PRESSURE_WINDOW_S
    marked = np.abs(slope) >= slope_thresh

    runs: list[tuple[int, int]] = []
    start = None
    gap = int(round(rate * 2.0))
    for i in range(n):
        if marked[i]:
            if start is None:
                start = i
            end = i
        elif start is not None and i - end > gap:
            runs.append((start, end))
            start = None
    if start is not None:
        runs.append((start, end))

    events: list[tuple[float, int]] = []
    margin = half
    last_t = None
    for a, b in runs:
        a_ext = max(0, a - margin)
        b_ext = min(n - 1, b + margin)
        dp = p_s[b_ext] - p_s[a_ext]
        if abs(dp) < PRESSURE_TRIGGER_HPA:
            continue
        dh = -dp / HPA_PER_M
        floors = int(round(dh / FLOOR_HEIGHT_M))
        if floors == 0:
            continue
        t_mid = 0.5 * (times[a] + times[b])
        if last_t is not None and t_mid - last_t < FLOOR_EVENT_GAP_S:
            continue
        events.append((float(t_mid), floors))
        last_t = t_mid
    return events


class TrackTrajectory:
    """Straight-line position interpolant between landmarks, paced by steps.

    Between consecutive landmarks A -> B the position is ``A + (B - A) w(t)``
    where ``w`` blends the cumulative step count with walking time, Laplace
    smoothed by ``kappa`` so it stays defined with zero steps::

        w(t) = (steps in (tA, t] + kappa * walk(tA, t) / walk(tA, tB))
               / (steps in (tA, tB] + kappa)

    ``walk`` measures time not spent in STILL segments, so the interpolant
    freezes while the user stands. ``w`` is non-decreasing, 0 at A and 1 at B,
    hence every landmark is hit exactly.
    """

    def __init__(
        self,
        landmarks: list[Landmark],
        steps: list[StepEvent] | None = None,
        activity: list[ActivitySegment] | None = None,
        kappa: float = KAPPA,
    ):
        if len(landmarks) < 2:
            raise ValidationError("need at least 2 landmarks to interpolate")
        times = [lm.timestamp for lm in landmarks]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise OrderingError("landmark timestamps must be strictly increasing")
        self.landmarks = list(landmarks)
        self.times = np.asarray(times)
        self.points = np.asarray([[lm.x, lm.y] for lm in landmarks], dtype=float)
        self.floors = np.asarray([lm.floor for lm in landmarks], dtype=int)
        self.step_times = np.asarray(sorted(s.timestamp for s in (steps or [])))
        self.kappa = float(kappa)
        self.still = [
            (seg.t_start, seg.t_end)
            for seg in (activity or [])
            if seg.activity == STILL
        ]

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _walk_time(self, a: float, b: float) -> float:
        """Length of [a, b] minus its overlap with STILL segments."""
        total = b - a
        for s, e in self.still:
            total -= max(0.0, min(b, e) - max(a, s))
        return max(0.0, total)

    def _steps_in(self, a: float, b: float) -> int:
        """Steps with timestamp in (a, b]."""
        hi = np.searchsorted(self.step_times, b, side="right")
        lo = np.searchsorted(self.step_times, a, side="right")
        return int(hi - lo)

    def weight(self, t: float) -> tuple[int, float]:
        """Interval index and pacing weight w(t) for a clamped time."""
        t = min(max(t, self.t_start), self.t_end)
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.times) - 2)
        t_a, t_b = self.times[idx], self.times[idx + 1]
        walk_total = self._walk_time(t_a, t_b)
        total_steps = self._steps_in(t_a, t_b)
        denom = total_steps + self.kappa
        if walk_total <= 0 or denom <= 0:
            w = (t - t_a) / (t_b - t_a)
        else:
            cum = self._steps_in(t_a, t)
            w = (cum + self.kappa * self._walk_time(t_a, t) / walk_total) / denom
        return idx, float(min(max(w, 0.0), 1.0))

    def position(self, t: float) -> np.ndarray:
        idx, w = self.weight(t)
        a, b = self.points[idx], self.points[idx + 1]
        return a + (b - a) * w

    def positions(self, ts) -> np.ndarray:
        return np.asarray([self.position(t) for t in np.atleast_1d(ts)])

    def floor_at(self, t: float) -> int:
        t = min(max(t, self.t_start), self.t_end)
        idx, _ = self.weight(t)
        t_a, t_b = self.times[idx], self.times[idx + 1]
        near = idx if (t - t_a) <= (t_b - t) else idx + 1
        return int(self.floors[near])


def generate_pseudo_labels(
    stream: SensorStream,
    landmarks: list[Landmark],
    steps: list[StepEvent],
    activity: list[ActivitySegment],
    windows: list[SensorWindow],
    kappa: float = KAPPA,
) -> list[PseudoLabeledSample]:
    """Displacement targets for windows between landmarks.

    Each window's delta is the interpolated displacement across the centered
    stride span, so contiguous windows telescope exactly to ``B - A`` between
    landmarks. The activity label comes from the segment enclosing the window
    center; a nominally still window that actually covers motion beyond
    ``STILL_DELTA_MAX_M`` is relabeled WALKING so still samples always carry
    near-zero targets.
    """
    traj = TrackTrajectory(landmarks, steps, activity, kappa)
    tol = 1e-9
    if traj.t_start < stream.t0 - tol or traj.t_end > stream.end + tol:
        raise RangeError(
            f"landmarks span [{traj.t_start}, {traj.t_end}] outside stream "
            f"[{stream.t0}, {stream.end})"
        )
    samples = []
    skipped = 0
    for w in windows:
        h = w.stride_s / 2.0
        if w.t_center - h < traj.t_start - tol or w.t_center + h > traj.t_end + tol:
            skipped += 1
            continue
        delta = traj.position(w.t_center + h) - traj.position(w.t_center - h)
        label = activity_at(activity, w.t_center)
        if label == STILL and float(np.hypot(*delta)) >= STILL_DELTA_MAX_M:
            label = WALKING
        samples.append(PseudoLabeledSample(w, delta, label))
    if skipped:
        log.info("%d windows outside the landmark span were skipped", skipped)
    return samples
