"""Synthetic walking-trace simulator.

Generates sensor logfiles with a known ground-truth trajectory so every
downstream stage can be checked against an exact oracle. The user walks
straight segments between waypoints at constant speed, dwelling at each
waypoint; sensors see gravity plus a gait oscillation, turn-rate gyro ramps,
a heading-rotated magnetic field, barometric floor pressure and log-distance
path-loss WiFi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..ingest import Landmark
from ..labels import FLOOR_HEIGHT_M, HPA_PER_M

GRAVITY = 9.81
#: magnetic field magnitude seen by the magnetometer, microtesla
MAG_FIELD_UT = 45.0
#: sea-level reference pressure, hPa
P0_HPA = 1013.25
#: gait oscillation amplitude while walking, m/s^2
WALK_AMPLITUDE = 2.0
#: turn rate while changing heading, rad/s
TURN_RATE = math.pi / 2
#: log-distance path loss exponent
PATH_LOSS_EXPONENT = 2.0
#: receiver sensitivity: weaker readings are not reported
RSS_DROP_DBM = -105.0
#: still recording after the last waypoint, seconds
TAIL_S = 1.0


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float
    floor: int = 0
    dwell: float = 0.0


@dataclass(frozen=True)
class AccessPoint:
    x: float
    y: float
    floor: int = 0
    tx_power: float = -40.0


@dataclass
class NoiseSpec:
    acce: float = 0.05
    gyro: float = 0.01
    magn: float = 0.3
    pressure: float = 0.01
    yaw: float = 0.02
    rss: float = 4.0
    # random-walk heading bias (rad per sqrt second) mimicking magnetic
    # disturbances and gyro drift in the device's orientation estimate;
    # 0 keeps the reported yaw unbiased
    yaw_drift_rate: float = 0.0


@dataclass
class SimScenario:
    waypoints: list[Waypoint]
    speed: float = 1.0
    step_frequency: float = 1.8
    ap_layout: list[AccessPoint] = field(default_factory=list)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    rng_seed: int = 0
    rate: float = 50.0
    wifi_period: float = 4.0

    def __post_init__(self):
        for key in ("speed", "rate", "wifi_period"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        if min(vars(self.noise).values()) < 0:
            raise ConfigError("noise levels must be >= 0")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if (a.x, a.y, a.floor) == (b.x, b.y, b.floor):
                raise ConfigError("consecutive waypoints must differ")

    def to_dict(self) -> dict:
        return {
            "waypoints": [[w.x, w.y, w.floor, w.dwell] for w in self.waypoints],
            "speed": self.speed,
            "step_frequency": self.step_frequency,
            "ap_layout": [[a.x, a.y, a.floor, a.tx_power] for a in self.ap_layout],
            "noise": vars(self.noise),
            "rng_seed": self.rng_seed,
            "rate": self.rate,
            "wifi_period": self.wifi_period,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimScenario":
        """The scenario of a :meth:`to_dict` document; missing keys take their
        defaults. An unknown key, a value that is not a number or a malformed
        waypoint or AP row raises :class:`ConfigError` naming it."""
        scalars = _numbers(d, cls, "scenario", rows=("waypoints", "ap_layout", "noise"))
        if "waypoints" not in d:
            raise ConfigError("scenario needs 'waypoints'")
        return cls(
            waypoints=_rows(d["waypoints"], Waypoint, "waypoints"),
            ap_layout=_rows(d.get("ap_layout", []), AccessPoint, "ap_layout"),
            noise=NoiseSpec(**_numbers(d.get("noise", {}), NoiseSpec, "scenario noise")),
            **scalars,
        )


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(d, kind, what: str, rows: tuple = ()) -> dict:
    """The entries of ``d`` that are fields of ``kind``, outside ``rows``;
    each must be a number."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r}")
    unknown = set(d) - set(kind.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    out = {k: v for k, v in d.items() if k not in rows}
    for k, v in out.items():
        if not _is_number(v):
            raise ConfigError(f"{what} key '{k}' must be a number, got {v!r}")
    return out


def _rows(rows, kind, key: str) -> list:
    """Each row of ``key`` as a ``kind``: a list of its first 2 to all fields."""
    n = len(kind.__dataclass_fields__)
    if not isinstance(rows, list):
        raise ConfigError(f"scenario key '{key}' must be a list of rows, got {rows!r}")
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and 2 <= len(row) <= n
                and all(map(_is_number, row))):
            raise ConfigError(f"{key}[{i}] must be a list of 2 to {n} numbers, got {row!r}")
    return [kind(*row) for row in rows]


class GroundTruth:
    """Analytic trajectory: exact position, floor and yaw at any time."""

    def __init__(self, waypoints: list[Waypoint], speed: float):
        self.waypoints = waypoints
        times = [0.0]
        # arrival & departure times per waypoint
        self.arrivals = [0.0]
        self.departures = [waypoints[0].dwell]
        for a, b in zip(waypoints, waypoints[1:]):
            dist = math.hypot(b.x - a.x, b.y - a.y)
            arrive = self.departures[-1] + dist / speed
            self.arrivals.append(arrive)
            self.departures.append(arrive + b.dwell)
        self.t_end = self.departures[-1]
        # continuous heading: along each walking segment, unwrapped
        self.headings = []
        prev = 0.0
        for a, b in zip(waypoints, waypoints[1:]):
            h = math.atan2(b.y - a.y, b.x - a.x)
            # unwrap relative to the previous segment heading
            while h - prev > math.pi:
                h -= 2 * math.pi
            while h - prev < -math.pi:
                h += 2 * math.pi
            self.headings.append(h)
            prev = h
        if not self.headings:
            self.headings = [0.0]

    def position(self, t: float) -> np.ndarray:
        t = min(max(t, 0.0), self.t_end)
        for i in range(len(self.waypoints)):
            if t <= self.departures[i]:
                return np.array([self.waypoints[i].x, self.waypoints[i].y])
            if i + 1 < len(self.waypoints) and t <= self.arrivals[i + 1]:
                a, b = self.waypoints[i], self.waypoints[i + 1]
                frac = (t - self.departures[i]) / (self.arrivals[i + 1] - self.departures[i])
                return np.array([a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y)])
        last = self.waypoints[-1]
        return np.array([last.x, last.y])

    def floor_at(self, t: float) -> int:
        return int(round(self.floor_continuous(t)))

    def floor_continuous(self, t: float) -> float:
        t = min(max(t, 0.0), self.t_end)
        for i in range(len(self.waypoints)):
            if t <= self.departures[i]:
                return float(self.waypoints[i].floor)
            if i + 1 < len(self.waypoints) and t <= self.arrivals[i + 1]:
                a, b = self.waypoints[i], self.waypoints[i + 1]
                frac = (t - self.departures[i]) / (self.arrivals[i + 1] - self.departures[i])
                return a.floor + frac * (b.floor - a.floor)
        return float(self.waypoints[-1].floor)

    def walking(self, t: float) -> bool:
        for i in range(len(self.waypoints) - 1):
            if self.departures[i] < t < self.arrivals[i + 1]:
                return True
        return False

    def segment_start(self, t: float) -> float:
        for i in range(len(self.waypoints) - 1):
            if self.departures[i] < t <= self.arrivals[i + 1]:
                return self.departures[i]
        return 0.0

    def yaw(self, t: float) -> float:
        """Heading with finite-rate turns at waypoints.

        The turn happens during the dwell when there is time, otherwise at
        the start of the next walking segment.
        """
        if t <= self.arrivals[0]:
            return self.headings[0]
        yaw = self.headings[0]
        for i in range(1, len(self.waypoints)):
            if i - 1 < len(self.headings) - 1:
                h_prev = self.headings[i - 1]
                h_next = self.headings[i]
            else:
                break
            dwell = self.departures[i] - self.arrivals[i]
            ramp = abs(h_next - h_prev) / TURN_RATE
            start = self.arrivals[i] if dwell >= ramp else self.departures[i]
            if t <= start:
                return h_prev
            if t < start + ramp:
                frac = (t - start) / ramp if ramp > 0 else 1.0
                return h_prev + frac * (h_next - h_prev)
            yaw = h_next
        return yaw

    def yaw_rate(self, t: float, h: float = 1e-3) -> float:
        return (self.yaw(t + h) - self.yaw(t - h)) / (2 * h)

    def sample_landmarks(self, period: float = 0.5, t_start: float = 0.0,
                         t_end: float | None = None) -> list[Landmark]:
        """Dense ground truth as landmark rows, for evaluation."""
        t_end = self.t_end if t_end is None else t_end
        ts = np.arange(math.ceil(t_start / period), math.floor(t_end / period) + 1) * period
        out = []
        for t in ts:
            p = self.position(t)
            out.append(Landmark(float(t), float(p[0]), float(p[1]), self.floor_at(t)))
        return out

    def waypoint_landmarks(self) -> list[Landmark]:
        """Landmarks at every waypoint arrival and departure."""
        out = []
        for i, w in enumerate(self.waypoints):
            out.append(Landmark(self.arrivals[i], w.x, w.y, w.floor))
            if self.departures[i] > self.arrivals[i]:
                out.append(Landmark(self.departures[i], w.x, w.y, w.floor))
        return out


@dataclass
class SimResult:
    logfile: str
    truth: GroundTruth
    landmarks: list[Landmark]

    def write(self, log_path, truth_path=None, period: float = 0.5) -> None:
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write(self.logfile)
        if truth_path is not None:
            write_truth_csv(truth_path, self.truth.sample_landmarks(period))


def write_truth_csv(path, landmarks: list[Landmark]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,floor\n")
        for lm in landmarks:
            fh.write(f"{lm.timestamp:.9g},{lm.x:.9g},{lm.y:.9g},{lm.floor}\n")


def read_truth_csv(path) -> list[Landmark]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    return [Landmark(float(r["t"]), float(r["x"]), float(r["y"]), int(r["floor"]))
            for r in data]


def simulate_track(scenario: SimScenario) -> SimResult:
    """Produce a logfile, its analytic ground truth and the waypoint landmarks.

    Deterministic for a fixed scenario seed: the same scenario yields a
    bit-identical logfile.
    """
    truth = GroundTruth(scenario.waypoints, scenario.speed)
    rng = np.random.default_rng(scenario.rng_seed)
    rate = scenario.rate
    dt = 1.0 / rate
    # recording continues a little past the last waypoint so landmarks are
    # interior to every resampled channel
    n = int(math.floor((truth.t_end + TAIL_S) * rate)) + 1
    times = np.arange(n) * dt
    noise = scenario.noise

    lines: list[tuple[float, int, str]] = []

    def emit(t, order, text):
        lines.append((t, order, text))

    emit(0.0, -1, "% fusetrack simulated trace")
    emit(0.0, -1, f"% waypoints={len(scenario.waypoints)} speed={scenario.speed}")

    walking = np.asarray([truth.walking(t) for t in times])
    seg_start = np.asarray([truth.segment_start(t) for t in times])
    yaw = np.asarray([truth.yaw(t) for t in times])
    yaw_rate = np.asarray([truth.yaw_rate(t) for t in times])
    floor_cont = np.asarray([truth.floor_continuous(t) for t in times])

    f_step = scenario.step_frequency
    osc = WALK_AMPLITUDE * np.sin(2 * math.pi * f_step * (times - seg_start)) * walking
    acce = np.column_stack([
        rng.normal(0.0, noise.acce, n),
        rng.normal(0.0, noise.acce, n),
        GRAVITY + osc + rng.normal(0.0, noise.acce, n),
    ])
    gyro = np.column_stack([
        rng.normal(0.0, noise.gyro, n),
        rng.normal(0.0, noise.gyro, n),
        yaw_rate + rng.normal(0.0, noise.gyro, n),
    ])
    # the device-reported heading carries the slowly wandering bias; the
    # magnetometer is rendered consistently with it
    yaw_bias = np.cumsum(rng.normal(0.0, noise.yaw_drift_rate / math.sqrt(rate), n))
    yaw_rep = yaw + yaw_bias
    magn = np.column_stack([
        MAG_FIELD_UT * np.cos(-yaw_rep) + rng.normal(0.0, noise.magn, n),
        MAG_FIELD_UT * np.sin(-yaw_rep) + rng.normal(0.0, noise.magn, n),
        rng.normal(0.0, noise.magn, n),
    ])
    pressure = (P0_HPA - HPA_PER_M * FLOOR_HEIGHT_M * floor_cont
                + rng.normal(0.0, noise.pressure, n))
    ahrs_yaw = np.mod(yaw_rep + rng.normal(0.0, noise.yaw, n) + math.pi,
                      2 * math.pi) - math.pi
    ahrs_pitch = rng.normal(0.0, noise.yaw, n)
    ahrs_roll = rng.normal(0.0, noise.yaw, n)

    for i, t in enumerate(times):
        ts = f"{t:.6f}"
        emit(t, 0, f"ACCE;{ts};{ts};{acce[i,0]:.6f};{acce[i,1]:.6f};{acce[i,2]:.6f}")
        emit(t, 1, f"GYRO;{ts};{ts};{gyro[i,0]:.6f};{gyro[i,1]:.6f};{gyro[i,2]:.6f}")
        emit(t, 2, f"MAGN;{ts};{ts};{magn[i,0]:.6f};{magn[i,1]:.6f};{magn[i,2]:.6f}")
        emit(t, 3, f"AHRS;{ts};{ts};{ahrs_yaw[i]:.6f};{ahrs_pitch[i]:.6f};{ahrs_roll[i]:.6f}")
        if i % 5 == 0:
            emit(t, 4, f"PRES;{ts};{ts};{pressure[i]:.6f}")

    # WiFi scans every wifi_period seconds, log-distance path loss with
    # Gaussian shadowing; readings below the sensitivity floor are dropped
    t_scan = scenario.wifi_period / 2.0
    while t_scan <= truth.t_end + TAIL_S:
        pos = truth.position(t_scan)
        fl = truth.floor_continuous(t_scan)
        ts = f"{t_scan:.6f}"
        for j, ap in enumerate(scenario.ap_layout):
            d = math.sqrt(
                (pos[0] - ap.x) ** 2 + (pos[1] - ap.y) ** 2
                + (FLOOR_HEIGHT_M * (fl - ap.floor)) ** 2
            )
            rss = (ap.tx_power
                   - 10.0 * PATH_LOSS_EXPONENT * math.log10(max(d, 1.0))
                   + rng.normal(0.0, noise.rss))
            if rss < RSS_DROP_DBM:
                continue
            rss = min(0.0, rss)
            emit(t_scan, 5 + j, f"WIFI;{ts};{ts};ap{j:03d};{rss:.2f}")
        t_scan += scenario.wifi_period

    landmarks = truth.waypoint_landmarks()
    for k, lm in enumerate(landmarks):
        ts = f"{lm.timestamp:.6f}"
        emit(lm.timestamp, 1000 + k, f"POSI;{ts};{k};{lm.x:.6f};{lm.y:.6f};{lm.floor}")

    lines.sort(key=lambda e: (e[0], e[1]))
    text = "\n".join(l for _, _, l in lines) + "\n"
    return SimResult(text, truth, landmarks)
