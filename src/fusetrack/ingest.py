"""Logfile ingestion: parse raw sensor logs and resample onto a uniform clock.

The logfile is plain UTF-8 text, one record per line::

    KIND;app_ts;sensor_ts;v1;...;vn

where KIND is one of ACCE, GYRO, MAGN, PRES, WIFI, POSI, AHRS. Lines starting
with ``%`` are header comments and are skipped. Unknown kinds (e.g. BLUE,
GNSS, LIGH, SOUN) are skipped and counted into a single warning.

``app_ts`` (receipt time, seconds) is the canonical clock for every channel;
``sensor_ts`` is kept but otherwise unused.

A log is parsed by column. One pass files each line's payload text under its
kind, and each numeric kind is then converted by a single ``np.loadtxt``
call; WIFI lines, which carry an AP id, go through the per-record checks.
The result holds one table per kind, and resampling interpolates straight
from its columns. A file that the column path cannot take whole (a malformed
line, or a number spelled in a way ``float`` accepts and numpy does not,
such as ``1_000``) is parsed again line by line in file order. That path
names the first bad line in its :class:`LogParseError`.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentError,
    EmptyInputError,
    LogParseError,
    MissingChannelError,
    RangeError,
)

log = logging.getLogger(__name__)

ACCE = "ACCE"
GYRO = "GYRO"
MAGN = "MAGN"
PRES = "PRES"
WIFI = "WIFI"
POSI = "POSI"
AHRS = "AHRS"

#: payload arity per record kind (WIFI payload is ``(ap_id, rss)``)
PAYLOAD_ARITY = {ACCE: 3, GYRO: 3, MAGN: 3, AHRS: 3, PRES: 1, WIFI: 2, POSI: 3}

#: consecutive WIFI lines closer than this belong to one scan burst
WIFI_SCAN_GAP_S = 0.5

#: observable RSS floor; scan readings are clamped into [floor, 0] dBm
RSS_FLOOR_DBM = -110.0

DEFAULT_RATE_HZ = 50.0

#: the nine axial IMU channels every stream must provide
AXIAL_CHANNELS = (
    "acce_x", "acce_y", "acce_z",
    "gyro_x", "gyro_y", "gyro_z",
    "magn_x", "magn_y", "magn_z",
)

#: canonical channel order for CSV export
CSV_CHANNEL_ORDER = AXIAL_CHANNELS + (
    "acce_mag", "gyro_mag", "magn_mag", "pressure", "yaw",
)

#: resampled channel of each payload column, per numeric kind
_KIND_CHANNELS = {
    ACCE: ("acce_x", "acce_y", "acce_z"),
    GYRO: ("gyro_x", "gyro_y", "gyro_z"),
    MAGN: ("magn_x", "magn_y", "magn_z"),
    PRES: ("pressure",),
    AHRS: ("yaw",),
}

#: characters ``float`` rejects inside a number but numpy skips as whitespace
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True, eq=False)
class KindColumns:
    """Every record of one kind as columns, stably sorted by app timestamp.

    ``values`` has one row per record and one column per payload value: three
    axial readings for ACCE/GYRO/MAGN (SI units), yaw/pitch/roll radians for
    AHRS, pressure hPa for PRES, the RSS dBm for WIFI and ``(x, y, floor)``
    for POSI. ``ap_ids`` holds the access point of each WIFI row.
    """

    app_ts: np.ndarray
    sensor_ts: np.ndarray
    values: np.ndarray
    ap_ids: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.app_ts)

    def __eq__(self, other):
        if not isinstance(other, KindColumns):
            return NotImplemented
        return self.ap_ids == other.ap_ids and all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in ((self.app_ts, other.app_ts),
                         (self.sensor_ts, other.sensor_ts),
                         (self.values, other.values)))


@dataclass(frozen=True, eq=False)
class SensorLog:
    """A parsed logfile: the records of each kind present, as columns.

    ``kinds`` is ordered as a time-sorted log first shows each kind (ties in
    time: file order), which is the channel order of the resampled stream.
    ``len()`` is the number of records.
    """

    kinds: dict[str, KindColumns]

    def __len__(self) -> int:
        return sum(len(c) for c in self.kinds.values())

    def __eq__(self, other):
        if not isinstance(other, SensorLog):
            return NotImplemented
        return list(self.kinds) == list(other.kinds) and all(
            c == other.kinds[k] for k, c in self.kinds.items())

    @classmethod
    def from_records(cls, records) -> "SensorLog":
        """Build from ``(kind, app_ts, sensor_ts, payload)`` tuples in file order.

        ``payload`` is the tuple of payload values, ``(ap_id, rss)`` for WIFI.
        """
        groups: dict[str, tuple[list, list]] = {}
        for pos, (kind, app_ts, sensor_ts, payload) in enumerate(records):
            rows, positions = groups.setdefault(kind, ([], []))
            rows.append((app_ts, sensor_ts, payload))
            positions.append(pos)
        return _assemble({kind: (*_table(kind, rows), positions)
                          for kind, (rows, positions) in groups.items()})


def _table(kind: str, rows: list[tuple]) -> tuple[np.ndarray, list[str] | None]:
    """``(app_ts, sensor_ts, payload)`` rows of one kind as a float table.

    The table's columns are app_ts, sensor_ts and the numeric payload values;
    WIFI's AP ids are returned beside it.
    """
    if kind == WIFI:
        ap_ids = [payload[0] for _, _, payload in rows]
        table = [(app_ts, sensor_ts, payload[1]) for app_ts, sensor_ts, payload in rows]
        return np.array(table, dtype=float), ap_ids
    table = [(app_ts, sensor_ts, *payload) for app_ts, sensor_ts, payload in rows]
    return np.array(table, dtype=float), None


def _assemble(tables: dict[str, tuple]) -> SensorLog:
    """Sort each kind's table stably by app time and order the kinds.

    ``tables`` maps a kind to ``(table, ap_ids, positions)`` in file order,
    where ``positions`` place each row in the file. The kinds are ordered by
    their earliest app time, then by the file position of that row, which is
    the order in which a stable sort of all records first shows them.
    """
    kinds = {}
    first_seen = {}
    for kind, (table, ap_ids, positions) in tables.items():
        order = np.argsort(table[:, 0], kind="stable")
        table = table[order]
        labels = tuple(ap_ids[i] for i in order.tolist()) if ap_ids else ()
        kinds[kind] = KindColumns(table[:, 0], table[:, 1], table[:, 2:], labels)
        first_seen[kind] = (table[0, 0], positions[order[0]])
    return SensorLog({k: kinds[k] for k in sorted(kinds, key=first_seen.__getitem__)})


@dataclass(frozen=True)
class WifiScan:
    """One WiFi scan burst: AP id -> RSS dBm, clamped into [-110, 0]."""

    timestamp: float
    readings: dict[str, float]


@dataclass(frozen=True)
class Landmark:
    """Ground-truth position annotation (typically at a direction change)."""

    timestamp: float
    x: float
    y: float
    floor: int


@dataclass
class SensorStream:
    """Uniformly sampled, channel-aligned sensor data.

    All channels share one grid: sample ``i`` is at ``t0 + i / rate``.
    Streams are immutable by convention after construction and safe to share
    across concurrent readers.
    """

    rate: float
    t0: float
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) > 1:
            raise AlignmentError(f"channel lengths differ: {sorted(lengths)}")

    @property
    def length(self) -> int:
        if not self.channels:
            return 0
        return len(next(iter(self.channels.values())))

    @property
    def end(self) -> float:
        """Exclusive end time: ``t0 + length / rate``."""
        return self.t0 + self.length / self.rate

    @property
    def duration(self) -> float:
        return self.length / self.rate

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.length) / self.rate

    def has_channel(self, name: str) -> bool:
        return name in self.channels

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            raise MissingChannelError(f"stream has no channel '{name}'") from None

    def with_channels(self, extra: dict[str, np.ndarray]) -> "SensorStream":
        """New stream sharing this grid with additional channels."""
        merged = dict(self.channels)
        for name, values in extra.items():
            values = np.asarray(values, dtype=float)
            if len(values) != self.length:
                raise AlignmentError(
                    f"channel '{name}' has {len(values)} samples, stream has {self.length}"
                )
            merged[name] = values
        return SensorStream(rate=self.rate, t0=self.t0, channels=merged)

    def to_csv(self, path) -> None:
        """Export as ``t,<channels...>`` with channels in canonical order."""
        names = [c for c in CSV_CHANNEL_ORDER if c in self.channels]
        names += [c for c in sorted(self.channels) if c not in names]
        cols = [self.times()] + [self.channels[n] for n in names]
        data = np.column_stack(cols)
        header = ",".join(["t"] + names)
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.9g")


def parse_logfile(path) -> tuple[SensorLog, list[WifiScan], list[Landmark]]:
    """Parse a sensor logfile.

    Returns the records as per-kind columns sorted by app timestamp, WiFi
    lines grouped into scan bursts, and POSI lines as landmarks. Unknown kinds
    are skipped with one counted warning. Raises ``OSError`` if the file
    cannot be read, :class:`LogParseError` naming the first malformed line
    (a POSI floor that is not finite is malformed) or a file that is not
    UTF-8, and :class:`EmptyInputError` if no valid record was found.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise LogParseError(f"{path} is not valid UTF-8: {exc.reason} {bad!r}") from None
    try:
        sensor_log, skipped = _parse_by_column(text)
    except ValueError:
        sensor_log, skipped = _parse_by_line(text)
    if skipped:
        total = sum(skipped.values())
        log.warning(
            "skipped %d lines with unknown kinds: %s",
            total,
            ", ".join(f"{k}={n}" for k, n in sorted(skipped.items())),
        )
    if not len(sensor_log):
        raise EmptyInputError(f"no valid records in {path}")
    return sensor_log, group_wifi_scans(sensor_log), extract_landmarks(sensor_log)


def _parse_by_column(text: str) -> tuple[SensorLog, Counter]:
    """One pass files payloads by kind, then one conversion per numeric kind.

    Raises ``ValueError`` for anything irregular; the caller then parses the
    file line by line, which finds and names the first bad line.
    """
    if any(c in text for c in _NUMPY_ONLY_SPACES):
        raise ValueError("numpy would read a separator character as a space")
    payloads: dict[str, tuple[list, list]] = {kind: ([], []) for kind in PAYLOAD_ARITY}
    skipped: Counter[str] = Counter()
    # split on "\n" alone, as file iteration does; str.splitlines would
    # also break at \f, \v and \u2028, and so would miscount lines
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] == "%":
            continue
        kind, _, payload = line.partition(";")
        kind = kind.strip()
        bucket = payloads.get(kind)
        if bucket is None:
            skipped[kind] += 1
            continue
        bucket[0].append(payload)
        bucket[1].append(line_no)

    tables = {}
    for kind, (rows, line_nos) in payloads.items():
        if not rows:
            continue
        if kind == WIFI:
            table, ap_ids = _table(WIFI, [
                _parse_fields(WIFI, [WIFI, *row.split(";")], None) for row in rows])
        else:
            # loadtxt skips empty rows (and warns if all are); the shape
            # check below would catch a skip, this keeps the warning out
            if not all(rows):
                raise ValueError(f"{kind} record without values")
            table = np.loadtxt(rows, delimiter=";", comments=None, ndmin=2)
            ap_ids = None
            if table.shape != (len(rows), 2 + PAYLOAD_ARITY[kind]):
                raise ValueError(f"{kind} records need {PAYLOAD_ARITY[kind]} values")
            app_ts = table[:, 0]
            if not (np.isfinite(app_ts).all() and (app_ts >= 0).all()):
                raise ValueError("app_timestamp must be finite and non-negative")
            if kind == POSI and not np.isfinite(table[:, 4]).all():
                raise ValueError("POSI floor must be finite")
        tables[kind] = (table, ap_ids, line_nos)
    return _assemble(tables), skipped


def _parse_by_line(text: str) -> tuple[SensorLog, Counter]:
    """Check and convert each line in file order; the first bad one raises."""
    records = []
    skipped: Counter[str] = Counter()
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split(";")
        kind = parts[0].strip()
        if kind not in PAYLOAD_ARITY:
            skipped[kind] += 1
            continue
        records.append((kind, *_parse_fields(kind, parts, line_no)))
    return SensorLog.from_records(records), skipped


def _parse_fields(kind: str, parts: list[str], line_no: int | None) -> tuple:
    """``(app_ts, sensor_ts, payload)`` of one record split at ``;``."""
    arity = PAYLOAD_ARITY[kind]
    if len(parts) != 3 + arity:
        raise LogParseError(
            f"{kind} record needs {arity} values, got {len(parts) - 3}",
            line_no,
        )
    app_ts = _parse_float(parts[1], "app_timestamp", line_no)
    sensor_ts = _parse_float(parts[2], "sensor_timestamp", line_no)
    if not math.isfinite(app_ts) or app_ts < 0:
        raise LogParseError(
            f"app_timestamp must be finite and non-negative, got {parts[1]}",
            line_no,
        )
    if kind == WIFI:
        ap_id = parts[3].strip()
        if not ap_id:
            raise LogParseError("empty access point id", line_no)
        rss = _parse_float(parts[4], "rss", line_no)
        return app_ts, sensor_ts, (ap_id, rss)
    values = tuple(
        _parse_float(p, f"value {i + 1}", line_no) for i, p in enumerate(parts[3:])
    )
    if kind == POSI and not math.isfinite(values[2]):
        raise LogParseError(f"POSI floor must be finite, got {parts[5]}", line_no)
    return app_ts, sensor_ts, values


def _parse_float(text: str, what: str, line_no: int | None) -> float:
    try:
        return float(text)
    except ValueError:
        raise LogParseError(f"malformed {what}: {text!r}", line_no) from None


def group_wifi_scans(sensor_log: SensorLog) -> list[WifiScan]:
    """Group the time-sorted WIFI records into scan bursts.

    A new burst starts whenever the gap to the previous WIFI line is at least
    ``WIFI_SCAN_GAP_S``. Within a burst the last reading wins for a duplicated
    AP; readings are clamped into [RSS_FLOOR_DBM, 0].
    """
    wifi = sensor_log.kinds.get(WIFI)
    if wifi is None:
        return []
    scans: list[WifiScan] = []
    current: dict[str, float] = {}
    t_first = None
    t_prev = None
    for t, ap_id, rss in zip(wifi.app_ts.tolist(), wifi.ap_ids,
                             wifi.values[:, 0].tolist()):
        if t_prev is not None and t - t_prev >= WIFI_SCAN_GAP_S:
            scans.append(WifiScan(t_first, current))
            current = {}
            t_first = None
        if t_first is None:
            t_first = t
        current[ap_id] = min(0.0, max(RSS_FLOOR_DBM, rss))
        t_prev = t
    if current:
        scans.append(WifiScan(t_first, current))
    return scans


def extract_landmarks(sensor_log: SensorLog) -> list[Landmark]:
    """POSI records as landmarks, strictly increasing in time (ties: last wins)."""
    posi = sensor_log.kinds.get(POSI)
    if posi is None:
        return []
    landmarks: list[Landmark] = []
    for t, (x, y, floor) in zip(posi.app_ts.tolist(), posi.values.tolist()):
        lm = Landmark(t, x, y, int(round(floor)))
        if landmarks and lm.timestamp == landmarks[-1].timestamp:
            landmarks[-1] = lm
        else:
            landmarks.append(lm)
    return landmarks


def write_logfile(sensor_log: SensorLog, path=None) -> str:
    """Serialize a parsed log back to logfile text in time order.

    Parsing the text gives back an equal :class:`SensorLog`.
    """
    rows = []
    for rank, (kind, cols) in enumerate(sensor_log.kinds.items()):
        table = np.column_stack([cols.app_ts, cols.sensor_ts, cols.values]).tolist()
        for i, (app_ts, sensor_ts, *values) in enumerate(table):
            fields = [kind, repr(app_ts), repr(sensor_ts)]
            if cols.ap_ids:
                fields.append(cols.ap_ids[i])
            fields += [repr(v) for v in values]
            rows.append((app_ts, rank, i, ";".join(fields)))
    rows.sort()
    text = "\n".join(line for *_, line in rows) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def resample_stream(sensor_log: SensorLog, rate: float = DEFAULT_RATE_HZ) -> SensorStream:
    """Linearly interpolate every channel onto a uniform grid at ``rate`` Hz.

    The grid starts at the latest first-sample time across channels and ends
    at the earliest last-sample time, so every grid point is interpolated, not
    extrapolated. The nine axial IMU channels are required; ``pressure`` and
    ``yaw`` (from AHRS, unwrapped to a continuous angle) are included when
    present.
    """
    if rate <= 0:
        raise AlignmentError(f"rate must be positive, got {rate}")
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for kind, cols in sensor_log.kinds.items():
        for j, name in enumerate(_KIND_CHANNELS.get(kind, ())):
            series[name] = (cols.app_ts, cols.values[:, j])

    for name in AXIAL_CHANNELS:
        if name not in series:
            raise MissingChannelError(f"required channel '{name}' has no records")
    for name, (ts, _) in series.items():
        if len(ts) < 2:
            raise AlignmentError(f"channel '{name}' has fewer than 2 samples")

    t_start = max(float(ts[0]) for ts, _ in series.values())
    t_end = min(float(ts[-1]) for ts, _ in series.values())
    if t_end < t_start:
        raise AlignmentError(
            f"channels do not overlap in time (start {t_start}, end {t_end})"
        )
    n = int(math.floor((t_end - t_start) * rate + 1e-9)) + 1
    grid = t_start + np.arange(n) / rate

    channels = {}
    for name, (ts, values) in series.items():
        if name == "yaw":
            values = np.unwrap(values)
        channels[name] = np.interp(grid, ts, values)
    return SensorStream(rate=rate, t0=t_start, channels=channels)


def slice_stream(stream: SensorStream, t_a: float, t_b: float) -> SensorStream:
    """Contiguous sub-stream covering ``[t_a, t_b)``; rate preserved."""
    tol = 1e-9
    if not (stream.t0 - tol <= t_a < t_b <= stream.end + tol):
        raise RangeError(
            f"slice [{t_a}, {t_b}) outside stream [{stream.t0}, {stream.end})"
        )
    i0 = int(math.ceil((t_a - stream.t0) * stream.rate - tol))
    i1 = int(math.ceil((t_b - stream.t0) * stream.rate - tol))
    i0 = max(0, i0)
    i1 = min(stream.length, i1)
    channels = {name: v[i0:i1].copy() for name, v in stream.channels.items()}
    return SensorStream(rate=stream.rate, t0=stream.t0 + i0 / stream.rate,
                        channels=channels)
