"""Fixed-size window inputs for the displacement model.

Two framing modes: RAW 12x50 frames (accelerometer, gyroscope and
magnetometer axes plus per-sensor magnitude, 1 s at 50 Hz) and 50x50
recurrence-plot frames computed over the joint standardized 12-dimensional
state of each window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, MissingChannelError, ShapeError
from .ingest import SensorStream

log = logging.getLogger(__name__)

RAW = "raw"
RP = "rp"

WINDOW_WIDTH = 50

#: row order of RAW frames
ROW_ORDER = (
    "acce_x", "acce_y", "acce_z", "acce_mag",
    "gyro_x", "gyro_y", "gyro_z", "gyro_mag",
    "magn_x", "magn_y", "magn_z", "magn_mag",
)

EUCLIDEAN = "euclidean"
MAX = "max"


@dataclass(frozen=True)
class RecurrenceConfig:
    """Recurrence threshold and norm.

    ``epsilon=None`` selects the per-window adaptive default: the median
    pairwise distance between standardized state vectors.
    """

    epsilon: float | None = None
    norm: str = EUCLIDEAN

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.norm not in (EUCLIDEAN, MAX):
            raise ConfigError(f"unknown norm '{self.norm}'")


@dataclass
class SensorWindow:
    """One model input frame.

    ``data`` is (12, width) in RAW mode or (width, width) in RP mode.
    ``stride_s`` is the spacing to the next window, carried so downstream
    labeling knows which time span a displacement target should cover.
    ``yaw_center`` is the device heading at the center sample when the source
    stream had one.
    """

    mode: str
    data: np.ndarray
    t_center: float
    offset: int = 0
    stride_s: float = 1.0
    yaw_center: float | None = None


def magnitude_channels(stream: SensorStream) -> SensorStream:
    """Augment a 9-axis stream with acce_mag, gyro_mag and magn_mag."""
    extra = {}
    for sensor in ("acce", "gyro", "magn"):
        axes = []
        for axis in "xyz":
            name = f"{sensor}_{axis}"
            if not stream.has_channel(name):
                raise MissingChannelError(f"missing axial channel '{name}'")
            axes.append(stream.channel(name))
        extra[f"{sensor}_mag"] = np.sqrt(axes[0] ** 2 + axes[1] ** 2 + axes[2] ** 2)
    return stream.with_channels(extra)


def make_windows(
    stream: SensorStream,
    width: int = WINDOW_WIDTH,
    stride: int | None = None,
) -> list[SensorWindow]:
    """Slide a window of ``width`` samples over the stream at ``stride``.

    Rows follow :data:`ROW_ORDER`; values are copied bit-identical from the
    stream. The trailing partial window is dropped; a stream shorter than the
    window yields an empty list.
    """
    if stride is None:
        stride = width
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    for name in ROW_ORDER:
        if not stream.has_channel(name):
            raise MissingChannelError(
                f"missing channel '{name}' (run magnitude_channels first?)"
            )
    n = stream.length
    if n < width:
        log.warning("stream of %d samples shorter than window width %d", n, width)
        return []
    rows = np.stack([stream.channel(name) for name in ROW_ORDER])
    yaw = stream.channels.get("yaw")
    windows = []
    stride_s = stride / stream.rate
    for offset in range(0, n - width + 1, stride):
        data = rows[:, offset:offset + width].copy()
        t_center = stream.t0 + (offset + width / 2) / stream.rate
        yaw_center = float(yaw[offset + width // 2]) if yaw is not None else None
        windows.append(
            SensorWindow(
                mode=RAW,
                data=data,
                t_center=t_center,
                offset=offset,
                stride_s=stride_s,
                yaw_center=yaw_center,
            )
        )
    return windows


def standardize_rows(data: np.ndarray) -> np.ndarray:
    """Per-row zero mean, unit variance; zero-variance rows are left at zero."""
    mean = data.mean(axis=1, keepdims=True)
    std = data.std(axis=1, keepdims=True)
    out = data - mean
    # scaled threshold so constant rows land exactly at zero despite fp noise
    nonzero = std[:, 0] > 1e-12 * np.maximum(1.0, np.abs(mean[:, 0]))
    out[nonzero] /= std[nonzero]
    out[~nonzero] = 0.0
    return out


def pairwise_column_distances(data: np.ndarray, norm: str = EUCLIDEAN) -> np.ndarray:
    """Distance matrix between the columns of ``data`` under the given norm."""
    cols = np.ascontiguousarray(data.T)
    metric = {"euclidean": "euclidean", "max": "chebyshev"}[norm]
    return cdist(cols, cols, metric=metric)


def recurrence_matrix(window: SensorWindow, cfg: RecurrenceConfig | None = None) -> SensorWindow:
    """Recurrence-plot frame for a RAW window.

    Rows are standardized per window, then every pair of column state vectors
    is scored with the ramp ``clamp(1 - d/epsilon, 0, 1)``: 1 for recurring
    (identical) states, 0 beyond the threshold distance. The result is
    symmetric for symmetric norms, has a unit diagonal, and all entries lie in
    [0, 1].
    """
    if cfg is None:
        cfg = RecurrenceConfig()
    if window.mode != RAW:
        raise ShapeError(f"recurrence_matrix expects a RAW window, got '{window.mode}'")
    z = standardize_rows(np.asarray(window.data, dtype=float))
    d = pairwise_column_distances(z, cfg.norm)
    eps = cfg.epsilon
    if eps is None:
        iu = np.triu_indices_from(d, k=1)
        eps = float(np.median(d[iu])) if iu[0].size else 0.0
        if eps <= 0:
            eps = 1.0  # constant window: any threshold gives the all-ones plot
    r = np.clip(1.0 - d / eps, 0.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return replace(window, mode=RP, data=r)
