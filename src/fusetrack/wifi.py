"""WiFi positioning: radiomap construction, weighted k-NN, and a
semi-supervised variational autoencoder regressor.

Scans carry no position of their own; fingerprints get labeled by evaluating
the pseudo-label trajectory of their track at the scan time. Tracks without a
trajectory contribute unlabeled fingerprints, which the VAE still uses for
reconstruction-based regularization.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DictionaryError,
    EmptyMapError,
    InsufficientDataError,
    ValidationError,
)
from .ingest import RSS_FLOOR_DBM, WifiScan
from .labels import TrackTrajectory
from .neuralcore import (
    Adam,
    Dense,
    Param,
    Relu,
    finite_difference_check,
    l2_displacement_grad,
    l2_displacement_loss,
)

log = logging.getLogger(__name__)


def normalize_rss(rss: np.ndarray) -> np.ndarray:
    """Map dBm in [-110, 0] onto [0, 1]."""
    return (np.asarray(rss, dtype=float) - RSS_FLOOR_DBM) / (-RSS_FLOOR_DBM)


def denormalize_rss(unit: np.ndarray) -> np.ndarray:
    return np.asarray(unit, dtype=float) * (-RSS_FLOOR_DBM) + RSS_FLOOR_DBM


@dataclass
class Fingerprint:
    """Dense RSS vector over the map's AP dictionary, optionally positioned."""

    timestamp: float
    rss: np.ndarray
    x: float | None = None
    y: float | None = None
    floor: int | None = None
    track: str = ""

    @property
    def labeled(self) -> bool:
        return self.x is not None and self.y is not None

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass
class RadioMap:
    ap_ids: list[str]
    fingerprints: list[Fingerprint] = field(default_factory=list)

    @property
    def labeled_fraction(self) -> float:
        if not self.fingerprints:
            return 0.0
        return sum(f.labeled for f in self.fingerprints) / len(self.fingerprints)

    def labeled(self) -> list[Fingerprint]:
        return [f for f in self.fingerprints if f.labeled]

    def matrix(self) -> np.ndarray:
        return np.stack([f.rss for f in self.fingerprints])

    def to_csv(self, path) -> None:
        """Persist as ``t,x,y,floor,labeled,<ap...>`` with empty cells for
        unlabeled positions."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "floor", "labeled"] + list(self.ap_ids))
            for f in self.fingerprints:
                if f.labeled:
                    row = [f"{f.timestamp:.9g}", f"{f.x:.9g}", f"{f.y:.9g}",
                           f.floor if f.floor is not None else "", 1]
                else:
                    row = [f"{f.timestamp:.9g}", "", "", "", 0]
                writer.writerow(row + [f"{v:.9g}" for v in f.rss])

    @classmethod
    def from_csv(cls, path) -> "RadioMap":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            ap_ids = header[5:]
            fingerprints = []
            for row in reader:
                labeled = row[4] == "1"
                rss = np.asarray([float(v) for v in row[5:]], dtype=float)
                if labeled:
                    floor = int(row[3]) if row[3] != "" else None
                    fp = Fingerprint(float(row[0]), rss, float(row[1]),
                                     float(row[2]), floor)
                else:
                    fp = Fingerprint(float(row[0]), rss)
                fingerprints.append(fp)
        return cls(ap_ids, fingerprints)


def vectorize_scan(scan: WifiScan, ap_ids: list[str]) -> np.ndarray:
    """Dense RSS vector over the dictionary; unseen APs get ``RSS_FLOOR_DBM``.

    APs in the scan that are not in the dictionary are ignored.
    """
    index = {ap: i for i, ap in enumerate(ap_ids)}
    vec = np.full(len(ap_ids), RSS_FLOOR_DBM)
    for ap, rss in scan.readings.items():
        i = index.get(ap)
        if i is not None:
            vec[i] = min(0.0, max(RSS_FLOOR_DBM, rss))
    return vec


def build_radiomap(
    scans_by_track: dict[str, list[WifiScan]],
    trajectories: dict[str, TrackTrajectory],
) -> RadioMap:
    """Assemble fingerprints from per-track scans.

    The AP dictionary is the union of all seen APs, sorted by id. Scans whose
    timestamp falls inside their track's trajectory span become labeled at the
    interpolated position; all others stay unlabeled.
    """
    all_aps: set[str] = set()
    total = 0
    for scans in scans_by_track.values():
        for scan in scans:
            all_aps.update(scan.readings)
            total += 1
    if total == 0:
        raise EmptyMapError("no WiFi scans to build a radiomap from")
    ap_ids = sorted(all_aps)
    fingerprints: list[Fingerprint] = []
    for track, scans in scans_by_track.items():
        traj = trajectories.get(track)
        for scan in scans:
            vec = vectorize_scan(scan, ap_ids)
            if traj is not None and traj.t_start <= scan.timestamp <= traj.t_end:
                pos = traj.position(scan.timestamp)
                fingerprints.append(Fingerprint(
                    scan.timestamp, vec, float(pos[0]), float(pos[1]),
                    traj.floor_at(scan.timestamp), track,
                ))
            else:
                fingerprints.append(Fingerprint(scan.timestamp, vec, track=track))
    return RadioMap(ap_ids, fingerprints)


@dataclass
class PositionFix:
    """An absolute position estimate with its uncertainty."""

    position: np.ndarray
    sigma: float
    floor: int | None = None
    low_confidence: bool = False

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


#: floor on the inverse-distance denominator; caps a neighbor weight at 100
KNN_MIN_DISTANCE = 0.01
#: k-NN spread is never reported tighter than this, meters
KNN_SIGMA_FLOOR = 1.0


def knn_predict(radiomap: RadioMap, scan: WifiScan, k: int = 5) -> PositionFix:
    """Inverse-distance weighted k nearest labeled fingerprints.

    The RSS distance is Euclidean over the dense sentinel-filled vectors, so
    only APs present in either vector contribute. The returned sigma is the
    weighted spread of the neighbors about the estimate (at least 1 m) and
    feeds the fusion filter's measurement noise.
    """
    labeled = radiomap.labeled()
    if len(labeled) < k:
        raise InsufficientDataError(
            f"k-NN needs {k} labeled fingerprints, map has {len(labeled)}"
        )
    query = vectorize_scan(scan, radiomap.ap_ids)
    rss = np.stack([f.rss for f in labeled])
    dist = np.sqrt(((rss - query) ** 2).sum(axis=1))
    order = np.argsort(dist, kind="stable")[:k]
    weights = 1.0 / np.maximum(dist[order], KNN_MIN_DISTANCE)
    points = np.stack([labeled[i].position for i in order])
    position = (weights[:, None] * points).sum(axis=0) / weights.sum()
    floors: dict[int, float] = {}
    for i, w in zip(order, weights):
        fl = labeled[i].floor
        if fl is not None:
            floors[fl] = floors.get(fl, 0.0) + w
    floor = max(floors, key=floors.get) if floors else None
    spread = np.sqrt(
        (weights * ((points - position) ** 2).sum(axis=1)).sum() / weights.sum()
    )
    return PositionFix(position, max(float(spread), KNN_SIGMA_FLOOR), floor)


@dataclass
class VaeConfig:
    latent_dim: int = 8
    encoder_width: int = 64
    decoder_width: int = 64
    beta_recon: float = 1.0
    beta_kl: float = 0.1
    lr: float = 1e-3
    epochs: int = 300
    rng_seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.latent_dim < 2:
            raise ConfigError(f"latent_dim must be >= 2, got {self.latent_dim}")
        if self.epochs < 1 or self.lr <= 0:
            raise ConfigError("epochs >= 1 and lr > 0 required")


class WifiVae:
    """Gaussian-latent autoencoder with a position regression head on mu.

    The encoder maps normalized RSS to (mu, log variance); a reparameterized
    sample feeds the decoder, whose reconstruction error regularizes over all
    fingerprints, labeled or not. The regression head reads mu (deterministic
    at inference) and is trained with the mean-Euclidean displacement loss on
    labeled fingerprints only.
    """

    def __init__(self, n_aps: int, cfg: VaeConfig):
        self.n_aps = n_aps
        self.cfg = cfg
        rng = np.random.default_rng(cfg.rng_seed)
        self.enc_hidden = Dense(n_aps, cfg.encoder_width, rng)
        self.enc_mu = Dense(cfg.encoder_width, cfg.latent_dim, rng)
        self.enc_logvar = Dense(cfg.encoder_width, cfg.latent_dim, rng)
        self.dec_hidden = Dense(cfg.latent_dim, cfg.decoder_width, rng)
        self.dec_out = Dense(cfg.decoder_width, n_aps, rng)
        self.reg_head = Dense(cfg.latent_dim, 2, rng)
        self._relu_e = Relu()
        self._relu_d = Relu()
        self.sigma_cal: float = float("nan")  # validation RMSE, set by training
        # the regression head works in standardized coordinates; training
        # fits these from the labeled positions
        self.pos_mean = np.zeros(2)
        self.pos_scale = 1.0

    def normalize_targets(self, positions: np.ndarray) -> np.ndarray:
        return (positions - self.pos_mean) / self.pos_scale

    def denormalize_targets(self, normalized: np.ndarray) -> np.ndarray:
        return normalized * self.pos_scale + self.pos_mean

    def params(self) -> list[Param]:
        out = []
        for name, layer in (
            ("enc_hidden", self.enc_hidden), ("enc_mu", self.enc_mu),
            ("enc_logvar", self.enc_logvar), ("dec_hidden", self.dec_hidden),
            ("dec_out", self.dec_out), ("reg_head", self.reg_head),
        ):
            for p in layer.params():
                p.name = f"{name}.{p.name.split('.')[-1]}"
                out.append(p)
        return out

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad[...] = 0.0

    def encode(self, x_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        h_pre, ctx_h = self.enc_hidden.forward(x_unit)
        h, ctx_r = self._relu_e.forward(h_pre)
        mu, ctx_mu = self.enc_mu.forward(h)
        logvar, ctx_lv = self.enc_logvar.forward(h)
        return mu, logvar, (ctx_h, ctx_r, ctx_mu, ctx_lv)

    def losses(self, x_unit, noise, labeled_mask, targets):
        """Forward pass returning (total, parts dict, cache)."""
        mu, logvar, enc_ctx = self.encode(x_unit)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * noise
        hd_pre, ctx_hd = self.dec_hidden.forward(z)
        hd, ctx_rd = self._relu_d.forward(hd_pre)
        recon, ctx_out = self.dec_out.forward(hd)
        pos, ctx_reg = self.reg_head.forward(mu)

        n = x_unit.shape[0]
        l_recon = float(((recon - x_unit) ** 2).mean())
        kl = float((-0.5 * (1.0 + logvar - mu ** 2 - np.exp(logvar))).sum(axis=1).mean())
        if labeled_mask.any():
            l_reg = l2_displacement_loss(pos[labeled_mask], targets[labeled_mask])
        else:
            l_reg = 0.0
        total = l_reg + self.cfg.beta_recon * l_recon + self.cfg.beta_kl * kl
        parts = {"reg": l_reg, "recon": l_recon, "kl": kl}
        cache = (x_unit, noise, labeled_mask, targets, mu, logvar, sigma, z,
                 enc_ctx, ctx_hd, ctx_rd, ctx_out, ctx_reg, recon, pos)
        return total, parts, cache

    def backward(self, cache) -> None:
        (x_unit, noise, labeled_mask, targets, mu, logvar, sigma, z,
         enc_ctx, ctx_hd, ctx_rd, ctx_out, ctx_reg, recon, pos) = cache
        n = x_unit.shape[0]
        # reconstruction path
        drecon = self.cfg.beta_recon * 2.0 * (recon - x_unit) / recon.size
        dhd = self._relu_d.backward(self.dec_out.backward(drecon, ctx_out), ctx_rd)
        dz = self.dec_hidden.backward(dhd, ctx_hd)
        # reparameterization: z = mu + sigma * noise
        dmu = dz.copy()
        dlogvar = dz * noise * 0.5 * sigma
        # KL divergence to the unit Gaussian prior
        dmu += self.cfg.beta_kl * mu / n
        dlogvar += self.cfg.beta_kl * (-0.5) * (1.0 - np.exp(logvar)) / n
        # regression head on mu
        if labeled_mask.any():
            dpos = np.zeros_like(pos)
            dpos[labeled_mask] = l2_displacement_grad(pos[labeled_mask],
                                                      targets[labeled_mask])
            dmu += self.reg_head.backward(dpos, ctx_reg)
        # encoder
        ctx_h, ctx_r, ctx_mu, ctx_lv = enc_ctx
        dh = self.enc_mu.backward(dmu, ctx_mu) + self.enc_logvar.backward(dlogvar, ctx_lv)
        self.enc_hidden.backward(self._relu_e.backward(dh, ctx_r), ctx_h)

    def predict_unit(self, x_unit: np.ndarray) -> np.ndarray:
        """Positions (meters) from normalized RSS rows, deterministic through mu."""
        mu, _, _ = self.encode(np.atleast_2d(x_unit))
        pos, _ = self.reg_head.forward(mu)
        return self.denormalize_targets(pos)

    def gradient_check(self, x_unit, labeled_mask, targets, noise,
                       tolerance: float = 1e-4, seed: int = 0):
        """Finite-difference check of the full objective with frozen noise."""

        def loss_fn():
            total, _, _ = self.losses(x_unit, noise, labeled_mask, targets)
            return total

        def grad_fn():
            self.zero_grad()
            _, _, cache = self.losses(x_unit, noise, labeled_mask, targets)
            self.backward(cache)

        return finite_difference_check(self.params(), loss_fn, grad_fn,
                                       tolerance=tolerance, seed=seed)


def train_vae(radiomap: RadioMap, cfg: VaeConfig | None = None) -> WifiVae:
    """Train the semi-supervised position regressor on a radiomap.

    Uses full-batch Adam with per-epoch reseeded latent noise. A seeded split
    of the labeled fingerprints provides the validation RMSE that calibrates
    the predictor's reported uncertainty.
    """
    cfg = cfg or VaeConfig()
    labeled = radiomap.labeled()
    if not labeled:
        raise InsufficientDataError("cannot train: radiomap has no labeled fingerprints")
    model = WifiVae(len(radiomap.ap_ids), cfg)
    x_unit = normalize_rss(radiomap.matrix())
    labeled_mask = np.asarray([f.labeled for f in radiomap.fingerprints])
    positions = np.zeros((len(radiomap.fingerprints), 2))
    for i, f in enumerate(radiomap.fingerprints):
        if f.labeled:
            positions[i] = f.position
    labeled_pos = positions[labeled_mask]
    model.pos_mean = labeled_pos.mean(axis=0)
    model.pos_scale = max(float(labeled_pos.std()), 1.0)
    targets = model.normalize_targets(positions)
    targets[~labeled_mask] = 0.0

    # seeded holdout of labeled rows for sigma calibration
    labeled_idx = np.flatnonzero(labeled_mask)
    rng = np.random.default_rng((cfg.rng_seed, 99))
    shuffled = rng.permutation(labeled_idx)
    n_val = max(1, int(round(cfg.val_fraction * len(labeled_idx)))) \
        if len(labeled_idx) >= 5 else 0
    val_idx = shuffled[:n_val]
    train_mask = labeled_mask.copy()
    train_mask[val_idx] = False
    if not train_mask.any():
        train_mask = labeled_mask
        val_idx = labeled_idx

    adam = Adam(model.params(), lr=cfg.lr, weight_decay=0.0)
    for epoch in range(cfg.epochs):
        noise = np.random.default_rng((cfg.rng_seed, 3, epoch)).standard_normal(
            (x_unit.shape[0], cfg.latent_dim))
        total, parts, cache = model.losses(x_unit, noise, train_mask, targets)
        if not math.isfinite(total):
            raise ValidationError(f"VAE training diverged at epoch {epoch}")
        model.zero_grad()
        model.backward(cache)
        adam.step()

    eval_idx = val_idx if len(val_idx) else labeled_idx
    pred = model.predict_unit(x_unit[eval_idx])
    err2 = ((pred - positions[eval_idx]) ** 2).sum(axis=1)
    model.sigma_cal = max(float(np.sqrt(err2.mean())), 1e-6)
    return model


def vae_predict(model: WifiVae, scan: WifiScan, ap_ids: list[str]) -> PositionFix:
    """Deterministic position from the encoder mean.

    Scans with no visible AP produce a low-confidence fix with the calibrated
    sigma inflated threefold.
    """
    if len(ap_ids) != model.n_aps:
        raise DictionaryError(
            f"model expects {model.n_aps} APs, dictionary has {len(ap_ids)}"
        )
    vec = vectorize_scan(scan, ap_ids)
    empty = bool(np.all(vec == RSS_FLOOR_DBM))
    pos = model.predict_unit(normalize_rss(vec)[None, :])[0]
    sigma = model.sigma_cal * (3.0 if empty else 1.0)
    return PositionFix(pos, float(sigma), low_confidence=empty)
